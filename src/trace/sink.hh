/**
 * @file
 * Trace sinks: where emitted events go (rr::trace).
 *
 * A simulator emits into a TraceSink through a Tracer handle
 * (tracer.hh); the sink decides retention. Provided sinks:
 *
 *  - VectorSink: unbounded in-memory record, for tests, audits that
 *    need replay, and the Chrome exporter;
 *  - StreamJsonSink: streaming JSON Lines ("rr.trace.v1" records,
 *    docs/TRACE.md) for rrsim --trace=FILE and offline tooling;
 *  - TeeSink: fan one emission stream out to two sinks (e.g. audit
 *    while capturing).
 *
 * Sinks are NOT thread-safe; the simulators are single-threaded and
 * the sweep harness gives every concurrent simulation its own sink.
 */

#ifndef RR_TRACE_SINK_HH
#define RR_TRACE_SINK_HH

#include <ostream>
#include <vector>

#include "trace/event.hh"

namespace rr::trace {

/** Receives the event stream of one simulation. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Record one event. */
    virtual void emit(const TraceEvent &event) = 0;

    /** Flush any buffered output (default: nothing to do). */
    virtual void flush() {}
};

/** Unbounded in-memory sink. */
class VectorSink : public TraceSink
{
  public:
    void emit(const TraceEvent &event) override
    {
        events_.push_back(event);
    }

    const std::vector<TraceEvent> &events() const { return events_; }
    std::vector<TraceEvent> takeEvents() { return std::move(events_); }

  private:
    std::vector<TraceEvent> events_;
};

/**
 * Streaming JSON Lines sink: one "rr.trace.v1" object per line,
 * written as events arrive (constant memory). The first line is a
 * header record carrying the schema id.
 */
class StreamJsonSink : public TraceSink
{
  public:
    /** @param out stream the records are written to (not owned). */
    explicit StreamJsonSink(std::ostream &out);

    void emit(const TraceEvent &event) override;
    void flush() override;

    /** Events written so far (excluding the header line). */
    uint64_t emitted() const { return emitted_; }

  private:
    std::ostream &out_;
    uint64_t emitted_ = 0;
};

/** Serialize one event as a single-line "rr.trace.v1" JSON object. */
std::string eventToJsonLine(const TraceEvent &event);

/** The header line a JSONL trace starts with. */
std::string traceJsonHeaderLine();

/** Duplicate the stream into two sinks (either may be null). */
class TeeSink : public TraceSink
{
  public:
    TeeSink(TraceSink *first, TraceSink *second)
        : first_(first), second_(second)
    {
    }

    void
    emit(const TraceEvent &event) override
    {
        if (first_ != nullptr)
            first_->emit(event);
        if (second_ != nullptr)
            second_->emit(event);
    }

    void
    flush() override
    {
        if (first_ != nullptr)
            first_->flush();
        if (second_ != nullptr)
            second_->flush();
    }

  private:
    TraceSink *first_;
    TraceSink *second_;
};

} // namespace rr::trace

#endif // RR_TRACE_SINK_HH
