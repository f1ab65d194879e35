#include "trace/chrome_export.hh"

#include <set>

#include "exp/json_out.hh"

namespace rr::trace {

// The event records below are appended by hand rather than through
// exp::JsonWriter: they carry only fixed names and integers, one
// record per line, and the TRACE_*.json bytes are a contract
// (docs/TRACE.md). Labels, the only free text, go through jsonQuote.

namespace {

/** Viewer tid: simulated thread + 1; track 0 is the scheduler. */
uint64_t
viewerTid(const TraceEvent &event)
{
    return event.tid == TraceEvent::kNoThread
               ? 0
               : static_cast<uint64_t>(event.tid) + 1;
}

void
appendMeta(std::string &out, unsigned pid, const char *meta,
           uint64_t tid, bool with_tid, const std::string &name,
           bool &first)
{
    if (!first)
        out += ",\n";
    first = false;
    out += "  {\"name\":\"";
    out += meta;
    out += "\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    if (with_tid) {
        out += ",\"tid\":";
        out += std::to_string(tid);
    }
    out += ",\"args\":{\"name\":";
    out += exp::jsonQuote(name);
    out += "}}";
}

void
appendEvent(std::string &out, unsigned pid, const TraceEvent &event,
            bool &first)
{
    if (!first)
        out += ",\n";
    first = false;
    const bool slice = event.cycles > 0;
    out += "  {\"name\":\"";
    out += eventKindName(event.kind);
    out += "\",\"ph\":\"";
    out += slice ? "X" : "i";
    out += "\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(viewerTid(event));
    out += ",\"ts\":";
    out += std::to_string(event.cycle - event.cycles);
    if (slice) {
        out += ",\"dur\":";
        out += std::to_string(event.cycles);
    } else {
        out += ",\"s\":\"t\"";
    }
    out += ",\"args\":{";
    bool first_arg = true;
    const auto arg = [&](const char *key, uint64_t value) {
        if (!first_arg)
            out += ",";
        first_arg = false;
        out += "\"";
        out += key;
        out += "\":";
        out += std::to_string(value);
    };
    if (event.ctx != TraceEvent::kNoContext)
        arg("ctx", event.ctx);
    if (event.regs != 0)
        arg("regs", event.regs);
    if (event.aux != 0)
        arg("aux", event.aux);
    if (event.kind == EventKind::Alloc)
        arg("ok", event.ok ? 1 : 0);
    out += "}}";
}

} // namespace

std::string
exportChromeTrace(const std::vector<ChromeStream> &streams)
{
    std::string out;
    out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
           "\"rr.trace.chrome.v1\"},\n\"traceEvents\":[\n";
    bool first = true;
    unsigned pid = 0;
    for (const ChromeStream &stream : streams) {
        ++pid;
        std::string label = stream.process;
        if (stream.dropped > 0) {
            label += " (truncated, ";
            label += std::to_string(stream.dropped);
            label += " events dropped)";
        }
        appendMeta(out, pid, "process_name", 0, false, label, first);

        // One named track per simulated thread, in sorted id order
        // so the document is deterministic.
        std::set<uint64_t> tids;
        for (const TraceEvent &event : stream.events)
            tids.insert(viewerTid(event));
        for (const uint64_t tid : tids) {
            const std::string name =
                tid == 0 ? "scheduler"
                         : "thread " + std::to_string(tid - 1);
            appendMeta(out, pid, "thread_name", tid, true, name,
                       first);
        }

        for (const TraceEvent &event : stream.events)
            appendEvent(out, pid, event, first);
    }
    out += "\n]}\n";
    return out;
}

} // namespace rr::trace
