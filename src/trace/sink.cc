#include "trace/sink.hh"

#include <string>

namespace rr::trace {

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::RunSegment:
        return "run";
      case EventKind::Switch:
        return "switch";
      case EventKind::FaultIssue:
        return "fault_issue";
      case EventKind::FaultComplete:
        return "fault_complete";
      case EventKind::Alloc:
        return "alloc";
      case EventKind::Free:
        return "free";
      case EventKind::Load:
        return "load";
      case EventKind::Unload:
        return "unload";
      case EventKind::Queue:
        return "queue";
      case EventKind::SchedulerPoll:
        return "poll";
      case EventKind::UnloadDecision:
        return "unload_decision";
      case EventKind::Instruction:
        return "instr";
      case EventKind::Barrier:
        return "barrier";
    }
    return "unknown";
}

std::string
eventToJsonLine(const TraceEvent &event)
{
    // Hand-rolled, not exp::JsonWriter: every field is a name, small
    // integer, or bool, so no escaping is ever needed, the record must
    // stay on one line, and the hot path stays allocation-light. Field
    // order is fixed — byte-identical traces for identical event
    // streams is part of the determinism contract.
    std::string line;
    line.reserve(160);
    line += "{\"ev\":\"";
    line += eventKindName(event.kind);
    line += "\",\"cycle\":";
    line += std::to_string(event.cycle);
    line += ",\"cycles\":";
    line += std::to_string(event.cycles);
    line += ",\"arch\":";
    line += std::to_string(event.arch);
    if (event.tid != TraceEvent::kNoThread) {
        line += ",\"tid\":";
        line += std::to_string(event.tid);
    }
    if (event.ctx != TraceEvent::kNoContext) {
        line += ",\"ctx\":";
        line += std::to_string(event.ctx);
    }
    if (event.regs != 0) {
        line += ",\"regs\":";
        line += std::to_string(event.regs);
    }
    if (event.aux != 0) {
        line += ",\"aux\":";
        line += std::to_string(event.aux);
    }
    if (event.kind == EventKind::Alloc) {
        line += ",\"ok\":";
        line += event.ok ? "true" : "false";
    }
    line += "}";
    return line;
}

std::string
traceJsonHeaderLine()
{
    return "{\"schema\":\"rr.trace.v1\"}";
}

StreamJsonSink::StreamJsonSink(std::ostream &out) : out_(out)
{
    out_ << traceJsonHeaderLine() << '\n';
}

void
StreamJsonSink::emit(const TraceEvent &event)
{
    out_ << eventToJsonLine(event) << '\n';
    ++emitted_;
}

void
StreamJsonSink::flush()
{
    out_.flush();
}

} // namespace rr::trace
