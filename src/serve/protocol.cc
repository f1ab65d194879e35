#include "serve/protocol.hh"

#include <algorithm>
#include <cmath>

#include "base/stats.hh"
#include "exp/json_in.hh"
#include "exp/json_out.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"

namespace rr::serve {

namespace {

[[noreturn]] void
reject(ErrorCode code, std::string message)
{
    throw ProtocolError{code, std::move(message)};
}

/** Reject members of @p object outside @p allowed. */
void
checkFields(const exp::JsonValue &object, const char *where,
            const std::vector<const char *> &allowed)
{
    for (const auto &[name, value] : object.members) {
        (void)value;
        bool known = false;
        for (const char *candidate : allowed)
            known = known || name == candidate;
        if (!known)
            reject(ErrorCode::BadRequest,
                   std::string("unknown field '") + where + "." +
                       name + "'");
    }
}

/** A member that, when present, must be a finite positive number. */
double
positiveNumber(const exp::JsonValue &object, const char *where,
               const char *name, double fallback)
{
    const exp::JsonValue *value = object.find(name);
    if (value == nullptr)
        return fallback;
    if (!value->isNumber() || !std::isfinite(value->number) ||
        value->number <= 0.0) {
        reject(ErrorCode::BadRequest,
               std::string("field '") + where + "." + name +
                   "' must be a positive number");
    }
    return value->number;
}

/** A member that, when present, must be an integer in [1, max]. */
unsigned
boundedUnsigned(const exp::JsonValue &object, const char *where,
                const char *name, unsigned fallback, unsigned max)
{
    const exp::JsonValue *value = object.find(name);
    if (value == nullptr)
        return fallback;
    if (!value->isNumber() || value->number < 1.0 ||
        value->number > static_cast<double>(max) ||
        value->number != std::floor(value->number)) {
        reject(ErrorCode::Limit,
               std::string("field '") + where + "." + name +
                   "' must be an integer in [1, " +
                   std::to_string(max) + "]");
    }
    return static_cast<unsigned>(value->number);
}

/** Sorted, deduplicated sweep list (or {fallback} when absent). */
std::vector<double>
sweepValues(const exp::JsonValue &object, const char *where,
            const char *name, double fallback)
{
    const exp::JsonValue *value = object.find(name);
    if (value == nullptr)
        return {fallback};
    if (!value->isArray() || value->elements.empty())
        reject(ErrorCode::BadRequest,
               std::string("field '") + where + "." + name +
                   "' must be a non-empty array of numbers");
    if (value->elements.size() > kMaxSweepValues)
        reject(ErrorCode::Limit,
               std::string("field '") + where + "." + name +
                   "' exceeds " + std::to_string(kMaxSweepValues) +
                   " values");
    std::vector<double> out;
    for (const exp::JsonValue &element : value->elements) {
        if (!element.isNumber() || !std::isfinite(element.number) ||
            element.number <= 0.0) {
            reject(ErrorCode::BadRequest,
                   std::string("field '") + where + "." + name +
                       "' must contain positive numbers");
        }
        out.push_back(element.number);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

Family
parseFamily(const exp::JsonValue &spec)
{
    const exp::JsonValue *value = spec.find("family");
    if (value == nullptr)
        return Family::Cache;
    if (!value->isString())
        reject(ErrorCode::BadRequest,
               "field 'spec.family' must be a string");
    const std::string &name = value->string;
    if (name == "cache")
        return Family::Cache;
    if (name == "sync")
        return Family::Sync;
    if (name == "deterministic")
        return Family::Deterministic;
    reject(ErrorCode::BadRequest,
           "field 'spec.family' must be one of cache, sync, "
           "deterministic; got '" +
               name + "'");
}

std::vector<mt::ArchKind>
parseArchs(const exp::JsonValue &spec)
{
    const exp::JsonValue *value = spec.find("archs");
    if (value == nullptr)
        return {mt::ArchKind::Flexible, mt::ArchKind::FixedHw};
    if (!value->isArray() || value->elements.empty())
        reject(ErrorCode::BadRequest,
               "field 'spec.archs' must be a non-empty array of "
               "architecture names");
    std::vector<mt::ArchKind> out;
    for (const exp::JsonValue &element : value->elements) {
        if (!element.isString())
            reject(ErrorCode::BadRequest,
                   "field 'spec.archs' must contain strings");
        if (element.string == "flexible")
            out.push_back(mt::ArchKind::Flexible);
        else if (element.string == "fixed")
            out.push_back(mt::ArchKind::FixedHw);
        else if (element.string == "add")
            out.push_back(mt::ArchKind::AddReloc);
        else
            reject(ErrorCode::BadRequest,
                   "field 'spec.archs' must name flexible, fixed, "
                   "or add; got '" +
                       element.string + "'");
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/** Append "name=value;" with shortest round-trip numbers. */
void
field(std::string &out, const char *name, double value)
{
    out += name;
    out += '=';
    out += exp::jsonNumber(value);
    out += ';';
}

void
field(std::string &out, const char *name, const std::string &value)
{
    out += name;
    out += '=';
    out += value;
    out += ';';
}

std::string
pointFields(const PointSpec &point)
{
    std::string out;
    field(out, "family", familyName(point.family));
    field(out, "threads", point.threads);
    field(out, "regs", point.numRegs);
    field(out, "min", point.minContextSize);
    field(out, "demand",
          exp::jsonNumber(point.regsLo) + ".." +
              exp::jsonNumber(point.regsHi));
    field(out, "fixedRegs", point.fixedContextRegs);
    return out;
}

std::string
joined(const std::vector<double> &values)
{
    std::string out;
    for (double value : values) {
        if (!out.empty())
            out += ',';
        out += exp::jsonNumber(value);
    }
    return out;
}

} // namespace

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::BadJson: return "bad-json";
      case ErrorCode::BadRequest: return "bad-request";
      case ErrorCode::BadSpec: return "bad-spec";
      case ErrorCode::Limit: return "limit";
      case ErrorCode::TooLarge: return "too-large";
      case ErrorCode::NotFound: return "not-found";
      case ErrorCode::MethodNotAllowed: return "method-not-allowed";
      case ErrorCode::OverCapacity: return "over-capacity";
      case ErrorCode::AuditFailure: return "audit-failure";
    }
    return "internal";
}

int
errorHttpStatus(ErrorCode code)
{
    switch (code) {
      case ErrorCode::BadJson:
      case ErrorCode::BadRequest:
      case ErrorCode::BadSpec:
      case ErrorCode::Limit:
        return 400;
      case ErrorCode::TooLarge: return 413;
      case ErrorCode::NotFound: return 404;
      case ErrorCode::MethodNotAllowed: return 405;
      case ErrorCode::OverCapacity: return 429;
      case ErrorCode::AuditFailure: return 500;
    }
    return 500;
}

std::string
errorDocument(const ProtocolError &error)
{
    exp::JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value("rr.serve.error.v1");
    w.key("code");
    w.value(errorCodeName(error.code));
    w.key("status");
    w.value(errorHttpStatus(error.code));
    w.key("message");
    w.value(error.message);
    w.endObject();
    return w.str() + "\n";
}

const char *
familyName(Family family)
{
    switch (family) {
      case Family::Cache: return "cache";
      case Family::Sync: return "sync";
      case Family::Deterministic: return "deterministic";
    }
    return "unknown";
}

ServeRequest
parseRequest(const std::string &body)
{
    std::string error;
    const auto doc = exp::parseJson(body, &error);
    if (!doc)
        reject(ErrorCode::BadJson, error);
    if (!doc->isObject())
        reject(ErrorCode::BadRequest,
               "request body must be a JSON object");
    checkFields(*doc, "request", {"spec", "sweep"});

    const exp::JsonValue *spec = doc->find("spec");
    if (spec == nullptr || !spec->isObject())
        reject(ErrorCode::BadRequest,
               "request requires a 'spec' object");
    checkFields(*spec, "spec",
                {"family", "runLength", "latency", "archs", "threads",
                 "numRegs", "minContextSize", "regsLo", "regsHi",
                 "fixedContextRegs", "seeds"});

    ServeRequest request;
    request.base.family = parseFamily(*spec);
    request.base.runLength =
        positiveNumber(*spec, "spec", "runLength", 32.0);
    request.base.latency =
        positiveNumber(*spec, "spec", "latency", 200.0);
    request.base.threads =
        boundedUnsigned(*spec, "spec", "threads", 64, kMaxThreads);
    request.base.numRegs =
        boundedUnsigned(*spec, "spec", "numRegs", 128, 1u << 16);
    request.base.minContextSize = boundedUnsigned(
        *spec, "spec", "minContextSize", 4, 1u << 16);
    request.base.regsLo =
        boundedUnsigned(*spec, "spec", "regsLo", 6, 1u << 16);
    request.base.regsHi =
        boundedUnsigned(*spec, "spec", "regsHi", 24, 1u << 16);
    request.base.fixedContextRegs = boundedUnsigned(
        *spec, "spec", "fixedContextRegs", 32, 1u << 16);
    request.seeds =
        boundedUnsigned(*spec, "spec", "seeds", 3, kMaxSeeds);
    request.archs = parseArchs(*spec);

    request.runLengths = {request.base.runLength};
    request.latencies = {request.base.latency};
    if (const exp::JsonValue *sweep = doc->find("sweep")) {
        if (!sweep->isObject())
            reject(ErrorCode::BadRequest,
                   "field 'sweep' must be an object");
        checkFields(*sweep, "sweep", {"runLengths", "latencies"});
        request.runLengths = sweepValues(*sweep, "sweep",
                                         "runLengths",
                                         request.base.runLength);
        request.latencies = sweepValues(*sweep, "sweep", "latencies",
                                        request.base.latency);
    }

    if (request.units() > kMaxUnits)
        reject(ErrorCode::Limit,
               "request expands to " +
                   std::to_string(request.units()) +
                   " simulations; the limit is " +
                   std::to_string(kMaxUnits));

    // Probe the SimulationSpec validator, so invalid settings (a
    // non-power-of-two minContextSize, a demand that cannot fit a
    // context, a cycle value out of range) fail here with a protocol
    // error instead of mid-batch. Run length and latency are each
    // checked against a range, so the smallest and the largest sweep
    // values cover every unit.
    const std::vector<double> &runs = request.runLengths;
    const std::vector<double> &lats = request.latencies;
    const bool swept = runs.size() > 1 || lats.size() > 1;
    for (mt::ArchKind arch : request.archs) {
        for (bool largest : {false, true}) {
            if (largest && !swept)
                break;
            SimUnit probe;
            probe.point = request.base;
            probe.point.runLength = largest ? runs.back() : runs.front();
            probe.point.latency = largest ? lats.back() : lats.front();
            probe.arch = arch;
            try {
                (void)makeSpec(probe).build();
            } catch (const mt::SpecError &e) {
                reject(ErrorCode::BadSpec, e.what());
            }
        }
    }
    return request;
}

std::string
canonicalKey(const ServeRequest &request)
{
    std::string out = pointFields(request.base);
    // The base point's R and L only matter through the sweep lists.
    field(out, "runs", joined(request.runLengths));
    field(out, "lats", joined(request.latencies));
    std::string archs;
    for (mt::ArchKind arch : request.archs) {
        if (!archs.empty())
            archs += ',';
        archs += mt::archName(arch);
    }
    field(out, "archs", archs);
    field(out, "seeds", request.seeds);
    return out;
}

std::string
unitKey(const SimUnit &unit)
{
    std::string out = pointFields(unit.point);
    field(out, "R", unit.point.runLength);
    field(out, "L", unit.point.latency);
    field(out, "arch", mt::archName(unit.arch));
    field(out, "seed", static_cast<double>(unit.seed));
    return out;
}

std::vector<SimUnit>
expandUnits(const ServeRequest &request)
{
    std::vector<SimUnit> units;
    units.reserve(request.units());
    for (double run : request.runLengths) {
        for (double latency : request.latencies) {
            for (mt::ArchKind arch : request.archs) {
                for (unsigned seed = 1; seed <= request.seeds;
                     ++seed) {
                    SimUnit unit;
                    unit.point = request.base;
                    unit.point.runLength = run;
                    unit.point.latency = latency;
                    unit.arch = arch;
                    unit.seed = seed;
                    units.push_back(unit);
                }
            }
        }
    }
    return units;
}

mt::SimulationSpec
makeSpec(const SimUnit &unit)
{
    const PointSpec &p = unit.point;
    // Bound the cycle values before any narrowing: past 2^64 a
    // double has no uint64_t value.
    if (!(p.runLength <= mt::kMaxCycles && p.latency <= mt::kMaxCycles))
        throw mt::SpecError(
            "runLength and latency must be at most 2^32 cycles (got " +
            exp::jsonNumber(p.runLength) + " and " +
            exp::jsonNumber(p.latency) + ")");
    mt::SimulationSpec spec;
    switch (p.family) {
      case Family::Cache:
        spec.cacheFaults(p.runLength,
                         static_cast<uint64_t>(p.latency));
        break;
      case Family::Sync:
        spec.syncFaults(p.runLength, p.latency);
        break;
      case Family::Deterministic:
        spec.deterministicFaults(
            static_cast<uint64_t>(p.runLength),
            static_cast<uint64_t>(p.latency));
        break;
    }
    spec.arch(unit.arch)
        .threads(p.threads)
        .numRegs(p.numRegs)
        .minContextSize(p.minContextSize)
        .fixedContextRegs(p.fixedContextRegs)
        .registerDemand(p.regsLo, p.regsHi)
        .seed(unit.seed);
    return spec;
}

std::string
resultDocument(const ServeRequest &request,
               const std::vector<UnitResult> &results)
{
    exp::ReportBuilder builder(
        "serve", "rrserve simulation result",
        exp::RunMeta{request.seeds, request.base.threads, false});
    builder.text("request " + canonicalKey(request));

    Table table({"family", "R", "L", "arch", "seeds", "efficiency",
                 "stddev", "ci95", "resident"});
    std::size_t index = 0;
    for (double run : request.runLengths) {
        for (double latency : request.latencies) {
            for (mt::ArchKind arch : request.archs) {
                RunningStats eff;
                RunningStats resident;
                for (unsigned seed = 0; seed < request.seeds;
                     ++seed, ++index) {
                    eff.add(results[index].efficiency);
                    resident.add(results[index].resident);
                }
                table.addRow(
                    {familyName(request.base.family),
                     exp::jsonNumber(run), exp::jsonNumber(latency),
                     mt::archName(arch), Table::num(request.seeds),
                     Table::num(eff.mean(), 6),
                     Table::num(eff.stddev(), 6),
                     Table::num(exp::ci95HalfWidth(eff.stddev(),
                                                   request.seeds),
                                6),
                     Table::num(resident.mean(), 3)});
            }
        }
    }
    builder.table("results", "central-window efficiency per point",
                  std::move(table));
    return builder.takeReport().toJson();
}

} // namespace rr::serve
