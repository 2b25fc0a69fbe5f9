#include "serve/protocol.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "core/limits.hh"
#include "serve/json_in.hh"
#include "sim/json.hh"
#include "workloads/registry.hh"

namespace olight
{
namespace serve
{

const char *
toString(Cmd cmd)
{
    switch (cmd) {
      case Cmd::Ping: return "ping";
      case Cmd::Run: return "run";
      case Cmd::Sweep: return "sweep";
      case Cmd::Stats: return "stats";
      case Cmd::Drain: return "drain";
    }
    return "?";
}

namespace
{

bool
knownWorkload(const std::string &name)
{
    const auto &names = workloadNames();
    return std::find(names.begin(), names.end(), name) !=
           names.end();
}

/**
 * Field extraction helpers. Each returns false and fills @p why on
 * a type/range error; an absent field leaves the default in place
 * and succeeds.
 */
struct Fields
{
    const JsonValue &obj;
    std::string &why;
    std::set<std::string> seen{"cmd", "id"};

    bool
    u64(const char *key, std::uint64_t &out)
    {
        seen.insert(key);
        const JsonValue *v = obj.find(key);
        if (!v)
            return true;
        if (!v->asU64(out)) {
            why = std::string("field '") + key +
                  "' must be a non-negative integer";
            return false;
        }
        return true;
    }

    bool
    u32(const char *key, std::uint32_t &out)
    {
        std::uint64_t wide = out;
        if (!u64(key, wide))
            return false;
        if (wide > 0xffffffffull) {
            why = std::string("field '") + key +
                  "' exceeds 32 bits";
            return false;
        }
        out = std::uint32_t(wide);
        return true;
    }

    bool
    boolean(const char *key, bool &out)
    {
        seen.insert(key);
        const JsonValue *v = obj.find(key);
        if (!v)
            return true;
        if (!v->isBool()) {
            why = std::string("field '") + key +
                  "' must be a boolean";
            return false;
        }
        out = v->boolean;
        return true;
    }

    bool
    str(const char *key, std::string &out)
    {
        seen.insert(key);
        const JsonValue *v = obj.find(key);
        if (!v)
            return true;
        if (!v->isString()) {
            why = std::string("field '") + key +
                  "' must be a string";
            return false;
        }
        out = v->string;
        return true;
    }

    bool
    strList(const char *key, std::vector<std::string> &out)
    {
        seen.insert(key);
        const JsonValue *v = obj.find(key);
        if (!v)
            return true;
        if (!v->isArray()) {
            why = std::string("field '") + key +
                  "' must be an array of strings";
            return false;
        }
        out.clear();
        for (const JsonValue &item : v->array) {
            if (!item.isString()) {
                why = std::string("field '") + key +
                      "' must be an array of strings";
                return false;
            }
            out.push_back(item.string);
        }
        return true;
    }

    bool
    u32List(const char *key, std::vector<std::uint32_t> &out)
    {
        seen.insert(key);
        const JsonValue *v = obj.find(key);
        if (!v)
            return true;
        if (!v->isArray()) {
            why = std::string("field '") + key +
                  "' must be an array of integers";
            return false;
        }
        out.clear();
        for (const JsonValue &item : v->array) {
            std::uint64_t n = 0;
            if (!item.asU64(n) || n > 0xffffffffull) {
                why = std::string("field '") + key +
                      "' must be an array of 32-bit integers";
                return false;
            }
            out.push_back(std::uint32_t(n));
        }
        return true;
    }

    /** Strict vocabulary: a misspelled field is an error, not a
     *  silently applied default. */
    bool
    noUnknown()
    {
        for (const auto &member : obj.object) {
            if (!seen.count(member.first)) {
                why = "unknown field '" + member.first + "'";
                return false;
            }
        }
        return true;
    }
};

/** Base-config knobs accepted by both run and sweep requests. */
bool
parseBase(Fields &f, SystemConfig &base, bool &cpuHost)
{
    std::uint32_t channels = 0;
    if (!f.boolean("cpu_host", cpuHost))
        return false;
    if (cpuHost)
        base = cpuHostBase();
    if (!f.u32("channels", channels))
        return false;
    if (channels)
        base.numChannels = channels;
    if (!f.u64("seed", base.seed))
        return false;
    return true;
}

bool
parseModeField(Fields &f, const char *key, OrderingMode &out)
{
    std::string name;
    if (!f.str(key, name))
        return false;
    if (!name.empty() && !modeFromName(name, true, out)) {
        f.why = "unknown mode '" + name + "' (" +
                modeNamesJoined(true) + ")";
        return false;
    }
    return true;
}

bool
validateRun(const RunOptions &opts, std::string &why)
{
    if (!knownWorkload(opts.workload)) {
        why = unknownWorkloadMessage(opts.workload);
        return false;
    }
    SystemConfig cfg =
        configFor(opts.mode, opts.tsBytes, opts.bmf, opts.base);
    return cfg.check(why) &&
           makeWorkload(opts.workload)
               ->fitsElements(cfg, opts.elements, why);
}

bool
validateSweep(const SweepSpec &spec, std::string &why)
{
    for (const auto &w : spec.workloads) {
        if (!knownWorkload(w)) {
            why = unknownWorkloadMessage(w);
            return false;
        }
    }
    // Every derived grid-point configuration must pass the same
    // checks configFor + validate() would enforce fatally.
    for (OrderingMode mode : spec.modes)
        for (std::uint32_t ts : spec.tsSizes)
            for (std::uint32_t bmf : spec.bmfs)
                if (!configFor(mode, ts, bmf, spec.base).check(why))
                    return false;
    return checkSweepElements(spec, why);
}

} // namespace

std::string
errorReply(const std::string &id, const char *code,
           const std::string &message, int retryAfterMs)
{
    std::ostringstream os;
    os << "{\"ok\":false";
    if (!id.empty())
        os << ",\"id\":" << id;
    os << ",\"error\":{\"code\":";
    jsonString(os, code);
    os << ",\"message\":";
    jsonString(os, message);
    if (retryAfterMs >= 0)
        os << ",\"retry_after_ms\":" << retryAfterMs;
    os << "}}";
    return os.str();
}

std::string
okReply(const std::string &id, Cmd cmd, std::uint64_t fingerprint,
        bool cached, const std::string &body)
{
    std::ostringstream os;
    os << "{\"ok\":true,\"cmd\":\"" << toString(cmd) << "\"";
    if (!id.empty())
        os << ",\"id\":" << id;
    os << ",\"fingerprint\":\"" << fingerprintHex(fingerprint)
       << "\",\"cached\":" << (cached ? "true" : "false")
       << ",\"result\":" << body << "}";
    return os.str();
}

std::string
runBody(const RunOptions &opts, const RunResult &r)
{
    std::ostringstream os;
    os << "{\"workload\":";
    jsonString(os, opts.workload);
    os << ",\"mode\":";
    jsonString(os, olight::toString(opts.mode));
    os << ",\"ts_bytes\":" << opts.tsBytes << ",\"bmf\":" << opts.bmf
       << ",\"elements\":" << opts.elements << ",\"verified\":"
       << (r.verified ? "true" : "false") << ",\"correct\":"
       << (r.correct ? "true" : "false");
    if (r.verified && !r.correct) {
        os << ",\"why\":";
        jsonString(os, r.why);
    }
    if (opts.oracle)
        os << ",\"oracle_checks\":" << r.oracleChecks
           << ",\"oracle_violations\":" << r.oracleViolations;
    os << ",\"gpu_ms\":";
    jsonNumber(os, r.gpuMs);
    os << ",\"order_points\":" << r.orderPoints
       << ",\"pim_instrs\":" << r.pimInstrCount << ",\"metrics\":";
    r.metrics.writeJson(os);
    os << "}";
    return os.str();
}

std::string
sweepBody(const std::vector<SweepRow> &rows)
{
    std::ostringstream os;
    os << "{\"points\":" << rows.size() << ",\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i)
            os << ",";
        writeJsonRow(os, rows[i], false);
    }
    os << "]}";
    return os.str();
}

bool
parseRequest(const std::string &line, Request &out,
             std::string &reply)
{
    JsonValue doc;
    std::string err;
    if (!parseJson(line, doc, err)) {
        reply = errorReply("", "bad_json", err);
        return false;
    }
    if (!doc.isObject()) {
        reply = errorReply("", "bad_json",
                           "request must be a JSON object");
        return false;
    }

    // Echo "id" even on errors from here on (the client uses it to
    // match replies when pipelining).
    out.id.clear();
    if (const JsonValue *id = doc.find("id")) {
        std::ostringstream os;
        if (id->isString())
            jsonString(os, id->string);
        else if (id->isNumber())
            jsonNumber(os, id->number);
        else {
            reply = errorReply(
                "", "bad_request",
                "field 'id' must be a string or number");
            return false;
        }
        out.id = os.str();
    }

    const JsonValue *cmd = doc.find("cmd");
    if (!cmd || !cmd->isString()) {
        reply = errorReply(out.id, "bad_request",
                           "missing string field 'cmd'");
        return false;
    }

    std::string why;
    Fields f{doc, why, {}};
    f.seen = {"cmd", "id"};

    if (cmd->string == "ping" || cmd->string == "stats" ||
        cmd->string == "drain") {
        out.cmd = cmd->string == "ping"
                      ? Cmd::Ping
                      : (cmd->string == "stats" ? Cmd::Stats
                                                : Cmd::Drain);
        if (!f.noUnknown()) {
            reply = errorReply(out.id, "bad_request", why);
            return false;
        }
        return true;
    }

    if (cmd->string == "run") {
        out.cmd = Cmd::Run;
        RunOptions &opts = out.run;
        opts = RunOptions{};
        opts.verify = false; // opt-in over the wire
        bool ok = f.str("workload", opts.workload) &&
                  f.str("client", out.client) &&
                  f.u64("elements", opts.elements) &&
                  parseModeField(f, "mode", opts.mode) &&
                  f.u32("ts", opts.tsBytes) &&
                  f.u32("bmf", opts.bmf) &&
                  f.boolean("verify", opts.verify) &&
                  f.boolean("oracle", opts.oracle) &&
                  f.boolean("gpu_baseline", opts.runGpuBaseline) &&
                  parseBase(f, opts.base, out.cpuHost) &&
                  f.noUnknown();
        if (!ok) {
            reply = errorReply(out.id, "bad_request", why);
            return false;
        }
        if (!limits::checkRequest(opts.elements, 1, 1, why)) {
            reply = errorReply(out.id, "limit_exceeded", why);
            return false;
        }
        if (!validateRun(opts, why)) {
            reply = errorReply(out.id, "bad_request", why);
            return false;
        }
        return true;
    }

    if (cmd->string == "sweep") {
        out.cmd = Cmd::Sweep;
        SweepSpec &spec = out.sweep;
        spec = SweepSpec{};
        spec.jobs = 1; // concurrency comes from concurrent requests
        std::vector<std::string> mode_names;
        std::uint64_t jobs = spec.jobs;
        bool ok = f.strList("workloads", spec.workloads) &&
                  f.str("client", out.client) &&
                  f.strList("modes", mode_names) &&
                  f.u32List("ts", spec.tsSizes) &&
                  f.u32List("bmf", spec.bmfs) &&
                  f.u64("elements", spec.elements) &&
                  f.boolean("verify", spec.verify) &&
                  f.boolean("gpu_baseline", spec.gpuBaseline) &&
                  f.u64("jobs", jobs) &&
                  parseBase(f, spec.base, out.cpuHost) &&
                  f.noUnknown();
        if (ok && !mode_names.empty()) {
            spec.modes.clear();
            for (const auto &name : mode_names) {
                OrderingMode mode;
                if (!modeFromName(name, true, mode)) {
                    why = "unknown mode '" + name + "' (" +
                          modeNamesJoined(true) + ")";
                    ok = false;
                    break;
                }
                spec.modes.push_back(mode);
            }
        }
        if (!ok) {
            reply = errorReply(out.id, "bad_request", why);
            return false;
        }
        spec.jobs = unsigned(jobs);
        if (!limits::checkRequest(spec.elements, spec.jobs,
                                  spec.points(), why)) {
            reply = errorReply(out.id, "limit_exceeded", why);
            return false;
        }
        if (!validateSweep(spec, why)) {
            reply = errorReply(out.id, "bad_request", why);
            return false;
        }
        return true;
    }

    reply = errorReply(out.id, "unknown_cmd",
                       "unknown cmd '" + cmd->string +
                           "' (ping|run|sweep|stats|drain)");
    return false;
}

} // namespace serve
} // namespace olight
