#include "sim/trace.hh"

#include <cstdio>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace olight
{

namespace
{

/** Chrome trace timestamps are microseconds; keep ns resolution. */
std::string
ticksToUs(Tick t)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6f", double(t) * tickPs * 1e-6);
    return buf;
}

} // namespace

TraceWriter::TraceWriter(std::ostream &os, TraceFormat format)
    : os_(os), format_(format)
{
    if (format_ == TraceFormat::Csv)
        os_ << "tick,component,event,detail\n";
    else
        os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    if (format_ == TraceFormat::ChromeJson)
        os_ << "\n]}\n";
    os_.flush();
}

void
TraceWriter::chromeEventHead(const char *ph, Tick ts,
                             const std::string &name,
                             std::uint64_t tid)
{
    os_ << (firstEvent_ ? "\n" : ",\n");
    firstEvent_ = false;
    os_ << "{\"name\":";
    jsonString(os_, name);
    os_ << ",\"ph\":\"" << ph << "\",\"ts\":" << ticksToUs(ts)
        << ",\"pid\":0,\"tid\":" << tid;
}

void
TraceWriter::record(Tick tick, const std::string &component,
                    const std::string &event,
                    const std::string &detail)
{
    if (format_ == TraceFormat::Csv) {
        os_ << tick << "," << component << "," << event << ",\""
            << detail << "\"\n";
    } else {
        chromeEventHead("i", tick, component + "." + event, 0);
        os_ << ",\"s\":\"g\",\"args\":{\"detail\":";
        jsonString(os_, detail);
        os_ << "}}";
    }
    ++rows_;
}

void
TraceWriter::span(Tick begin, Tick end, const std::string &stage,
                  std::uint64_t pktId, const std::string &detail)
{
    if (format_ == TraceFormat::Csv) {
        os_ << end << "," << stage << ",span,\"pkt=" << pktId
            << " begin=" << begin << " dur=" << (end - begin) << " "
            << detail << "\"\n";
        ++rows_;
        return;
    }
    chromeEventHead("B", begin, stage, pktId);
    os_ << ",\"args\":{\"detail\":";
    jsonString(os_, detail);
    os_ << "}}";
    chromeEventHead("E", end, stage, pktId);
    os_ << "}";
    rows_ += 2;
}

void
TraceObserver::onCollectorInject(const Packet &pkt, Tick begin,
                                 Tick end)
{
    writer_.span(begin, end,
                 "sm" + std::to_string(pkt.smId) + ".collect", pkt.id,
                 pkt.describe());
    PipeObserver::onCollectorInject(pkt, begin, end);
}

void
TraceObserver::onStageEgress(const std::string &stage,
                             const Packet &pkt, Tick begin, Tick end)
{
    writer_.span(begin, end, stage, pkt.id, pkt.describe());
    PipeObserver::onStageEgress(stage, pkt, begin, end);
}

void
TraceObserver::onMcAdmit(std::uint16_t channel, const Packet &pkt)
{
    writer_.record(clock_.now(), "mc" + std::to_string(channel),
                   "arrive", pkt.describe());
    admitTick_[pkt.id] = clock_.now();
    PipeObserver::onMcAdmit(channel, pkt);
}

void
TraceObserver::onMcOrderLight(std::uint16_t channel, const Packet &pkt)
{
    writer_.record(clock_.now(), "mc" + std::to_string(channel),
                   "arrive", pkt.describe());
    PipeObserver::onMcOrderLight(channel, pkt);
}

void
TraceObserver::onMcCommit(std::uint16_t channel, const Packet &pkt,
                          Tick colTick)
{
    auto admitted = admitTick_.find(pkt.id);
    if (admitted == admitTick_.end())
        olight_panic("trace: packet ", pkt.id,
                     " committed without an MC admit");
    const Tick now = clock_.now();
    const std::string mc = "mc" + std::to_string(channel);
    const std::string detail = pkt.describe();
    writer_.record(now, mc, "schedule", detail);
    writer_.span(admitted->second, now, mc + ".queue", pkt.id, detail);
    writer_.span(now, colTick, mc + ".sched", pkt.id, detail);
    admitTick_.erase(admitted);
    PipeObserver::onMcCommit(channel, pkt, colTick);
}

} // namespace olight
