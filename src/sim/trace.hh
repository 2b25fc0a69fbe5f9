/**
 * @file
 * Packet tracing for debugging ordering behavior.
 *
 * Two backends share one TraceWriter interface:
 *
 *  - Csv (the original format): every record() appends one flat row
 *    with tick, component, event, and a human-readable description.
 *
 *  - ChromeJson: a Chrome trace_event JSON file (open it in Perfetto
 *    or chrome://tracing). span() emits a balanced "B"/"E" duration
 *    pair whose track ("tid") is the packet id, so a packet's
 *    SM-issue -> interconnect -> L2 sub-partition -> MC queue ->
 *    scheduled -> PIM-execute lifetime reads as a timeline row, and
 *    an OrderLight stall is visible as a gap between spans.
 *
 * record() marks point events (packet arrivals, scheduler picks);
 * span() marks an interval of a packet's life. In Csv mode spans
 * become single "span" rows carrying the begin tick and duration.
 *
 * A System's trace is a TraceObserver: the rows come from the same
 * PipeObserver hooks the ordering oracle and the commit-log recorder
 * consume, so tracing works under every driver and worker count.
 */

#ifndef OLIGHT_SIM_TRACE_HH
#define OLIGHT_SIM_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>

#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "verify/observer.hh"

namespace olight
{

/** Output format of a TraceWriter. */
enum class TraceFormat : std::uint8_t
{
    Csv,        ///< flat rows: tick,component,event,detail
    ChromeJson, ///< chrome://tracing / Perfetto trace_event JSON
};

/** Streaming trace sink. */
class TraceWriter
{
  public:
    explicit TraceWriter(std::ostream &os,
                         TraceFormat format = TraceFormat::Csv);
    ~TraceWriter();
    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one point event. */
    void record(Tick tick, const std::string &component,
                const std::string &event,
                const std::string &detail);

    /**
     * Append one duration span of packet @p pktId covering
     * [begin, end], labelled @p stage. Spans of one packet must be
     * emitted in chronological order (every component emits a span
     * when the packet leaves it, so this holds by construction).
     */
    void span(Tick begin, Tick end, const std::string &stage,
              std::uint64_t pktId, const std::string &detail);

    /** Finish the output (writes the JSON footer); idempotent. */
    void close();

    std::uint64_t rows() const { return rows_; }

  private:
    void chromeEventHead(const char *ph, Tick ts,
                         const std::string &name,
                         std::uint64_t tid);

    std::ostream &os_;
    TraceFormat format_;
    bool firstEvent_ = true;
    bool closed_ = false;
    std::uint64_t rows_ = 0;
};

/**
 * The packet trace as the head of a System's observer chain. Rows
 * come from hooks: onCollectorInject (smN.collect span),
 * onStageEgress (one span per queue stage), onMcAdmit and
 * onMcOrderLight (mcN arrive), onMcCommit (mcN schedule, then the
 * mcN.queue admit-to-issue and mcN.sched issue-to-column spans). MC
 * hooks carry no tick, so MC rows read @p clock, the host queue,
 * where partitioned runs replay channel-side hooks at their tick.
 */
class TraceObserver final : public PipeObserver
{
  public:
    TraceObserver(std::ostream &os, TraceFormat format,
                  const EventQueue &clock)
        : writer_(os, format), clock_(clock)
    {
    }

    void onCollectorInject(const Packet &pkt, Tick begin,
                           Tick end) override;
    void onStageEgress(const std::string &stage, const Packet &pkt,
                       Tick begin, Tick end) override;
    void onMcAdmit(std::uint16_t channel, const Packet &pkt) override;
    void onMcOrderLight(std::uint16_t channel,
                        const Packet &pkt) override;
    void onMcCommit(std::uint16_t channel, const Packet &pkt,
                    Tick colTick) override;

  private:
    TraceWriter writer_;
    const EventQueue &clock_;
    /** MC admit tick of every queued request, by packet id (the
     *  begin of its .queue span). */
    std::unordered_map<std::uint64_t, Tick> admitTick_;
};

} // namespace olight

#endif // OLIGHT_SIM_TRACE_HH
