/**
 * @file
 * Discrete-event simulation core.
 *
 * Every System owns one EventQueue per channel domain plus one for
 * the host domain, in every execution mode. Events are callbacks
 * scheduled at absolute ticks; the canonical execution order across
 * all queues is (tick, priority, stamp, source id, domain rank,
 * per-queue sequence), where the stamp is the scheduling-domain tick
 * of the event that caused the schedule and the domain rank encodes
 * the fixed cross-queue tie-break (channels in channel order, host
 * last). Two drivers realize that same order. A sequential run
 * collapses every domain into the host queue (collapseInto), so one
 * heap pops the canonical order directly. In parallel, a worker gang
 * advances the channel queues in conservative lookahead windows;
 * cross-domain handoffs carry the originating event's (stamp,
 * source, rank) through mailboxes and replay at exactly the key that
 * event holds in the collapsed heap (the relay rule). Results are
 * bit-identical for every driver and worker count.
 * docs/INTERNALS.md section 12 has the full determinism argument.
 *
 * The pending set is split in two. A hand-rolled 4-ary heap over a
 * reserved vector orders 32-byte keys; each key holds the tick, the
 * six-field canonical key packed into two words (Key::order /
 * order2, so a compare is at most three branches) and a pointer to
 * its callback. The callbacks themselves (small-buffer optimized,
 * sim/callback.hh) are built once in a chunked slab, invoked in
 * place and destroyed after they run, so a sift moves 32 bytes per
 * level and never a capture buffer. The heap's initial reservation
 * is a constructor parameter (the System sizes it from the
 * configuration: channels x banks, the natural bound on concurrently
 * pending DRAM events); outgrowing it — a key-vector regrow or a
 * slab chunk beyond the reservation — is counted and exposed. Once
 * the heap and slab have reached their high-water marks, scheduling
 * and running events allocates nothing (captures larger than
 * EventCallback::kInlineCapacity excepted).
 */

#ifndef OLIGHT_SIM_EVENT_QUEUE_HH
#define OLIGHT_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace olight
{

/** Scheduling priorities for same-tick events (lower runs first). */
enum class EventPriority : int
{
    DramTiming = 0,   ///< DRAM command issue / PIM execution
    Default = 10,     ///< most component callbacks
    Wakeup = 20,      ///< scheduler/retry wakeups, run after arrivals
    Stats = 30,       ///< end-of-quantum statistics
};

/**
 * The event queue of one execution domain.
 *
 * A System owns one per channel domain plus one for the host domain;
 * in a sequential run the channel queues are collapse facades of
 * the host queue, which then holds every pending event. Components
 * capture a reference and schedule closures; a queue is only ever
 * advanced by one thread at a time (the phase barriers in the
 * partitioned driver guarantee exclusivity), so no locking is
 * required.
 */
class EventQueue
{
  public:
    using Callback = EventCallback;
    using RawFn = EventCallback::RawFn;

    /** @param reserveHint initial heap reservation (event slots). */
    explicit EventQueue(std::size_t reserveHint = 1024)
        : slab_(reserveHint + 1) // + the callback running now
    {
        heap_.reserve(reserveHint ? reserveHint : 1);
    }
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Destroys every still-pending callback exactly once. */
    ~EventQueue();

    /** Current simulated time. A collapse facade reads its master's
     *  clock (step() raises it before the callback runs), so
     *  components on a collapsed channel domain see the executing
     *  tick with no per-event clock broadcast. */
    Tick now() const { return collapse_ ? collapse_->now_ : now_; }

    /**
     * Stamp of the event currently executing (its scheduling-domain
     * tick). Cross-domain relays record this, not now(), as the
     * relay stamp: a relayed effect must sort where the *original*
     * event would have — e.g. an MC ack scheduled at T-680 but
     * firing at T still sorts before host events stamped inside
     * (T-680, T], exactly as in the collapsed heap.
     */
    Tick currentStamp() const { return execStamp_; }

    /**
     * Source id of the event currently executing: the third part of
     * the relay key. It tells a channel's self-scheduled event
     * (source 1+ch) from a host delivery into the channel (source 0),
     * which sort on opposite sides of a same-(tick, priority, stamp)
     * host event.
     */
    std::uint16_t currentSrc() const { return execSrc_; }

    /**
     * Priority of the event currently executing. Also part of the
     * relay key: a synchronous effect of a DramTiming-priority
     * event (an MC ack fired from the command-bus commit) precedes
     * every same-tick Default-priority event in a global queue, so
     * its replay must be scheduled at the original priority, not
     * EventPriority::Default.
     */
    EventPriority
    currentPrio() const
    {
        return static_cast<EventPriority>(execPrio_);
    }

    /** Number of events executed so far (for stats / debugging). */
    std::uint64_t numExecuted() const { return numExecuted_; }

    /** Times the pending set outgrew its reservation: a key-vector
     *  regrow (copies every pending 32-byte key) or a callback-slab
     *  chunk allocated beyond the reserved event count. */
    std::uint64_t
    heapRegrows() const
    {
        return regrows_ + slab_.grows();
    }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Tick of the earliest pending event. @pre !empty() */
    Tick nextTick() const { return heap_.front().when; }

    /** Stable id stamped on events this queue schedules for itself
     *  (channel ch's queue carries 1+ch in both drivers; the host
     *  queue keeps the default 0). */
    void setSourceId(std::uint16_t id) { ownSrc_ = checkRank8(id); }

    /**
     * Sequential mode: turn this queue into a forwarding facade of
     * @p master. Every schedule is pushed into the master heap
     * carrying @p rank as its domain rank (channel queues in channel
     * order, host queue last), and the master synthesizes the
     * (stamp, source) pair the windowed driver would have recorded
     * for a push into this queue (see collapsedPush). A facade never
     * holds events; now() reads the master's clock.
     */
    void
    collapseInto(EventQueue *master, std::uint16_t rank)
    {
        collapse_ = master;
        collapseRank_ = checkRank8(rank);
    }

    /** The domain rank recorded on events this queue schedules for
     *  itself. The host queue ranks after every channel in both
     *  drivers: after the channel facades in the collapsed heap, and
     *  after the channel-ranked relay replays in the windowed one. */
    void setOwnRank(std::uint16_t rank) { ownRank_ = checkRank8(rank); }

    /**
     * Master side of a collapse: construction is over, execution
     * begins. Code that runs outside any event from here on (SM /
     * host-stream start, drain polls) is host-driver code, so facade
     * pushes it performs record source 0, the id of a host-side
     * delivery into a channel. Before this call such pushes keep the
     * facade's own source id, as a construction-time schedule into a
     * channel queue does.
     */
    void beginCollapsedRun() { execDom_ = ownRank_; }

    /**
     * Schedule @p f (any `void()` callable, or a Callback) to run at
     * absolute tick @p when. The callback is constructed directly in
     * the slab of the queue that will hold the event.
     *
     * @pre when >= now(); scheduling in the past is a simulator bug.
     */
    template <typename F>
    void
    schedule(Tick when, F &&f,
             EventPriority prio = EventPriority::Default)
    {
        enqueue(when, prio, holder().slab_.emplace(std::forward<F>(f)));
    }

    /**
     * Raw fast path: schedule `fn(ctx)` at @p when with zero capture
     * machinery — two words stored inline in the callback. This is
     * the right call for recurring per-cycle wakeups (the memory
     * controller's scheduler is the heaviest user).
     */
    void
    scheduleAt(Tick when, RawFn fn, void *ctx,
               EventPriority prio = EventPriority::Wakeup)
    {
        enqueue(when, prio, holder().slab_.emplace(fn, ctx));
    }

    /**
     * Batch form of scheduleAt(): one `fn(ctx)` firing per tick in
     * @p whens. Grows the heap once for the whole batch.
     */
    void scheduleAtBatch(const Tick *whens, std::size_t n, RawFn fn,
                         void *ctx,
                         EventPriority prio = EventPriority::Wakeup);

    /** Schedule @p cb @p delta ticks from now() — the master's clock
     *  on a collapse facade, so cross-domain deliveries compute their
     *  latency from the true current tick. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&f,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now() + delta, std::forward<F>(f), prio);
    }

    /**
     * Scope for scheduling events on behalf of *another* domain:
     * while active, scheduled events carry the given (stamp, source,
     * rank) instead of this queue's (now, own id, own rank). The
     * partitioned driver replays every mailbox message under one of
     * these with the originating event's key, so the replay sorts
     * where that event sits in the collapsed heap.
     */
    class ExternalScope
    {
      public:
        ExternalScope(EventQueue &eq, Tick stamp, std::uint16_t src,
                      std::uint16_t rank)
            : eq_(eq)
        {
            eq_.extActive_ = true;
            eq_.extStamp_ = stamp;
            eq_.extSrc_ = checkRank8(src);
            eq_.extRank_ = checkRank8(rank);
        }
        ~ExternalScope() { eq_.extActive_ = false; }
        ExternalScope(const ExternalScope &) = delete;
        ExternalScope &operator=(const ExternalScope &) = delete;

      private:
        EventQueue &eq_;
    };

    /**
     * Route (stamp, source) from another queue: while set, events
     * scheduled here carry @p src and the *current* tick of @p eq.
     * The partitioned driver points every quiescent channel queue at
     * the host queue for the duration of the host phase — arbitrarily
     * deep host call chains (SM -> interconnect -> slice input) then
     * stamp their cross-domain arrivals with the host tick that
     * produced them, without threading a scope through the pipe.
     */
    void
    setExternalSource(const EventQueue *eq, std::uint16_t src)
    {
        extQueue_ = eq;
        extQueueSrc_ = checkRank8(src);
    }
    void clearExternalSource() { extQueue_ = nullptr; }

    /**
     * Run events until the queue is empty or @p limit is reached.
     *
     * @return the tick of the last executed event.
     */
    Tick run(Tick limit = maxTick);

    /** Run every event with when < @p horizon (exclusive bound —
     *  the conservative-lookahead window edge of the partitioned
     *  driver). now() is left at the last executed event. */
    void
    runUntil(Tick horizon)
    {
        while (!heap_.empty() && heap_.front().when < horizon)
            step();
    }

    /** Run a single event; returns false if the queue was empty. */
    bool step();

  private:
    /** Stamp field width inside Key::order: 56 bits of tick.
     *  Overflow is a fatal, not a silent misorder — and unreachable
     *  in practice (at one event per tick and millions of events per
     *  second it is centuries of wall time away). */
    static constexpr int kStampBits = 56;

    /** Sequence field width inside Key::order2. The truncation is
     *  sound without a guard: two entries compare down to their
     *  sequences only when (when, prio, stamp, src, dom) all tie,
     *  and an equal stamp means both were pushed at the same tick —
     *  a wrap-straddling pair would need 2^48 pushes into one queue
     *  at a single tick with both entries still pending. */
    static constexpr int kSeqBits = 48;

    /**
     * Heap key of one pending event. The canonical six-field key is
     * packed into two words so a compare is at most three branches,
     * and the callback stays in its slab slot, so the whole key is
     * 32 bytes:
     *
     *   order  = priority(8) | stamp(56)
     *   order2 = src(8) | dom(8) | seq(48)
     *
     * Field precedence is preserved exactly: lexicographic order on
     * (when, order, order2) equals order on (when, prio, stamp, src,
     * dom, seq). Source ids and domain ranks are bounded to 8 bits
     * at their setters (checkRank8) — channels beyond 254 are out of
     * scope for the modeled systems.
     */
    struct Key
    {
        Tick when;
        std::uint64_t order;  ///< (prio << kStampBits) | stamp
        std::uint64_t order2; ///< (src << 56) | (dom << 48) | seq
        Callback *cb;         ///< slab slot of the callback

        std::uint8_t prio() const { return std::uint8_t(order >> kStampBits); }
        Tick stamp() const { return order & ((1ull << kStampBits) - 1); }
        std::uint16_t src() const { return std::uint16_t(order2 >> 56); }
        std::uint16_t dom() const
        {
            return std::uint16_t((order2 >> kSeqBits) & 0xff);
        }

        bool
        before(const Key &other) const
        {
            if (when != other.when)
                return when < other.when;
            if (order != other.order)
                return order < other.order;
            return order2 < other.order2;
        }
    };

    /** Pack the (priority, stamp) compare word; fatal on a stamp too
     *  large for its field rather than misordering silently. */
    static std::uint64_t
    packOrder(std::uint8_t prio, Tick stamp)
    {
        if (stamp >> kStampBits) [[unlikely]]
            olight_fatal("event stamp overflows its packed key: ",
                         stamp);
        return (std::uint64_t(prio) << kStampBits) | stamp;
    }

    /** Pack the (source, domain rank, sequence) tie-break word. */
    static std::uint64_t
    packOrder2(std::uint16_t src, std::uint16_t dom, std::uint64_t seq)
    {
        return (std::uint64_t(src) << 56) |
               (std::uint64_t(dom) << kSeqBits) |
               (seq & ((1ull << kSeqBits) - 1));
    }

    /** Construction-time bound for ids packed into Key::order2. */
    static std::uint16_t
    checkRank8(std::uint16_t id)
    {
        if (id > 0xff)
            olight_fatal("source/domain id exceeds packed key width: ",
                         id);
        return id;
    }

    /** The queue whose heap and slab hold this queue's events: the
     *  master for a collapse facade, else this queue. */
    EventQueue &holder() { return collapse_ ? *collapse_ : *this; }

    /** Key @p cb (already built in holder()'s slab) and push it:
     *  straight into this heap, or through collapsedPush on a
     *  facade. */
    void enqueue(Tick when, EventPriority prio, Callback *cb);

    void push(const Key &key);
    Key popTop();

    /** Record a facade's schedule in this (master) heap under the key
     *  the windowed driver records for the same push. The source is
     *  the facade's own id when the executing event belongs to the
     *  facade's domain (a channel scheduling for itself) or while
     *  still constructing; otherwise it is 0, the source every
     *  host-phase delivery into a channel queue carries
     *  (setExternalSource). The stamp is this queue's current tick,
     *  the executing event's tick in either case. */
    void collapsedPush(Tick when, Callback *cb, EventPriority prio,
                       std::uint16_t rank, std::uint16_t facadeSrc);

    /** The (stamp, src) to record on an event scheduled now. */
    Tick
    scheduleStamp() const
    {
        if (extActive_)
            return extStamp_;
        if (extQueue_)
            return extQueue_->now();
        return now_;
    }
    std::uint16_t
    scheduleSrc() const
    {
        if (extActive_)
            return extSrc_;
        if (extQueue_)
            return extQueueSrc_;
        return ownSrc_;
    }
    std::uint16_t
    scheduleRank() const
    {
        return extActive_ ? extRank_ : ownRank_;
    }

    /** 4-ary min-heap on (when, order, order2) over heap_. */
    static constexpr std::size_t kArity = 4;

    std::vector<Key> heap_;
    CallbackSlab slab_;
    Tick now_ = 0;
    Tick execStamp_ = 0;
    std::uint8_t execPrio_ =
        std::uint8_t(static_cast<int>(EventPriority::Default));
    std::uint16_t execSrc_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numExecuted_ = 0;
    std::uint64_t regrows_ = 0;
    std::uint16_t ownSrc_ = 0;

    /** Sentinel for execDom_ while the System is still being built
     *  (no event has run and beginCollapsedRun was not called). */
    static constexpr std::uint16_t kConstructing = 0xffff;

    EventQueue *collapse_ = nullptr; ///< master heap when a facade
    std::uint16_t collapseRank_ = 0; ///< this facade's domain rank
    std::uint16_t ownRank_ = 0;      ///< rank on own events (master)
    std::uint16_t execDom_ = kConstructing; ///< executing event's rank

    bool extActive_ = false;
    Tick extStamp_ = 0;
    std::uint16_t extSrc_ = 0;
    std::uint16_t extRank_ = 0;
    const EventQueue *extQueue_ = nullptr;
    std::uint16_t extQueueSrc_ = 0;
};

} // namespace olight

#endif // OLIGHT_SIM_EVENT_QUEUE_HH
