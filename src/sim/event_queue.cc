#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace olight
{

EventQueue::~EventQueue()
{
    for (const Key &key : heap_)
        slab_.destroy(key.cb);
}

void
EventQueue::push(const Key &key)
{
    if (heap_.size() == heap_.capacity())
        ++regrows_;
    // Hole-based sift-up: move parents down into the hole until the
    // new key's slot is found; one 32-byte copy per level.
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
        std::size_t parent = (hole - 1) / kArity;
        if (!key.before(heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = key;
}

EventQueue::Key
EventQueue::popTop()
{
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        // Sift the former last key down from the root hole.
        std::size_t hole = 0;
        const std::size_t size = heap_.size();
        while (true) {
            std::size_t first_child = hole * kArity + 1;
            if (first_child >= size)
                break;
            std::size_t best = first_child;
            std::size_t end =
                std::min(first_child + kArity, size);
            for (std::size_t c = first_child + 1; c < end; ++c) {
                if (heap_[c].before(heap_[best]))
                    best = c;
            }
            if (!heap_[best].before(last))
                break;
            heap_[hole] = heap_[best];
            hole = best;
        }
        heap_[hole] = last;
    }
    return top;
}

void
EventQueue::enqueue(Tick when, EventPriority prio, Callback *cb)
{
    if (collapse_) {
        collapse_->collapsedPush(when, cb, prio, collapseRank_,
                                 ownSrc_);
        return;
    }
    // olight_fatal, not a debug-only assert: scheduling in the past
    // would silently misorder the simulation, so the check must stay
    // visible in release builds too.
    if (when < now_)
        olight_fatal("event scheduled in the past: when=", when,
                     " now=", now_);
    push(Key{when,
             packOrder(std::uint8_t(static_cast<int>(prio)),
                       scheduleStamp()),
             packOrder2(scheduleSrc(), scheduleRank(), nextSeq_++),
             cb});
}

void
EventQueue::scheduleAtBatch(const Tick *whens, std::size_t n,
                            RawFn fn, void *ctx, EventPriority prio)
{
    if (!collapse_)
        heap_.reserve(heap_.size() + n);
    for (std::size_t i = 0; i < n; ++i)
        scheduleAt(whens[i], fn, ctx, prio);
}

void
EventQueue::collapsedPush(Tick when, Callback *cb, EventPriority prio,
                          std::uint16_t rank, std::uint16_t facadeSrc)
{
    if (when < now_)
        olight_fatal("event scheduled in the past: when=", when,
                     " now=", now_);
    const std::uint16_t src =
        (execDom_ == rank || execDom_ == kConstructing) ? facadeSrc
                                                        : 0;
    push(Key{when,
             packOrder(std::uint8_t(static_cast<int>(prio)), now_),
             packOrder2(src, rank, nextSeq_++), cb});
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const Key key = popTop();
    now_ = key.when;
    execStamp_ = key.stamp();
    execPrio_ = key.prio();
    execSrc_ = key.src();
    execDom_ = key.dom();
    ++numExecuted_;
    // The callback runs in its slab slot and is destroyed there
    // afterwards, also when it throws. Events it schedules may grow
    // the slab; chunks never move, so its captures stay put.
    struct Release
    {
        CallbackSlab &slab;
        Callback *cb;
        ~Release() { slab.destroy(cb); }
    } release{slab_, key.cb};
    (*key.cb)();
    // Anything that runs between events (drain polls, CGA unblock,
    // sampler) is host-driver code; facade pushes it performs must
    // record the host context, not the last event's domain.
    execDom_ = ownRank_;
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (!heap_.empty() && heap_.front().when <= limit) {
        if (!step())
            break;
    }
    return now_;
}

} // namespace olight
