/**
 * @file
 * Small-buffer-optimized move-only callable for the event queue, and
 * the slab the queue constructs its pending callbacks in.
 *
 * The simulator schedules millions of short-lived closures; wrapping
 * them in std::function heap-allocates for anything larger than two
 * pointers. EventCallback keeps captures up to kInlineCapacity bytes
 * (sized to fit the largest capture on the memory pipe, the
 * convergence point's [this, path, Packet]) inside the callback
 * itself and falls back to the heap only for oversized captures. A
 * raw (function-pointer, context) form is provided for per-cycle
 * wakeups that need no capture machinery at all.
 *
 * CallbackSlab holds the callbacks of pending events. Each is built
 * once in a slot, invoked in place and destroyed there, so a
 * callback never moves however often the heap above it reorders its
 * 32-byte keys. Slots come from fixed-size chunks that are never
 * moved or freed until the slab dies: a running callback may
 * schedule any number of further events, growing the slab, and its
 * own captures stay where they are. Freed slots go onto an
 * intrusive LIFO free list, so steady-state scheduling reuses warm
 * slots and allocates nothing.
 */

#ifndef OLIGHT_SIM_CALLBACK_HH
#define OLIGHT_SIM_CALLBACK_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace olight
{

/** Move-only `void()` callable with inline storage. */
class EventCallback
{
  public:
    /**
     * Inline capture budget. A memory-pipe [this, Packet] capture is
     * 88 bytes and a convergence point's [this, path, Packet] 104;
     * anything at or below this rides in the callback with no
     * allocation. 120 makes the whole callback 128 bytes, two cache
     * lines of a slab slot; the size costs nothing per heap sift
     * because callbacks stay in their slots.
     */
    static constexpr std::size_t kInlineCapacity = 120;

    /** Raw fast-path form: no capture, just (fn, ctx). */
    using RawFn = void (*)(void *);

    EventCallback() noexcept = default;

    EventCallback(RawFn fn, void *ctx) noexcept
    {
        auto *raw = ::new (buf_) RawPair{fn, ctx};
        (void)raw;
        ops_ = &rawOps();
    }

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventCallback(F &&f) // NOLINT: implicit by design
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineCapacity &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (buf_) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>();
        } else {
            ::new (buf_) Fn *(new Fn(std::forward<F>(f)));
            ops_ = &heapOps<Fn>();
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /** Invoke the callable. @pre *this is non-empty. */
    void operator()() { ops_->invoke(*this); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** True when the capture lives in the inline buffer. */
    bool
    isInline() const noexcept
    {
        return ops_ != nullptr && ops_->inlineStorage;
    }

  private:
    struct RawPair
    {
        RawFn fn;
        void *ctx;
    };

    struct Ops
    {
        void (*invoke)(EventCallback &);
        /** Move-construct dst's storage from src, destroying src. */
        void (*relocate)(EventCallback &dst,
                         EventCallback &src) noexcept;
        void (*destroy)(EventCallback &) noexcept;
        bool inlineStorage;
    };

    template <typename Fn>
    Fn &
    asInline() noexcept
    {
        return *std::launder(reinterpret_cast<Fn *>(buf_));
    }

    template <typename Fn>
    Fn *&
    asHeap() noexcept
    {
        return *std::launder(reinterpret_cast<Fn **>(buf_));
    }

    template <typename Fn>
    static const Ops &
    inlineOps() noexcept
    {
        static constexpr Ops ops = {
            [](EventCallback &self) { self.asInline<Fn>()(); },
            [](EventCallback &dst, EventCallback &src) noexcept {
                ::new (dst.buf_)
                    Fn(std::move(src.asInline<Fn>()));
                src.asInline<Fn>().~Fn();
            },
            [](EventCallback &self) noexcept {
                self.asInline<Fn>().~Fn();
            },
            true,
        };
        return ops;
    }

    template <typename Fn>
    static const Ops &
    heapOps() noexcept
    {
        static constexpr Ops ops = {
            [](EventCallback &self) { (*self.asHeap<Fn>())(); },
            [](EventCallback &dst, EventCallback &src) noexcept {
                ::new (dst.buf_) Fn *(src.asHeap<Fn>());
            },
            [](EventCallback &self) noexcept {
                delete self.asHeap<Fn>();
            },
            false,
        };
        return ops;
    }

    static const Ops &
    rawOps() noexcept
    {
        static constexpr Ops ops = {
            [](EventCallback &self) {
                RawPair p = self.asInline<RawPair>();
                p.fn(p.ctx);
            },
            [](EventCallback &dst, EventCallback &src) noexcept {
                ::new (dst.buf_)
                    RawPair(src.asInline<RawPair>());
            },
            [](EventCallback &) noexcept {},
            true,
        };
        return ops;
    }

    void
    moveFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(*this, other);
            other.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(*this);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
    const Ops *ops_ = nullptr;
};

/**
 * Chunked slab of EventCallback slots (see the file comment). The
 * owner must destroy() every callback it emplace()d before the slab
 * dies; the slab itself only releases raw storage.
 */
class CallbackSlab
{
  public:
    /** Slots per chunk: 64 x 128 B = 8 KiB per allocation. */
    static constexpr std::size_t kChunkSlots = 64;

    /** @param reserveSlots slots allocated up front. */
    explicit CallbackSlab(std::size_t reserveSlots)
    {
        while (capacity() < reserveSlots)
            grow();
    }
    CallbackSlab(const CallbackSlab &) = delete;
    CallbackSlab &operator=(const CallbackSlab &) = delete;

    /** Construct a callback from @p args in a free slot. The address
     *  is stable until destroy(). */
    template <typename... Args>
    EventCallback *
    emplace(Args &&...args)
    {
        if (!free_) {
            grow();
            ++grows_;
        }
        Slot *s = free_;
        free_ = s->next;
        try {
            return ::new (s->bytes)
                EventCallback(std::forward<Args>(args)...);
        } catch (...) {
            s->next = free_;
            free_ = s;
            throw;
        }
    }

    /** Destroy @p cb and return its slot to the free list. */
    void
    destroy(EventCallback *cb) noexcept
    {
        cb->~EventCallback();
        Slot *s = std::launder(reinterpret_cast<Slot *>(cb));
        s->next = free_;
        free_ = s;
    }

    /** Slots allocated so far (live plus free). */
    std::size_t
    capacity() const noexcept
    {
        return chunks_.size() * kChunkSlots;
    }

    /** Chunks emplace() had to add beyond the up-front reservation. */
    std::uint64_t grows() const noexcept { return grows_; }

  private:
    union Slot
    {
        Slot *next;
        alignas(EventCallback) unsigned char bytes[sizeof(EventCallback)];
    };

    /** Add one chunk and push its slots onto the free list, so they
     *  are handed out in address order. */
    void
    grow()
    {
        chunks_.push_back(std::unique_ptr<Slot[]>(new Slot[kChunkSlots]));
        Slot *chunk = chunks_.back().get();
        for (std::size_t i = 0; i + 1 < kChunkSlots; ++i)
            chunk[i].next = &chunk[i + 1];
        chunk[kChunkSlots - 1].next = free_;
        free_ = chunk;
    }

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    Slot *free_ = nullptr;
    std::uint64_t grows_ = 0;
};

} // namespace olight

#endif // OLIGHT_SIM_CALLBACK_HH
