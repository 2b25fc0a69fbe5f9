/**
 * @file
 * Functional backing store for simulated DRAM.
 *
 * The simulator is not timing-only: PIM units and host accesses
 * operate on real data so that ordering violations are observable as
 * wrong results (the "functionally incorrect" bar of Figure 5).
 *
 * Storage is paged: 4 KiB pages, allocated zero-filled on first
 * write and found by page number. Untouched pages read as zeros and
 * allocate nothing, so the sparse aligned layouts the array allocator
 * produces cost only the pages they actually use. read/write and the
 * golden-snapshot copy work a page at a time, so a bulk access pays
 * one lookup per 4 KiB, and a page costs 4 KiB where a per-block
 * index cost a hash node per 32 B.
 *
 * Under channel-partitioned execution the per-channel PIM units
 * touch the store concurrently. With the 256 B channel interleave
 * every channel writes into every page, but at disjoint bytes, so
 * page *contents* never race; only the page index does (a first
 * touch inserts into the table another thread is probing). The index
 * is therefore sharded by page number with one mutex per shard, held
 * for the lookup only. Pages are heap nodes that never move or die
 * before clear(), so a returned Block& can be used lock-free, and
 * the store stays value-deterministic regardless of which thread
 * created a page.
 */

#ifndef OLIGHT_DRAM_STORAGE_HH
#define OLIGHT_DRAM_STORAGE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace olight
{

/** Sparse byte-addressable memory with 32 B block granularity. */
class SparseMemory
{
  public:
    static constexpr std::uint32_t blockBytes = 32;
    static constexpr std::uint32_t pageBytes = 4096;

    using Block = std::array<std::uint8_t, blockBytes>;

    SparseMemory() = default;
    SparseMemory(const SparseMemory &other) { copyFrom(other); }
    SparseMemory &
    operator=(const SparseMemory &other)
    {
        if (this != &other) {
            clear();
            copyFrom(other);
        }
        return *this;
    }

    /** Mutable reference to the block containing @p addr (zero-filled
     *  on first touch). @p addr must be block-aligned. The reference
     *  is stable: later inserts never move it. */
    Block &block(std::uint64_t addr);

    /** Read-only block access; returns zeros for untouched blocks. */
    const Block &blockOrZero(std::uint64_t addr) const;

    /** Read @p n bytes starting at arbitrary @p addr. */
    void read(std::uint64_t addr, void *out, std::size_t n) const;

    /** Write @p n bytes starting at arbitrary @p addr. */
    void write(std::uint64_t addr, const void *in, std::size_t n);

    /** Typed helpers (fp32 is the simulator's element type). */
    float readFloat(std::uint64_t addr) const;
    void writeFloat(std::uint64_t addr, float v);
    std::uint32_t readU32(std::uint64_t addr) const;
    void writeU32(std::uint64_t addr, std::uint32_t v);

    /** Bulk typed helpers over contiguous addresses. */
    std::vector<float> readFloats(std::uint64_t addr,
                                  std::size_t count) const;
    void writeFloats(std::uint64_t addr, const std::vector<float> &v);

    /** Blocks backed by allocated pages (pageBytes / blockBytes per
     *  touched page). */
    std::size_t numBlocks() const;
    void clear();

  private:
    /** Shard count: a power of two well above any channel count, so
     *  concurrent channels rarely contend on one index mutex. */
    static constexpr std::uint32_t kShards = 64;

    struct Page
    {
        std::array<Block, pageBytes / blockBytes> blocks{};
    };

    struct Shard
    {
        std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages;
        mutable std::mutex mu;
    };

    /** The page holding @p addr, or nullptr if never written. */
    const Page *findPage(std::uint64_t addr) const;

    /** The page holding @p addr, created zero-filled if absent. */
    Page &page(std::uint64_t addr);

    /** Deep copy, a page at a time (single-threaded contexts only:
     *  golden snapshots). */
    void copyFrom(const SparseMemory &other);

    std::array<Shard, kShards> shards_;
    static const Block zeroBlock_;
};

} // namespace olight

#endif // OLIGHT_DRAM_STORAGE_HH
