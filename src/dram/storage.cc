#include "dram/storage.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace olight
{

const SparseMemory::Block SparseMemory::zeroBlock_{};

const SparseMemory::Page *
SparseMemory::findPage(std::uint64_t addr) const
{
    std::uint64_t num = addr / pageBytes;
    const Shard &sh = shards_[num & (kShards - 1)];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.pages.find(num);
    return it == sh.pages.end() ? nullptr : it->second.get();
}

SparseMemory::Page &
SparseMemory::page(std::uint64_t addr)
{
    std::uint64_t num = addr / pageBytes;
    Shard &sh = shards_[num & (kShards - 1)];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto &p = sh.pages[num];
    if (!p)
        p = std::make_unique<Page>();
    return *p;
}

SparseMemory::Block &
SparseMemory::block(std::uint64_t addr)
{
    if (addr % blockBytes != 0)
        olight_panic("unaligned block access: 0x", std::hex, addr);
    return page(addr).blocks[(addr % pageBytes) / blockBytes];
}

const SparseMemory::Block &
SparseMemory::blockOrZero(std::uint64_t addr) const
{
    const Page *p = findPage(addr);
    return p ? p->blocks[(addr % pageBytes) / blockBytes] : zeroBlock_;
}

void
SparseMemory::read(std::uint64_t addr, void *out, std::size_t n) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (n > 0) {
        std::size_t off = addr % pageBytes;
        std::size_t take = std::min<std::size_t>(n, pageBytes - off);
        if (const Page *p = findPage(addr))
            std::memcpy(dst, p->blocks.data()->data() + off, take);
        else
            std::memset(dst, 0, take);
        dst += take;
        addr += take;
        n -= take;
    }
}

void
SparseMemory::write(std::uint64_t addr, const void *in, std::size_t n)
{
    auto *src = static_cast<const std::uint8_t *>(in);
    while (n > 0) {
        std::size_t off = addr % pageBytes;
        std::size_t take = std::min<std::size_t>(n, pageBytes - off);
        std::memcpy(page(addr).blocks.data()->data() + off, src, take);
        src += take;
        addr += take;
        n -= take;
    }
}

float
SparseMemory::readFloat(std::uint64_t addr) const
{
    float v;
    read(addr, &v, sizeof(v));
    return v;
}

void
SparseMemory::writeFloat(std::uint64_t addr, float v)
{
    write(addr, &v, sizeof(v));
}

std::uint32_t
SparseMemory::readU32(std::uint64_t addr) const
{
    std::uint32_t v;
    read(addr, &v, sizeof(v));
    return v;
}

void
SparseMemory::writeU32(std::uint64_t addr, std::uint32_t v)
{
    write(addr, &v, sizeof(v));
}

std::vector<float>
SparseMemory::readFloats(std::uint64_t addr, std::size_t count) const
{
    std::vector<float> out(count);
    read(addr, out.data(), count * sizeof(float));
    return out;
}

void
SparseMemory::writeFloats(std::uint64_t addr, const std::vector<float> &v)
{
    write(addr, v.data(), v.size() * sizeof(float));
}

std::size_t
SparseMemory::numBlocks() const
{
    std::size_t n = 0;
    for (const Shard &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh.mu);
        n += sh.pages.size();
    }
    return n * (pageBytes / blockBytes);
}

void
SparseMemory::clear()
{
    for (Shard &sh : shards_) {
        std::lock_guard<std::mutex> lock(sh.mu);
        sh.pages.clear();
    }
}

void
SparseMemory::copyFrom(const SparseMemory &other)
{
    for (std::uint32_t i = 0; i < kShards; ++i)
        for (const auto &[num, p] : other.shards_[i].pages)
            shards_[i].pages[num] = std::make_unique<Page>(*p);
}

} // namespace olight
