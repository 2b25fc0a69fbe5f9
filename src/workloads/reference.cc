#include "workloads/reference.hh"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "pim/pim_unit.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace olight
{

void
runGolden(const SystemConfig &cfg, const AddressMap &map,
          const std::vector<std::vector<PimInstr>> &streams,
          SparseMemory &mem)
{
    StatSet scratch;
    for (std::uint16_t ch = 0; ch < streams.size(); ++ch) {
        PimUnit unit(cfg, map, mem, ch,
                     "golden" + std::to_string(ch), scratch);
        Tick when = 0;
        for (const PimInstr &instr : streams[ch]) {
            if (!instr.isPimCommand())
                continue; // order points / host ops do not execute
            unit.execute(instr, when++);
        }
    }
}

bool
compareArray(const SparseMemory &got, const SparseMemory &want,
             const PimArray &array, std::string &why)
{
    for (std::uint64_t off = 0; off < array.bytes; off += 32) {
        std::uint64_t addr = array.base + off;
        const auto &a = got.blockOrZero(addr);
        const auto &b = want.blockOrZero(addr);
        if (a != b) {
            for (std::uint32_t i = 0; i < 8; ++i) {
                float ga, gb;
                std::memcpy(&ga, a.data() + 4 * i, 4);
                std::memcpy(&gb, b.data() + 4 * i, 4);
                if (ga != gb || std::memcmp(a.data() + 4 * i,
                                            b.data() + 4 * i, 4)) {
                    std::ostringstream os;
                    os << array.name << "[byte " << (off + 4 * i)
                       << "]: got " << ga << ", want " << gb;
                    why = os.str();
                    return false;
                }
            }
            why = array.name + ": raw block mismatch";
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------
// Workload base-class helpers (kept here to avoid a tiny extra TU).
// ---------------------------------------------------------------

bool
Workload::fitsElements(const SystemConfig &cfg, std::uint64_t elements,
                       std::string &why) const
{
    const std::uint32_t need = tsSlotsNeeded();
    if (cfg.tsSlots() < need) {
        why = info().name + " needs a TS of at least " +
              std::to_string(need * cfg.busWidthBytes) + " B (" +
              std::to_string(need) + " slots of " +
              std::to_string(cfg.busWidthBytes) + " B) per lane, got " +
              std::to_string(cfg.tsBytes) + " B";
        return false;
    }
    return fitsLayout(cfg, elements, why);
}

void
Workload::build(const SystemConfig &cfg, std::uint64_t elements)
{
    cfg_ = cfg;
    map_ = std::make_unique<AddressMap>(cfg);
    alloc_ = std::make_unique<ArrayAllocator>(*map_);
    elements_ = elements;
    arrays_.clear();
    streams_.assign(cfg.numChannels, {});
    buildImpl();
    built_ = true;
}

PimArray &
Workload::addArray(const std::string &name, std::uint64_t elements,
                   std::uint8_t group)
{
    arrays_.push_back(alloc_->alloc(name, elements, group));
    return arrays_.back();
}

void
Workload::fillIntFloats(SparseMemory &mem, const PimArray &arr,
                        int lo, int hi, std::uint64_t seed) const
{
    Rng rng(seed);
    std::uint64_t span = std::uint64_t(hi - lo + 1);
    // Fill the padded region too so every command block is defined.
    std::uint64_t count = arr.bytes / sizeof(float);
    std::vector<float> chunk(8192);
    std::uint64_t written = 0;
    while (written < count) {
        std::size_t n = std::min<std::uint64_t>(chunk.size(),
                                                count - written);
        for (std::size_t i = 0; i < n; ++i)
            chunk[i] = float(int(rng.nextRange(span)) + lo);
        mem.write(arr.base + written * sizeof(float), chunk.data(),
                  n * sizeof(float));
        written += n;
    }
}

void
Workload::fillBytes(SparseMemory &mem, const PimArray &arr,
                    std::uint64_t seed) const
{
    Rng rng(seed);
    for (std::uint64_t off = 0; off < arr.bytes; off += 32) {
        auto &blk = mem.block(arr.base + off);
        for (std::uint32_t i = 0; i < 32; i += 8) {
            std::uint64_t v = rng.next();
            std::memcpy(blk.data() + i, &v, 8);
        }
    }
}

void
Workload::fillBlockPattern(SparseMemory &mem, const PimArray &arr,
                           const float (&pattern)[8]) const
{
    for (std::uint64_t off = 0; off < arr.bytes; off += 32)
        mem.write(arr.base + off, pattern, 32);
}

HostArraySpec
Workload::hostSpec(const PimArray &arr, bool write,
                   std::uint32_t bankOffset) const
{
    HostArraySpec spec;
    std::uint64_t bank_stride =
        map_->laneStride() * map_->numLanes();
    spec.base = arr.base +
                (bankOffset % map_->numBanks()) * bank_stride;
    spec.bytes = arr.bytes;
    spec.write = write;
    spec.memGroup = arr.memGroup;
    return spec;
}

std::vector<HostArraySpec>
Workload::hostTraffic() const
{
    // Default: stream every array, outputs as writes; equal padded
    // sizes are guaranteed by equal element counts — workloads with
    // differently-sized arrays override this.
    std::vector<HostArraySpec> specs;
    for (std::uint32_t i = 0; i < arrays_.size(); ++i) {
        specs.push_back(hostSpec(arrays_[i],
                                 arrays_[i].name.starts_with("out"),
                                 i));
    }
    return specs;
}

double
Workload::hostFlops() const
{
    return double(elements_);
}

} // namespace olight
