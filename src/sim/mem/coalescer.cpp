#include "sim/mem/coalescer.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace tcsim {

void
coalesce_sectors(const Instruction& inst, int sector_bytes, int iter,
                 std::vector<uint64_t>* out)
{
    TCSIM_CHECK(is_memory_opcode(inst.op));
    TCSIM_CHECK(inst.addr != nullptr);
    TCSIM_CHECK(inst.width_bits >= 8);
    TCSIM_CHECK(std::has_single_bit(static_cast<unsigned>(sector_bytes)));

    // Each active lane touches the sector range [first, last] (in
    // sector indices); collect the ranges and their overall span.
    const int shift = std::countr_zero(static_cast<unsigned>(sector_bytes));
    const uint64_t bytes = inst.width_bits / 8;
    uint64_t first[kWarpSize];
    uint64_t last[kWarpSize];
    int n = 0;
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    for (int lane = 0; lane < kWarpSize; ++lane) {
        uint64_t a = inst.effective_addr(lane, iter);
        if (a == kNoAddr)
            continue;
        first[n] = a >> shift;
        last[n] = (a + bytes - 1) >> shift;
        lo = std::min(lo, first[n]);
        hi = std::max(hi, last[n]);
        ++n;
    }
    out->clear();
    if (n == 0)
        return;
    if (hi - lo < 64) {
        // Common case: a 64-sector window holds every lane's sectors,
        // so a bitmap dedupes them and reads back sorted.
        uint64_t bits = 0;
        for (int i = 0; i < n; ++i)
            bits |= (uint64_t{2} << (last[i] - lo)) -
                    (uint64_t{1} << (first[i] - lo));
        for (; bits != 0; bits &= bits - 1)
            out->push_back((lo + static_cast<uint64_t>(
                                     std::countr_zero(bits)))
                           << shift);
        return;
    }
    for (int i = 0; i < n; ++i)
        for (uint64_t s = first[i]; s <= last[i]; ++s)
            out->push_back(s << shift);
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
}

std::vector<uint64_t>
coalesce_sectors(const Instruction& inst, int sector_bytes, int iter)
{
    std::vector<uint64_t> sectors;
    coalesce_sectors(inst, sector_bytes, iter, &sectors);
    return sectors;
}

}  // namespace tcsim
