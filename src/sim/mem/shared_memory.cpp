#include "sim/mem/shared_memory.h"

#include <algorithm>
#include <array>

namespace tcsim {

int
shared_bank_conflict_degree(const Instruction& inst, int num_banks, int iter)
{
    TCSIM_CHECK(inst.addr != nullptr);
    TCSIM_CHECK(num_banks <= 32);
    const int word_bytes = 4;

    // Distinct words the active lanes request (lanes reading the same
    // word broadcast).
    std::array<uint64_t, kWarpSize> words;
    int n = 0;
    for (int lane = 0; lane < kWarpSize; ++lane) {
        uint64_t a = inst.effective_addr(lane, iter);
        if (a != kNoAddr)
            words[static_cast<size_t>(n++)] = a / word_bytes;
    }
    std::sort(words.begin(), words.begin() + n);
    n = static_cast<int>(std::unique(words.begin(), words.begin() + n) -
                         words.begin());

    // Accesses wider than 4 bytes run one 4-byte phase per word; phase
    // p adds p to every word address, which only rotates the per-bank
    // counts, so every phase has the first phase's worst bank.  (The
    // caller charges the extra phases.)
    std::array<int, 32> per_bank{};
    int worst = 1;
    for (int i = 0; i < n; ++i) {
        int& c = per_bank[static_cast<size_t>(
            words[static_cast<size_t>(i)] % static_cast<uint64_t>(num_banks))];
        worst = std::max(worst, ++c);
    }
    return worst;
}

}  // namespace tcsim
