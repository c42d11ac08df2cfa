#include "sim/core/scoreboard.h"

#include <algorithm>

#include "common/logging.h"

namespace tcsim {

namespace {

/** Registers written by a load of the given width. */
int
dst_span(const Instruction& inst)
{
    if (inst.op == Opcode::kLdg || inst.op == Opcode::kLds)
        return std::max(1, inst.width_bits / 32);
    return 1;
}

/** Registers read by a store of the given width. */
int
src_span(const Instruction& inst)
{
    if (inst.op == Opcode::kStg || inst.op == Opcode::kSts)
        return std::max(1, inst.width_bits / 32);
    return 1;
}

/** Calls fn(word, mask) for each 64-register word that registers
 *  [base, base + n) touch, with that word's bits of the range. */
template <typename Fn>
void
for_each_word(int base, int n, Fn&& fn)
{
    const int end = base + n;
    while (base < end) {
        const int word = base / 64;
        const int lo = base % 64;
        const int hi = std::min(end - word * 64, 64);
        const uint64_t ones =
            hi - lo == 64 ? ~uint64_t{0} : (uint64_t{1} << (hi - lo)) - 1;
        fn(word, ones << lo);
        base = word * 64 + hi;
    }
}

}  // namespace

void
Scoreboard::for_each_dst(const Instruction& inst, auto&& fn)
{
    if (inst.op == Opcode::kHmma) {
        fn(inst.hmma.d_reg, inst.hmma.d_nregs);
        return;
    }
    for (int i = 0; i < inst.n_dst; ++i)
        fn(inst.dst[i], dst_span(inst));
}

void
Scoreboard::for_each_src(const Instruction& inst, auto&& fn)
{
    if (inst.op == Opcode::kHmma) {
        fn(inst.hmma.a_reg, inst.hmma.a_nregs);
        fn(inst.hmma.b_reg, inst.hmma.b_nregs);
        fn(inst.hmma.c_reg, inst.hmma.c_nregs);
        return;
    }
    for (int i = 0; i < inst.n_src; ++i)
        fn(inst.src[i], src_span(inst));
}

bool
Scoreboard::operands_in_range(const Instruction& inst)
{
    bool ok = true;
    auto check = [&](int base, int n) { ok = ok && base + n <= kNumRegs; };
    for_each_src(inst, check);
    for_each_dst(inst, check);
    return ok;
}

bool
Scoreboard::can_issue(int w, const Instruction& inst) const
{
    if (inst.op == Opcode::kHmma && !inst.hmma.first_in_group) {
        // Intra-group accumulator reuse is forwarded inside the tensor
        // core; the group issues as a unit once its head clears.
        return true;
    }

    const RegMask& bits = pending_[w];
    uint64_t hit = 0;
    auto test = [&](int base, int n) {
        for_each_word(base, n, [&](int word, uint64_t mask) {
            hit |= bits[word] & mask;
        });
    };
    for_each_src(inst, test);
    for_each_dst(inst, test);
    return hit == 0;
}

void
Scoreboard::issue(int w, const Instruction& inst)
{
    if (inst.op == Opcode::kHmma && !inst.hmma.first_in_group)
        return;  // D registers were marked by the group head.
    RegMask& bits = pending_[w];
    for_each_dst(inst, [&](int base, int n) {
        for_each_word(base, n,
                      [&](int word, uint64_t mask) { bits[word] |= mask; });
    });
}

void
Scoreboard::complete(int w, const Instruction& inst)
{
    if (inst.op == Opcode::kHmma && !inst.hmma.last_in_group)
        return;  // only the group tail releases the D registers
    RegMask& bits = pending_[w];
    for_each_dst(inst, [&](int base, int n) {
        for_each_word(base, n,
                      [&](int word, uint64_t mask) { bits[word] &= ~mask; });
    });
}

}  // namespace tcsim
