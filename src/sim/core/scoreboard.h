#pragma once
/**
 * @file
 * Per-warp register scoreboard.  Tracks registers with writes in
 * flight; an instruction may not issue while any of its source (RAW)
 * or destination (WAW) registers are pending, mirroring the paper's
 * "updated the scoreboard to check for RAW and WAW hazard associated
 * with wmma.mma instructions".
 */

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instruction.h"
#include "sim/snapshot_io.h"

namespace tcsim {

/** Scoreboard over up to 256 registers for a set of warps. */
class Scoreboard
{
  public:
    /** Registers a warp's scoreboard tracks (r0..r255). */
    static constexpr int kNumRegs = 256;

    explicit Scoreboard(int num_warps) : pending_(num_warps) {}

    /** Grow tracking state for a newly resident warp. */
    void add_warp() { pending_.emplace_back(); }

    /** Clear state when a finished warp's slot is recycled. */
    void reset_warp(int w) { pending_[w] = {}; }

    /** True if every register range @p inst reads or writes lies
     *  within r0..r255 (a uint8_t base plus its span can run past). */
    static bool operands_in_range(const Instruction& inst);

    /** True if @p inst of warp @p w has no RAW/WAW hazard.  HMMA
     *  instructions that are not first in their group bypass operand
     *  checks: the tensor core forwards the accumulator internally. */
    bool can_issue(int w, const Instruction& inst) const;

    /** Mark destination registers pending at issue. */
    void issue(int w, const Instruction& inst);

    /** Clear pending destinations at writeback. */
    void complete(int w, const Instruction& inst);

    bool reg_pending(int w, int reg) const
    {
        return (pending_[w][reg / 64] >> (reg % 64)) & 1;
    }
    bool any_pending(int w) const
    {
        const RegMask& m = pending_[w];
        return (m[0] | m[1] | m[2] | m[3]) != 0;
    }

    /** Serialize/restore the pending masks (snapshot support): four
     *  u64 words per warp, bit b of word i = register 64 * i + b. */
    void save_state(SnapshotWriter& w) const
    {
        w.u64(pending_.size());
        for (const RegMask& m : pending_)
            for (uint64_t word : m)
                w.u64(word);
    }

    void load_state(SnapshotReader& r)
    {
        pending_.assign(r.u64(), {});
        for (RegMask& m : pending_)
            for (uint64_t& word : m)
                word = r.u64();
    }

  private:
    /** Pending-write bits of one warp, 64 registers per word. */
    using RegMask = std::array<uint64_t, kNumRegs / 64>;

    /** Destination register ranges of @p inst as (base, count) (HMMA:
     *  the D fragment; loads: width-derived span). */
    static void for_each_dst(const Instruction& inst, auto&& fn);
    static void for_each_src(const Instruction& inst, auto&& fn);

    std::vector<RegMask> pending_;
};

}  // namespace tcsim
