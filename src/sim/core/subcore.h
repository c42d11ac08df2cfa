#pragma once
/**
 * @file
 * Sub-core model (Fig 1 of the paper): one warp scheduler issuing one
 * warp-instruction per clock into the FP32/INT/FP64/MUFU paths, the
 * tensor core pair, or the MIO (memory) queue, with scoreboard-based
 * hazard tracking and in-order per-warp issue.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/core/exec_unit.h"
#include "sim/core/scheduler.h"
#include "sim/core/scoreboard.h"
#include "sim/core/stall.h"
#include "sim/core/warp.h"
#include "sim/tc/tensor_core_unit.h"

namespace tcsim {

class SM;

/**
 * One of the four processing blocks of an SM.
 *
 * Stall memo: a failed issue poll has no side effects beyond the stall
 * it records, and its outcome is a function of the warp states, the
 * scoreboard, the FP32/INT/tensor-core ready times against `now`, and
 * the MIO queues' occupancy and block reason.  So after a failed poll
 * the sub-core stays "stalled" and charges the same stall each cycle
 * without walking its warps, until the nearest unit ready time
 * (stall_wake_) or one of these wake sources:
 *   - a writeback completing here (scoreboard, warp drain/finish);
 *   - add_warp, release_barrier, load_state;
 *   - mio_changed() — an MIO pipe popped or the global head's block
 *     reason changed — but only if the last poll had a warp refused
 *     by mio_push.  A push by another sub-core only fills the queue
 *     further, so it cannot unblock anyone.
 * A retiring grid (forget_grid) needs no wake: its warps here have
 * all finished, each through a writeback or an issued EXIT.  The memo
 * is not serialized: a restored sub-core re-polls and gets the same
 * answer.
 */
class SubCore
{
  public:
    SubCore(SM* sm, int index, SchedulerPolicy policy);

    /** Add a warp at CTA launch; returns its slot index.  Slots of
     *  finished warps are recycled so long multi-kernel runs keep a
     *  bounded footprint. */
    int add_warp(std::unique_ptr<Warp> warp);

    Warp& warp(int slot) { return *warps_[slot]; }

    /** Number of warp slots (live + recycled). */
    size_t warp_count() const { return warps_.size(); }

    /** True while any resident warp is unfinished or writes are in
     *  flight. */
    bool busy() const;

    /** Complete instructions whose writeback cycle has arrived; true
     *  if any instruction completed.  Returns at once while the
     *  earliest in-flight writeback is still in the future. */
    bool do_writebacks(uint64_t now);

    /** Attempt to issue one instruction; true if something issued.
     *  While the stall memo holds, only records the memoized stall. */
    bool try_issue(uint64_t now);

    /** The SM's MIO state changed in a way that can unblock a refused
     *  push (a pipe popped, or the global head's block reason moved):
     *  wake this sub-core if its last poll hit mio_push refusal. */
    void mio_changed()
    {
        if (mio_refused_)
            stalled_ = false;
    }

    /** Earliest future cycle a stalled sub-core can change state: the
     *  nearest in-flight writeback or execution-unit ready time. */
    uint64_t next_event(uint64_t now) const;

    /** Attribute @p cycles of skipped stalled time to the issue-stall
     *  counters (same reason the last real attempt recorded). */
    void account_skipped(uint64_t cycles);

    /** Register a future writeback (used by the SM's MIO path too).
     *  @p iter is the loop iteration the instruction issued at. */
    void register_writeback(uint64_t done, int warp_slot,
                            const Instruction* inst, int iter);

    /** Number of instructions issued by this sub-core. */
    uint64_t issued() const { return issued_; }

    /** Issue-stall attribution (cycles no instruction issued, by the
     *  blocking reason of the last warp the scheduler considered).
     *  The enum lives in sim/core/stall.h; the alias keeps the
     *  historical SubCore::StallReason spelling working. */
    using StallReason = tcsim::StallReason;
    const StallCounts& stall_counts() const { return stalls_; }

    const TensorCoreUnit& tensor_cores() const { return tc_; }

    /** Release a warp blocked at the CTA barrier. */
    void release_barrier(int warp_slot);

    /** @p grid is retiring: drop the stall-attribution pointer if it
     *  references it (the GridRun is about to be destroyed). */
    void forget_grid(const GridRun* grid)
    {
        if (last_block_grid_ == grid)
            last_block_grid_ = nullptr;
    }

    /**
     * Serialize/restore the full sub-core state (snapshot support).
     * @p grids maps resident GridRun pointers to stable indices.  Warp
     * programs are not serialized: load regenerates them from each
     * grid's deterministic kernel trace and validates the length, so
     * the in-flight Instruction pointers (encoded as program indices)
     * re-anchor into identical programs.  Must only run between engine
     * ticks.  The containing SM must have loaded its CTA slot table
     * first (trace regeneration needs each warp's cta_id).
     */
    void save_state(SnapshotWriter& w,
                    const std::vector<GridRun*>& grids) const;
    void load_state(SnapshotReader& r, const std::vector<GridRun*>& grids);

  private:
    /** Visit the active warps in scheduler order and issue the first
     *  that can go.  On failure last_block_/last_block_grid_ name the
     *  stall and mio_refused_ says whether mio_push refused a warp. */
    bool poll_warps(uint64_t now);

    /** Try to issue the next instruction of one warp. */
    bool try_issue_warp(int slot, uint64_t now);

    /** Issue bookkeeping common to all instruction classes. */
    void finish_issue(int slot, Warp& w, const Instruction& inst,
                      uint64_t now);

    /** Retire a warp whose EXIT has drained. */
    void maybe_finish_warp(int slot);

    /** Count @p cycles of issue stall for @p r, attributed both to
     *  this sub-core's totals and (when known) to the grid whose warp
     *  blocked the scheduler. */
    void note_stall(StallReason r, uint64_t cycles, GridRun* grid);

    struct InFlight
    {
        uint64_t done;
        int warp_slot;
        const Instruction* inst;
        int iter;
    };

    SM* sm_;
    int index_;
    SchedulerPolicy policy_;
    std::vector<std::unique_ptr<Warp>> warps_;
    std::vector<int> active_;  ///< Slots of resident, unfinished warps.
    std::vector<int> free_slots_;  ///< Recyclable finished slots.
    Scoreboard scoreboard_{0};
    ExecUnit fp32_;
    ExecUnit int_;
    ExecUnit fp64_;
    ExecUnit mufu_;
    TensorCoreUnit tc_;
    std::vector<InFlight> inflight_;
    /** Earliest `done` in inflight_ (UINT64_MAX when empty): exact
     *  after each do_writebacks pass, lowered by register_writeback. */
    uint64_t next_done_ = UINT64_MAX;
    int last_issued_ = -1;
    int lrr_pos_ = 0;
    uint64_t issued_ = 0;
    StallCounts stalls_;
    StallReason last_block_ = StallReason::kNone;
    /** Grid of the warp that set last_block_ (stall attribution). */
    GridRun* last_block_grid_ = nullptr;
    /** Stall memo (see the class comment): the last poll failed and
     *  nothing it read has changed since. */
    bool stalled_ = false;
    /** Nearest FP32/INT/tensor-core ready time after the failed poll. */
    uint64_t stall_wake_ = 0;
    /** The last poll had a warp refused by mio_push. */
    bool mio_refused_ = false;
};

}  // namespace tcsim
