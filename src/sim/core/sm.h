#pragma once
/**
 * @file
 * Streaming multiprocessor model: four sub-cores, the shared MIO
 * (memory input/output) path, CTA residency and barrier handling, and
 * per-SM statistics.
 *
 * An SM is grid-agnostic: CTAs from several resident grids (concurrent
 * kernel execution across streams) may co-exist, gated by additive
 * warp/shared-memory/register/slot accounting.  Statistics are
 * attributed to each warp's owning GridRun.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "arch/gpu_config.h"
#include "common/stats.h"
#include "sass/hmma_executor.h"
#include "sim/core/subcore.h"
#include "sim/grid_run.h"
#include "sim/kernel_desc.h"
#include "sim/mem/memory_system.h"

namespace tcsim {

/** Cache of functional HMMA executors keyed by configuration, shared
 *  by the SMs of one Gpu (executors are immutable after
 *  construction). */
class ExecutorCache
{
  public:
    HmmaExecutor& get(Arch arch, const HmmaInfo& info);

    /** Cache key of (arch, info) — exposed so callers can memoize the
     *  executor pointer and skip the map lookup when the key repeats. */
    static uint64_t key(Arch arch, const HmmaInfo& info);

  private:
    std::map<uint64_t, std::unique_ptr<HmmaExecutor>> cache_;
};

/** One CTA that finished this tick (sampled-mode latency sampling). */
struct CtaCompletion
{
    GridRun* grid;
    uint64_t latency;  ///< Completion cycle minus dispatch cycle.
};

/** One streaming multiprocessor. */
class SM
{
  public:
    SM(int id, const GpuConfig& cfg, MemorySystem* mem,
       ExecutorCache* executors, SchedulerPolicy policy);

    // ---- Tick ----
    //
    // The engine ticks the cycled SMs in two passes, each in ascending
    // SM-index order: begin_tick() for every SM first (the MIO drains
    // through the shared MemorySystem), then tick_compute() for every
    // SM.  The BENCH_ baselines pin this order.
    //
    // Settlement: a busy SM is ticked only at cycles at or after its
    // cached next event; the cycles in between are provably stalled
    // and their issue stalls are charged lazily.  settled_to_ is the
    // first cycle whose stalls have not been charged yet.  The
    // invariant: every reader of stall counters (SM or grid) sees a
    // busy SM settled through the cycle it observes, and nothing
    // changes what a skipped cycle charges before it is settled.  The
    // charge is made before each tick (begin_tick), before a CTA is
    // dispatched to the SM, and, for SMs the tick skipped, by settle()
    // at the engine's observation points: the retire pass and every
    // return from an advance (see ExecutionEngine::settle).  A
    // restored SM is settled to the restore cycle (mark_settled).

    /** Start the tick and service the MIO queues.  A busy SM first
     *  charges the stalls of the cycles it was skipped over. */
    void begin_tick(uint64_t now);

    /** Charge the stalls of the skipped cycles before @p cycle, if
     *  busy (a no-op when already settled that far). */
    void settle(uint64_t cycle)
    {
        if (busy_cache_ && cycle > settled_to_) {
            account_skipped(cycle - settled_to_);
            settled_to_ = cycle;
        }
    }

    /** Stalls are charged for every cycle before @p cycle (snapshot
     *  restore: a paused run is settled up to its clock). */
    void mark_settled(uint64_t cycle) { settled_to_ = cycle; }

    /** First cycle whose stalls are not yet charged. */
    uint64_t settled_to() const { return settled_to_; }

    /** The last tick issued, wrote back or moved MIO traffic. */
    bool progressed() const { return progress_; }

    /** Sub-core writebacks + issue, with functional execution.  When
     *  @p completions is non-null (sampled mode, replay recording),
     *  each CTA that completes this tick is appended with its
     *  measured latency.  Also caches busy()/next_event() so the
     *  engine's event scan does not touch SM internals. */
    void tick_compute(uint64_t now, std::vector<CtaCompletion>* completions);

    /** True while CTAs are resident or traffic is in flight. */
    bool busy() const;

    /** busy() as of the end of the last tick_compute(). */
    bool busy_cached() const { return busy_cache_; }

    /** next_event() as of the end of the last tick_compute(): the
     *  engine ticks a busy SM only once this is due, and its
     *  stalled-chip scan reads this O(1) cache instead of re-walking
     *  sub-core in-flight lists. */
    uint64_t next_event_cached() const { return next_event_cache_; }

    // ---- Engine-facing dispatch interface ----

    /** True if a CTA of @p k fits the SM's currently free resources. */
    bool can_accept(const KernelDesc& k) const;

    /** Place CTA @p cta_id of @p grid on this SM at cycle @p now.  The
     *  caller must have checked can_accept(); at most one CTA per SM
     *  per cycle (hardware rasterizer pacing). */
    void launch_cta(GridRun* grid, int cta_id, uint64_t now = 0);

    /** True if a CTA of @p k fits an empty SM of @p cfg.  The single
     *  source of truth for launchability — the scenario driver
     *  pre-checks with this to report instead of abort. */
    static bool fits(const GpuConfig& cfg, const KernelDesc& k);

    /** Throw SimError with a diagnostic if @p k cannot fit even an
     *  empty SM (scenario-reachable: the batch driver contains it to
     *  an error row). */
    static void check_fits(const GpuConfig& cfg, const KernelDesc& k);

    /**
     * Cap this SM's warp slots below the architectural maximum
     * (fault injection: a degraded SM).  Takes effect for future
     * can_accept() decisions only; must be set before any CTA is
     * dispatched.  Values <= 0 or >= max_warps_per_sm restore the
     * architectural cap.
     */
    void set_warp_cap(int warps)
    {
        warp_cap_ = (warps > 0 && warps < cfg_.max_warps_per_sm)
                        ? warps
                        : cfg_.max_warps_per_sm;
    }

    /**
     * Earliest future cycle this SM can make progress: now+1 after a
     * productive tick, otherwise the nearest writeback / MIO / unit
     * event, or UINT64_MAX when idle.  The engine's event-driven loop
     * skips the provably dead cycles in between.
     */
    uint64_t next_event(uint64_t now) const;

    // ---- Interface used by SubCore ----
    const GpuConfig& config() const { return cfg_; }
    MemorySystem& mem() { return *mem_; }
    uint64_t now() const { return now_; }
    int id() const { return id_; }

    /** Enqueue a memory instruction into the MIO path.  Returns
     *  StallReason::kNone on success; otherwise the reason the warp
     *  must stall — kMioFull when the finite load/store queue itself
     *  is full, or the downstream back-pressure reason (kMshrFull /
     *  kNocBusy / kDramQueue) when the queue is full *because* the
     *  memory system is refusing its head transaction. */
    StallReason mio_push(int subcore, int warp_slot, const Instruction* inst,
                         int iter);

    /** Functional execution of one instruction (loads/stores/ALU/HMMA). */
    void execute_functional(Warp& w, const Instruction& inst);

    void barrier_arrive(int cta_slot);
    void warp_finished(int cta_slot);
    /** Count one issued instruction against @p w's grid. */
    void count_issue(const Warp& w, const Instruction& inst);
    void record_macro(GridRun* grid, MacroClass mc, uint64_t latency)
    {
        grid->stats.record_macro(mc, latency);
    }
    SharedMemoryStorage* shared(int cta_slot);

    /** Instructions issued by this SM. */
    uint64_t issued() const;

    /** CTAs completed by this SM. */
    int ctas_completed() const { return ctas_completed_; }

    /** CTAs currently resident. */
    int resident_ctas() const { return used_ctas_; }

    /** Sum of sub-core issue-stall counters into @p out. */
    void add_stalls(StallCounts* out) const
    {
        for (const auto& sc : subcores_)
            out->add(sc->stall_counts());
    }

    /** @p grid is retiring: clear any sub-core stall-attribution
     *  pointers into it before the GridRun is destroyed. */
    void forget_grid(const GridRun* grid)
    {
        for (const auto& sc : subcores_)
            sc->forget_grid(grid);
    }

    /** Batched form: one pass for every grid retiring this tick (the
     *  engine collects retirements first instead of re-walking every
     *  SM once per retired launch). */
    void forget_grids(const std::vector<const GridRun*>& grids)
    {
        for (const GridRun* g : grids)
            forget_grid(g);
    }

    /** cta_id of CTA slot @p slot (SubCore::load_state regenerates
     *  warp programs from it). */
    int cta_id_of_slot(int slot) const
    {
        return cta_slots_[static_cast<size_t>(slot)].cta_id;
    }

    /**
     * Serialize/restore the full SM state (snapshot support), between
     * engine ticks.  @p grids maps resident GridRun pointers to stable
     * indices.
     */
    void save_state(SnapshotWriter& w,
                    const std::vector<GridRun*>& grids) const;
    void load_state(SnapshotReader& r, const std::vector<GridRun*>& grids);

  private:
    void process_mio();

    /** Attribute @p cycles of skipped (provably stalled) time to the
     *  sub-cores' issue-stall counters (settle()). */
    void account_skipped(uint64_t cycles);

    /** Functional execution of one global LDG/STG. */
    void functional_global_access(Warp& w, const Instruction& inst);

    /** Pipeline stall reason for a memory-system refusal. */
    static StallReason stall_reason_of(MemAccept status);

    struct MioEntry
    {
        int subcore;
        int warp_slot;
        const Instruction* inst;
        int iter;
        /** Global-path transaction state: the warp's coalesced sectors
         *  (computed when the entry reaches the head of the queue) and
         *  how far admission has progressed.  A sector refused by the
         *  memory system leaves the entry at the head; it resumes from
         *  next_sector at the retry cycle. */
        std::vector<uint64_t> sectors;
        size_t next_sector = 0;
        uint64_t done = 0;       ///< Max completion across sectors so far.
        uint64_t port_next = 0;  ///< L1 port cycle of the next sector.
        bool primed = false;     ///< Sectors computed.
    };

    int id_;
    GpuConfig cfg_;
    MemorySystem* mem_;
    ExecutorCache* executors_;
    /** One-entry memo over executors_ (see the kHmma functional
     *  case): executors are immutable and never evicted, so the
     *  pointer stays valid for the cache's lifetime. */
    HmmaExecutor* executor_memo_ = nullptr;
    uint64_t executor_memo_key_ = 0;
    uint64_t now_ = 0;
    /** Anything happened this tick (issue/writeback/MIO pop)? */
    bool progress_ = false;

    std::vector<std::unique_ptr<SubCore>> subcores_;
    std::vector<CtaSlot> cta_slots_;
    /** (subcore, warp_slot) pairs per CTA slot, for barrier release. */
    std::vector<std::vector<std::pair<int, int>>> cta_warps_;

    /** Warp-slot cap for dispatch decisions (== max_warps_per_sm on a
     *  healthy SM; lower on a fault-degraded one). */
    int warp_cap_ = 0;

    /** Additive occupancy accounting across all resident grids. */
    int used_ctas_ = 0;
    int used_warps_ = 0;
    uint64_t used_smem_ = 0;
    uint64_t used_regs_ = 0;

    /** Separate shared-memory and L1/global pipes behind the MIO
     *  scheduler (each accepts one warp instruction per cycle). */
    std::deque<MioEntry> mio_shared_;
    std::deque<MioEntry> mio_global_;
    /** Sector storage handed to each global head entry as it primes
     *  and taken back when it pops: coalescing reuses one buffer
     *  instead of allocating per instruction. */
    std::vector<uint64_t> sector_buf_;
    uint64_t mio_shared_free_ = 0;
    uint64_t mio_global_free_ = 0;
    /** Earliest cycle a refused head transaction may be retried (0 =
     *  head not blocked).  Folded into next_event so idle-skip jumps
     *  exactly to the retry. */
    uint64_t mio_global_retry_ = 0;
    /** Why the global head is blocked (memory back-pressure), for
     *  stall attribution when the LSQ backs up to the scheduler. */
    StallReason mio_block_reason_ = StallReason::kNone;
    int ctas_completed_ = 0;

    /** CTA-completion sink of the tick in progress (see
     *  tick_compute). */
    std::vector<CtaCompletion>* completions_ = nullptr;

    /** Tick-end caches consumed by the engine (see tick_compute). */
    bool busy_cache_ = false;
    uint64_t next_event_cache_ = UINT64_MAX;
    /** First cycle whose issue stalls are not charged yet (see the
     *  settlement comment at begin_tick). */
    uint64_t settled_to_ = 0;
};

}  // namespace tcsim
