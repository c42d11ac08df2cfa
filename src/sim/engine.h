#pragma once
/**
 * @file
 * Stream-aware multi-kernel execution engine.
 *
 * Streams hold ordered operation queues (launches, event records,
 * event waits, host callbacks), a chip-level dispatcher assigns CTAs
 * from all resident grids to SMs (concurrent kernel execution when
 * occupancy allows), and the main loop is event-driven — idle SMs are
 * not ticked, a busy SM is ticked only once its cached next event is
 * due, and when every SM is provably stalled the clock jumps to the
 * next writeback / MIO / execution-unit event.  Pending memory
 * transactions fold into those events: in-flight completions are
 * registered writebacks, and a head transaction refused by the memory
 * system (MSHR/NoC/DRAM back-pressure) contributes its exact retry
 * cycle, so skipping stays bit-identical to a lockstep run even when
 * the only outstanding work is in the memory hierarchy
 * (SimOptions::idle_skip).  A skipped SM's issue stalls are charged
 * lazily (SM's settlement comment): before its next tick, before a CTA
 * is dispatched to it, and at every observation point — the retire
 * pass and each return from an advance — so every stall counter a
 * caller, a retiring launch or a snapshot reads is the lockstep value.
 * Lockstep mode also checks, each tick, that an SM whose cached next
 * event lies in the future makes no progress.
 *
 * The engine is a persistent object (Gpu owns one): per-run state
 * lives in an explicit RunState, so a run can be advanced
 * incrementally — run_until() pauses at a cycle bound, synchronize()
 * drains one stream or waits for one event — and resumed later, with
 * new work enqueued between advances.  A run begins when any advance
 * entry point finds queued work and no active run, and ends when every
 * stream has drained; memory timing (caches, DRAM queues) persists
 * across launches within one run and resets at run boundaries.
 * Gpu::launch() wraps a single-kernel run on a private engine and so
 * keeps the old cold-cache per-launch semantics.
 *
 * Dependency gating: a launch queued behind a Stream::wait() is not
 * promotable until the awaited event has been recorded and the
 * recording stream's earlier work has retired.  When no stream can
 * make progress and the chip is idle, the engine throws
 * EngineDeadlockError with the cycle-accurate wait graph.
 *
 * One simulation runs on one thread.  Each tick drains the MIO of
 * every cycled SM through the shared memory hierarchy in SM-index
 * order, then runs each SM's compute (writebacks, issue, functional
 * execution) in the same order.  README "Performance" explains why
 * the simulator parallelizes across scenarios and sweep points
 * instead of inside one simulation.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <chrono>

#include "arch/gpu_config.h"
#include "common/stats.h"
#include "sim/core/scheduler.h"
#include "sim/core/sm.h"
#include "sim/core/stall.h"
#include "sim/event.h"
#include "sim/grid_run.h"
#include "sim/kernel_desc.h"
#include "sim/mem/memory_system.h"
#include "sim/replay/replay_cache.h"
#include "sim/stream.h"

namespace tcsim {

class FaultPlan;

/** Result of one kernel launch. */
struct LaunchStats
{
    std::string kernel;
    /** Stream the launch ran on. */
    int stream = 0;
    /** Engine cycle window the launch occupied. */
    uint64_t start_cycle = 0;
    uint64_t finish_cycle = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t hmma_instructions = 0;
    /** Instructions per cycle over the launch's own cycle window. */
    double ipc = 0.0;
    /** Memory traffic during the launch's window (shared with any
     *  concurrently resident kernels). */
    MemStats mem;
    /** Latency distributions per WMMA macro class (Figs 15/16). */
    std::map<MacroClass, Histogram> macro_latency;
    /** Issue-stall cycles attributed to this kernel's warps (the warp
     *  blocking a sub-core scheduler belonged to this launch), indexed
     *  by SubCore::StallReason.  Gpu::launch() overwrites this with
     *  the chip-wide attribution (legacy single-kernel semantics). */
    StallCounts stalls;

    /** Achieved TFLOPS for a GEMM of the given FLOP count. */
    double tflops(double flops, double clock_ghz) const
    {
        if (cycles == 0)
            return 0.0;
        double seconds = static_cast<double>(cycles) / (clock_ghz * 1e9);
        return flops / seconds / 1e12;
    }
};

/** Aggregate statistics of one engine run (or a paused snapshot of
 *  one: run_until()/synchronize() return progress so far). */
struct EngineStats
{
    /** Cycle the last retired kernel drained, plus one (total length
     *  of the completed work; 0 when nothing retired yet). */
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t hmma_instructions = 0;
    /** Chip-wide instructions per cycle over the whole run. */
    double ipc = 0.0;
    /** Aggregate memory traffic of the run. */
    MemStats mem;
    /** Per-kernel statistics, in completion order. */
    std::vector<LaunchStats> kernels;
    /** Issue-stall attribution summed over all SMs, indexed by
     *  SubCore::StallReason. */
    StallCounts stalls;

    /** Event-driven loop telemetry: ticks actually simulated and
     *  cycles skipped because every SM was provably stalled. */
    uint64_t ticks = 0;
    uint64_t skipped_cycles = 0;

    /** Replay-cache telemetry (SimOptions::replay_mode): launches
     *  completed from a recorded profile, launches simulated in
     *  detail because no profile matched (these record one), and
     *  replayed launches re-simulated by verify mode. */
    uint64_t replay_hits = 0;
    uint64_t replay_misses = 0;
    uint64_t replay_verified = 0;

    /** Engine clock when this result was produced.  For a paused run
     *  (run_until/synchronize) this is the next cycle the engine will
     *  simulate on resume. */
    uint64_t current_cycle = 0;

    double tflops(double flops, double clock_ghz) const
    {
        if (cycles == 0)
            return 0.0;
        double seconds = static_cast<double>(cycles) / (clock_ghz * 1e9);
        return flops / seconds / 1e12;
    }
};

/** Options controlling one simulation run. */
struct SimOptions
{
    SchedulerPolicy scheduler = SchedulerPolicy::kGto;
    /** Stop runaway simulations after this many cycles (the engine
     *  throws SimHangError with a diagnostic dump when exceeded). */
    uint64_t max_cycles = 2'000'000'000;
    /**
     * Wall-clock watchdog (0 = off): a run that simulates longer than
     * this many milliseconds of host time throws SimHangError with
     * the same diagnostic dump.  Containment only — the check runs
     * every 4096 ticks and never influences simulated timing, so
     * enabling it cannot perturb a healthy run's results.
     */
    uint64_t wall_budget_ms = 0;
    /**
     * Skip provably stalled cycles (the event-driven fast path): tick a
     * busy SM only when its next event is due, and jump the clock when
     * no SM has one.  The events fold in every pending memory
     * completion and blocked-transaction retry cycle, so results are
     * bit-identical either way; disabling it ticks every busy SM every
     * cycle and exists to prove exactly that (tests/engine_mem_test.cpp,
     * the Settlement tests in tests/snapshot_test.cpp, and
     * tools/check_lockstep_identity.py over the scenario suite).
     */
    bool idle_skip = true;
    /** Threads per simulation.  Only 1 is valid (the engine
     *  constructor throws std::invalid_argument otherwise): the field
     *  remains so existing callers that set it to 1 keep compiling. */
    int sim_threads = 1;
    /**
     * Floor on the SM-array size (0 = size purely from pending CTAs).
     * The engine normally constructs only as many SMs as pending CTAs
     * could occupy; because idle SMs still record scheduler stalls
     * while dispatch is pending, the array size is
     * timing-observable.  Sweep forks set the same floor on the forked
     * base and on every cold rerun so all of them see identical SM
     * arrays.  Clamped to GpuConfig::num_sms.
     */
    int min_sms = 0;
    /**
     * Sampled-SM fast-forward (0 = off, full detail).  When positive,
     * at most this many SMs are simulated cycle-accurately; the rest
     * of the array becomes *shadow* SMs that model occupancy only.  A
     * shadow CTA completes after the measured mean CTA latency of its
     * grid on the detailed SMs (re-sampled every sample_window
     * cycles).  Shadows accept CTAs at the same rasterizer pace as
     * detailed SMs — so occupancy matches a full-detail run — but a
     * grid must have dispatched at least one detailed CTA first, and
     * a shadow CTA's completion is only predicted once the first
     * detailed measurement lands.  Approximate by construction: total
     * cycles carry the error bound asserted in CI, per-grid
     * instruction counts are extrapolated from the detailed fraction,
     * and memory counters reflect detailed traffic only.  Rejected
     * for functional kernels (shadow CTAs execute nothing).
     */
    int detailed_sms = 0;
    /** Re-sampling window (cycles) of the shadow CTA-latency
     *  estimator: each window that observed at least one detailed CTA
     *  completion replaces the running mean. */
    uint64_t sample_window = 4096;

    /** Kernel-timing replay cache mode (see sim/replay/). */
    enum class ReplayMode {
        kOff,     ///< Always simulate in detail (the default).
        kRecord,  ///< Detail everything; record profiles into the cache.
        kReplay,  ///< Replay fingerprint hits; detail + record misses.
        kVerify,  ///< kReplay, but re-simulate 1-in-N hits in detail
                  ///< and fail the run on divergence past the bound.
                  ///< Strict by construction: the re-simulated kernel
                  ///< runs beside *replayed* neighbors (which occupy
                  ///< no SMs), so under concurrent workloads it lacks
                  ///< the contention the profile was recorded under
                  ///< and can flag divergence even when the
                  ///< end-to-end replay is exact.  Best suited to
                  ///< serial / sweep-style runs.
    };
    /**
     * Memoize detailed kernel executions and replay fingerprint-
     * matching launches as coarse timeline events: completion is
     * scheduled from the recorded duration, statistics apply as
     * recorded deltas, and stream/event/task-graph ordering is
     * untouched.  Launches with an empty KernelDesc::timing_key or
     * with functional=true (replay would skip their data movement)
     * always run in detail.  Mutually exclusive with detailed_sms
     * (the engine throws): sampled profiles would poison the cache.
     */
    ReplayMode replay_mode = ReplayMode::kOff;
    /** Verify mode: re-simulate every Nth fingerprint hit (the first
     *  hit always verifies). */
    int replay_verify_every = 8;
    /** Verify mode: maximum |replayed - detailed| / detailed cycle
     *  divergence; instruction counters must match exactly. */
    double replay_verify_bound = 0.05;
    /**
     * Cache to consult and fill (borrowed; must outlive the engine).
     * Null with replay enabled = the engine lazily owns a private
     * cache, scoped to its lifetime.  Sharing one cache across
     * scenarios makes results depend on run order — deterministic
     * drivers give each scenario its own seeded copy.
     */
    ReplayCache* replay_cache = nullptr;
};

/** Thrown when no stream can make progress: every unfinished stream
 *  is blocked on an event that will never complete.  The message is
 *  the cycle-accurate wait graph. */
class EngineDeadlockError : public std::runtime_error
{
  public:
    explicit EngineDeadlockError(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/**
 * The persistent execution engine: owns the per-run SM timing state
 * (inside RunState) and drains stream operation queues.  Functional
 * memory and the executor cache live outside and persist across runs.
 */
class ExecutionEngine
{
  public:
    ExecutionEngine(const GpuConfig& cfg, const SimOptions& opts,
                    MemorySystem* mem, ExecutorCache* executors);
    ~ExecutionEngine();

    ExecutionEngine(const ExecutionEngine&) = delete;
    ExecutionEngine& operator=(const ExecutionEngine&) = delete;

    /** Run every queued operation of @p streams to completion
     *  (resumes the active run first when one is paused). */
    EngineStats run(const std::vector<Stream*>& streams);

    /** Advance the active (or newly begun) run while the engine clock
     *  is <= @p cycle.  Returns progress so far; the final advance
     *  that drains every stream returns the complete run's stats.
     *  Unlike run(), a bounded advance does not treat blocked waits
     *  as fatal: when only host action can unblock the run (an event
     *  nobody has recorded yet), it pauses early instead of throwing,
     *  so the host may record/enqueue and resume. */
    EngineStats run_until(const std::vector<Stream*>& streams,
                          uint64_t cycle);

    /** Advance until @p stream has no queued ops and no live launch. */
    EngineStats synchronize(const std::vector<Stream*>& streams,
                            const Stream& stream);

    /** Advance until @p event completes.  Throws EngineDeadlockError
     *  when every stream drains without the event ever completing. */
    EngineStats synchronize(const std::vector<Stream*>& streams,
                            const Event& event);

    /** A run has begun and not yet drained (paused, resumable). */
    bool active() const { return run_ != nullptr; }

    /** Engine clock of the active run (0 when idle). */
    uint64_t now() const;

    /**
     * Jump the paused run's clock forward to @p cycle without
     * simulating the gap (host-controlled idle skip).  Requires an
     * active run whose chip is completely idle — no resident kernels
     * and no stream with a runnable front op (only host-resolvable
     * event waits may remain); throws std::runtime_error otherwise.
     * The gap is accounted as skipped_cycles, exactly like the
     * engine's own idle-skip.  A @p cycle at or before the current
     * clock is a no-op.  This is the serving simulator's tool for
     * fast-forwarding across request inter-arrival gaps while a
     * keepalive wait holds the run open.
     */
    void advance_idle_to(uint64_t cycle);

    /**
     * Serialize the active run into @p w (snapshot support).  Resident
     * launches append their KernelDesc to @p kernels and are encoded
     * by index.  Requires an active run paused between ticks
     * (run_until()); throws SnapshotError otherwise.
     */
    void save_state(SnapshotWriter& w,
                    std::vector<KernelDesc>* kernels) const;

    /**
     * Rebuild the run from @p r, discarding any active run.  @p
     * kernels is the side table save_state filled; @p streams must
     * contain a stream for every id the archive references (Gpu
     * restores streams and events before calling this).
     */
    void load_state(SnapshotReader& r,
                    const std::vector<KernelDesc>& kernels,
                    const std::vector<Stream*>& streams);

    /** Install a live stream-set provider (Gpu wires this to its
     *  stream list).  Consulted after host callbacks fire so work
     *  enqueued mid-run — even on streams created inside the callback
     *  — is validated, absorbed, and given a correctly sized SM
     *  array.  Without it the engine falls back to the stream vector
     *  passed to the last advance entry point. */
    void set_stream_source(std::function<std::vector<Stream*>()> source)
    {
        stream_source_ = std::move(source);
    }

    /** Install a fault-injection plan (borrowed; must outlive the
     *  engine).  Null = healthy chip.  Must be set before any run
     *  begins: SM warp caps apply at SM construction. */
    void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

    /**
     * Abandon @p stream's work: drop its queued ops and evict its
     * resident launch without a statistics entry (the work is lost,
     * as on a real chip after killing a hung kernel).  The launch
     * must be quiescent — all CTAs drained, held only by a fault hang
     * or awaiting retirement; throws std::runtime_error while CTAs
     * are still executing.  This is the host-side containment tool
     * the serving simulator uses to kill a hung batch and retry its
     * requests elsewhere.  No-op for streams the run has not seen.
     */
    void kill_stream(Stream* stream);

    /** True when @p stream can be kill_stream()ed safely: it has no
     *  live launch, or its live launch has drained all CTAs (it may
     *  still be fault-hung — that is exactly the killable state).
     *  Streams the run has not seen are quiescent. */
    bool stream_quiescent(const Stream* stream) const;

  private:
    /** One in-flight launch: the owned descriptor plus grid state. */
    struct Launch
    {
        KernelDesc desc;
        GridRun grid;
        MemStats mem_base;  ///< Memory counters at residency start.

        /** Replay cache (SimOptions::replay_mode).  record_key
         *  non-empty = this launch runs in detail and its profile is
         *  recorded at retire.  replay_profile non-null = a hit: no
         *  CTA ever dispatches and the grid completes at replay_done
         *  with the profile's statistics.  verify_expect non-null =
         *  a verify-mode hit running in detail; retire compares it
         *  against the profile and throws on divergence. */
        std::string record_key;
        /** Sequence slot assigned at promotion (per-run, per-key
         *  occurrence index); a recorded duration lands in this slot
         *  of the cache entry's duration sequence. */
        uint64_t record_seq = 0;
        std::unique_ptr<KernelTimingProfile> replay_profile;
        uint64_t replay_done = 0;
        std::unique_ptr<KernelTimingProfile> verify_expect;
        /** Recording scratch: CTA-retirement samples, compacted to
         *  kMaxOccupancyPhases. */
        std::vector<OccupancyPhase> occupancy;

        /** Fault injection (FaultPlan, resolved at promotion).  A
         *  hung launch never retires: its grid drains normally but
         *  the completion is never signalled, so its stream stays
         *  blocked until kill_stream() or a watchdog contains it.  A
         *  slowed launch is held past its natural finish until
         *  fault_release (finish_cycle is stretched to match at
         *  retirement).  All default-off fields: with no plan
         *  installed the retire path is bit-identical to before. */
        bool fault_hung = false;
        double fault_slowdown = 1.0;
        uint64_t fault_release = 0;  ///< 0 = not yet computed.
        bool retired = false;        ///< Finalized this tick; erase.
    };

    /** Per-stream progress: launches run strictly in stream order. */
    struct StreamRun
    {
        Stream* stream = nullptr;
        Launch* live = nullptr;  ///< Currently resident launch, if any.
    };

    /** Windowed mean CTA latency of one grid (sampled mode): each
     *  sample_window that saw at least one detailed CTA completion
     *  replaces the running mean with that window's mean. */
    struct CtaRateEstimator
    {
        uint64_t mean_sum = 0;   ///< Sum of the last closed window.
        uint64_t mean_count = 0;
        uint64_t win_start = 0;
        uint64_t win_sum = 0;
        uint64_t win_count = 0;

        void add(uint64_t now, uint64_t latency, uint64_t window)
        {
            if (win_count > 0 && now - win_start >= window) {
                mean_sum = win_sum;
                mean_count = win_count;
                win_start = now;
                win_sum = 0;
                win_count = 0;
            }
            win_sum += latency;
            ++win_count;
        }

        /** At least one detailed completion observed. */
        bool ready() const { return mean_count > 0 || win_count > 0; }

        /** Current mean CTA latency (integer cycles, >= 1). */
        uint64_t mean() const
        {
            uint64_t s = mean_count ? mean_sum : win_sum;
            uint64_t c = mean_count ? mean_count : win_count;
            return c ? std::max<uint64_t>(1, s / c) : 1;
        }
    };

    /** One CTA resident on a shadow SM (sampled mode).  A CTA may be
     *  dispatched before its grid has any latency measurement;
     *  predicted_done == 0 marks it pending until the estimator's
     *  first sample arrives. */
    struct ShadowCta
    {
        GridRun* grid = nullptr;
        uint64_t launched = 0;
        uint64_t predicted_done = 0;
    };

    /** A fast-forwarded SM: occupancy accounting, no pipeline. */
    struct ShadowSm
    {
        int used_ctas = 0;
        int used_warps = 0;
        uint64_t used_smem = 0;
        uint64_t used_regs = 0;
        std::vector<ShadowCta> resident;
    };

    /** Per-run state: everything that resets at a run boundary.  The
     *  split makes the engine itself persistent and runs resumable. */
    struct RunState
    {
        std::vector<std::unique_ptr<SM>> sms;
        std::vector<StreamRun> stream_runs;
        /** Resident launches in dispatch-priority (launch-id) order. */
        std::vector<std::unique_ptr<Launch>> resident;
        /** Indices (ascending) of SMs with work in flight: the only
         *  SMs a non-dispatch tick touches, so idle SMs on a large
         *  chip cost nothing — not even a busy() probe. */
        std::vector<int> busy_sms;
        int next_grid_id = 0;
        uint64_t now = 0;
        uint64_t last_finish = 0;
        /** Wall-clock watchdog anchor (SimOptions::wall_budget_ms). */
        std::chrono::steady_clock::time_point wall_start;
        /** Accumulates ticks/skipped_cycles and retired kernels. */
        EngineStats stats;
        /** Sampled mode: shadow SMs and per-grid-id estimators. */
        std::vector<ShadowSm> shadows;
        std::map<int, CtaRateEstimator> estimators;

        /** Replay warmth tracking: the timing_key of the most
         *  recently retired launch (empty for uncacheable kernels)
         *  and whether anything has retired at all.  Updated in
         *  residency order at retire — replayed launches update it
         *  too, so a replay run walks the same warmth sequence the
         *  detailed run recorded. */
        std::string last_finished_key;
        bool any_finished = false;
        /** Verify mode: fingerprint hits seen so far (the 1-in-N
         *  verification counter — deterministic, serialized). */
        uint64_t replay_attempts = 0;
        /** Per-key hit counters: the i-th hit of a fingerprint is
         *  served the i-th recorded duration, so replaying a recorded
         *  trace walks the recorded sequence in order (serialized). */
        std::map<std::string, uint64_t> replay_seq;
        /** Counter deltas of retired *replayed* launches: the memory
         *  system and SMs never saw this traffic, so fill_totals
         *  folds these into the run totals. */
        MemStats replay_mem;
        StallCounts replay_stalls;
    };

    /** Validate queued launches, begin a run if none is active, and
     *  absorb streams/SMs added since the run began.  False when
     *  there is neither an active run nor queued work. */
    bool prepare(const std::vector<Stream*>& streams);

    /** Add StreamRuns for streams the run has not seen yet. */
    void absorb_streams(const std::vector<Stream*>& streams);

    /** Validate every queued launch and grow the SM array to cover
     *  the CTAs now pending (queued + resident).  Re-run whenever new
     *  work can have appeared: at every advance entry and after host
     *  callbacks fire. */
    void validate_and_size();

    /** Outcome of one engine tick. */
    enum class StepResult {
        kRunning,  ///< Progress made (or clock advanced); keep going.
        kDrained,  ///< Every stream drained: the run is complete.
        kBlocked,  ///< Chip idle, streams blocked on events only host
                   ///< action can complete; the clock did not advance.
    };

    /** One engine tick.  The idle-skip fold never jumps the clock past
     *  @p bound + 1: a bounded advance (run_until) is a promise that
     *  the host has a stimulus to deliver there, and a replayed-only
     *  chip — whose sole scheduled event can be an entire kernel
     *  duration away — would otherwise leap over it. */
    StepResult step(uint64_t bound);

    /** Process stream queues at @p now until a fixpoint: promote
     *  launches, complete records, satisfy waits, fire callbacks.
     *  True when any non-launch op was processed (the clock must not
     *  jump over newly unblocked work). */
    bool promote_streams(uint64_t now);

    bool dispatch_to(SM* sm);
    /** Replay fingerprint of @p k at the current warmth class, or
     *  empty when the launch is uncacheable (no timing_key, or
     *  functional: replay would skip its data movement). */
    std::string replay_key(const KernelDesc& k) const;
    /** Classify a freshly promoted launch against the replay cache:
     *  arm it for replay (hit), detailed verification (1-in-N hit in
     *  verify mode), or record-at-retire (miss / record mode). */
    void classify_replay(Launch* l, uint64_t now);
    /** Fold this tick's CTA completions into the occupancy scratch of
     *  recording launches (record path of the profile timeline). */
    void record_occupancy(uint64_t now);
    /** Retire-side replay bookkeeping for @p l (finalized as @p ls):
     *  verify divergence, record the profile, accumulate replayed
     *  counter deltas, update warmth tracking. */
    void finish_replay(Launch& l, const LaunchStats& ls);
    /** Place one CTA on shadow SM @p sh at @p now, if any resident
     *  grid with a ready estimator fits.  Sampled mode only. */
    bool dispatch_shadow(ShadowSm& sh, uint64_t now);
    /** Retire shadow CTAs whose predicted completion has arrived and
     *  feed this tick's detailed completions to the estimators. */
    void shadow_commit(uint64_t now);
    LaunchStats finalize(Launch& l) const;
    bool drained() const;
    /** Charge every busy SM's skipped-cycle stalls up to (not
     *  including) @p cycle.  Settlement points beyond each SM's own
     *  pre-tick charge: dispatch (a new CTA changes what the skipped
     *  cycles charge), the retire pass (finalize reads grid stalls,
     *  forget_grids drops attribution pointers) and every return from
     *  advance() (fill_totals, snapshot(), save_state). */
    void settle(uint64_t cycle);
    /** Snapshot of the active run's progress. */
    EngineStats snapshot() const;
    /** Final stats of the drained run; tears the run down. */
    EngineStats finish();
    /** Fill the aggregate fields derived from retired kernels. */
    void fill_totals(EngineStats* out) const;
    /** Advance until @p done_fn() or the run drains; returns final or
     *  snapshot stats accordingly.  When the run blocks on waits only
     *  the host can resolve, pause (snapshot) if @p pause_on_block,
     *  else throw EngineDeadlockError with the wait graph.  @p bound
     *  caps each tick's idle-skip jump (see step()). */
    template <typename DoneFn>
    EngineStats advance(DoneFn done, bool pause_on_block,
                        uint64_t bound = UINT64_MAX);
    [[noreturn]] void report_deadlock();
    /** Per-stream wait-graph lines of the current run (shared by the
     *  deadlock report and the hang dump). */
    std::string wait_graph_string() const;
    /** Watchdog diagnostic: @p reason plus busy-SM list, resident
     *  grids (with fault-hold markers), and the event wait graph. */
    std::string hang_dump(const std::string& reason) const;
    /** Any resident launch held forever by an injected hang. */
    bool any_fault_hung() const;

    const GpuConfig& cfg_;
    SimOptions opts_;
    MemorySystem* mem_;
    ExecutorCache* executors_;
    /** Fault-injection plan (borrowed from Gpu; null = healthy). */
    FaultPlan* fault_plan_ = nullptr;

    /** Replay cache in use (opts_.replay_cache, or the lazily owned
     *  private one when none was supplied); null when replay_mode is
     *  kOff. */
    ReplayCache* replay_cache_ = nullptr;
    std::unique_ptr<ReplayCache> owned_cache_;
    /** GpuConfig digest baked into every replay fingerprint. */
    uint64_t config_hash_ = 0;

    /** Scratch: SMs cycled this tick, ascending SM-index order. */
    std::vector<SM*> cycled_;
    /** Scratch (lockstep only): cycled SMs whose cached next event is
     *  later than the tick, which must therefore make no progress. */
    std::vector<SM*> quiet_;
    /** Scratch: grids retiring this tick (batched forget pass). */
    std::vector<const GridRun*> retiring_;
    /** Scratch: detailed CTA completions this tick (sampled mode). */
    std::vector<CtaCompletion> completions_;

    std::unique_ptr<RunState> run_;
    /** Live stream list provider (see set_stream_source). */
    std::function<std::vector<Stream*>()> stream_source_;
    /** Streams passed at the last advance entry (callback fallback). */
    std::vector<Stream*> entry_streams_;
    /** A host callback ran during the last promote pass. */
    bool callbacks_fired_ = false;
    /** Stream state may have changed since the last promote pass.  A
     *  pass leaves the streams at a fixpoint that only new ops or
     *  streams (host enqueues, kill_stream and restores all reach the
     *  run through prepare(); callbacks mid-run) or a retired live
     *  launch can move, so step() skips promote_streams while this is
     *  false. */
    bool streams_dirty_ = true;
};

}  // namespace tcsim
