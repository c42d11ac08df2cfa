/**
 * @file
 * Snapshot/restore correctness: a run forked from a Snapshot must be
 * bit-identical — every cycle stamp, memory counter, stall counter and
 * macro-latency sample — to the same run advanced without
 * interruption, in both main loops.  Also
 * pins the failure modes (version/config/scheduler mismatch, queued
 * callbacks, idle capture), the reset audit (restoring onto a dirty
 * Gpu equals restoring onto a fresh one), and the sampled-SM
 * fast-forward mode (SimOptions::detailed_sms).
 *
 * The Settlement tests pin the event-driven loop's lazy stall
 * accounting: a busy SM whose next event is later than the clock is
 * not ticked, and the stalls of the cycles it skipped are charged
 * before its next tick, at the retire pass and at every return from
 * an advance.  Paused (run_until) and final statistics must equal a
 * lockstep run's (SimOptions::idle_skip = false ticks every busy SM
 * every cycle) at every pause and across snapshot/restore.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "kernels/gemm_kernels.h"
#include "sim/gpu.h"
#include "sim/snapshot.h"

namespace tcsim {
namespace {

GpuConfig
small_titan_v(int sms)
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = sms;
    return cfg;
}

/** Memory-bound config: a tiny L1 keeps MSHRs, NoC/DRAM queues and
 *  MIO retries in flight for most of the run — exactly the state a
 *  snapshot has to carry faithfully. */
GpuConfig
mem_bound_config(int sms)
{
    GpuConfig cfg = small_titan_v(sms);
    cfg.l1_size = 16 * 1024;
    cfg.dram_latency = 400;
    return cfg;
}

void
expect_identical_kernel(const LaunchStats& a, const LaunchStats& b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(a.start_cycle, b.start_cycle);
    EXPECT_EQ(a.finish_cycle, b.finish_cycle);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hmma_instructions, b.hmma_instructions);
    EXPECT_EQ(a.mem.l1_hits, b.mem.l1_hits);
    EXPECT_EQ(a.mem.l1_misses, b.mem.l1_misses);
    for (size_t i = 0; i < kNumStallReasons; ++i) {
        StallReason r = static_cast<StallReason>(i);
        EXPECT_EQ(a.stalls[r], b.stalls[r])
            << a.kernel << ": " << stall_reason_name(r);
    }
    ASSERT_EQ(a.macro_latency.size(), b.macro_latency.size());
    for (const auto& [mc, ha] : a.macro_latency) {
        auto it = b.macro_latency.find(mc);
        ASSERT_NE(it, b.macro_latency.end());
        EXPECT_EQ(ha.samples(), it->second.samples());
    }
}

void
expect_identical(const EngineStats& a, const EngineStats& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hmma_instructions, b.hmma_instructions);
    // A bounded advance (run_until) ticks at each chunk boundary where
    // an unbounded run idle-skips straight past it, so the tick/skip
    // split is chunking-dependent; the covered-cycle sum is the
    // invariant.
    EXPECT_EQ(a.ticks + a.skipped_cycles, b.ticks + b.skipped_cycles);
    EXPECT_EQ(a.current_cycle, b.current_cycle);
    EXPECT_EQ(a.mem.l1_hits, b.mem.l1_hits);
    EXPECT_EQ(a.mem.l1_misses, b.mem.l1_misses);
    EXPECT_EQ(a.mem.l2_hits, b.mem.l2_hits);
    EXPECT_EQ(a.mem.l2_misses, b.mem.l2_misses);
    EXPECT_EQ(a.mem.dram_bytes, b.mem.dram_bytes);
    EXPECT_EQ(a.mem.global_sectors, b.mem.global_sectors);
    EXPECT_EQ(a.mem.mshr_merges, b.mem.mshr_merges);
    EXPECT_EQ(a.mem.mshr_peak, b.mem.mshr_peak);
    EXPECT_EQ(a.mem.noc_queue_cycles, b.mem.noc_queue_cycles);
    EXPECT_EQ(a.mem.l2_queue_cycles, b.mem.l2_queue_cycles);
    EXPECT_EQ(a.mem.dram_queue_cycles, b.mem.dram_queue_cycles);
    EXPECT_EQ(a.mem.dram_turnarounds, b.mem.dram_turnarounds);
    for (size_t i = 0; i < kNumStallReasons; ++i) {
        StallReason r = static_cast<StallReason>(i);
        EXPECT_EQ(a.stalls[r], b.stalls[r]) << stall_reason_name(r);
    }
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (size_t k = 0; k < a.kernels.size(); ++k)
        expect_identical_kernel(a.kernels[k], b.kernels[k]);
}

GemmBuffers
alloc_gemm_buffers(Gpu& gpu, int mnk)
{
    uint64_t n = static_cast<uint64_t>(mnk);
    GemmBuffers buf;
    buf.a = gpu.mem().alloc(n * n * 2);
    buf.b = gpu.mem().alloc(n * n * 2);
    buf.c = gpu.mem().alloc(n * n * 4);
    buf.d = gpu.mem().alloc(n * n * 4);
    return buf;
}

/** Enqueue one timing-only naive GEMM on the default stream. */
void
enqueue_gemm(Gpu& gpu, int mnk, const std::string& name = "")
{
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = mnk;
    kc.functional = false;
    KernelDesc k = make_wmma_gemm_naive(kc, alloc_gemm_buffers(gpu, mnk));
    if (!name.empty())
        k.name = name;
    gpu.default_stream().enqueue(std::move(k));
}

/** Two timing-only GEMMs on two streams gated by an event (a
 *  producer/consumer DAG).  Returns the gating event. */
Event&
enqueue_event_dag(Gpu& gpu, int mnk)
{
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = mnk;
    kc.functional = false;
    auto alloc = [&] {
        GemmBuffers buf;
        buf.a = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.k * 2);
        buf.b = gpu.mem().alloc(static_cast<uint64_t>(kc.k) * kc.n * 2);
        buf.c = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
        buf.d = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
        return buf;
    };
    Stream& s1 = gpu.default_stream();
    Stream& s2 = gpu.create_stream();
    Event& e = gpu.create_event("producer_done");
    KernelDesc k1 = make_wmma_gemm_naive(kc, alloc());
    k1.name = "producer";
    s1.enqueue(std::move(k1));
    s1.record(e);
    s2.wait(e);
    KernelDesc k2 = make_wmma_gemm_naive(kc, alloc());
    k2.name = "consumer";
    s2.enqueue(std::move(k2));
    return e;
}

/** Run the single-GEMM workload cold (uninterrupted) with @p opts. */
EngineStats
cold_gemm(const GpuConfig& cfg, const SimOptions& opts, int mnk)
{
    Gpu gpu(cfg, opts);
    enqueue_gemm(gpu, mnk);
    return gpu.run();
}

TEST(Snapshot, ForkedRunMatchesColdRun)
{
    GpuConfig cfg = mem_bound_config(8);
    for (bool idle_skip : {true, false}) {
        SCOPED_TRACE("idle_skip=" + std::to_string(idle_skip));
        SimOptions opts;
        opts.idle_skip = idle_skip;
        EngineStats base = cold_gemm(cfg, opts, 128);

        // Capture mid-kernel, then finish both the capturing Gpu and
        // a fresh Gpu restored from the snapshot.
        Gpu gpu(cfg, opts);
        enqueue_gemm(gpu, 128);
        gpu.run_until(base.cycles / 2);
        ASSERT_TRUE(gpu.run_active());
        Snapshot snap = gpu.snapshot();
        EXPECT_GT(snap.size_bytes(), 0u);

        expect_identical(base, gpu.run());

        Gpu fork(cfg, opts);
        fork.restore(snap);
        ASSERT_TRUE(fork.run_active());
        expect_identical(base, fork.run());
    }
}

TEST(Snapshot, ForkWhileSubCoresAreStallMemoized)
{
    // A sub-core whose issue poll failed keeps charging that stall
    // without re-walking its warps until something it reads changes.
    // The memo is not serialized, so a restored sub-core re-polls: the
    // fork must still match the uninterrupted run, which carried its
    // memos across the capture tick.  Back-pressure (4 MSHRs, 2-deep
    // DRAM queues) keeps most sub-cores stalled on memory for most of
    // the run: an instrumented build counted 25 to 32 of the 32
    // sub-cores memo-stalled at each capture point below, 1 to 22 of
    // them with a warp refused by the load/store queue.
    GpuConfig cfg = mem_bound_config(8);
    cfg.l1_mshr_entries = 4;
    cfg.dram_queue_depth = 2;
    for (SchedulerPolicy policy :
         {SchedulerPolicy::kGto, SchedulerPolicy::kTwoLevel}) {
        SCOPED_TRACE(static_cast<int>(policy));
        SimOptions opts;
        opts.scheduler = policy;
        EngineStats base = cold_gemm(cfg, opts, 128);
        ASSERT_GT(base.stalls[StallReason::kMshrFull], 0u);
        ASSERT_GT(base.stalls[StallReason::kDramQueue], 0u);
        for (uint64_t at : {base.cycles / 5, base.cycles / 2,
                            base.cycles * 4 / 5}) {
            SCOPED_TRACE("capture at cycle " + std::to_string(at));
            Gpu gpu(cfg, opts);
            enqueue_gemm(gpu, 128);
            gpu.run_until(at);
            ASSERT_TRUE(gpu.run_active());
            Snapshot snap = gpu.snapshot();

            Gpu fork(cfg, opts);
            fork.restore(snap);
            expect_identical(base, fork.run());

            // Rewind in place from later in the run: memos armed after
            // the capture must not survive the restore.
            gpu.run_until(at + (base.cycles - at) / 2);
            ASSERT_TRUE(gpu.run_active());
            gpu.restore(snap);
            expect_identical(base, gpu.run());
        }
    }
}

TEST(Snapshot, DoubleRestoreFromOneSnapshot)
{
    // One snapshot feeds many forks (the sweep runner's pattern); the
    // global-memory blob is shared copy-on-write, not duplicated.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    EngineStats base = cold_gemm(cfg, opts, 64);

    Gpu gpu(cfg, opts);
    enqueue_gemm(gpu, 64);
    gpu.run_until(base.cycles / 2);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();
    Snapshot copy = snap;
    EXPECT_EQ(copy.gmem_data.get(), snap.gmem_data.get());

    Gpu fork1(cfg, opts);
    fork1.restore(snap);
    Gpu fork2(cfg, opts);
    fork2.restore(copy);
    expect_identical(base, fork1.run());
    expect_identical(base, fork2.run());
}

TEST(Snapshot, InPlaceRewindAcrossEventBoundary)
{
    // Restoring onto the capturing Gpu rewinds it: rerunning the tail
    // reproduces the identical result, including the event stamp.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    Gpu gpu(cfg, opts);
    Event& e = enqueue_event_dag(gpu, 64);

    // Pause exactly when the producer's record completes, snapshot,
    // then finish; rewind and finish again.
    gpu.synchronize(e);
    ASSERT_TRUE(gpu.run_active());
    ASSERT_TRUE(e.complete());
    uint64_t event_cycle = e.cycle();
    Snapshot snap = gpu.snapshot();

    EngineStats first = gpu.run();
    ASSERT_EQ(first.kernels.size(), 2u);

    gpu.restore(snap);
    ASSERT_TRUE(gpu.run_active());
    EXPECT_TRUE(e.complete());
    EXPECT_EQ(e.cycle(), event_cycle);
    EngineStats second = gpu.run();
    expect_identical(first, second);
    EXPECT_EQ(e.cycle(), event_cycle);
}

TEST(Snapshot, EventBoundaryForkOntoFreshGpu)
{
    // Fork at the event boundary: the fresh Gpu recreates the streams
    // and events from the archive and finishes identically to an
    // uninterrupted run.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    EngineStats base = [&] {
        Gpu gpu(cfg, opts);
        enqueue_event_dag(gpu, 64);
        return gpu.run();
    }();

    Gpu gpu(cfg, opts);
    Event& e = enqueue_event_dag(gpu, 64);
    gpu.synchronize(e);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();

    Gpu fork(cfg, opts);
    fork.restore(snap);
    expect_identical(base, fork.run());
}

TEST(Snapshot, FunctionalKernelsForkWithMemoryContents)
{
    // Functional kernels carry real data through global memory; the
    // snapshot's copy-on-write image must hand the fork bytes that let
    // the consumer produce a verifiable result.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = 64;
    kc.functional = true;

    auto build = [&](Gpu& gpu, GemmProblem<float>& p1,
                     GemmProblem<float>& p2, GemmBuffers* b1,
                     GemmBuffers* b2) {
        *b1 = p1.upload(&gpu.mem());
        *b2 = p2.upload(&gpu.mem());
        Stream& s1 = gpu.default_stream();
        Stream& s2 = gpu.create_stream();
        Event& e = gpu.create_event("producer_done");
        KernelDesc k1 = make_wmma_gemm_naive(kc, *b1);
        k1.name = "producer";
        s1.enqueue(std::move(k1));
        s1.record(e);
        s2.wait(e);
        KernelDesc k2 = make_wmma_gemm_naive(kc, *b2);
        k2.name = "consumer";
        s2.enqueue(std::move(k2));
    };

    GemmProblem<float> p1(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    GemmProblem<float> p2(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);

    EngineStats base = [&] {
        Gpu gpu(cfg, opts);
        GemmBuffers b1, b2;
        build(gpu, p1, p2, &b1, &b2);
        return gpu.run();
    }();

    Gpu gpu(cfg, opts);
    GemmBuffers b1, b2;
    build(gpu, p1, p2, &b1, &b2);
    gpu.run_until(base.cycles / 2);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();

    Gpu fork(cfg, opts);
    fork.restore(snap);
    expect_identical(base, fork.run());
    EXPECT_LE(p1.verify(fork.mem(), b1.d), 1e-3);
    EXPECT_LE(p2.verify(fork.mem(), b2.d), 1e-3);

    // The capturing Gpu was never advanced past the fork point by the
    // fork's run: finishing it still verifies too.
    expect_identical(base, gpu.run());
    EXPECT_LE(p1.verify(gpu.mem(), b1.d), 1e-3);
}

TEST(Snapshot, RestoreOntoDirtyGpuEqualsFreshRestore)
{
    // The reset audit: load_state must fully overwrite cache arrays,
    // MSHR files, queue rings and DRAM state left behind by an earlier
    // completed run — a dirty Gpu and a fresh Gpu restore identically.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    EngineStats base = cold_gemm(cfg, opts, 64);

    Gpu gpu(cfg, opts);
    enqueue_gemm(gpu, 64);
    gpu.run_until(base.cycles / 2);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();

    Gpu fresh(cfg, opts);
    fresh.restore(snap);

    Gpu dirty(cfg, opts);
    enqueue_gemm(dirty, 96, "warmup");  // Different footprint on purpose.
    dirty.run();
    dirty.restore(snap);

    EngineStats a = fresh.run();
    EngineStats b = dirty.run();
    expect_identical(base, a);
    expect_identical(base, b);
}

TEST(Snapshot, ReusedGpuSecondRunEqualsFreshRun)
{
    // Companion reset audit without snapshots: run boundaries reset
    // all timing state, so a reused Gpu replays a workload exactly
    // like a fresh one.
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    Gpu reused(cfg, opts);
    enqueue_gemm(reused, 64);
    reused.run();
    enqueue_gemm(reused, 64);
    EngineStats second = reused.run();

    // Give the fresh Gpu the same address layout: pad with the first
    // run's allocations, enqueue only the replay.
    Gpu fresh(cfg, opts);
    (void)alloc_gemm_buffers(fresh, 64);
    enqueue_gemm(fresh, 64);
    expect_identical(second, fresh.run());
}

TEST(Snapshot, CaptureRequiresActiveRun)
{
    Gpu idle(mem_bound_config(2));
    EXPECT_THROW(idle.snapshot(), SnapshotError);

    Gpu done(mem_bound_config(2));
    enqueue_gemm(done, 64);
    done.run();
    EXPECT_THROW(done.snapshot(), SnapshotError);
}

TEST(Snapshot, QueuedHostCallbackRefused)
{
    Gpu gpu(mem_bound_config(2));
    enqueue_gemm(gpu, 64);
    gpu.default_stream().add_callback([](uint64_t) {});
    gpu.run_until(16);
    ASSERT_TRUE(gpu.run_active());
    EXPECT_THROW(gpu.snapshot(), SnapshotError);
    gpu.run();  // Drain so teardown is clean.
}

TEST(Snapshot, MismatchesRejectedBeforeMutation)
{
    GpuConfig cfg = mem_bound_config(4);
    SimOptions opts;
    EngineStats base = cold_gemm(cfg, opts, 64);

    Gpu gpu(cfg, opts);
    enqueue_gemm(gpu, 64);
    gpu.run_until(base.cycles / 2);
    Snapshot snap = gpu.snapshot();

    // Empty snapshot.
    Gpu target(cfg, opts);
    EXPECT_THROW(target.restore(Snapshot{}), SnapshotError);

    // Format version.
    Snapshot bad_version = snap;
    bad_version.version = kSnapshotVersion + 1;
    EXPECT_THROW(target.restore(bad_version), SnapshotError);

    // GpuConfig.
    Gpu other_config(mem_bound_config(8), opts);
    EXPECT_THROW(other_config.restore(snap), SnapshotError);

    // Scheduler policy (baked into sub-cores at construction).
    SimOptions lrr = opts;
    lrr.scheduler = SchedulerPolicy::kLrr;
    Gpu other_sched(cfg, lrr);
    EXPECT_THROW(other_sched.restore(snap), SnapshotError);

    // All rejections happen before mutation: the pristine target
    // still restores and runs identically afterwards.
    target.restore(snap);
    expect_identical(base, target.run());
}

TEST(SampledSms, ApproximatesFullRunAndExtrapolatesCounts)
{
    // 32 CTAs on 8 SMs, only 2 simulated in detail: shadows must take
    // real work (less detailed memory traffic), instruction totals
    // extrapolate exactly for a homogeneous grid, and total cycles
    // stay within a loose factor of the full-detail run.
    GpuConfig cfg = small_titan_v(8);
    SimOptions full;
    EngineStats detailed = cold_gemm(cfg, full, 256);

    SimOptions sampled = full;
    sampled.detailed_sms = 2;
    EngineStats approx = cold_gemm(cfg, sampled, 256);

    EXPECT_LT(approx.mem.global_sectors, detailed.mem.global_sectors);
    EXPECT_EQ(approx.instructions, detailed.instructions);
    EXPECT_EQ(approx.hmma_instructions, detailed.hmma_instructions);

    double err =
        std::abs(static_cast<double>(approx.cycles) -
                 static_cast<double>(detailed.cycles)) /
        static_cast<double>(detailed.cycles);
    EXPECT_LE(err, 0.25) << "sampled cycles " << approx.cycles
                         << " vs full " << detailed.cycles;
}

TEST(SampledSms, DeterministicAndSnapshotable)
{
    // Sampled mode is still deterministic (same options -> identical
    // stats) and its shadow state snapshots/restores faithfully.
    GpuConfig cfg = small_titan_v(8);
    SimOptions opts;
    opts.detailed_sms = 2;
    EngineStats base = cold_gemm(cfg, opts, 256);
    expect_identical(base, cold_gemm(cfg, opts, 256));

    Gpu gpu(cfg, opts);
    enqueue_gemm(gpu, 256);
    gpu.run_until(base.cycles / 2);
    ASSERT_TRUE(gpu.run_active());
    Snapshot snap = gpu.snapshot();

    Gpu fork(cfg, opts);
    fork.restore(snap);
    expect_identical(base, fork.run());
}

/** Back-pressured chip of 8 SMs: 4 MSHRs and 2-deep DRAM queues keep
 *  most SMs stalled on memory with distinct next events, so each tick
 *  cycles only some of the busy SMs. */
GpuConfig
backpressure_config()
{
    GpuConfig cfg = mem_bound_config(8);
    cfg.l1_mshr_entries = 4;
    cfg.dram_queue_depth = 2;
    return cfg;
}

/** Two timing-only naive GEMMs on two streams with disjoint SMs: the
 *  "short" 64^3 grid (2 CTAs, SMs 0-1) retires while the "long"
 *  128x96x128 grid (6 CTAs, SMs 2-7) is still running. */
void
enqueue_concurrent_pair(Gpu& gpu)
{
    auto enqueue = [&](Stream& s, int m, int n, int k, const char* name) {
        GemmKernelConfig kc;
        kc.m = m;
        kc.n = n;
        kc.k = k;
        kc.functional = false;
        GemmBuffers buf;
        buf.a = gpu.mem().alloc(static_cast<uint64_t>(m) * k * 2);
        buf.b = gpu.mem().alloc(static_cast<uint64_t>(k) * n * 2);
        buf.c = gpu.mem().alloc(static_cast<uint64_t>(m) * n * 4);
        buf.d = gpu.mem().alloc(static_cast<uint64_t>(m) * n * 4);
        KernelDesc desc = make_wmma_gemm_naive(kc, buf);
        desc.name = name;
        s.enqueue(std::move(desc));
    };
    enqueue(gpu.default_stream(), 64, 64, 64, "short");
    enqueue(gpu.create_stream(), 128, 96, 128, "long");
}

SimOptions
with_idle_skip(bool idle_skip)
{
    SimOptions opts;
    opts.idle_skip = idle_skip;
    return opts;
}

TEST(Settlement, KernelRetiresWhileOtherSmsAreSkipped)
{
    // "short" retires while "long" runs on (an instrumented build
    // found 5 of the 6 busy SMs skipped on the retire tick): the
    // per-kernel stall attribution and the chip-wide totals must
    // equal the lockstep run's.
    GpuConfig cfg = backpressure_config();
    EngineStats run[2];
    for (bool idle_skip : {true, false}) {
        Gpu gpu(cfg, with_idle_skip(idle_skip));
        enqueue_concurrent_pair(gpu);
        run[idle_skip ? 0 : 1] = gpu.run();
    }
    const EngineStats& skip = run[0];
    const EngineStats& lockstep = run[1];
    ASSERT_EQ(skip.kernels.size(), 2u);
    EXPECT_EQ(skip.kernels[0].kernel, "short");
    EXPECT_LT(skip.kernels[0].finish_cycle, skip.kernels[1].finish_cycle);
    EXPECT_GT(skip.kernels[0].stalls[StallReason::kMshrFull], 0u);
    EXPECT_GT(skip.skipped_cycles, 0u);
    EXPECT_LT(skip.ticks, lockstep.ticks);
    // Per-kernel and chip-wide stalls, cycles and memory counters.
    expect_identical(skip, lockstep);
}

TEST(Settlement, CallbackLaunchLandsOnSkippedSms)
{
    // A host callback fires on the tick after "short" retires and
    // enqueues "late" on a stream it creates, so "late" is promoted
    // and dispatched the tick after that -- onto SMs that "long" keeps
    // busy and the callback tick skipped (an instrumented build found
    // 7 of the 8 SMs with that tick's stalls unsettled).  Each
    // "long" CTA is one warp, so three of every SM's four sub-cores
    // are empty and stall kEmpty until "late"'s 4-warp CTAs land:
    // their skipped cycles must be charged before the CTA arrives.
    GpuConfig cfg = backpressure_config();
    auto enqueue = [](Gpu& gpu, Stream& s, int m, int n, int k,
                      int warps_per_cta, const char* name) {
        GemmKernelConfig kc;
        kc.m = m;
        kc.n = n;
        kc.k = k;
        kc.functional = false;
        GemmBuffers buf;
        buf.a = gpu.mem().alloc(static_cast<uint64_t>(m) * k * 2);
        buf.b = gpu.mem().alloc(static_cast<uint64_t>(k) * n * 2);
        buf.c = gpu.mem().alloc(static_cast<uint64_t>(m) * n * 4);
        buf.d = gpu.mem().alloc(static_cast<uint64_t>(m) * n * 4);
        KernelDesc desc = make_wmma_gemm_naive(kc, buf, warps_per_cta);
        desc.name = name;
        s.enqueue(std::move(desc));
    };
    EngineStats run[2];
    for (bool idle_skip : {true, false}) {
        Gpu gpu(cfg, with_idle_skip(idle_skip));
        Stream& side = gpu.create_stream();
        enqueue(gpu, gpu.default_stream(), 128, 16, 512, 1, "long");
        enqueue(gpu, side, 16, 16, 64, 1, "short");
        side.add_callback([&](uint64_t) {
            enqueue(gpu, gpu.create_stream(), 64, 64, 64, 4, "late");
        });
        run[idle_skip ? 0 : 1] = gpu.run();
    }
    ASSERT_EQ(run[0].kernels.size(), 3u);
    EXPECT_EQ(run[0].kernels[0].kernel, "short");
    EXPECT_EQ(run[0].kernels[1].kernel, "late");
    EXPECT_GT(run[0].stalls[StallReason::kEmpty], 0u);
    EXPECT_LT(run[0].ticks, run[1].ticks);
    expect_identical(run[0], run[1]);
}

TEST(Settlement, PrimeChunkedRunUntilMatchesLockstepAndOneShot)
{
    // Every pause returns statistics settled up to the clock: at each
    // chunk boundary they equal the lockstep run's, and the chunked
    // run ends exactly where a one-shot run does.
    GpuConfig cfg = backpressure_config();
    EngineStats one_shot = [&] {
        Gpu gpu(cfg, with_idle_skip(true));
        enqueue_concurrent_pair(gpu);
        return gpu.run();
    }();
    Gpu skip(cfg, with_idle_skip(true));
    Gpu lockstep(cfg, with_idle_skip(false));
    enqueue_concurrent_pair(skip);
    enqueue_concurrent_pair(lockstep);
    EngineStats last;
    int pauses = 0;
    for (uint64_t at = 996; skip.run_active() || pauses == 0; at += 997) {
        SCOPED_TRACE("paused at cycle " + std::to_string(at));
        last = skip.run_until(at);
        expect_identical(last, lockstep.run_until(at));
        EXPECT_EQ(skip.run_active(), lockstep.run_active());
        ++pauses;
    }
    EXPECT_GT(pauses, 10);
    expect_identical(last, one_shot);
}

TEST(Settlement, RestoreWhileSmsAreSkipped)
{
    // Capture at three cycles where busy SMs sit skipped (an
    // instrumented build found every busy SM -- 8, 8 and 6 -- with
    // stalls still to charge when each pause began): the restored run
    // re-derives the settled cycle from the clock and must finish
    // exactly like the uninterrupted one.
    GpuConfig cfg = backpressure_config();
    SimOptions opts = with_idle_skip(true);
    EngineStats base = [&] {
        Gpu gpu(cfg, opts);
        enqueue_concurrent_pair(gpu);
        return gpu.run();
    }();
    for (uint64_t at : {base.cycles / 7, base.cycles / 3,
                        base.cycles * 3 / 4}) {
        SCOPED_TRACE("capture at cycle " + std::to_string(at));
        Gpu gpu(cfg, opts);
        enqueue_concurrent_pair(gpu);
        gpu.run_until(at);
        ASSERT_TRUE(gpu.run_active());
        Snapshot snap = gpu.snapshot();
        Gpu fork(cfg, opts);
        fork.restore(snap);
        expect_identical(base, fork.run());
        expect_identical(base, gpu.run());
    }
}

TEST(SampledSms, RejectsFunctionalKernels)
{
    Gpu gpu(small_titan_v(4), [] {
        SimOptions opts;
        opts.detailed_sms = 1;
        return opts;
    }());
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = 64;
    kc.functional = true;
    GemmProblem<float> p(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    GemmBuffers buf = p.upload(&gpu.mem());
    gpu.default_stream().enqueue(make_wmma_gemm_naive(kc, buf));
    EXPECT_THROW(gpu.run(), std::runtime_error);
}

}  // namespace
}  // namespace tcsim
