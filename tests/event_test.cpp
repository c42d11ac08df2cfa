/**
 * @file
 * Tests for the CUDA-runtime-style event & synchronization API:
 * cross-stream happens-before via record/wait, event cycle stamps and
 * elapsed_cycles, functional data carried across an event edge, host
 * callbacks, resumable runs (run_until / synchronize) with
 * bit-identical timing and statistics, deadlock detection with the
 * wait graph, per-kernel stall attribution, and the event edge cases
 * (never-recorded wait, re-record, record+wait on one stream).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kernels/gemm_kernels.h"
#include "sim/gpu.h"

namespace tcsim {
namespace {

GpuConfig
small_titan_v(int sms)
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = sms;
    return cfg;
}

KernelDesc
stress(const char* name, int ctas = 1, int warps = 2, int wmma = 16)
{
    KernelDesc kd = make_hmma_stress(Arch::kVolta, TcMode::kMixed, ctas,
                                     warps, wmma, /*accumulators=*/4);
    kd.name = name;
    return kd;
}

KernelDesc
small_gemm(Gpu* gpu, GemmProblem<float>* prob, const char* name)
{
    GemmKernelConfig cfg;
    cfg.m = prob->m();
    cfg.n = prob->n();
    cfg.k = prob->k();
    GemmBuffers buf = prob->upload(&gpu->mem());
    KernelDesc kd = make_wmma_gemm_shared(cfg, buf);
    kd.name = name;
    return kd;
}

/** A memory-bound slice: a tiny L1 and slow DRAM keep transactions
 *  (and refused MIO heads) in flight for most of a run. */
GpuConfig
mem_bound_config(int sms)
{
    GpuConfig cfg = small_titan_v(sms);
    cfg.l1_size = 16 * 1024;
    cfg.dram_latency = 400;
    return cfg;
}

/** Timing-only naive GEMM with device buffers but no host data. */
KernelDesc
timing_gemm(Gpu* gpu, int mnk)
{
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = mnk;
    kc.functional = false;
    const uint64_t mn = static_cast<uint64_t>(mnk) * mnk;
    GemmBuffers buf;
    buf.a = gpu->mem().alloc(mn * 2);
    buf.b = gpu->mem().alloc(mn * 2);
    buf.c = gpu->mem().alloc(mn * 4);
    buf.d = gpu->mem().alloc(mn * 4);
    return make_wmma_gemm_naive(kc, buf);
}

/** Every statistic of one launch: cycle stamps, counters, memory
 *  traffic, stalls and the macro-latency samples in order. */
void
expect_same_launch(const LaunchStats& a, const LaunchStats& b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(a.start_cycle, b.start_cycle);
    EXPECT_EQ(a.finish_cycle, b.finish_cycle);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hmma_instructions, b.hmma_instructions);
    EXPECT_EQ(a.mem.l1_hits, b.mem.l1_hits);
    EXPECT_EQ(a.mem.l1_misses, b.mem.l1_misses);
    for (size_t i = 0; i < kNumStallReasons; ++i) {
        StallReason r = static_cast<StallReason>(i);
        EXPECT_EQ(a.stalls[r], b.stalls[r]) << stall_reason_name(r);
    }
    ASSERT_EQ(a.macro_latency.size(), b.macro_latency.size());
    for (const auto& [mc, ha] : a.macro_latency) {
        auto it = b.macro_latency.find(mc);
        ASSERT_NE(it, b.macro_latency.end());
        EXPECT_EQ(ha.samples(), it->second.samples());
    }
}

/** Every statistic of one run (see expect_same_launch). */
void
expect_same_run(const EngineStats& a, const EngineStats& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hmma_instructions, b.hmma_instructions);
    // A bounded advance ticks at each chunk boundary where an
    // unbounded run idle-skips straight past it, so only the covered
    // cycle sum is chunking-invariant.
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
        expect_same_launch(a.kernels[k], b.kernels[k]);
}

TEST(Event, CrossStreamHappensBefore)
{
    // consumer waits on an event recorded after producer: its window
    // must start strictly after the producer finished, even though the
    // streams would otherwise overlap.
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Stream& s2 = gpu.create_stream();
    Event& done = gpu.create_event("done");

    s1.enqueue(stress("producer"));
    s1.record(done);
    s2.wait(done);
    s2.enqueue(stress("consumer"));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[0].kernel, "producer");
    EXPECT_EQ(es.kernels[1].kernel, "consumer");
    EXPECT_GT(es.kernels[1].start_cycle, es.kernels[0].finish_cycle);
    EXPECT_TRUE(done.complete());
    EXPECT_GT(done.cycle(), es.kernels[0].finish_cycle);
    EXPECT_LE(done.cycle(), es.kernels[1].start_cycle);
}

TEST(Event, FunctionalKernelsAcrossEventEdgeVerify)
{
    // Functional kernels carry real data through global memory on two
    // streams gated by an event, on a memory-bound slice: the event
    // orders the consumer after the producer and both computed
    // matrices match the host reference.
    Gpu gpu(mem_bound_config(4));
    GemmProblem<float> p1(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    GemmProblem<float> p2(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = 64;
    GemmBuffers b1 = p1.upload(&gpu.mem());
    GemmBuffers b2 = p2.upload(&gpu.mem());
    Stream& s1 = gpu.default_stream();
    Stream& s2 = gpu.create_stream();
    Event& e = gpu.create_event("producer_done");
    KernelDesc k1 = make_wmma_gemm_naive(kc, b1);
    k1.name = "producer";
    s1.enqueue(std::move(k1));
    s1.record(e);
    s2.wait(e);
    KernelDesc k2 = make_wmma_gemm_naive(kc, b2);
    k2.name = "consumer";
    s2.enqueue(std::move(k2));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[1].kernel, "consumer");
    EXPECT_GT(es.kernels[1].start_cycle, es.kernels[0].finish_cycle);
    EXPECT_LE(p1.verify(gpu.mem(), b1.d), 1e-3);
    EXPECT_LE(p2.verify(gpu.mem(), b2.d), 1e-3);
}

TEST(Event, WithoutWaitStreamsStillOverlap)
{
    // Same workload minus the wait: the two streams overlap.  Guards
    // against the event machinery accidentally serializing everything.
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Stream& s2 = gpu.create_stream();
    Event& done = gpu.create_event("done");
    s1.enqueue(stress("producer"));
    s1.record(done);
    s2.enqueue(stress("consumer"));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[0].start_cycle, 0u);
    EXPECT_EQ(es.kernels[1].start_cycle, 0u);
}

TEST(Event, ElapsedCyclesTimesSubWindow)
{
    // Events recorded before and after a kernel time its window, the
    // cudaEventElapsedTime analog.
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    Event& t0 = gpu.create_event("t0");
    Event& t1 = gpu.create_event("t1");

    s.record(t0);
    s.enqueue(stress("k"));
    s.record(t1);
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 1u);
    ASSERT_TRUE(t0.complete());
    ASSERT_TRUE(t1.complete());
    // t0 completes on the first promote tick, t1 on the tick after the
    // kernel retires: the span covers exactly the kernel's cycles.
    EXPECT_EQ(Event::elapsed_cycles(t0, t1), es.kernels[0].cycles);
}

TEST(Event, WaitOnNeverRecordedEventReportsDeadlock)
{
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Event& never = gpu.create_event("never");
    s1.wait(never);
    s1.enqueue(stress("blocked"));

    try {
        gpu.run();
        FAIL() << "expected EngineDeadlockError";
    } catch (const EngineDeadlockError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
        EXPECT_NE(what.find("\"never\""), std::string::npos) << what;
        EXPECT_NE(what.find("never recorded"), std::string::npos) << what;
    }
}

TEST(Event, CyclicWaitReportsWaitGraph)
{
    // s1 waits on an event s2 records only after its own blocked wait,
    // and vice versa: a true dependency cycle.  The report names both
    // streams and both events.
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Stream& s2 = gpu.create_stream();
    Event& ea = gpu.create_event("ea");
    Event& eb = gpu.create_event("eb");

    s1.wait(eb);
    s1.enqueue(stress("k1"));
    s1.record(ea);
    s2.wait(ea);
    s2.enqueue(stress("k2"));
    s2.record(eb);

    try {
        gpu.run();
        FAIL() << "expected EngineDeadlockError";
    } catch (const EngineDeadlockError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("\"ea\""), std::string::npos) << what;
        EXPECT_NE(what.find("\"eb\""), std::string::npos) << what;
        EXPECT_NE(what.find("record queued on stream"), std::string::npos)
            << what;
    }
}

TEST(Event, ReRecordedEventLastWins)
{
    // The same event recorded on two streams: after the run its stamp
    // is the later record's, and a second run may re-record it again.
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Stream& s2 = gpu.create_stream();
    Event& e = gpu.create_event("e");

    s1.enqueue(stress("short"));
    s1.record(e);
    s2.enqueue(stress("long", /*ctas=*/1, /*warps=*/4, /*wmma=*/64));
    s2.record(e);
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    uint64_t last_finish = 0;
    for (const LaunchStats& k : es.kernels)
        last_finish = std::max(last_finish, k.finish_cycle);
    ASSERT_TRUE(e.complete());
    // The surviving stamp is from the later (slower) stream's record.
    EXPECT_GT(e.cycle(), last_finish);

    // Host-side re-record resets completion until processed again.
    s1.record(e);
    EXPECT_FALSE(e.complete());
    s1.clear();
}

TEST(Event, RecordThenWaitSameStreamIsNoop)
{
    // A stream waiting on an event it just recorded must not deadlock
    // or change timing: in-stream order already provides the edge.
    Gpu plain(small_titan_v(2));
    plain.default_stream().enqueue(stress("a"));
    plain.default_stream().enqueue(stress("b"));
    EngineStats base = plain.run();

    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    Event& e = gpu.create_event("e");
    s.enqueue(stress("a"));
    s.record(e);
    s.wait(e);
    s.enqueue(stress("b"));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[0].cycles, base.kernels[0].cycles);
    EXPECT_EQ(es.kernels[1].cycles, base.kernels[1].cycles);
    EXPECT_TRUE(e.complete());
}

TEST(Event, CallbackFiresAfterPriorWork)
{
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    std::vector<uint64_t> fired;
    s.enqueue(stress("k"));
    s.add_callback([&](uint64_t cycle) { fired.push_back(cycle); });
    EngineStats es = gpu.run();

    ASSERT_EQ(fired.size(), 1u);
    EXPECT_GT(fired[0], es.kernels[0].finish_cycle);
}

TEST(Event, CallbackMayEnqueueMoreWork)
{
    // A callback that chains another launch onto the stream: the
    // engine picks it up within the same run.
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    s.enqueue(stress("first"));
    s.add_callback([&](uint64_t) { s.enqueue(stress("chained")); });
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[1].kernel, "chained");
    EXPECT_GT(es.kernels[1].start_cycle, es.kernels[0].finish_cycle);
}

TEST(Event, CallbackEnqueuedKernelGetsFullChip)
{
    // A kernel injected by a callback must run on an SM array sized
    // for it, not for the work visible when the run began: its timing
    // matches the same kernel enqueued up front.
    Gpu upfront(small_titan_v(4));
    upfront.default_stream().enqueue(stress("tiny", /*ctas=*/1));
    upfront.default_stream().enqueue(stress("wide", /*ctas=*/4));
    EngineStats ref = upfront.run();

    Gpu chained(small_titan_v(4));
    Stream& s = chained.default_stream();
    s.enqueue(stress("tiny", /*ctas=*/1));
    s.add_callback([&](uint64_t) { s.enqueue(stress("wide", 4)); });
    EngineStats es = chained.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    ASSERT_EQ(ref.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[1].kernel, "wide");
    EXPECT_EQ(es.kernels[1].cycles, ref.kernels[1].cycles);
}

TEST(Event, CallbackCreatedStreamJoinsTheRun)
{
    // A callback that creates a stream and enqueues onto it: the run
    // must execute that work before reporting itself drained.
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    s.enqueue(stress("first"));
    s.add_callback([&](uint64_t) {
        gpu.create_stream().enqueue(stress("on_new_stream"));
    });
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[1].kernel, "on_new_stream");
    EXPECT_FALSE(gpu.run_active());
}

TEST(Resume, RunUntilThenResumeIsBitIdentical)
{
    // The same two-stream workload run in one shot and in many
    // run_until increments must retire every kernel on identical
    // cycles — pausing is timing-invisible.
    GemmProblem<float> pa(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    GemmProblem<float> pb(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);

    Gpu one(small_titan_v(2));
    one.create_stream().enqueue(small_gemm(&one, &pa, "a"));
    one.create_stream().enqueue(small_gemm(&one, &pb, "b"));
    EngineStats whole = one.run();

    Gpu chunked(small_titan_v(2));
    chunked.create_stream().enqueue(small_gemm(&chunked, &pa, "a"));
    chunked.create_stream().enqueue(small_gemm(&chunked, &pb, "b"));
    EngineStats step1 = chunked.run_until(1000);
    EXPECT_TRUE(chunked.run_active());
    EXPECT_GT(step1.current_cycle, 1000u);
    EngineStats step2 = chunked.run_until(5000);
    EngineStats final = chunked.run();
    EXPECT_FALSE(chunked.run_active());

    ASSERT_EQ(final.kernels.size(), whole.kernels.size());
    for (size_t i = 0; i < whole.kernels.size(); ++i) {
        EXPECT_EQ(final.kernels[i].kernel, whole.kernels[i].kernel);
        EXPECT_EQ(final.kernels[i].start_cycle,
                  whole.kernels[i].start_cycle);
        EXPECT_EQ(final.kernels[i].finish_cycle,
                  whole.kernels[i].finish_cycle);
        EXPECT_EQ(final.kernels[i].instructions,
                  whole.kernels[i].instructions);
    }
    EXPECT_EQ(final.cycles, whole.cycles);
    EXPECT_EQ(final.instructions, whole.instructions);
    // Progress snapshots are monotone prefixes of the final result.
    EXPECT_LE(step1.kernels.size(), step2.kernels.size());
    EXPECT_LE(step2.kernels.size(), final.kernels.size());
}

TEST(Resume, ChunkedRunMatchesOneShotOnFullStats)
{
    // Pausing mid-run on a memory-bound slice (transactions and
    // refused MIO heads in flight at the pause) changes no statistic.
    const GpuConfig cfg = mem_bound_config(4);
    Gpu one(cfg);
    one.default_stream().enqueue(timing_gemm(&one, 64));
    EngineStats whole = one.run();

    Gpu chunked(cfg);
    chunked.default_stream().enqueue(timing_gemm(&chunked, 64));
    chunked.run_until(whole.cycles / 3);
    EXPECT_TRUE(chunked.run_active());
    chunked.run_until(whole.cycles / 2);
    EXPECT_TRUE(chunked.run_active());
    expect_same_run(whole, chunked.run());
}

TEST(Resume, WorkEnqueuedBetweenAdvancesJoinsTheRun)
{
    // Service-style operation: a paused run accepts new launches and
    // keeps its warm memory timing (second identical GEMM is no
    // slower), unlike separate runs which reset at the boundary.
    GemmProblem<float> prob(64, 64, 64, Layout::kRowMajor,
                            Layout::kRowMajor);
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.default_stream();
    GemmKernelConfig cfg;
    cfg.m = cfg.n = cfg.k = 64;
    GemmBuffers buf = prob.upload(&gpu.mem());
    s.enqueue(make_wmma_gemm_naive(cfg, buf));
    EngineStats mid = gpu.run_until(10);
    ASSERT_TRUE(gpu.run_active());

    s.enqueue(make_wmma_gemm_naive(cfg, buf));  // same operands: warm
    EngineStats final = gpu.run();

    ASSERT_EQ(final.kernels.size(), 2u);
    EXPECT_LT(final.kernels[1].mem.l2_misses,
              final.kernels[0].mem.l2_misses);
    EXPECT_LE(final.kernels[1].cycles, final.kernels[0].cycles);
    EXPECT_LE(mid.kernels.size(), 1u);
}

TEST(Resume, SynchronizeStreamDrainsOnlyThatStream)
{
    Gpu gpu(small_titan_v(2));
    Stream& fast = gpu.create_stream();
    Stream& slow = gpu.create_stream();
    fast.enqueue(stress("fast"));
    slow.enqueue(stress("slow", /*ctas=*/1, /*warps=*/4, /*wmma=*/128));

    EngineStats at_sync = gpu.synchronize(fast);
    EXPECT_TRUE(fast.empty());
    // The fast kernel retired; the slow one may still be in flight.
    ASSERT_GE(at_sync.kernels.size(), 1u);
    EXPECT_EQ(at_sync.kernels[0].kernel, "fast");

    EngineStats final = gpu.run();
    ASSERT_EQ(final.kernels.size(), 2u);
    EXPECT_FALSE(gpu.run_active());
}

TEST(Resume, SynchronizeIdleStreamIsNoop)
{
    // cudaStreamSynchronize on an idle stream: no run begins, no
    // timing resets, and a later launch() still works.
    Gpu gpu(small_titan_v(2));
    Stream& busy = gpu.create_stream();
    Stream& idle = gpu.create_stream();
    busy.enqueue(stress("queued"));

    EngineStats es = gpu.synchronize(idle);
    EXPECT_TRUE(es.kernels.empty());
    EXPECT_FALSE(gpu.run_active());
    EXPECT_EQ(busy.depth(), 1u);  // Queued work untouched.

    LaunchStats solo = gpu.launch(stress("solo"));  // Must not throw.
    EXPECT_GT(solo.cycles, 0u);
    EngineStats final = gpu.run();
    EXPECT_EQ(final.kernels.size(), 1u);
}

TEST(Resume, SynchronizeEventStopsAtCompletion)
{
    Gpu gpu(small_titan_v(2));
    Stream& s1 = gpu.create_stream();
    Stream& s2 = gpu.create_stream();
    Event& e = gpu.create_event("phase");
    s1.enqueue(stress("first"));
    s1.record(e);
    s1.enqueue(stress("second", /*ctas=*/1, /*warps=*/4, /*wmma=*/64));
    s2.enqueue(stress("other"));

    EngineStats at_event = gpu.synchronize(e);
    EXPECT_TRUE(e.complete());
    EXPECT_TRUE(gpu.run_active());
    EXPECT_GE(at_event.current_cycle, e.cycle());

    EngineStats final = gpu.run();
    EXPECT_EQ(final.kernels.size(), 3u);
}

TEST(Resume, RunUntilPausesOnHostResolvableWait)
{
    // A bounded advance hitting a wait on a not-yet-recorded event
    // pauses instead of throwing: the host records and resumes.
    Gpu gpu(small_titan_v(2));
    Stream& s = gpu.create_stream();
    Event& e = gpu.create_event("host_gate");
    s.wait(e);
    s.enqueue(stress("gated"));

    EngineStats paused = gpu.run_until(1000);
    EXPECT_TRUE(gpu.run_active());
    EXPECT_TRUE(paused.kernels.empty());

    // Host resolves the wait: record on an idle stream and resume
    // with the full-drain call (which would throw were it unresolved).
    gpu.create_stream().record(e);
    EngineStats final = gpu.run();
    ASSERT_EQ(final.kernels.size(), 1u);
    EXPECT_EQ(final.kernels[0].kernel, "gated");
    EXPECT_FALSE(gpu.run_active());
}

TEST(Resume, SynchronizeNeverRecordedEventThrows)
{
    Gpu gpu(small_titan_v(2));
    gpu.default_stream().enqueue(stress("k"));
    Event& never = gpu.create_event("never");
    EXPECT_THROW(gpu.synchronize(never), EngineDeadlockError);
}

TEST(Resume, LaunchWhilePausedThrows)
{
    Gpu gpu(small_titan_v(2));
    gpu.default_stream().enqueue(stress("k"));
    gpu.run_until(10);
    ASSERT_TRUE(gpu.run_active());
    EXPECT_THROW(gpu.launch(stress("solo")), std::runtime_error);
    gpu.run();  // Drain so the Gpu tears down cleanly.
}

TEST(Stalls, PerKernelAttributionFilledInMultiKernelRuns)
{
    // Two concurrent GEMMs: each kernel's LaunchStats carries its own
    // stall attribution (not just Gpu::launch()'s chip-wide copy), and
    // the per-kernel counts are bounded by the chip-wide total.
    GemmProblem<float> pa(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    GemmProblem<float> pb(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    Gpu gpu(small_titan_v(2));
    gpu.create_stream().enqueue(small_gemm(&gpu, &pa, "a"));
    gpu.create_stream().enqueue(small_gemm(&gpu, &pb, "b"));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_GT(es.stalls.total(), 0u);
    uint64_t per_kernel = 0;
    for (const LaunchStats& k : es.kernels) {
        EXPECT_GT(k.stalls.total(), 0u) << k.kernel;
        per_kernel += k.stalls.total();
    }
    // Unattributable stalls (empty sub-cores, drained warps) stay
    // chip-wide only.
    EXPECT_LE(per_kernel, es.stalls.total());
    // Named accessor: a memory-bound WMMA GEMM spends cycles blocked
    // on the scoreboard.
    EXPECT_GT(es.stalls.cycles(SubCore::StallReason::kScoreboard), 0u);
}

TEST(Stalls, LaunchKeepsChipWideAttribution)
{
    // Gpu::launch() preserves the legacy semantics: the single
    // kernel's stall array equals the chip-wide one.
    GemmProblem<float> prob(64, 64, 64, Layout::kRowMajor,
                            Layout::kRowMajor);
    Gpu gpu(small_titan_v(2));
    LaunchStats s = gpu.launch(small_gemm(&gpu, &prob, "solo"));
    EXPECT_GT(s.stalls.total(), 0u);
}

}  // namespace
}  // namespace tcsim
