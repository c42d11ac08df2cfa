/**
 * @file
 * Tests for the stream-aware execution engine: compatibility of the
 * single-launch wrapper, in-stream ordering, cross-stream overlap,
 * per-kernel statistics attribution, warm-cache semantics within a
 * run, the event-driven main loop's cycle skipping, and the
 * single-thread SimOptions contract.
 */

#include <gtest/gtest.h>

#include <stdexcept>

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
small_gemm(Gpu* gpu, GemmProblem<float>* prob, bool shared = false,
           const char* name = nullptr)
{
    GemmKernelConfig cfg;
    cfg.m = prob->m();
    cfg.n = prob->n();
    cfg.k = prob->k();
    GemmBuffers buf = prob->upload(&gpu->mem());
    KernelDesc kd = shared ? make_wmma_gemm_shared(cfg, buf)
                           : make_wmma_gemm_naive(cfg, buf);
    if (name)
        kd.name = name;
    return kd;
}

TEST(Engine, OnlyOneSimThreadIsAccepted)
{
    // One simulation runs on one thread: sim_threads = 1 (the default)
    // constructs, anything else is rejected rather than ignored.
    SimOptions serial;
    serial.sim_threads = 1;
    EXPECT_NO_THROW(Gpu(small_titan_v(2), serial));
    for (int threads : {0, 2, 4}) {
        SimOptions opts;
        opts.sim_threads = threads;
        EXPECT_THROW(Gpu(small_titan_v(2), opts), std::invalid_argument)
            << threads;
    }
}

TEST(Engine, RunMatchesCompatLaunch)
{
    // A single kernel through run() and through the compatibility
    // launch() wrapper must report identical timing.
    GemmProblem<float> prob(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);

    Gpu gpu1(small_titan_v(2));
    LaunchStats via_launch = gpu1.launch(small_gemm(&gpu1, &prob));

    Gpu gpu2(small_titan_v(2));
    gpu2.default_stream().enqueue(small_gemm(&gpu2, &prob));
    EngineStats es = gpu2.run();

    ASSERT_EQ(es.kernels.size(), 1u);
    EXPECT_EQ(es.kernels[0].cycles, via_launch.cycles);
    EXPECT_EQ(es.kernels[0].instructions, via_launch.instructions);
    EXPECT_EQ(es.cycles, via_launch.cycles);
    EXPECT_EQ(es.kernels[0].start_cycle, 0u);
}

TEST(Engine, EmptyRunIsNoop)
{
    Gpu gpu(small_titan_v(1));
    gpu.create_stream();
    EngineStats es = gpu.run();
    EXPECT_EQ(es.cycles, 0u);
    EXPECT_TRUE(es.kernels.empty());
}

TEST(Engine, SameStreamRunsInOrder)
{
    // Launches on one stream execute back-to-back: disjoint cycle
    // windows, in enqueue order.
    Gpu gpu(small_titan_v(2));
    GemmProblem<float> prob(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    Stream& s = gpu.default_stream();
    s.enqueue(small_gemm(&gpu, &prob, false, "first"));
    s.enqueue(small_gemm(&gpu, &prob, false, "second"));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_EQ(es.kernels[0].kernel, "first");
    EXPECT_EQ(es.kernels[1].kernel, "second");
    EXPECT_GT(es.kernels[1].start_cycle, es.kernels[0].finish_cycle);
    EXPECT_EQ(es.cycles, es.kernels[1].finish_cycle + 1);
    EXPECT_EQ(es.instructions,
              es.kernels[0].instructions + es.kernels[1].instructions);
}

TEST(Engine, SecondLaunchSeesWarmCaches)
{
    // Within one run, memory timing persists across launches: the
    // second identical GEMM hits in L2 where the first missed.
    Gpu gpu(small_titan_v(2));
    GemmProblem<float> prob(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    GemmKernelConfig cfg;
    cfg.m = cfg.n = cfg.k = 64;
    GemmBuffers buf = prob.upload(&gpu.mem());  // same operands twice
    Stream& s = gpu.default_stream();
    s.enqueue(make_wmma_gemm_naive(cfg, buf));
    s.enqueue(make_wmma_gemm_naive(cfg, buf));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_LT(es.kernels[1].mem.l2_misses, es.kernels[0].mem.l2_misses);
    // Warm caches can only help: the second launch is no slower.
    EXPECT_LE(es.kernels[1].cycles, es.kernels[0].cycles);
}

TEST(Engine, IndependentStreamsOverlap)
{
    // Two single-CTA kernels on separate streams spread across the
    // chip and overlap in time; on one stream they serialize.
    auto stress = [] {
        return make_hmma_stress(Arch::kVolta, TcMode::kMixed, /*ctas=*/1,
                                /*warps=*/4, /*wmma_per_warp=*/64,
                                /*accumulators=*/4);
    };

    Gpu serial(small_titan_v(2));
    serial.default_stream().enqueue(stress());
    serial.default_stream().enqueue(stress());
    EngineStats es_serial = serial.run();

    Gpu overlap(small_titan_v(2));
    overlap.create_stream().enqueue(stress());
    overlap.create_stream().enqueue(stress());
    EngineStats es_overlap = overlap.run();

    ASSERT_EQ(es_overlap.kernels.size(), 2u);
    // Windows overlap: the second kernel starts before the first ends.
    uint64_t first_finish = es_overlap.kernels[0].finish_cycle;
    uint64_t second_start = es_overlap.kernels[1].start_cycle;
    EXPECT_LE(second_start, first_finish);
    // And the whole run is markedly faster than the serialized one.
    EXPECT_LT(es_overlap.cycles, es_serial.cycles * 3 / 4);
    // Same total work either way.
    EXPECT_EQ(es_overlap.instructions, es_serial.instructions);
}

TEST(Engine, ConcurrentKernelsShareOneSm)
{
    // With a single SM, CTAs of both streams' kernels become
    // co-resident (concurrent kernel execution), not time-sliced:
    // both kernels' windows overlap.
    auto stress = [](const char* name) {
        KernelDesc kd = make_hmma_stress(Arch::kVolta, TcMode::kMixed, 1,
                                         /*warps=*/2, /*wmma_per_warp=*/32,
                                         /*accumulators=*/4);
        kd.name = name;
        return kd;
    };
    Gpu gpu(small_titan_v(1));
    gpu.create_stream().enqueue(stress("a"));
    gpu.create_stream().enqueue(stress("b"));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    const LaunchStats* a = &es.kernels[0];
    const LaunchStats* b = &es.kernels[1];
    if (a->kernel != "a")
        std::swap(a, b);
    EXPECT_LE(b->start_cycle, a->finish_cycle);
    // Per-kernel attribution: each stress kernel's HMMA count is its
    // own (2 warps x 32 wmma x 16 HMMA per group).
    EXPECT_EQ(a->hmma_instructions, 2u * 32u * 16u);
    EXPECT_EQ(b->hmma_instructions, 2u * 32u * 16u);
}

TEST(Engine, FunctionalResultsCorrectAcrossConcurrentStreams)
{
    // Two different GEMMs on different streams, both verified against
    // the host reference: concurrent execution must not corrupt
    // either kernel's functional state.
    Gpu gpu(small_titan_v(2));
    GemmProblem<float> pa(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    GemmProblem<float> pb(32, 32, 32, Layout::kRowMajor, Layout::kColMajor);

    GemmKernelConfig ca;
    ca.m = ca.n = ca.k = 64;
    GemmBuffers ba = pa.upload(&gpu.mem());

    GemmKernelConfig cb;
    cb.m = cb.n = cb.k = 32;
    cb.b_layout = Layout::kColMajor;
    GemmBuffers bb = pb.upload(&gpu.mem());

    gpu.create_stream().enqueue(make_wmma_gemm_naive(ca, ba));
    gpu.create_stream().enqueue(make_wmma_gemm_naive(cb, bb));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    EXPECT_LT(pa.verify(gpu.mem(), ba.d), 1e-3);
    EXPECT_LT(pb.verify(gpu.mem(), bb.d), 1e-3);
}

TEST(Engine, EventLoopSkipsStalledCycles)
{
    // A one-CTA kernel leaves the chip fully stalled during memory
    // round trips; the event-driven loop must simulate fewer ticks
    // than the cycle count, with the difference accounted.
    Gpu gpu(small_titan_v(1));
    GemmProblem<float> prob(16, 16, 16, Layout::kRowMajor, Layout::kRowMajor);
    gpu.default_stream().enqueue(small_gemm(&gpu, &prob));
    EngineStats es = gpu.run();

    EXPECT_GT(es.skipped_cycles, 0u);
    EXPECT_LT(es.ticks, es.cycles);
}

TEST(Engine, DefaultStreamDistinctFromCreatedStreams)
{
    // default_stream() is the implicit stream 0, never an alias of a
    // create_stream() stream: work on it overlaps with created
    // streams instead of serializing behind them.
    auto stress = [](const char* name) {
        KernelDesc kd = make_hmma_stress(Arch::kVolta, TcMode::kMixed, 1,
                                         4, 64, 4);
        kd.name = name;
        return kd;
    };
    Gpu gpu(small_titan_v(2));
    Stream& created = gpu.create_stream();
    EXPECT_NE(&created, &gpu.default_stream());
    EXPECT_NE(created.id(), gpu.default_stream().id());

    created.enqueue(stress("on_created"));
    gpu.default_stream().enqueue(stress("on_default"));
    EngineStats es = gpu.run();

    ASSERT_EQ(es.kernels.size(), 2u);
    // Both start at cycle 0: they ran concurrently, not serialized.
    EXPECT_EQ(es.kernels[0].start_cycle, 0u);
    EXPECT_EQ(es.kernels[1].start_cycle, 0u);
}

TEST(Engine, StreamClearDropsQueuedWork)
{
    // clear() empties a mis-built queue so the stream can be reused
    // without running the stale work.
    Gpu gpu(small_titan_v(2));
    GemmProblem<float> prob(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    Stream& s = gpu.default_stream();
    Event& e = gpu.create_event("e");

    s.enqueue(small_gemm(&gpu, &prob, false, "stale"));
    s.record(e);
    EXPECT_EQ(s.depth(), 1u);
    EXPECT_FALSE(s.empty());
    s.clear();
    EXPECT_EQ(s.depth(), 0u);
    EXPECT_TRUE(s.empty());

    EngineStats es = gpu.run();
    EXPECT_TRUE(es.kernels.empty());

    s.enqueue(small_gemm(&gpu, &prob, false, "fresh"));
    EngineStats es2 = gpu.run();
    ASSERT_EQ(es2.kernels.size(), 1u);
    EXPECT_EQ(es2.kernels[0].kernel, "fresh");
}

TEST(Engine, EnqueueMovesDescriptor)
{
    // enqueue takes by value and moves: a moved-in descriptor's trace
    // (a std::function) transfers without copying its state.
    Gpu gpu(small_titan_v(2));
    GemmProblem<float> prob(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    KernelDesc kd = small_gemm(&gpu, &prob, false, "moved");
    gpu.default_stream().enqueue(std::move(kd));
    EngineStats es = gpu.run();
    ASSERT_EQ(es.kernels.size(), 1u);
    EXPECT_EQ(es.kernels[0].kernel, "moved");
}

TEST(Engine, StreamsReusableAcrossRuns)
{
    Gpu gpu(small_titan_v(2));
    GemmProblem<float> prob(64, 64, 64, Layout::kRowMajor, Layout::kRowMajor);
    Stream& s = gpu.default_stream();

    s.enqueue(small_gemm(&gpu, &prob));
    EngineStats first = gpu.run();
    EXPECT_TRUE(s.empty());

    s.enqueue(small_gemm(&gpu, &prob));
    EngineStats second = gpu.run();

    ASSERT_EQ(first.kernels.size(), 1u);
    ASSERT_EQ(second.kernels.size(), 1u);
    // Cache timing resets at run boundaries: identical runs, identical
    // timing.
    EXPECT_EQ(first.cycles, second.cycles);
}

}  // namespace
}  // namespace tcsim
