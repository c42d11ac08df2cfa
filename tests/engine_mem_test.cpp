/**
 * @file
 * Engine-level tests of the transaction-queued memory hierarchy:
 * constricting MSHR entries / NoC bandwidth / DRAM queue depth must
 * slow memory-bound kernels monotonically and surface the matching
 * back-pressure stall reasons, and the event-driven engine's
 * idle-skip must stay bit-identical to a lockstep (tick every cycle)
 * run while transactions are in flight.
 */

#include <gtest/gtest.h>

#include "arch/gpu_config.h"
#include "kernels/gemm_kernels.h"
#include "sim/gpu.h"

namespace tcsim {
namespace {

/** Small memory-bound workload: the naive WMMA GEMM streams A/B from
 *  global memory every iteration, on a chip slice with a tiny L1 so
 *  most sectors miss. */
GpuConfig
mem_bound_config()
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = 4;
    cfg.l1_size = 16 * 1024;
    return cfg;
}

LaunchStats
run_gemm(const GpuConfig& cfg, SimOptions opts = {})
{
    Gpu gpu(cfg, opts);
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = 128;
    kc.functional = false;
    GemmBuffers buf;
    buf.a = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.k * 2);
    buf.b = gpu.mem().alloc(static_cast<uint64_t>(kc.k) * kc.n * 2);
    buf.c = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    buf.d = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    return gpu.launch(make_wmma_gemm_naive(kc, buf));
}

TEST(MemBackpressure, MshrConstrictionSlowsMonotonically)
{
    GpuConfig cfg = mem_bound_config();
    LaunchStats wide = run_gemm(cfg);
    cfg.l1_mshr_entries = 8;
    LaunchStats mid = run_gemm(cfg);
    cfg.l1_mshr_entries = 2;
    LaunchStats narrow = run_gemm(cfg);

    // An unconstricted run never blocks on the MSHR file.
    EXPECT_EQ(wide.stalls[StallReason::kMshrFull], 0u);
    // Constriction costs cycles, monotonically...
    EXPECT_GE(mid.cycles, wide.cycles);
    EXPECT_GT(narrow.cycles, wide.cycles);
    EXPECT_GE(narrow.cycles, mid.cycles);
    // ...and the warps observe the new stall reason.
    EXPECT_GT(narrow.stalls[StallReason::kMshrFull], 0u);
}

TEST(MemBackpressure, NocConstrictionSlowsMonotonically)
{
    GpuConfig cfg = mem_bound_config();
    LaunchStats wide = run_gemm(cfg);
    cfg.noc_bytes_per_cycle = 32.0;
    cfg.noc_queue_depth = 16;
    LaunchStats mid = run_gemm(cfg);
    cfg.noc_bytes_per_cycle = 8.0;
    LaunchStats narrow = run_gemm(cfg);

    EXPECT_GE(mid.cycles, wide.cycles);
    EXPECT_GT(narrow.cycles, wide.cycles);
    EXPECT_GE(narrow.cycles, mid.cycles);
    EXPECT_GT(narrow.stalls[StallReason::kNocBusy], 0u);
    // Queueing delay at the interconnect is visible in the counters.
    EXPECT_GT(narrow.mem.noc_queue_cycles, wide.mem.noc_queue_cycles);
}

TEST(MemBackpressure, DramQueueConstrictionSlowsMonotonically)
{
    GpuConfig cfg = mem_bound_config();
    cfg.l2_size = 64 * 1024;  // Force traffic through to DRAM.
    LaunchStats wide = run_gemm(cfg);
    cfg.dram_queue_depth = 2;
    cfg.dram_bytes_per_cycle_per_partition = 1.0;
    cfg.num_mem_partitions = 1;
    LaunchStats narrow = run_gemm(cfg);

    EXPECT_GT(narrow.cycles, wide.cycles);
    EXPECT_GT(narrow.stalls[StallReason::kDramQueue], 0u);
    // Note: dram_queue_cycles (waiting *inside* the queue) shrinks
    // under a shallow queue — refusals move the waiting upstream into
    // the kDramQueue stall counter instead.
}

TEST(MemBackpressure, ComputeBoundKernelUnaffectedByNarrowQueues)
{
    // The register-resident HMMA stress kernel touches no global
    // memory: narrow memory queues must not change its timing.
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = 4;
    SimOptions opts;
    Gpu a(cfg, opts);
    LaunchStats sa = a.launch(make_hmma_stress(cfg.arch, TcMode::kMixed,
                                               8, 4, 32));
    cfg.l1_mshr_entries = 1;
    cfg.noc_bytes_per_cycle = 1.0;
    cfg.dram_queue_depth = 1;
    Gpu b(cfg, opts);
    LaunchStats sb = b.launch(make_hmma_stress(cfg.arch, TcMode::kMixed,
                                               8, 4, 32));
    EXPECT_EQ(sa.cycles, sb.cycles);
    EXPECT_EQ(sb.stalls[StallReason::kMshrFull], 0u);
    EXPECT_EQ(sb.stalls[StallReason::kNocBusy], 0u);
    EXPECT_EQ(sb.stalls[StallReason::kDramQueue], 0u);
}

/** Full-stats comparison of one launch under idle-skip vs lockstep. */
void
expect_bit_identical(const GpuConfig& cfg)
{
    SimOptions skip;
    skip.idle_skip = true;
    SimOptions lockstep;
    lockstep.idle_skip = false;

    LaunchStats a = run_gemm(cfg, skip);
    LaunchStats b = run_gemm(cfg, lockstep);

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.start_cycle, b.start_cycle);
    EXPECT_EQ(a.finish_cycle, b.finish_cycle);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hmma_instructions, b.hmma_instructions);
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
    ASSERT_EQ(a.macro_latency.size(), b.macro_latency.size());
    for (const auto& [mc, ha] : a.macro_latency) {
        auto it = b.macro_latency.find(mc);
        ASSERT_NE(it, b.macro_latency.end());
        EXPECT_EQ(ha.samples(), it->second.samples());
    }
}

TEST(IdleSkip, BitIdenticalWithTransactionsInFlight)
{
    // The memory-bound GEMM keeps transactions in flight (and MIO
    // heads blocked on refusals) for most of the run; skipping over
    // the stalled cycles must not change a single counter.
    expect_bit_identical(mem_bound_config());
}

TEST(IdleSkip, BitIdenticalUnderHeavyBackpressure)
{
    // Constrict every level so refusals (and their retry-cycle jumps)
    // dominate: the retry times folded into next_event must land on
    // exactly the cycles the lockstep run acts on.
    GpuConfig cfg = mem_bound_config();
    cfg.l1_mshr_entries = 2;
    cfg.noc_bytes_per_cycle = 16.0;
    cfg.noc_queue_depth = 8;
    cfg.l2_bank_queue_depth = 2;
    cfg.dram_queue_depth = 4;
    cfg.l2_size = 64 * 1024;
    expect_bit_identical(cfg);
}

TEST(IdleSkip, SkipsCyclesWhileMemoryInFlight)
{
    // Sanity: the event-driven loop actually jumps while the only
    // outstanding work is in-flight memory (ticks < cycles).
    GpuConfig cfg = mem_bound_config();
    SimOptions opts;
    Gpu gpu(cfg, opts);
    GemmKernelConfig kc;
    kc.m = kc.n = kc.k = 128;
    kc.functional = false;
    GemmBuffers buf;
    buf.a = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.k * 2);
    buf.b = gpu.mem().alloc(static_cast<uint64_t>(kc.k) * kc.n * 2);
    buf.c = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    buf.d = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    gpu.default_stream().enqueue(make_wmma_gemm_naive(kc, buf));
    EngineStats es = gpu.run();
    EXPECT_GT(es.skipped_cycles, 0u);
    EXPECT_LT(es.ticks, es.cycles);
}

}  // namespace
}  // namespace tcsim
