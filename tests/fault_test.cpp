/**
 * @file
 * Fault-injection tests: FaultPlan compilation (random picks are
 * seed-deterministic, unsatisfiable plans are rejected), kernel rule
 * budgets, the stateless ECC hash, and end-to-end engine behaviour --
 * disabled/degraded SMs slow a multi-CTA kernel, slowdowns stretch
 * completion, hangs block the run until kill_stream() or a watchdog
 * contains them, and faulty runs are deterministic.
 */

#include <gtest/gtest.h>

#include "arch/gpu_config.h"
#include "common/sim_error.h"
#include "kernels/kernel_registry.h"
#include "sim/fault/fault_plan.h"
#include "sim/gpu.h"

using namespace tcsim;

namespace {

GpuConfig
small_gpu(int sms = 4)
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = sms;
    return cfg;
}

/** A multi-CTA GEMM so SM-level faults have something to slow down. */
KernelDesc
gemm_kernel(Gpu& gpu, const GpuConfig& cfg, int mn = 128)
{
    const KernelFamilyInfo* info = find_kernel_family("wmma_naive");
    EXPECT_NE(info, nullptr);
    GemmKernelConfig kc;
    kc.arch = cfg.arch;
    kc.m = kc.n = mn;
    kc.k = 64;
    GemmBuffers buf;
    buf.a = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.k * 2);
    buf.b = gpu.mem().alloc(static_cast<uint64_t>(kc.k) * kc.n * 2);
    buf.c = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    buf.d = gpu.mem().alloc(static_cast<uint64_t>(kc.m) * kc.n * 4);
    KernelDesc desc =
        build_gemm_kernel(info->family, kc, buf, /*warps_per_cta=*/8);
    return desc;
}

/** Cycles to run one GEMM to completion under @p faults. */
uint64_t
faulty_cycles(const FaultSpec& faults, FaultCounters* counters = nullptr)
{
    GpuConfig cfg = small_gpu();
    Gpu gpu(cfg, SimOptions{}, faults);
    gpu.default_stream().enqueue(gemm_kernel(gpu, cfg));
    EngineStats stats = gpu.run();
    if (counters)
        *counters = gpu.fault_counters();
    return stats.cycles;
}

}  // namespace

// --- FaultPlan compilation -------------------------------------------

TEST(FaultPlan, RandomPicksAreSeedDeterministic)
{
    GpuConfig cfg = small_gpu(16);
    FaultSpec spec;
    spec.enabled = true;
    spec.seed = 7;
    spec.random_disabled_sms = 3;
    spec.random_degraded_sms = 2;
    spec.degraded_warp_slots = 4;

    FaultPlan a(spec, cfg);
    FaultPlan b(spec, cfg);
    int disabled = 0, degraded = 0;
    for (int sm = 0; sm < cfg.num_sms; ++sm) {
        EXPECT_EQ(a.sm_disabled(sm), b.sm_disabled(sm));
        EXPECT_EQ(a.warp_slot_cap(sm), b.warp_slot_cap(sm));
        disabled += a.sm_disabled(sm);
        degraded += a.warp_slot_cap(sm) != 0;
    }
    EXPECT_EQ(disabled, 3);
    EXPECT_EQ(degraded, 2);
    EXPECT_EQ(a.counters().disabled_sms, 3u);
    EXPECT_EQ(a.counters().degraded_sms, 2u);
}

TEST(FaultPlan, RejectsUnsatisfiablePlans)
{
    GpuConfig cfg = small_gpu(4);
    FaultSpec bad_id;
    bad_id.enabled = true;
    bad_id.disabled_sms = {4};  // Out of range on a 4-SM chip.
    EXPECT_THROW(FaultPlan(bad_id, cfg), SimError);

    FaultSpec all_dead;
    all_dead.enabled = true;
    all_dead.disabled_sms = {0, 1, 2};
    all_dead.random_disabled_sms = 1;  // Would disable every SM.
    EXPECT_THROW(FaultPlan(all_dead, cfg), SimError);

    FaultSpec bad_degrade;
    bad_degrade.enabled = true;
    bad_degrade.degraded_sms = {{7, 4}};
    EXPECT_THROW(FaultPlan(bad_degrade, cfg), SimError);
}

TEST(FaultPlan, KernelRuleBudgets)
{
    GpuConfig cfg = small_gpu();
    FaultSpec spec;
    spec.enabled = true;
    spec.hangs.push_back({"fc0", 1.0, 2});
    spec.slowdowns.push_back({"gemm", 3.0, 1});
    FaultPlan plan(spec, cfg);

    // Hang budget: two matches, then exhausted; non-matches never hit.
    EXPECT_FALSE(plan.take_hang("other"));
    EXPECT_TRUE(plan.take_hang("b0.fc0.k0"));
    EXPECT_TRUE(plan.take_hang("b1.fc0.k0"));
    EXPECT_FALSE(plan.take_hang("b2.fc0.k0"));
    EXPECT_EQ(plan.counters().hangs, 2u);

    // Slowdown budget: first match gets the factor, later ones don't.
    EXPECT_DOUBLE_EQ(plan.take_slowdown("gemm_0"), 3.0);
    EXPECT_DOUBLE_EQ(plan.take_slowdown("gemm_1"), 1.0);
    EXPECT_EQ(plan.counters().slowdowns, 1u);
}

TEST(FaultPlan, EccHashIsStatelessAndDeterministic)
{
    GpuConfig cfg = small_gpu();
    FaultSpec spec;
    spec.enabled = true;
    spec.ecc_prob = 0.5;
    spec.ecc_extra_cycles = 40;
    FaultPlan a(spec, cfg);
    FaultPlan b(spec, cfg);

    uint64_t hits = 0;
    for (uint64_t addr = 0; addr < 256 * 32; addr += 32) {
        const uint64_t da = a.ecc_delay(1, addr, 1000);
        // Same (sm, addr, cycle) -> same decision in any plan instance,
        // regardless of what either plan was asked before.
        EXPECT_EQ(da, b.ecc_delay(1, addr, 1000));
        EXPECT_TRUE(da == 0 || da == 40);
        hits += da != 0;
    }
    // p = 0.5 over 256 draws: comfortably away from 0 and 256.
    EXPECT_GT(hits, 64u);
    EXPECT_LT(hits, 192u);
    EXPECT_EQ(a.counters().ecc_retries, hits);
    EXPECT_EQ(a.counters().ecc_extra_cycles, hits * 40);
}

// --- End-to-end engine behaviour -------------------------------------

TEST(FaultEngine, DisabledAndDegradedSmsSlowTheChip)
{
    const uint64_t healthy = faulty_cycles(FaultSpec{});

    FaultSpec disabled;
    disabled.enabled = true;
    disabled.disabled_sms = {0, 1, 2};
    FaultCounters dc;
    const uint64_t one_sm = faulty_cycles(disabled, &dc);
    EXPECT_GT(one_sm, healthy);
    EXPECT_EQ(dc.disabled_sms, 3u);

    // Cap every SM to one CTA's worth of warp slots: the chip still
    // finishes, just with far less concurrency.
    FaultSpec degraded;
    degraded.enabled = true;
    for (int sm = 0; sm < 4; ++sm)
        degraded.degraded_sms.push_back({sm, 8});
    FaultCounters gc;
    const uint64_t capped = faulty_cycles(degraded, &gc);
    EXPECT_GT(capped, healthy);
    EXPECT_EQ(gc.degraded_sms, 4u);
}

TEST(FaultEngine, UndispatchableDegradedPlanIsATypedError)
{
    // Warp caps below the kernel's warps-per-CTA on every SM: no CTA
    // can ever dispatch.  Scenario input, so a typed SimError (with
    // the diagnostic dump), never a process abort.
    FaultSpec starved;
    starved.enabled = true;
    for (int sm = 0; sm < 4; ++sm)
        starved.degraded_sms.push_back({sm, 2});
    try {
        faulty_cycles(starved);
        FAIL() << "expected SimError";
    } catch (const SimError& e) {
        EXPECT_NE(std::string(e.what()).find("undispatchable"),
                  std::string::npos);
    }
}

TEST(FaultEngine, SlowdownStretchesCompletion)
{
    const uint64_t healthy = faulty_cycles(FaultSpec{});

    FaultSpec slow;
    slow.enabled = true;
    slow.slowdowns.push_back({"wmma", 2.0, 0});
    FaultCounters fc;
    const uint64_t stretched = faulty_cycles(slow, &fc);
    EXPECT_EQ(fc.slowdowns, 1u);
    EXPECT_GT(fc.slowdown_extra_cycles, 0u);
    // Held to ~2x its natural duration.
    EXPECT_GE(stretched, healthy + fc.slowdown_extra_cycles);
    EXPECT_GT(stretched, healthy * 3 / 2);
}

TEST(FaultEngine, EccRetriesAddLatencyDeterministically)
{
    const uint64_t healthy = faulty_cycles(FaultSpec{});

    FaultSpec ecc;
    ecc.enabled = true;
    ecc.ecc_prob = 0.5;
    ecc.ecc_extra_cycles = 100;
    FaultCounters c1, c2;
    const uint64_t a = faulty_cycles(ecc, &c1);
    const uint64_t b = faulty_cycles(ecc, &c2);
    EXPECT_EQ(a, b);
    EXPECT_EQ(c1.ecc_retries, c2.ecc_retries);
    EXPECT_GT(c1.ecc_retries, 0u);
    EXPECT_GT(a, healthy);
}

TEST(FaultEngine, HangBlocksRunUntilAndKillStreamRecovers)
{
    GpuConfig cfg = small_gpu();
    Gpu gpu(cfg, SimOptions{}, [] {
        FaultSpec f;
        f.enabled = true;
        f.hangs.push_back({"doomed", 1.0, 1});
        return f;
    }());

    Stream& victim = gpu.create_stream();
    KernelDesc doomed = gemm_kernel(gpu, cfg, 64);
    doomed.name = "doomed";
    victim.enqueue(doomed);

    // A resumable advance pauses blocked once the hung launch is the
    // only thing left on the chip -- it never retires on its own.
    gpu.run_until(50'000'000);
    EXPECT_TRUE(gpu.run_active());
    EXPECT_EQ(gpu.fault_counters().hangs, 1u);
    EXPECT_TRUE(gpu.stream_quiescent(victim));

    // Host containment: kill the stream, then healthy work completes.
    gpu.kill_stream(victim);
    gpu.default_stream().enqueue(gemm_kernel(gpu, cfg, 64));
    EngineStats stats = gpu.run();
    EXPECT_EQ(stats.kernels.size(), 1u);
}

TEST(FaultEngine, HangIsTerminalForRunToCompletion)
{
    GpuConfig cfg = small_gpu();
    FaultSpec f;
    f.enabled = true;
    f.hangs.push_back({"wmma", 1.0, 1});
    Gpu gpu(cfg, SimOptions{}, f);
    gpu.default_stream().enqueue(gemm_kernel(gpu, cfg, 64));
    try {
        gpu.run();
        FAIL() << "expected SimHangError";
    } catch (const SimHangError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("injected kernel hang"), std::string::npos);
        EXPECT_NE(what.find("resident kernel"), std::string::npos);
    }
}

TEST(FaultEngine, MaxCyclesWatchdogCarriesDiagnosticDump)
{
    GpuConfig cfg = small_gpu();
    SimOptions sim;
    sim.max_cycles = 200;  // Far below one GEMM's duration.
    Gpu gpu(cfg, sim);
    gpu.default_stream().enqueue(gemm_kernel(gpu, cfg, 64));
    try {
        gpu.run();
        FAIL() << "expected SimHangError";
    } catch (const SimHangError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("max_cycles"), std::string::npos);
        EXPECT_NE(what.find("resident kernel"), std::string::npos);
        EXPECT_NE(what.find("busy SM"), std::string::npos);
    }
}

TEST(FaultEngine, FaultsAreTimingOnly)
{
    // A heavily faulted run still completes and verifies: faults are
    // timing-only and must never corrupt functional results.
    GpuConfig cfg = small_gpu();
    FaultSpec faults;
    faults.enabled = true;
    faults.disabled_sms = {0, 3};
    faults.ecc_prob = 0.3;
    faults.ecc_extra_cycles = 80;
    faults.slowdowns.push_back({"wmma", 2.0, 0});
    Gpu gpu(cfg, SimOptions{}, faults);
    KernelDesc k = gemm_kernel(gpu, cfg, 64);
    gpu.default_stream().enqueue(k);
    EngineStats stats = gpu.run();
    EXPECT_EQ(stats.kernels.size(), 1u);
    EXPECT_GT(gpu.fault_counters().ecc_retries, 0u);
}
