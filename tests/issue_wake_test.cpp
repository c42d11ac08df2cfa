/**
 * @file
 * Golden stall attribution of the sub-core issue loop.
 *
 * A sub-core that fails to issue remembers the stall and charges it
 * again each cycle without re-walking its warps, until a writeback,
 * barrier release, MIO pop, MIO block-reason change, warp arrival or a
 * unit ready time can change the answer (SubCore's class comment).  A
 * missed wake source does not have to change the cycle count: it can
 * move stall cycles from one reason to another, or delay an issue by a
 * few cycles.  Comparing two runs of the same build cannot see either,
 * so this test pins total cycles, simulated ticks, instructions and
 * every StallReason count to values recorded from the simulator
 * before the memo existed (commit 1fc22cb, which re-polled every warp
 * on every tick).
 *
 * The kernels are chosen to hit every stall source the memo must
 * wake from, under each scheduler policy:
 *  - timing-only wmma_naive on 8 SMs with a 4-entry MSHR file and
 *    2-deep DRAM queues: kMshrFull / kDramQueue back-pressure, MIO
 *    block-reason changes and scoreboard waits on global loads;
 *  - functional wmma_shared: kBarrier and kMioFull;
 *  - hmma_stress: kTcBusy.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "kernels/gemm_kernels.h"
#include "kernels/gemm_problem.h"
#include "sim/gpu.h"

namespace tcsim {
namespace {

enum class Workload { kNaiveBackpressure, kSharedFunctional, kHmmaStress };

const char*
workload_name(Workload w)
{
    switch (w) {
      case Workload::kNaiveBackpressure: return "naive";
      case Workload::kSharedFunctional: return "shared";
      case Workload::kHmmaStress: return "hmma";
    }
    return "?";
}

const char*
policy_name(SchedulerPolicy p)
{
    switch (p) {
      case SchedulerPolicy::kGto: return "gto";
      case SchedulerPolicy::kLrr: return "lrr";
      case SchedulerPolicy::kTwoLevel: return "two_level";
    }
    return "?";
}

/** One pinned run: cycles, simulated ticks (the rest were idle-
 *  skipped), instructions and stalls by StallReason. */
struct Golden
{
    SchedulerPolicy policy;
    Workload workload;
    uint64_t cycles;
    uint64_t ticks;
    uint64_t instructions;
    std::array<uint64_t, kNumStallReasons> stalls;
};

// Recorded from commit 1fc22cb (every warp re-polled on every tick).
// Columns: policy, workload; cycles, ticks, instructions; stalls in
// StallReason order: none, empty, barrier, scoreboard, tc_busy,
// mio_full, alu_busy, drained, mshr_full, noc_busy, dram_queue.
const Golden kGolden[] = {
    {SchedulerPolicy::kGto, Workload::kNaiveBackpressure,
     415530, 118404, 36864,
     {0, 3930815, 0, 852682, 960, 173517, 0, 346189, 5997261, 0, 1793724}},
    {SchedulerPolicy::kGto, Workload::kSharedFunctional,
     16511, 11872, 13632,
     {0, 5400, 16464, 61495, 1346, 31015, 0, 2376, 0, 0, 0}},
    {SchedulerPolicy::kGto, Workload::kHmmaStress,
     4628, 4619, 16704,
     {0, 8, 0, 0, 20144, 0, 0, 168, 0, 0, 0}},
    {SchedulerPolicy::kLrr, Workload::kNaiveBackpressure,
     577901, 129461, 36864,
     {0, 5225946, 0, 271589, 16759, 134794, 0, 87669, 8765729, 0, 2422202}},
    {SchedulerPolicy::kLrr, Workload::kSharedFunctional,
     17284, 11356, 13632,
     {0, 5432, 10980, 65024, 7317, 33307, 0, 2376, 0, 0, 0}},
    {SchedulerPolicy::kLrr, Workload::kHmmaStress,
     4631, 4622, 16704,
     {0, 8, 0, 0, 20168, 0, 0, 168, 0, 0, 0}},
    {SchedulerPolicy::kTwoLevel, Workload::kNaiveBackpressure,
     514732, 125683, 36864,
     {0, 4439928, 0, 434015, 7217, 158983, 0, 299535, 7631412, 0, 2330530}},
    {SchedulerPolicy::kTwoLevel, Workload::kSharedFunctional,
     17284, 11356, 13632,
     {0, 5432, 10980, 65024, 7317, 33307, 0, 2376, 0, 0, 0}},
    {SchedulerPolicy::kTwoLevel, Workload::kHmmaStress,
     4631, 4622, 16704,
     {0, 8, 0, 0, 20168, 0, 0, 168, 0, 0, 0}},
};

/** The back-pressured naive-GEMM chip. */
GpuConfig
backpressure_config()
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = 8;
    cfg.l1_size = 16 * 1024;
    cfg.dram_latency = 400;
    cfg.l1_mshr_entries = 4;
    cfg.dram_queue_depth = 2;
    return cfg;
}

EngineStats
run_workload(SchedulerPolicy policy, Workload wl)
{
    SimOptions opts;
    opts.scheduler = policy;
    switch (wl) {
      case Workload::kNaiveBackpressure: {
        Gpu gpu(backpressure_config(), opts);
        GemmKernelConfig kc;
        // 576 warps: 16 resident per sub-core, so the two-level
        // scheduler's pending pool is in play.
        kc.m = kc.n = 384;
        kc.k = 32;
        kc.functional = false;
        GemmBuffers buf;
        buf.a = gpu.mem().alloc(384 * 32 * 2);
        buf.b = gpu.mem().alloc(32 * 384 * 2);
        buf.c = gpu.mem().alloc(384 * 384 * 4);
        buf.d = gpu.mem().alloc(384 * 384 * 4);
        gpu.default_stream().enqueue(make_wmma_gemm_naive(kc, buf));
        return gpu.run();
      }
      case Workload::kSharedFunctional: {
        GpuConfig cfg = titan_v_config();
        cfg.num_sms = 2;
        Gpu gpu(cfg, opts);
        GemmKernelConfig kc;
        kc.m = kc.n = kc.k = 128;
        GemmProblem<float> prob(128, 128, 128, kc.a_layout, kc.b_layout);
        GemmBuffers buf = prob.upload(&gpu.mem());
        gpu.default_stream().enqueue(make_wmma_gemm_shared(kc, buf));
        EngineStats s = gpu.run();
        EXPECT_LT(prob.verify(gpu.mem(), buf.d), 1e-3);
        return s;
      }
      case Workload::kHmmaStress: {
        GpuConfig cfg = titan_v_config();
        cfg.num_sms = 2;
        Gpu gpu(cfg, opts);
        gpu.default_stream().enqueue(
            make_hmma_stress(cfg.arch, TcMode::kMixed, 4, 8, 32));
        return gpu.run();
      }
    }
    return {};
}

/** @p s as a kGolden row, printed on mismatch so a deliberate timing
 *  change can re-record the table. */
std::string
golden_row(SchedulerPolicy p, Workload wl, const EngineStats& s)
{
    std::ostringstream os;
    os << "    {SchedulerPolicy::k"
       << (p == SchedulerPolicy::kGto   ? "Gto"
           : p == SchedulerPolicy::kLrr ? "Lrr"
                                        : "TwoLevel")
       << ", Workload::k"
       << (wl == Workload::kNaiveBackpressure  ? "NaiveBackpressure"
           : wl == Workload::kSharedFunctional ? "SharedFunctional"
                                               : "HmmaStress")
       << ",\n     " << s.cycles << ", " << s.ticks << ", "
       << s.instructions << ",\n     {";
    for (size_t i = 0; i < kNumStallReasons; ++i)
        os << (i ? ", " : "") << s.stalls.counts[i];
    os << "}},";
    return os.str();
}

class IssueWake : public ::testing::TestWithParam<SchedulerPolicy>
{
};

TEST_P(IssueWake, StallAttributionMatchesGolden)
{
    const SchedulerPolicy policy = GetParam();
    for (Workload wl : {Workload::kNaiveBackpressure,
                        Workload::kSharedFunctional,
                        Workload::kHmmaStress}) {
        SCOPED_TRACE(std::string(policy_name(policy)) + "/" +
                     workload_name(wl));
        EngineStats s = run_workload(policy, wl);
        const Golden* g = nullptr;
        for (const Golden& row : kGolden)
            if (row.policy == policy && row.workload == wl)
                g = &row;
        ASSERT_NE(g, nullptr);
        bool same = s.cycles == g->cycles && s.ticks == g->ticks &&
                    s.instructions == g->instructions &&
                    s.stalls.counts == g->stalls;
        EXPECT_EQ(s.cycles, g->cycles);
        EXPECT_EQ(s.ticks, g->ticks);
        EXPECT_EQ(s.instructions, g->instructions);
        for (size_t i = 0; i < kNumStallReasons; ++i)
            EXPECT_EQ(s.stalls.counts[i], g->stalls[i])
                << stall_reason_name(static_cast<StallReason>(i));
        if (!same)
            ADD_FAILURE() << "measured:\n" << golden_row(policy, wl, s);
    }
}

TEST(IssueWake, GoldenRunsHitEveryWakeSource)
{
    // The table is only a guard if the runs reach the stalls whose
    // wake-ups it checks.
    auto stall = [](const Golden& g, StallReason r) {
        return g.stalls[static_cast<size_t>(r)];
    };
    for (const Golden& g : kGolden) {
        SCOPED_TRACE(std::string(policy_name(g.policy)) + "/" +
                     workload_name(g.workload));
        switch (g.workload) {
          case Workload::kNaiveBackpressure:
            EXPECT_GT(stall(g, StallReason::kScoreboard), 0u);
            EXPECT_GT(stall(g, StallReason::kMshrFull), 0u);
            EXPECT_GT(stall(g, StallReason::kDramQueue), 0u);
            break;
          case Workload::kSharedFunctional:
            EXPECT_GT(stall(g, StallReason::kScoreboard), 0u);
            EXPECT_GT(stall(g, StallReason::kBarrier), 0u);
            EXPECT_GT(stall(g, StallReason::kMioFull), 0u);
            break;
          case Workload::kHmmaStress:
            EXPECT_GT(stall(g, StallReason::kTcBusy), 0u);
            break;
        }
    }
    EXPECT_EQ(std::size(kGolden), 9u);
}

INSTANTIATE_TEST_SUITE_P(Policies, IssueWake,
                         ::testing::Values(SchedulerPolicy::kGto,
                                           SchedulerPolicy::kLrr,
                                           SchedulerPolicy::kTwoLevel),
                         [](const auto& info) {
                             return std::string(policy_name(info.param));
                         });

}  // namespace
}  // namespace tcsim
