/**
 * @file
 * Batch runner tests: N scenarios on 4 worker threads must produce
 * per-scenario cycle counts identical to serial execution (each worker
 * owns a full simulator instance; the only cross-thread state is the
 * mutex-guarded decode/timing memoization caches), plus report
 * structure and error isolation.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/cpus.h"
#include "driver/runner.h"
#include "driver/scenario.h"

using namespace tcsim;
using namespace tcsim::driver;

namespace {

/** A small mixed bag of workloads, cheap enough for unit tests. */
std::vector<Scenario>
make_suite()
{
    std::vector<Scenario> suite;
    auto add = [&](const std::string& text) {
        suite.push_back(parse_scenario_text(text));
    };
    for (int i = 0; i < 3; ++i) {
        add(R"({
          "name": "stress_)" + std::to_string(i) + R"(",
          "gpu": {"preset": "titan_v", "num_sms": 2},
          "kernels": [
            {"kernel": "hmma_stress", "name": "s", "ctas": )" +
            std::to_string(2 + i) + R"(, "warps_per_cta": 2,
             "wmma_per_warp": 16}
          ]
        })");
    }
    add(R"({
      "name": "naive_gemm64",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 64, "n": 64, "k": 64}
      ]
    })");
    add(R"({
      "name": "two_streams",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "kernels": [
        {"kernel": "hmma_stress", "name": "a", "stream": 1, "ctas": 2,
         "warps_per_cta": 2, "wmma_per_warp": 16},
        {"kernel": "hmma_stress", "name": "b", "stream": 2, "ctas": 2,
         "warps_per_cta": 2, "wmma_per_warp": 16}
      ]
    })");
    add(R"({
      "name": "lrr_gemm64",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "sim": {"scheduler": "lrr"},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 64, "n": 64, "k": 64}
      ]
    })");
    // Event-DAG scenarios: cross-stream record/wait dependencies and a
    // sync join must stay bit-identical between serial and parallel
    // batch execution too.
    add(R"({
      "name": "event_chain",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "kernels": [
        {"kernel": "hmma_stress", "name": "p", "stream": 1, "ctas": 2,
         "warps_per_cta": 2, "wmma_per_warp": 16, "record_event": "e"},
        {"kernel": "hmma_stress", "name": "c", "stream": 2, "ctas": 2,
         "warps_per_cta": 2, "wmma_per_warp": 16, "wait_event": "e"}
      ]
    })");
    add(R"({
      "name": "event_fork_join",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "kernels": [
        {"kernel": "hmma_stress", "name": "root", "stream": 1, "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "record_event": "r"},
        {"kernel": "hmma_stress", "name": "fa", "stream": 2, "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "wait_event": "r"},
        {"kernel": "hmma_stress", "name": "fb", "stream": 3, "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "wait_event": "r"},
        {"kernel": "hmma_stress", "name": "join", "stream": 1, "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "sync": true}
      ]
    })");
    return suite;
}

}  // namespace

TEST(BatchRunner, ParallelCyclesMatchSerial)
{
    std::vector<Scenario> suite = make_suite();
    BatchReport serial = run_batch(suite, 1);
    BatchReport parallel = run_batch(suite, 4);

    ASSERT_EQ(serial.results.size(), suite.size());
    ASSERT_EQ(parallel.results.size(), suite.size());
    EXPECT_EQ(serial.failed(), 0);
    EXPECT_EQ(parallel.failed(), 0);

    for (size_t i = 0; i < suite.size(); ++i) {
        const ScenarioResult& a = serial.results[i];
        const ScenarioResult& b = parallel.results[i];
        // Input order is preserved by both modes.
        EXPECT_EQ(a.name, suite[i].name);
        EXPECT_EQ(b.name, suite[i].name);
        EXPECT_EQ(a.totals.cycles, b.totals.cycles) << a.name;
        EXPECT_EQ(a.totals.instructions, b.totals.instructions) << a.name;
        ASSERT_EQ(a.kernels.size(), b.kernels.size());
        for (size_t k = 0; k < a.kernels.size(); ++k) {
            EXPECT_EQ(a.kernels[k].stats.cycles, b.kernels[k].stats.cycles)
                << a.name << "/" << a.kernels[k].name;
            EXPECT_EQ(a.kernels[k].stats.instructions,
                      b.kernels[k].stats.instructions)
                << a.name << "/" << a.kernels[k].name;
        }
    }
}

TEST(BatchRunner, RepeatedParallelRunsAreDeterministic)
{
    std::vector<Scenario> suite = make_suite();
    BatchReport r1 = run_batch(suite, 4);
    BatchReport r2 = run_batch(suite, 4);
    for (size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(r1.results[i].totals.cycles, r2.results[i].totals.cycles)
            << r1.results[i].name;
}

TEST(BatchRunner, FailingScenarioDoesNotPoisonTheBatch)
{
    std::vector<Scenario> suite = make_suite();
    // Oversubscribed: reported as a per-scenario error, not a fatal().
    suite.insert(suite.begin() + 1, parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "warps_per_cta": 4}]
    })"));

    BatchReport report = run_batch(suite, 4);
    EXPECT_EQ(report.failed(), 1);
    EXPECT_FALSE(report.results[1].passed);
    EXPECT_FALSE(report.results[1].error.empty());
    for (size_t i = 0; i < report.results.size(); ++i) {
        if (i != 1) {
            EXPECT_TRUE(report.results[i].passed)
                << report.results[i].name << ": "
                << report.results[i].error;
        }
    }
}

TEST(BatchRunner, FailFastStopsSerialBatchAtFirstFailure)
{
    std::vector<Scenario> suite = make_suite();
    // Fail the second scenario; everything after it must be skipped.
    suite.insert(suite.begin() + 1, parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "warps_per_cta": 4}]
    })"));

    BatchReport report = run_batch(suite, 1, /*fail_fast=*/true);
    EXPECT_EQ(report.failed(), 1);
    EXPECT_EQ(report.skipped(),
              static_cast<int>(suite.size()) - 2);
    EXPECT_TRUE(report.results[0].passed);
    EXPECT_FALSE(report.results[1].passed);
    EXPECT_FALSE(report.results[1].skipped);
    for (size_t i = 2; i < report.results.size(); ++i) {
        EXPECT_TRUE(report.results[i].skipped) << report.results[i].name;
        EXPECT_FALSE(report.results[i].passed);
        EXPECT_EQ(report.results[i].name, suite[i].name);
    }
}

TEST(BatchRunner, FailFastParallelSkipsScenariosNotYetStarted)
{
    std::vector<Scenario> suite = make_suite();
    suite.insert(suite.begin(), parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "warps_per_cta": 4}]
    })"));

    // Workers finish scenarios already in flight, so the exact skip
    // count depends on timing; the invariants are: the failure is
    // recorded, nothing reports as passed-and-skipped, and the batch
    // still fails.
    BatchReport report = run_batch(suite, 2, /*fail_fast=*/true);
    EXPECT_GE(report.failed(), 1);
    EXPECT_FALSE(report.results[0].passed);
    for (const ScenarioResult& r : report.results)
        EXPECT_FALSE(r.passed && r.skipped);
}

TEST(BatchRunner, NoFailFastRunsEverythingDespiteFailure)
{
    std::vector<Scenario> suite = make_suite();
    suite.insert(suite.begin(), parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "warps_per_cta": 4}]
    })"));
    BatchReport report = run_batch(suite, 1);
    EXPECT_EQ(report.failed(), 1);
    EXPECT_EQ(report.skipped(), 0);
}

TEST(BatchRunner, ReportJsonRoundTrips)
{
    std::vector<Scenario> suite = make_suite();
    suite.resize(2);
    BatchReport report = run_batch(suite, 2);
    JsonValue doc = json_parse(report_to_json(report).dump(2));

    EXPECT_EQ(doc.find("schema")->as_string(), "tcsim-batch-report-v1");
    EXPECT_EQ(doc.find("scenarios")->as_int(), 2);
    EXPECT_EQ(doc.find("failed")->as_int(), 0);
    const auto& results = doc.find("results")->as_array();
    ASSERT_EQ(results.size(), 2u);
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].find("name")->as_string(), suite[i].name);
        EXPECT_EQ(
            static_cast<uint64_t>(
                results[i].find("total")->find("cycles")->as_int()),
            report.results[i].totals.cycles);
        // Speed telemetry rides in a dedicated "sim" block so the
        // serial-vs-parallel CI diffs can strip it wholesale.
        const JsonValue* sim = results[i].find("sim");
        ASSERT_NE(sim, nullptr);
        EXPECT_NE(sim->find("wall_ms"), nullptr);
        EXPECT_NE(sim->find("ticks_per_sec"), nullptr);
    }
}

TEST(BatchRunner, RunScenarioAcceptsOnlyTheSerialThreadCount)
{
    // The second parameter keeps its old position: 1 (or the -1
    // default) runs the scenario unchanged -- it must not shift onto
    // detailed_sms and switch on sampled mode -- and any other value
    // is an error row.
    const Scenario sc = make_suite()[3];
    ScenarioResult plain = run_scenario(sc);
    ScenarioResult one = run_scenario(sc, 1);
    ASSERT_TRUE(plain.passed) << plain.error;
    ASSERT_TRUE(one.passed) << one.error;
    EXPECT_EQ(plain.totals.cycles, one.totals.cycles);
    EXPECT_EQ(plain.totals.instructions, one.totals.instructions);
    EXPECT_EQ(plain.totals.ticks, one.totals.ticks);
    for (int bad : {0, 2, 4, -2}) {
        ScenarioResult r = run_scenario(sc, bad);
        EXPECT_FALSE(r.passed) << bad;
        EXPECT_NE(r.error.find("sim_threads must be -1 or 1"),
                  std::string::npos)
            << r.error;
    }
}

TEST(BatchRunner, OutOfRangeSharedMemBanksIsATypedErrorRow)
{
    // The bank-conflict model handles at most 32 banks.  An override
    // past that (here added after parsing, which rejects it too) must
    // become one error row naming the key, not abort the batch.
    std::vector<Scenario> suite = make_suite();
    suite.resize(4);
    Scenario bad = suite[3];
    bad.name = "banks64";
    bad.gpu_overrides.emplace_back("shared_mem_banks", 64.0);
    suite.insert(suite.begin() + 1, bad);

    BatchReport report = run_batch(suite, 2);
    EXPECT_EQ(report.failed(), 1);
    const ScenarioResult& row = report.results[1];
    EXPECT_EQ(row.name, "banks64");
    EXPECT_NE(row.error.find("gpu.shared_mem_banks must be <= 32"),
              std::string::npos)
        << row.error;
    for (size_t i = 0; i < report.results.size(); ++i) {
        if (i != 1) {
            EXPECT_TRUE(report.results[i].passed)
                << report.results[i].name << ": "
                << report.results[i].error;
        }
    }
}

TEST(BatchRunner, OversubscribedScenarioIsATypedErrorRow)
{
    // SM-resource overflow is scenario input: the batch must finish
    // with one structured error row naming the offending kernel and
    // the limit, never a process-level fatal().
    std::vector<Scenario> suite = make_suite();
    suite.insert(suite.begin() + 2, parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "name": "fat",
                   "warps_per_cta": 4}]
    })"));

    BatchReport report = run_batch(suite, 4);
    EXPECT_EQ(report.failed(), 1);
    const ScenarioResult& bad = report.results[2];
    EXPECT_EQ(bad.name, "too_big");
    EXPECT_FALSE(bad.passed);
    EXPECT_NE(bad.error.find("exceeds SM resources"), std::string::npos)
        << bad.error;
    for (size_t i = 0; i < report.results.size(); ++i) {
        if (i != 2) {
            EXPECT_TRUE(report.results[i].passed)
                << report.results[i].name << ": "
                << report.results[i].error;
        }
    }
}

TEST(BatchRunner, HungScenarioIsContainedByTheWallWatchdog)
{
    // An injected kernel hang wedges one scenario; the per-scenario
    // wall budget (the simrunner --timeout-ms flag) cuts it short
    // with a SimHangError row while the rest of the batch completes.
    std::vector<Scenario> suite = make_suite();
    suite.insert(suite.begin(), parse_scenario_text(R"({
      "name": "hung",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "faults": {"hangs": [{"match": "s", "count": 1}]},
      "kernels": [
        {"kernel": "hmma_stress", "name": "s", "ctas": 2,
         "warps_per_cta": 2, "wmma_per_warp": 16}
      ]
    })"));

    BatchOptions opts;
    opts.jobs = 2;
    opts.timeout_ms = 2000;
    BatchReport report = run_batch(suite, opts);
    EXPECT_EQ(report.failed(), 1);
    const ScenarioResult& hung = report.results[0];
    EXPECT_FALSE(hung.passed);
    // The hang is detected as terminal (the chip wedges with only the
    // hung launch resident) or by the wall budget -- either way the
    // row carries the diagnostic dump.
    EXPECT_NE(hung.error.find("resident kernel"), std::string::npos)
        << hung.error;
    for (size_t i = 1; i < report.results.size(); ++i)
        EXPECT_TRUE(report.results[i].passed) << report.results[i].name;
}

TEST(BatchRunner, FaultMetricsSurfaceInScenarioResults)
{
    // A fault-injected scenario reports fault.* counters and stays
    // deterministic across batch parallelism.
    Scenario sc = parse_scenario_text(R"({
      "name": "degraded",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "faults": {"disabled_sms": [0],
                 "slowdowns": [{"match": "g", "factor": 2.0}]},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 64, "n": 64, "k": 64}
      ],
      "expect": [
        {"metric": "fault.disabled_sms", "equals": 1},
        {"metric": "fault.slowdowns", "equals": 1},
        {"metric": "fault.slowdown_extra_cycles", "min": 1}
      ]
    })");

    ScenarioResult serial = run_scenario(sc);
    EXPECT_TRUE(serial.passed) << serial.error;
    EXPECT_TRUE(serial.has_faults);
    BatchReport parallel = run_batch({sc, sc}, 2);
    for (const ScenarioResult& r : parallel.results) {
        EXPECT_TRUE(r.passed) << r.error;
        EXPECT_EQ(serial.fault_counters.slowdown_extra_cycles,
                  r.fault_counters.slowdown_extra_cycles);
        EXPECT_EQ(serial.totals.cycles, r.totals.cycles);
    }
}

TEST(UsableCpus, CountsTheAffinityMaskNotTheHost)
{
    // The --jobs default: a run pinned to one CPU (taskset) must size
    // itself to that CPU, not to every core of the host.
#ifdef __linux__
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const int pinned = usable_cpus();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1);
    EXPECT_EQ(usable_cpus(), CPU_COUNT(&saved));
#else
    EXPECT_GE(usable_cpus(), 1);
#endif
}
