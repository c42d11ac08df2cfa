/**
 * @file
 * Scenario driver unit tests: the JSON parser (malformed input, escape
 * handling, error positions), the strict scenario schema (unknown
 * keys, invalid values), assertion evaluation on real runs, and the
 * bench JsonEmitter round-tripping through the driver parser.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "bench_util.h"
#include "driver/json.h"
#include "driver/runner.h"
#include "driver/scenario.h"

using namespace tcsim;
using namespace tcsim::driver;

// ---- JSON parser --------------------------------------------------------

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(json_parse("null").is_null());
    EXPECT_EQ(json_parse("true").as_bool(), true);
    EXPECT_EQ(json_parse("false").as_bool(), false);
    EXPECT_DOUBLE_EQ(json_parse("-2.5e3").as_number(), -2500.0);
    EXPECT_EQ(json_parse("42").as_int(), 42);
    EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNested)
{
    JsonValue v = json_parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
    ASSERT_TRUE(v.is_object());
    const JsonValue* a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->as_array().size(), 3u);
    EXPECT_EQ(a->as_array()[2].find("b")->as_string(), "c");
    EXPECT_TRUE(v.find("d")->as_object().empty());
}

TEST(Json, AllowsLineComments)
{
    JsonValue v = json_parse("{\n  // a comment\n  \"a\": 1\n}");
    EXPECT_EQ(v.find("a")->as_int(), 1);
}

TEST(Json, EscapeRoundTrips)
{
    std::string nasty = "quote\" back\\slash\nnew\ttab\x01ctl";
    JsonValue obj = JsonValue::object();
    obj.set(nasty, JsonValue(nasty));
    JsonValue parsed = json_parse(obj.dump());
    EXPECT_EQ(parsed.find(nasty)->as_string(), nasty);
}

TEST(Json, RejectsMalformedWithPosition)
{
    EXPECT_THROW(json_parse(""), JsonError);
    EXPECT_THROW(json_parse("{"), JsonError);
    EXPECT_THROW(json_parse("{\"a\": 1,}"), JsonError);
    EXPECT_THROW(json_parse("[1 2]"), JsonError);
    EXPECT_THROW(json_parse("\"unterminated"), JsonError);
    EXPECT_THROW(json_parse("nul"), JsonError);
    EXPECT_THROW(json_parse("1.e5"), JsonError);
    EXPECT_THROW(json_parse("0123"), JsonError);
    EXPECT_THROW(json_parse("-0123"), JsonError);
    EXPECT_THROW(json_parse("1e999"), JsonError);
    EXPECT_DOUBLE_EQ(json_parse("0.5").as_number(), 0.5);
    EXPECT_EQ(json_parse("0").as_int(), 0);
    EXPECT_THROW(json_parse("{} trailing"), JsonError);
    EXPECT_THROW(json_parse(R"({"a": 1, "a": 2})"), JsonError);
    try {
        json_parse("{\n  \"a\": tru\n}");
        FAIL() << "expected JsonError";
    } catch (const JsonError& e) {
        EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos)
            << e.what();
    }
}

TEST(Json, TypeMismatchThrows)
{
    JsonValue v = json_parse("[1]");
    EXPECT_THROW(v.as_object(), JsonError);
    EXPECT_THROW(v.as_string(), JsonError);
    EXPECT_THROW(json_parse("1.5").as_int(), JsonError);
}

// ---- Scenario schema ----------------------------------------------------

namespace {

const char* kMinimalScenario = R"({
  "name": "tiny",
  "gpu": {"preset": "titan_v", "num_sms": 1},
  "kernels": [
    {"kernel": "wmma_naive", "name": "g", "m": 16, "n": 16, "k": 16,
     "warps_per_cta": 1}
  ]
})";

}  // namespace

TEST(Scenario, ParsesMinimal)
{
    Scenario sc = parse_scenario_text(kMinimalScenario);
    EXPECT_EQ(sc.name, "tiny");
    EXPECT_EQ(sc.kernels.size(), 1u);
    EXPECT_EQ(sc.kernels[0].family, "wmma_naive");
    EXPECT_EQ(sc.kernels[0].stream, 0);
    EXPECT_FALSE(sc.kernels[0].functional);
    EXPECT_EQ(sc.gpu_config().num_sms, 1);
    EXPECT_EQ(sc.sim.scheduler, SchedulerPolicy::kGto);
}

TEST(Scenario, DefaultsKernelName)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress"}]
    })");
    EXPECT_EQ(sc.kernels[0].name, "hmma_stress_0");
}

TEST(Scenario, AppliesGpuOverrides)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "s",
      "gpu": {"preset": "rtx2080", "num_sms": 4, "clock_ghz": 2.0,
              "l1_size": 65536},
      "kernels": [{"kernel": "hmma_stress"}]
    })");
    GpuConfig cfg = sc.gpu_config();
    EXPECT_EQ(cfg.arch, Arch::kTuring);
    EXPECT_EQ(cfg.num_sms, 4);
    EXPECT_DOUBLE_EQ(cfg.clock_ghz, 2.0);
    EXPECT_EQ(cfg.l1_size, 65536u);
}

TEST(Scenario, RejectsInapplicableKernelKeys)
{
    // warps_per_cta is fixed by every family except wmma_naive.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_shared", "warps_per_cta": 4}]
    })"),
                 ScenarioError);
    // hmma_stress knobs are meaningless on GEMM families...
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_naive", "ctas": 4}]
    })"),
                 ScenarioError);
    // ...and GEMM shape/layout keys on hmma_stress.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "m": 64}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "functional": false}]
    })"),
                 ScenarioError);
}

TEST(Scenario, RejectsFractionalIntegerOverrides)
{
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "gpu": {"num_sms": 0.9},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "gpu": {"max_warps_per_sm": 2.5},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    // Genuinely fractional fields stay fractional.
    Scenario sc = parse_scenario_text(R"({
      "name": "s", "gpu": {"clock_ghz": 1.47},
      "kernels": [{"kernel": "hmma_stress"}]
    })");
    EXPECT_DOUBLE_EQ(sc.gpu_config().clock_ghz, 1.47);
}

namespace {

/** The ScenarioError message @p text raises ("" if it parses). */
std::string
parse_error(const std::string& text)
{
    try {
        parse_scenario_text(text);
    } catch (const ScenarioError& e) {
        return e.what();
    }
    return "";
}

}  // namespace

TEST(Scenario, RejectsOutOfRangeSharedMemBanks)
{
    // The bank-conflict model tracks at most 32 banks; a wider config
    // used to pass parsing and abort the process mid-run.
    auto banks = [](const std::string& n) {
        return R"({"name": "s", "gpu": {"shared_mem_banks": )" + n +
               R"(}, "kernels": [{"kernel": "wmma_shared"}]})";
    };
    EXPECT_NE(parse_error(banks("64")).find(
                  "gpu.shared_mem_banks must be <= 32"),
              std::string::npos);
    EXPECT_NE(parse_error(banks("0")).find(
                  "gpu.shared_mem_banks must be >= 1"),
              std::string::npos);
    EXPECT_EQ(parse_error(banks("32")), "");
    EXPECT_EQ(parse_scenario_text(banks("16")).gpu_config().shared_mem_banks,
              16);
    // The programmatic override path checks the same range.
    GpuConfig cfg = titan_v_config();
    EXPECT_THROW(apply_gpu_override(&cfg, "shared_mem_banks", 64),
                 ScenarioError);
}

TEST(Scenario, RejectsOutOfRangeMshrEntries)
{
    // The MSHR line index holds 16-bit slot numbers; a larger file is
    // a parse error, not an abort when the memory system is built.
    auto mshrs = [](const std::string& n) {
        return R"({"name": "s", "gpu": {"l1_mshr_entries": )" + n +
               R"(}, "kernels": [{"kernel": "wmma_shared"}]})";
    };
    EXPECT_NE(parse_error(mshrs("65535")).find(
                  "gpu.l1_mshr_entries must be <= 65534"),
              std::string::npos);
    EXPECT_EQ(parse_error(mshrs("65534")), "");
    GpuConfig cfg = titan_v_config();
    EXPECT_THROW(apply_gpu_override(&cfg, "l1_mshr_entries", 70000),
                 ScenarioError);
}

TEST(Scenario, SimThreadsAcceptsOnlyOne)
{
    // Old scenario files may say "sim_threads": 1; any other value is
    // a parse error (one simulation runs on one thread), not an abort
    // or a silently ignored setting.
    auto threads = [](const std::string& n) {
        return R"({"name": "s", "sim": {"sim_threads": )" + n +
               R"(}, "kernels": [{"kernel": "hmma_stress"}]})";
    };
    EXPECT_EQ(parse_error(threads("1")), "");
    for (const char* bad : {"4", "0", "2"})
        EXPECT_NE(parse_error(threads(bad)).find("sim.sim_threads must be 1"),
                  std::string::npos)
            << bad;
}

TEST(Scenario, RejectsUnknownKeys)
{
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "typo_key": 1,
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "warp_count": 4}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "gpu": {"sm_count": 4},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "sim": {"policy": "gto"},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
}

TEST(Scenario, RejectsInvalidValues)
{
    // Missing name.
    EXPECT_THROW(
        parse_scenario_text(R"({"kernels": [{"kernel": "hmma_stress"}]})"),
        ScenarioError);
    // Missing / empty kernels.
    EXPECT_THROW(parse_scenario_text(R"({"name": "s"})"), ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({"name": "s", "kernels": []})"),
                 ScenarioError);
    // Unknown kernel family.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "dgemm"}]
    })"),
                 ScenarioError);
    // Bad enum strings.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_shared", "mode": "fp64"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_shared", "a_layout": "rowmajor"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "sim": {"scheduler": "fifo"},
      "kernels": [{"kernel": "hmma_stress"}]
    })"),
                 ScenarioError);
    // CTA tile divisibility.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_shared", "m": 96, "n": 64, "k": 16}]
    })"),
                 ScenarioError);
    // Duplicate kernel names.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "name": "k"},
                  {"kernel": "hmma_stress", "name": "k"}]
    })"),
                 ScenarioError);
    // The SIMT baselines and hmma_stress are timing-only.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "sgemm_ffma", "functional": true}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hgemm_hfma2", "functional": true}]
    })"),
                 ScenarioError);
    // int8 needs the Turing preset; int4 has no registered family.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "mode": "int8"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "gpu": {"preset": "rtx2080"},
      "kernels": [{"kernel": "hmma_stress", "mode": "int4"}]
    })"),
                 ScenarioError);
}

TEST(Scenario, RejectsBadExpectations)
{
    // Unknown kernel reference.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "hmma_stress", "name": "k"}],
      "expect": [{"metric": "kernel.other.cycles", "min": 1}]
    })"),
                 ScenarioError);
    // verify.* without a functional kernel.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "hmma_stress"}],
      "expect": [{"metric": "verify.max_rel_err", "max": 0.1}]
    })"),
                 ScenarioError);
    // kernel.<name>.verify_rel_err on a timing-only kernel would pass
    // vacuously against the -1 sentinel; rejected at parse time.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "wmma_naive", "name": "g"}],
      "expect": [{"metric": "kernel.g.verify_rel_err", "max": 0.01}]
    })"),
                 ScenarioError);
    // No bound at all / contradictory bounds.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "hmma_stress"}],
      "expect": [{"metric": "total.cycles"}]
    })"),
                 ScenarioError);
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "hmma_stress"}],
      "expect": [{"metric": "total.cycles", "equals": 5, "min": 1}]
    })"),
                 ScenarioError);
    // Bad metric prefix.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s", "kernels": [{"kernel": "hmma_stress"}],
      "expect": [{"metric": "cycles", "min": 1}]
    })"),
                 ScenarioError);
}

// ---- Assertion evaluation on real runs ----------------------------------

namespace {

Scenario
tiny_stress_scenario(const std::string& extra_expect)
{
    std::string text = R"({
      "name": "tiny_stress",
      "gpu": {"preset": "titan_v", "num_sms": 1},
      "kernels": [
        {"kernel": "hmma_stress", "name": "s", "ctas": 1,
         "warps_per_cta": 1, "wmma_per_warp": 8}
      ],
      "expect": [)" + extra_expect + R"(]
    })";
    return parse_scenario_text(text);
}

}  // namespace

TEST(ScenarioRun, AssertionsPass)
{
    ScenarioResult r = run_scenario(tiny_stress_scenario(
        R"({"metric": "total.cycles", "min": 1, "max": 1000000},
           {"metric": "kernel.s.hmma_instructions", "min": 1},
           {"metric": "kernel.s.stream", "equals": 0})"));
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.passed);
    ASSERT_EQ(r.assertions.size(), 3u);
    for (const AssertionResult& a : r.assertions)
        EXPECT_TRUE(a.passed) << a.metric;
    EXPECT_GT(r.totals.cycles, 0u);
    ASSERT_EQ(r.kernels.size(), 1u);
    EXPECT_EQ(r.kernels[0].stats.cycles, r.totals.cycles);
}

TEST(ScenarioRun, AssertionFailureFailsScenario)
{
    ScenarioResult r = run_scenario(
        tiny_stress_scenario(R"({"metric": "total.cycles", "max": 1})"));
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_FALSE(r.passed);
    ASSERT_EQ(r.assertions.size(), 1u);
    EXPECT_FALSE(r.assertions[0].passed);
    EXPECT_GT(r.assertions[0].value, 1.0);
}

TEST(ScenarioRun, FunctionalVerificationFeedsAssertions)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "verify64",
      "gpu": {"preset": "titan_v", "num_sms": 1},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 16, "n": 16, "k": 16,
         "warps_per_cta": 1, "functional": true}
      ],
      "expect": [{"metric": "verify.max_rel_err", "max": 0.01}]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.passed);
    EXPECT_GE(r.verify_max_rel_err, 0.0);
    // Implicit tolerance assertion plus the explicit one.
    EXPECT_EQ(r.assertions.size(), 2u);
}

TEST(ScenarioRun, MaxCyclesExceededReportsErrorInsteadOfAborting)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "runaway",
      "gpu": {"preset": "titan_v", "num_sms": 1},
      "sim": {"max_cycles": 10},
      "kernels": [{"kernel": "hmma_stress", "name": "s", "ctas": 1,
                   "warps_per_cta": 1, "wmma_per_warp": 64}]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_FALSE(r.passed);
    EXPECT_NE(r.error.find("max_cycles"), std::string::npos) << r.error;
}

TEST(ScenarioRun, OversubscribedKernelReportsErrorInsteadOfAborting)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "too_big",
      "gpu": {"preset": "titan_v", "num_sms": 1, "registers_per_sm": 1024},
      "kernels": [{"kernel": "hmma_stress", "warps_per_cta": 4}]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_FALSE(r.passed);
    EXPECT_NE(r.error.find("exceeds SM resources"), std::string::npos)
        << r.error;
}

// ---- JsonEmitter round-trip ---------------------------------------------

TEST(JsonEmitter, RoundTripsThroughDriverParser)
{
    const std::string path = "BENCH_emitter_roundtrip.json";
    {
        bench::JsonEmitter json("emitter_roundtrip");
        json.add("plain", 1.25);
        json.add("quote\"key", 2.0);
        json.add("back\\slash\nnewline", -3.5);
        json.add("not_finite", std::nan(""));
    }
    JsonValue doc = json_parse_file(path);
    EXPECT_EQ(doc.find("bench")->as_string(), "emitter_roundtrip");
    const JsonValue* metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_DOUBLE_EQ(metrics->find("plain")->as_number(), 1.25);
    EXPECT_DOUBLE_EQ(metrics->find("quote\"key")->as_number(), 2.0);
    EXPECT_DOUBLE_EQ(metrics->find("back\\slash\nnewline")->as_number(),
                     -3.5);
    EXPECT_TRUE(metrics->find("not_finite")->is_null());
    // Atomic write: no temp file left behind.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

// ---- Event & synchronization schema -------------------------------------

TEST(Scenario, ParsesEventKeys)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "dag",
      "kernels": [
        {"kernel": "hmma_stress", "name": "p", "stream": 1,
         "record_event": "e0"},
        {"kernel": "hmma_stress", "name": "q", "stream": 2,
         "wait_event": "e0", "record_event": "e1"},
        {"kernel": "hmma_stress", "name": "r", "stream": 3,
         "wait_event": ["e0", "e1"], "sync": true}
      ]
    })");
    EXPECT_EQ(sc.kernels[0].record_event, "e0");
    EXPECT_TRUE(sc.kernels[0].wait_events.empty());
    ASSERT_EQ(sc.kernels[1].wait_events.size(), 1u);
    EXPECT_EQ(sc.kernels[1].wait_events[0], "e0");
    ASSERT_EQ(sc.kernels[2].wait_events.size(), 2u);
    EXPECT_TRUE(sc.kernels[2].sync);
    EXPECT_FALSE(sc.kernels[1].sync);
}

TEST(Scenario, RejectsWaitOnEventNobodyRecords)
{
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [
        {"kernel": "hmma_stress", "name": "k", "wait_event": "ghost"}
      ]
    })"),
                 ScenarioError);
}

TEST(Scenario, RejectsBadEventMetrics)
{
    // event metric referencing an unrecorded event.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [{"kernel": "hmma_stress", "name": "k"}],
      "expect": [{"metric": "event.ghost.cycle", "min": 1}]
    })"),
                 ScenarioError);
    // Only .cycle exists on events.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "s",
      "kernels": [
        {"kernel": "hmma_stress", "name": "k", "record_event": "e"}
      ],
      "expect": [{"metric": "event.e.latency", "min": 1}]
    })"),
                 ScenarioError);
}

TEST(ScenarioRun, EventDagGatesAndExposesEventMetrics)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "dag_run",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "kernels": [
        {"kernel": "hmma_stress", "name": "p", "stream": 1, "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "record_event": "e"},
        {"kernel": "hmma_stress", "name": "c", "stream": 2, "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "wait_event": "e"}
      ],
      "expect": [
        {"metric": "event.e.cycle", "min": 1},
        {"metric": "kernel.c.start_cycle", "min": 1}
      ]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
    ASSERT_EQ(r.events.size(), 1u);
    EXPECT_EQ(r.events[0].name, "e");
    // Happens-before: the consumer starts only after the event.
    const LaunchStats* producer = nullptr;
    const LaunchStats* consumer = nullptr;
    for (const KernelResult& k : r.kernels) {
        if (k.name == "p")
            producer = &k.stats;
        if (k.name == "c")
            consumer = &k.stats;
    }
    ASSERT_NE(producer, nullptr);
    ASSERT_NE(consumer, nullptr);
    EXPECT_GT(consumer->start_cycle, producer->finish_cycle);
    EXPECT_LE(r.events[0].cycle, consumer->start_cycle);
}

TEST(ScenarioRun, SyncJoinsAllPriorLaunches)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "sync_join",
      "gpu": {"preset": "titan_v", "num_sms": 2},
      "kernels": [
        {"kernel": "hmma_stress", "name": "a", "stream": 1, "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16},
        {"kernel": "hmma_stress", "name": "b", "stream": 2, "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 48},
        {"kernel": "hmma_stress", "name": "join", "stream": 3, "ctas": 1,
         "warps_per_cta": 2, "wmma_per_warp": 16, "sync": true}
      ]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
    uint64_t join_start = 0, max_finish = 0;
    for (const KernelResult& k : r.kernels) {
        if (k.name == "join")
            join_start = k.stats.start_cycle;
        else
            max_finish = std::max(max_finish, k.stats.finish_cycle);
    }
    EXPECT_GT(join_start, max_finish);
}

TEST(ScenarioRun, StallCyclesMetricResolves)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "stall_metric",
      "gpu": {"preset": "titan_v", "num_sms": 1},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 32, "n": 32, "k": 32}
      ],
      "expect": [
        {"metric": "total.stall_cycles", "min": 1},
        {"metric": "kernel.g.stall_cycles", "min": 1}
      ]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
}

TEST(Scenario, ParsesMemoryHierarchyKnobs)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "knobs",
      "gpu": {"preset": "titan_v", "l1_mshr_entries": 8, "l2_banks": 4,
              "l2_bank_bytes_per_cycle": 16.5, "l2_bank_queue_depth": 2,
              "noc_bytes_per_cycle": 8, "noc_queue_depth": 4,
              "dram_queue_depth": 2, "dram_rw_turnaround": 0},
      "kernels": [{"kernel": "wmma_naive", "m": 32, "n": 32, "k": 32}]
    })");
    GpuConfig cfg = sc.gpu_config();
    EXPECT_EQ(cfg.l1_mshr_entries, 8);
    EXPECT_EQ(cfg.l2_banks, 4);
    EXPECT_DOUBLE_EQ(cfg.l2_bank_bytes_per_cycle, 16.5);
    EXPECT_EQ(cfg.l2_bank_queue_depth, 2);
    EXPECT_DOUBLE_EQ(cfg.noc_bytes_per_cycle, 8.0);
    EXPECT_EQ(cfg.noc_queue_depth, 4);
    EXPECT_EQ(cfg.dram_queue_depth, 2);
    EXPECT_EQ(cfg.dram_rw_turnaround, 0);  // 0 = disabled is legal.
    EXPECT_THROW(parse_scenario_text(R"({
      "name": "bad", "gpu": {"dram_queue_depth": 0},
      "kernels": [{"kernel": "wmma_naive", "m": 32, "n": 32, "k": 32}]
    })"),
                 ScenarioError);
}

TEST(ScenarioRun, MemMetricsResolve)
{
    // The tiny-L1 streaming GEMM exercises the whole transaction path,
    // so every mem.* counter the schema exposes resolves (and the
    // traffic ones are nonzero).
    Scenario sc = parse_scenario_text(R"({
      "name": "mem_metrics",
      "gpu": {"preset": "titan_v", "num_sms": 2, "l1_size": 16384},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 64, "n": 64, "k": 64}
      ],
      "expect": [
        {"metric": "mem.global_sectors", "min": 1},
        {"metric": "mem.l1_misses", "min": 1},
        {"metric": "mem.l2_misses", "min": 1},
        {"metric": "mem.dram_bytes", "min": 1},
        {"metric": "mem.mshr_peak", "min": 1},
        {"metric": "mem.mshr_merges", "min": 0},
        {"metric": "mem.l1_hits", "min": 0},
        {"metric": "mem.l2_hits", "min": 0},
        {"metric": "mem.noc_queue_cycles", "min": 0},
        {"metric": "mem.l2_queue_cycles", "min": 0},
        {"metric": "mem.dram_queue_cycles", "min": 0},
        {"metric": "mem.dram_turnarounds", "min": 0}
      ]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
}

TEST(ScenarioRun, PerReasonStallMetricsResolve)
{
    // Constrict the MSHR file so the new back-pressure stall reason is
    // observable through both total.stall.* and kernel.<n>.stall.*.
    Scenario sc = parse_scenario_text(R"({
      "name": "stall_reasons",
      "gpu": {"preset": "titan_v", "num_sms": 2, "l1_size": 16384,
              "l1_mshr_entries": 2},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 64, "n": 64, "k": 64}
      ],
      "expect": [
        {"metric": "total.stall.mshr_full", "min": 1},
        {"metric": "total.stall.scoreboard", "min": 1},
        {"metric": "kernel.g.stall.mshr_full", "min": 1}
      ]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_TRUE(r.passed) << r.error;
}

TEST(ScenarioRun, UnknownMemAndStallMetricsFail)
{
    Scenario sc = parse_scenario_text(R"({
      "name": "bad_mem_metric",
      "gpu": {"preset": "titan_v", "num_sms": 1},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 32, "n": 32, "k": 32}
      ],
      "expect": [{"metric": "mem.no_such_counter", "min": 0}]
    })");
    ScenarioResult r = run_scenario(sc);
    EXPECT_FALSE(r.passed);
    EXPECT_NE(r.error.find("unknown mem metric"), std::string::npos)
        << r.error;

    Scenario sc2 = parse_scenario_text(R"({
      "name": "bad_stall_metric",
      "gpu": {"preset": "titan_v", "num_sms": 1},
      "kernels": [
        {"kernel": "wmma_naive", "name": "g", "m": 32, "n": 32, "k": 32}
      ],
      "expect": [{"metric": "total.stall.no_such_reason", "min": 0}]
    })");
    ScenarioResult r2 = run_scenario(sc2);
    EXPECT_FALSE(r2.passed);
    EXPECT_NE(r2.error.find("unknown stall reason"), std::string::npos)
        << r2.error;
}
