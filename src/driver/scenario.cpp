#include "driver/scenario.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>

#include "common/logging.h"
#include "kernels/kernel_registry.h"
#include "model/model_graph.h"

namespace tcsim {
namespace driver {

namespace {

[[noreturn]] void
fail(const std::string& file, const std::string& msg)
{
    throw ScenarioError(file.empty() ? msg : file + ": " + msg);
}

/** Reject keys outside @p allowed (schema strictness). */
void
check_keys(const JsonValue& obj, std::initializer_list<const char*> allowed,
           const std::string& where, const std::string& file)
{
    for (const auto& [key, value] : obj.as_object()) {
        bool known = false;
        for (const char* a : allowed)
            known |= key == a;
        if (!known)
            fail(file, "unknown key \"" + key + "\" in " + where);
    }
}

int
get_int(const JsonValue& obj, const char* key, int fallback,
        const std::string& file)
{
    const JsonValue* v = obj.find(key);
    if (!v)
        return fallback;
    int64_t i = v->as_int();
    if (i < -(1LL << 31) || i >= (1LL << 31))
        fail(file, std::string(key) + " out of range");
    return static_cast<int>(i);
}

std::string
get_string(const JsonValue& obj, const char* key, const std::string& fallback)
{
    const JsonValue* v = obj.find(key);
    return v ? v->as_string() : fallback;
}

Layout
parse_layout(const std::string& s, const std::string& file)
{
    if (s == "row")
        return Layout::kRowMajor;
    if (s == "col")
        return Layout::kColMajor;
    fail(file, "bad layout \"" + s + "\" (want \"row\" or \"col\")");
}

TcMode
parse_mode(const std::string& s, const std::string& file)
{
    if (s == "fp16")
        return TcMode::kFp16;
    if (s == "mixed")
        return TcMode::kMixed;
    if (s == "int8")
        return TcMode::kInt8;
    if (s == "int4")
        return TcMode::kInt4;
    fail(file, "bad mode \"" + s +
                   "\" (want fp16 | mixed | int8 | int4)");
}

SchedulerPolicy
parse_scheduler(const std::string& s, const std::string& file)
{
    if (s == "gto")
        return SchedulerPolicy::kGto;
    if (s == "lrr")
        return SchedulerPolicy::kLrr;
    if (s == "two_level")
        return SchedulerPolicy::kTwoLevel;
    fail(file, "bad scheduler \"" + s + "\" (want gto | lrr | two_level)");
}

KernelSpec
parse_kernel(const JsonValue& obj, size_t index, const std::string& file,
             bool declarative = false)
{
    std::string where = "kernels[" + std::to_string(index) + "]";

    KernelSpec spec;
    spec.line = obj.line();
    spec.col = obj.col();
    const JsonValue* family = obj.find("kernel");
    if (!family)
        fail(file, where + ": missing required key \"kernel\"");
    spec.family = family->as_string();
    const KernelFamilyInfo* info = find_kernel_family(spec.family);
    if (!info)
        fail(file, where + ": unknown kernel \"" + spec.family +
                       "\" (known: " + kernel_family_names() + ")");

    // Strict schema: only keys the selected family actually honours
    // are accepted, so an ignored "warps_per_cta" on wmma_shared (the
    // builder fixes 8 warps) is an error rather than a silent no-op.
    // The synchronization keys apply to every family.  Mode-dependent
    // keys: the declarative form derives streams and ordering, so
    // "stream"/"sync" are rejected there; "reads"/"writes" are only
    // meaningful there.
    where += " (" + spec.family + ")";
    if (declarative) {
        if (obj.find("stream") || obj.find("sync"))
            fail(file, where +
                           ": declarative scenarios derive stream "
                           "assignment and ordering from reads/writes; "
                           "remove \"stream\"/\"sync\"");
    } else if (obj.find("reads") || obj.find("writes")) {
        fail(file, where +
                       ": \"reads\"/\"writes\" belong to the declarative "
                       "form (a scenario with a \"tensors\" arena); sweep "
                       "points use the explicit stream/event form");
    }
    if (info->family == KernelFamily::kWmmaNaive) {
        check_keys(obj,
                   {"kernel", "name", "stream", "m", "n", "k", "mode",
                    "a_layout", "b_layout", "cd_layout", "functional",
                    "warps_per_cta", "wait_event", "record_event", "sync",
                    "reads", "writes"},
                   where, file);
    } else if (info->is_gemm) {
        check_keys(obj,
                   {"kernel", "name", "stream", "m", "n", "k", "mode",
                    "a_layout", "b_layout", "cd_layout", "functional",
                    "wait_event", "record_event", "sync", "reads",
                    "writes"},
                   where, file);
    } else {
        check_keys(obj,
                   {"kernel", "name", "stream", "mode", "ctas",
                    "warps_per_cta", "wmma_per_warp", "accumulators",
                    "wait_event", "record_event", "sync", "reads",
                    "writes"},
                   where, file);
    }

    auto parse_rw = [&](const char* key, std::vector<std::string>* out) {
        const JsonValue* v = obj.find(key);
        if (!v)
            return;
        if (!v->is_array())
            fail(file, where + ": \"" + key +
                           "\" must be an array of tensor names");
        for (const JsonValue& e : v->as_array()) {
            if (e.as_string().empty())
                fail(file,
                     where + ": " + key + " names must be non-empty");
            out->push_back(e.as_string());
        }
    };
    parse_rw("reads", &spec.reads);
    parse_rw("writes", &spec.writes);

    spec.name = get_string(obj, "name",
                           spec.family + "_" + std::to_string(index));
    spec.stream = get_int(obj, "stream", 0, file);
    if (spec.stream < 0 || spec.stream > 63)
        fail(file, where + ": stream must be in [0, 63]");

    spec.m = get_int(obj, "m", spec.m, file);
    spec.n = get_int(obj, "n", spec.n, file);
    spec.k = get_int(obj, "k", spec.k, file);
    spec.mode = parse_mode(get_string(obj, "mode", "mixed"), file);
    spec.a_layout = parse_layout(get_string(obj, "a_layout", "row"), file);
    spec.b_layout = parse_layout(get_string(obj, "b_layout", "row"), file);
    spec.cd_layout = parse_layout(get_string(obj, "cd_layout", "row"), file);
    if (const JsonValue* v = obj.find("functional"))
        spec.functional = v->as_bool();
    spec.warps_per_cta = get_int(obj, "warps_per_cta", 8, file);
    spec.ctas = get_int(obj, "ctas", 8, file);
    spec.wmma_per_warp = get_int(obj, "wmma_per_warp", 64, file);
    spec.accumulators = get_int(obj, "accumulators", 4, file);

    if (const JsonValue* v = obj.find("record_event")) {
        spec.record_event = v->as_string();
        if (spec.record_event.empty())
            fail(file, where + ": record_event must be a non-empty string");
    }
    if (const JsonValue* v = obj.find("wait_event")) {
        if (v->is_array()) {
            for (const JsonValue& e : v->as_array())
                spec.wait_events.push_back(e.as_string());
        } else {
            spec.wait_events.push_back(v->as_string());
        }
        for (const std::string& e : spec.wait_events)
            if (e.empty())
                fail(file, where + ": wait_event names must be non-empty");
    }
    if (const JsonValue* v = obj.find("sync"))
        spec.sync = v->as_bool();

    if (info->is_gemm) {
        if (spec.m <= 0 || spec.n <= 0 || spec.k <= 0)
            fail(file, where + ": m/n/k must be positive");
        // CTA tile divisibility the builders TCSIM_CHECK (fail at parse
        // time instead of aborting mid-batch).
        const bool naive = info->family == KernelFamily::kWmmaNaive;
        const int dm = naive ? 16 : 64, dn = naive ? 16 : 64, dk = 16;
        if (spec.m % dm || spec.n % dn || spec.k % dk)
            fail(file, where + ": " + spec.family +
                           " needs m % " + std::to_string(dm) + " == 0, n % " +
                           std::to_string(dn) + " == 0, k % " +
                           std::to_string(dk) + " == 0");
        if (spec.mode != TcMode::kFp16 && spec.mode != TcMode::kMixed)
            fail(file, where + ": GEMM kernels support fp16 | mixed only");
        if (naive && (spec.warps_per_cta < 1 || spec.warps_per_cta > 32))
            fail(file, where + ": warps_per_cta must be in [1, 32]");
        if (spec.functional && !info->supports_functional)
            fail(file, where + ": " + spec.family +
                           " is a timing-only baseline (functional must "
                           "be false)");
    } else {
        if (spec.ctas < 1 || spec.warps_per_cta < 1 ||
            spec.wmma_per_warp < 1)
            fail(file, where + ": ctas/warps_per_cta/wmma_per_warp must be "
                               "positive");
        if (spec.accumulators < 1 || spec.accumulators > 4 ||
            spec.wmma_per_warp % spec.accumulators)
            fail(file, where + ": accumulators must be in [1, 4] and divide "
                               "wmma_per_warp");
    }
    return spec;
}

Expectation
parse_expectation(const JsonValue& obj, size_t index,
                  const std::string& file)
{
    std::string where = "expect[" + std::to_string(index) + "]";
    check_keys(obj, {"metric", "min", "max", "equals"}, where, file);
    Expectation e;
    const JsonValue* metric = obj.find("metric");
    if (!metric)
        fail(file, where + ": missing required key \"metric\"");
    e.metric = metric->as_string();
    if (e.metric.rfind("total.", 0) != 0 &&
        e.metric.rfind("kernel.", 0) != 0 &&
        e.metric.rfind("event.", 0) != 0 &&
        e.metric.rfind("mem.", 0) != 0 &&
        e.metric.rfind("verify.", 0) != 0 &&
        e.metric.rfind("serve.", 0) != 0 &&
        e.metric.rfind("fault.", 0) != 0)
        fail(file, where + ": metric must start with \"total.\", "
                           "\"kernel.\", \"event.\", \"mem.\", "
                           "\"verify.\", \"serve.\" or \"fault.\"");
    if (const JsonValue* v = obj.find("min")) {
        e.has_min = true;
        e.min = v->as_number();
    }
    if (const JsonValue* v = obj.find("max")) {
        e.has_max = true;
        e.max = v->as_number();
    }
    if (const JsonValue* v = obj.find("equals")) {
        e.has_equals = true;
        e.equals = v->as_number();
    }
    if (!e.has_min && !e.has_max && !e.has_equals)
        fail(file, where + ": needs at least one of min/max/equals");
    if (e.has_equals && (e.has_min || e.has_max))
        fail(file, where + ": equals excludes min/max");
    return e;
}

/** Reference checks shared by the top-level and sweep-point "expect"
 *  lists: metric paths must name known kernels/events, and verify
 *  metrics need a functional kernel. */
void
validate_expectation(const Expectation& e, const std::set<std::string>& names,
                     const std::set<std::string>& functional_names,
                     const std::set<std::string>& recorded_events,
                     bool any_functional, const std::string& file)
{
    if (e.metric.rfind("kernel.", 0) == 0) {
        // kernel.<name>.<field> — the name must exist, and
        // verify_rel_err only exists on functional kernels (else the
        // -1 "not verified" sentinel would satisfy any max bound
        // vacuously).
        std::string rest = e.metric.substr(7);
        // "stall.<reason>" is the one two-component field.
        size_t dot = rest.find(".stall.");
        if (dot == std::string::npos)
            dot = rest.rfind('.');
        if (dot == std::string::npos || dot == 0)
            fail(file, "bad metric path \"" + e.metric + "\"");
        std::string kname = rest.substr(0, dot);
        if (!names.count(kname))
            fail(file, "metric \"" + e.metric +
                           "\" references an unknown kernel");
        if (rest.substr(dot + 1) == "verify_rel_err" &&
            !functional_names.count(kname))
            fail(file, "metric \"" + e.metric +
                           "\" needs a functional kernel");
    }
    if (e.metric.rfind("verify.", 0) == 0 && !any_functional)
        fail(file, "metric \"" + e.metric + "\" needs a functional kernel");
    if (e.metric.rfind("serve.", 0) == 0)
        fail(file, "metric \"" + e.metric +
                       "\" requires a \"serving\" scenario");
    if (e.metric.rfind("event.", 0) == 0) {
        // event.<name>.cycle — the event must be recorded.
        std::string rest = e.metric.substr(6);
        size_t dot = rest.rfind('.');
        if (dot == std::string::npos || dot == 0 ||
            rest.substr(dot + 1) != "cycle")
            fail(file, "bad metric path \"" + e.metric +
                           "\" (want event.<name>.cycle)");
        if (!recorded_events.count(rest.substr(0, dot)))
            fail(file, "metric \"" + e.metric +
                           "\" references an event no kernel records");
    }
}

/**
 * Parse {"fork_cycle": ..., "points": [...]} into sc->sweep and
 * validate every sweep constraint against the already-parsed prefix
 * (sc->kernels).  Shared by the inline "sweep" key and attach_sweep.
 */
void
parse_sweep_into(Scenario* sc, const JsonValue& obj, const std::string& file)
{
    if (!obj.is_object())
        fail(file, "\"sweep\" must be a JSON object");
    if (sc->declarative)
        fail(file, "sweep: declarative scenarios do not support sweeps "
                   "(points extend the explicit stream/event form)");
    check_keys(obj, {"fork_cycle", "points"}, "sweep", file);

    const JsonValue* fc = obj.find("fork_cycle");
    if (!fc)
        fail(file, "sweep: missing required key \"fork_cycle\"");
    int64_t cycle = fc->as_int();
    if (cycle < 1)
        fail(file, "sweep.fork_cycle must be >= 1 (snapshots capture a "
                   "run already in progress)");
    sc->sweep.fork_cycle = static_cast<uint64_t>(cycle);

    // The prefix constraints: sweeps are timing-only (functional
    // commits would have to be replayed per fork), and the prefix must
    // still be in flight at the fork — which the runner checks at run
    // time, since it depends on simulated timing.
    std::set<std::string> base_names, base_recorded;
    std::set<int> base_streams;
    for (const KernelSpec& k : sc->kernels) {
        if (k.functional)
            fail(file, "sweep: prefix kernel \"" + k.name +
                           "\" is functional; sweeps are timing-only "
                           "(forks share one copy-on-write memory image)");
        base_names.insert(k.name);
        base_streams.insert(k.stream);
        if (!k.record_event.empty())
            base_recorded.insert(k.record_event);
    }

    const JsonValue* points = obj.find("points");
    if (!points || !points->is_array() || points->as_array().empty())
        fail(file, "sweep needs a non-empty \"points\" array");
    std::set<std::string> point_names;
    for (size_t pi = 0; pi < points->as_array().size(); ++pi) {
        const JsonValue& pobj = points->as_array()[pi];
        std::string where = "sweep.points[" + std::to_string(pi) + "]";
        if (!pobj.is_object())
            fail(file, where + " must be a JSON object");
        check_keys(pobj, {"name", "kernels", "expect"}, where, file);

        SweepPoint pt;
        const JsonValue* pname = pobj.find("name");
        if (!pname || pname->as_string().empty())
            fail(file, where + ": missing required key \"name\"");
        pt.name = pname->as_string();
        if (!point_names.insert(pt.name).second)
            fail(file, where + ": duplicate point name \"" + pt.name + "\"");

        const JsonValue* pk = pobj.find("kernels");
        if (!pk || !pk->is_array() || pk->as_array().empty())
            fail(file, where + " needs a non-empty \"kernels\" array");
        std::set<std::string> names = base_names;
        std::set<std::string> recorded = base_recorded;
        for (size_t i = 0; i < pk->as_array().size(); ++i) {
            KernelSpec spec = parse_kernel(pk->as_array()[i], i, file);
            if (spec.functional)
                fail(file, where + ": kernel \"" + spec.name +
                               "\" is functional; sweeps are timing-only");
            // Streams are part of the forked snapshot: a point may
            // reuse prefix streams (or the implicit stream 0) but
            // cannot mint new ids, which would not exist in the
            // restored state.
            if (spec.stream != 0 && !base_streams.count(spec.stream))
                fail(file, where + ": kernel \"" + spec.name +
                               "\" uses stream " +
                               std::to_string(spec.stream) +
                               ", which the prefix never uses");
            if (!names.insert(spec.name).second)
                fail(file, where + ": kernel name \"" + spec.name +
                               "\" collides with the prefix or this point");
            if (!spec.record_event.empty())
                recorded.insert(spec.record_event);
            pt.kernels.push_back(std::move(spec));
        }
        for (const KernelSpec& k : pt.kernels)
            for (const std::string& e : k.wait_events)
                if (!recorded.count(e))
                    fail(file, where + ": kernel \"" + k.name +
                                   "\" waits on event \"" + e +
                                   "\" recorded by neither the prefix "
                                   "nor this point");

        if (const JsonValue* expect = pobj.find("expect")) {
            for (size_t i = 0; i < expect->as_array().size(); ++i) {
                Expectation e =
                    parse_expectation(expect->as_array()[i], i, file);
                validate_expectation(e, names, /*functional_names=*/{},
                                     recorded, /*any_functional=*/false,
                                     file);
                pt.expect.push_back(std::move(e));
            }
        }
        sc->sweep.points.push_back(std::move(pt));
    }
}

// --- Model-graph frontend ("model" / "serving.model" keys) -----------

model::LayerSpec
parse_model_layer(const JsonValue& obj, size_t index,
                  const std::string& where0, const std::string& file)
{
    std::string where = where0 + ".layers[" + std::to_string(index) + "]";
    if (!obj.is_object())
        fail(file, where + " must be a JSON object");
    const std::string type = get_string(obj, "type", "");
    model::LayerSpec l;
    l.name = get_string(obj, "name", "");
    if (type == "linear") {
        check_keys(obj,
                   {"type", "name", "in_features", "out_features",
                    "precision"},
                   where, file);
        l.kind = model::LayerKind::kLinear;
        l.in_features = get_int(obj, "in_features", 0, file);
        l.out_features = get_int(obj, "out_features", 0, file);
        if (l.out_features < 1)
            fail(file, where + ": linear needs out_features >= 1");
    } else if (type == "conv2d") {
        check_keys(obj,
                   {"type", "name", "in_channels", "out_channels", "kernel",
                    "stride", "height", "width", "precision"},
                   where, file);
        l.kind = model::LayerKind::kConv2d;
        l.in_channels = get_int(obj, "in_channels", 0, file);
        l.out_channels = get_int(obj, "out_channels", 0, file);
        l.kernel = get_int(obj, "kernel", 3, file);
        l.stride = get_int(obj, "stride", 1, file);
        l.height = get_int(obj, "height", 0, file);
        l.width = get_int(obj, "width", 0, file);
        if (l.out_channels < 1)
            fail(file, where + ": conv2d needs out_channels >= 1");
        if (l.kernel < 1 || l.stride < 1)
            fail(file, where + ": conv2d kernel/stride must be >= 1");
    } else if (type == "attention") {
        check_keys(obj, {"type", "name", "embed_dim", "heads", "precision"},
                   where, file);
        l.kind = model::LayerKind::kAttention;
        l.embed_dim = get_int(obj, "embed_dim", 0, file);
        l.heads = get_int(obj, "heads", 1, file);
        if (l.heads < 1)
            fail(file, where + ": attention needs heads >= 1");
    } else if (type == "elementwise") {
        check_keys(obj, {"type", "name", "precision"}, where, file);
        l.kind = model::LayerKind::kElementwise;
    } else {
        fail(file, where + ": unknown layer type \"" + type +
                       "\" (want linear | conv2d | attention | "
                       "elementwise)");
    }
    if (const JsonValue* p = obj.find("precision")) {
        l.has_precision = true;
        l.precision = parse_mode(p->as_string(), file);
    }
    return l;
}

/** Parse a "model" object.  @p batch_out is non-null for the
 *  standalone form, where "batch" sizes the single lowered forward
 *  pass; the serving form rejects it (the batcher decides). */
model::ModelGraph
parse_model_graph(const JsonValue& obj, const std::string& where,
                  const std::string& scenario_name, int* batch_out,
                  const std::string& file)
{
    if (!obj.is_object())
        fail(file, "\"" + where + "\" must be a JSON object");
    if (batch_out)
        check_keys(obj,
                   {"batch", "tokens_per_request", "input_features",
                    "precision", "layers"},
                   where, file);
    else
        check_keys(obj,
                   {"tokens_per_request", "input_features", "precision",
                    "layers"},
                   where, file);

    model::ModelGraph g;
    g.name = scenario_name;
    g.tokens_per_request = get_int(obj, "tokens_per_request", 64, file);
    if (g.tokens_per_request < 1)
        fail(file, where + ".tokens_per_request must be >= 1");
    g.input_features = get_int(obj, "input_features", 0, file);
    if (g.input_features < 0)
        fail(file, where + ".input_features must be >= 0");
    if (const JsonValue* p = obj.find("precision"))
        g.precision = parse_mode(p->as_string(), file);
    if (batch_out) {
        *batch_out = get_int(obj, "batch", 1, file);
        if (*batch_out < 1)
            fail(file, where + ".batch must be >= 1");
    }

    const JsonValue* layers = obj.find("layers");
    if (!layers || !layers->is_array() || layers->as_array().empty())
        fail(file, where + " needs a non-empty \"layers\" array");
    for (size_t i = 0; i < layers->as_array().size(); ++i)
        g.layers.push_back(
            parse_model_layer(layers->as_array()[i], i, where, file));
    return g;
}

/** Lower @p g into the scenario's tensors+kernels, exactly as if the
 *  scenario had written the declarative form by hand; the task-graph
 *  compiler takes it from there. */
void
lower_model_into(Scenario* sc, const model::ModelGraph& g, int batch,
                 const std::string& file)
{
    model::LoweredModel lm;
    try {
        lm = model::lower_model(g, batch);
    } catch (const model::ModelError& e) {
        fail(file, std::string("model: ") + e.what());
    }
    for (const model::LoweredTensor& t : lm.tensors) {
        TensorSpec ts;
        ts.name = t.name;
        ts.bytes = t.bytes;
        sc->tensors.push_back(std::move(ts));
    }
    for (const model::LoweredKernel& k : lm.kernels) {
        KernelSpec spec;
        spec.family = k.family;
        spec.name = k.name;
        spec.m = k.m;
        spec.n = k.n;
        spec.k = k.k;
        spec.mode = k.mode;
        spec.reads = k.reads;
        spec.writes = k.writes;
        sc->kernels.push_back(std::move(spec));
    }
    sc->declarative = true;
}

// --- Serving frontend ("serving" key) --------------------------------

std::vector<serve::Request>
parse_trace_file(const std::string& path, double clock_ghz,
                 const std::string& file)
{
    std::ifstream in(path);
    if (!in)
        fail(file, "serving.trace: cannot open \"" + path + "\"");
    std::vector<serve::Request> trace;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        const std::string where =
            "serving.trace \"" + path + "\" line " + std::to_string(lineno);
        JsonValue v;
        try {
            v = json_parse(line);
        } catch (const JsonError& e) {
            fail(file, where + ": " + e.what());
        }
        if (!v.is_object())
            fail(file, where + ": each line must be a JSON object");
        // Extra keys (admit/finish/batch) are allowed so --trace-out
        // dumps replay directly as input traces.
        check_keys(v,
                   {"id", "arrival_cycle", "arrival_us", "admit_cycle",
                    "finish_cycle", "batch"},
                   where, file);
        serve::Request r;
        r.id = get_int(v, "id", static_cast<int>(trace.size()), file);
        if (const JsonValue* c = v.find("arrival_cycle")) {
            if (v.find("arrival_us"))
                fail(file, where + ": \"arrival_cycle\" and \"arrival_us\" "
                                   "are mutually exclusive");
            if (c->as_int() < 0)
                fail(file, where + ": arrival_cycle must be >= 0");
            r.arrival_cycle = static_cast<uint64_t>(c->as_int());
        } else if (const JsonValue* u = v.find("arrival_us")) {
            const double us = u->as_number();
            if (us < 0)
                fail(file, where + ": arrival_us must be >= 0");
            r.arrival_cycle = us_to_cycles(us, clock_ghz);
        } else {
            fail(file,
                 where + ": needs \"arrival_cycle\" or \"arrival_us\"");
        }
        trace.push_back(r);
    }
    std::stable_sort(trace.begin(), trace.end(),
                     [](const serve::Request& a, const serve::Request& b) {
                         return a.arrival_cycle < b.arrival_cycle;
                     });
    return trace;
}

ServingSpec
parse_serving_spec(const JsonValue& obj, const Scenario& sc,
                   const std::string& file)
{
    if (!obj.is_object())
        fail(file, "\"serving\" must be a JSON object");
    check_keys(obj, {"model", "trace", "batching", "percentiles",
                     "resilience"},
               "serving", file);

    ServingSpec spec;
    spec.enabled = true;

    const JsonValue* m = obj.find("model");
    if (!m)
        fail(file, "serving: missing required key \"model\"");
    spec.model = parse_model_graph(*m, "serving.model", sc.name,
                                   /*batch_out=*/nullptr, file);
    // Shape/chaining errors surface at parse time, not mid-serve.
    try {
        model::lower_model(spec.model, 1);
    } catch (const model::ModelError& e) {
        fail(file, std::string("serving.model: ") + e.what());
    }

    const JsonValue* trace = obj.find("trace");
    if (!trace || !trace->is_object())
        fail(file, "serving: missing required object \"trace\"");
    check_keys(*trace,
               {"kind", "seed", "requests", "mean_interarrival_us", "path"},
               "serving.trace", file);
    spec.trace_kind = get_string(*trace, "kind", "poisson");
    if (spec.trace_kind == "poisson") {
        if (trace->find("path"))
            fail(file, "serving.trace: \"path\" is for kind \"file\"");
        const JsonValue* req = trace->find("requests");
        if (!req)
            fail(file, "serving.trace: missing required key \"requests\"");
        spec.requests = get_int(*trace, "requests", 0, file);
        if (spec.requests < 0)
            fail(file, "serving.trace.requests must be >= 0");
        int64_t seed = 1;
        if (const JsonValue* s = trace->find("seed"))
            seed = s->as_int();
        if (seed < 0)
            fail(file, "serving.trace.seed must be >= 0");
        spec.seed = static_cast<uint64_t>(seed);
        if (const JsonValue* mi = trace->find("mean_interarrival_us")) {
            spec.mean_interarrival_us = mi->as_number();
            if (spec.mean_interarrival_us <= 0)
                fail(file,
                     "serving.trace.mean_interarrival_us must be positive");
        } else if (spec.requests > 0) {
            fail(file, "serving.trace: missing required key "
                       "\"mean_interarrival_us\"");
        }
    } else if (spec.trace_kind == "file") {
        for (const char* k : {"seed", "requests", "mean_interarrival_us"})
            if (trace->find(k))
                fail(file, std::string("serving.trace: \"") + k +
                               "\" is for kind \"poisson\"");
        std::string path = get_string(*trace, "path", "");
        if (path.empty())
            fail(file, "serving.trace: missing required key \"path\"");
        // Relative paths resolve against the scenario file's directory
        // so suites stay relocatable.
        if (!path.empty() && path[0] != '/' && !file.empty()) {
            const size_t slash = file.find_last_of('/');
            if (slash != std::string::npos)
                path = file.substr(0, slash + 1) + path;
        }
        spec.file_trace =
            parse_trace_file(path, sc.gpu_config().clock_ghz, file);
        spec.requests = static_cast<int>(spec.file_trace.size());
    } else {
        fail(file, "serving.trace.kind must be \"poisson\" or \"file\"");
    }

    const JsonValue* batching = obj.find("batching");
    if (!batching || !batching->is_object())
        fail(file, "serving: missing required object \"batching\"");
    check_keys(*batching,
               {"policy", "batch", "timeout_us", "max_batch",
                "max_in_flight"},
               "serving.batching", file);
    spec.policy = get_string(*batching, "policy", "static");
    if (spec.policy == "static") {
        for (const char* k : {"max_batch", "max_in_flight"})
            if (batching->find(k))
                fail(file, std::string("serving.batching: \"") + k +
                               "\" is for policy \"continuous\"");
        spec.batch = get_int(*batching, "batch", 1, file);
        if (spec.batch < 1)
            fail(file, "serving.batching.batch must be >= 1");
        if (const JsonValue* t = batching->find("timeout_us")) {
            spec.timeout_us = t->as_number();
            if (spec.timeout_us < 0)
                fail(file, "serving.batching.timeout_us must be >= 0");
        }
    } else if (spec.policy == "continuous") {
        for (const char* k : {"batch", "timeout_us"})
            if (batching->find(k))
                fail(file, std::string("serving.batching: \"") + k +
                               "\" is for policy \"static\"");
        spec.max_batch = get_int(*batching, "max_batch", 8, file);
        if (spec.max_batch < 1)
            fail(file, "serving.batching.max_batch must be >= 1");
        spec.max_in_flight = get_int(*batching, "max_in_flight", 2, file);
        if (spec.max_in_flight < 1)
            fail(file, "serving.batching.max_in_flight must be >= 1");
    } else {
        fail(file,
             "serving.batching.policy must be \"static\" or \"continuous\"");
    }

    if (const JsonValue* pcts = obj.find("percentiles")) {
        if (!pcts->is_array())
            fail(file, "serving.percentiles must be an array of numbers");
        for (const JsonValue& p : pcts->as_array()) {
            double pct = p.as_number();
            if (pct <= 0 || pct >= 100)
                fail(file, "serving.percentiles entries must be in (0, 100)");
            spec.percentiles.push_back(pct);
        }
    }

    if (const JsonValue* res = obj.find("resilience")) {
        if (!res->is_object())
            fail(file, "serving.resilience must be a JSON object");
        check_keys(*res,
                   {"deadline_us", "batch_timeout_us", "max_retries",
                    "retry_backoff_us", "shed_queue_depth"},
                   "serving.resilience", file);
        spec.resilience = true;
        if (const JsonValue* v = res->find("deadline_us")) {
            spec.deadline_us = v->as_number();
            if (spec.deadline_us <= 0)
                fail(file,
                     "serving.resilience.deadline_us must be positive");
        }
        if (const JsonValue* v = res->find("batch_timeout_us")) {
            spec.batch_timeout_us = v->as_number();
            if (spec.batch_timeout_us <= 0)
                fail(file,
                     "serving.resilience.batch_timeout_us must be positive");
        }
        spec.max_retries = get_int(*res, "max_retries", 0, file);
        if (spec.max_retries < 0)
            fail(file, "serving.resilience.max_retries must be >= 0");
        if (const JsonValue* v = res->find("retry_backoff_us")) {
            spec.retry_backoff_us = v->as_number();
            if (spec.retry_backoff_us < 0)
                fail(file,
                     "serving.resilience.retry_backoff_us must be >= 0");
        }
        spec.shed_queue_depth = get_int(*res, "shed_queue_depth", 0, file);
        if (spec.shed_queue_depth < 0)
            fail(file, "serving.resilience.shed_queue_depth must be >= 0");
        if (spec.max_retries > 0 && spec.batch_timeout_us <= 0)
            fail(file, "serving.resilience.max_retries needs "
                       "batch_timeout_us (retries happen when a timed-out "
                       "batch is killed)");
    }
    return spec;
}

/** One entry of "faults.slowdowns" / "faults.hangs". */
KernelFaultRule
parse_fault_rule(const JsonValue& obj, const std::string& where,
                 bool is_slowdown, const std::string& file)
{
    if (!obj.is_object())
        fail(file, where + " must be a JSON object");
    if (is_slowdown)
        check_keys(obj, {"match", "factor", "count"}, where, file);
    else
        check_keys(obj, {"match", "count"}, where, file);
    KernelFaultRule r;
    r.match = get_string(obj, "match", "");
    if (r.match.empty())
        fail(file, where + ": missing required key \"match\"");
    if (is_slowdown) {
        const JsonValue* f = obj.find("factor");
        if (!f)
            fail(file, where + ": missing required key \"factor\"");
        r.factor = f->as_number();
        if (r.factor <= 1.0)
            fail(file, where + ": factor must be > 1.0");
    }
    r.count = get_int(obj, "count", 0, file);
    if (r.count < 0)
        fail(file, where + ": count must be >= 0 (0 = every match)");
    return r;
}

/** The top-level "faults" object (see the schema comment). */
FaultSpec
parse_fault_spec(const JsonValue& obj, const std::string& file)
{
    if (!obj.is_object())
        fail(file, "\"faults\" must be a JSON object");
    check_keys(obj,
               {"seed", "disabled_sms", "random_disabled_sms",
                "degraded_sms", "random_degraded_sms",
                "degraded_warp_slots", "slowdowns", "hangs", "ecc"},
               "faults", file);
    FaultSpec spec;
    spec.enabled = true;
    if (const JsonValue* s = obj.find("seed")) {
        if (s->as_int() < 0)
            fail(file, "faults.seed must be >= 0");
        spec.seed = static_cast<uint64_t>(s->as_int());
    }
    if (const JsonValue* v = obj.find("disabled_sms")) {
        if (!v->is_array())
            fail(file, "faults.disabled_sms must be an array of SM ids");
        for (const JsonValue& e : v->as_array()) {
            if (e.as_int() < 0)
                fail(file, "faults.disabled_sms entries must be >= 0");
            spec.disabled_sms.push_back(static_cast<int>(e.as_int()));
        }
    }
    spec.random_disabled_sms = get_int(obj, "random_disabled_sms", 0, file);
    if (spec.random_disabled_sms < 0)
        fail(file, "faults.random_disabled_sms must be >= 0");
    if (const JsonValue* v = obj.find("degraded_sms")) {
        if (!v->is_array())
            fail(file, "faults.degraded_sms must be an array of objects");
        for (size_t i = 0; i < v->as_array().size(); ++i) {
            const JsonValue& d = v->as_array()[i];
            std::string where =
                "faults.degraded_sms[" + std::to_string(i) + "]";
            if (!d.is_object())
                fail(file, where + " must be a JSON object");
            check_keys(d, {"sm", "warp_slots"}, where, file);
            const int sm = get_int(d, "sm", -1, file);
            const int slots = get_int(d, "warp_slots", 0, file);
            if (sm < 0)
                fail(file, where + ": missing or negative \"sm\"");
            if (slots < 1)
                fail(file, where + ": warp_slots must be >= 1");
            spec.degraded_sms.emplace_back(sm, slots);
        }
    }
    spec.random_degraded_sms = get_int(obj, "random_degraded_sms", 0, file);
    if (spec.random_degraded_sms < 0)
        fail(file, "faults.random_degraded_sms must be >= 0");
    spec.degraded_warp_slots = get_int(obj, "degraded_warp_slots", 0, file);
    if (spec.degraded_warp_slots < 0)
        fail(file, "faults.degraded_warp_slots must be >= 0");
    if (spec.random_degraded_sms > 0 && spec.degraded_warp_slots < 1)
        fail(file, "faults.random_degraded_sms needs degraded_warp_slots "
                   ">= 1");
    if (const JsonValue* v = obj.find("slowdowns")) {
        if (!v->is_array())
            fail(file, "faults.slowdowns must be an array");
        for (size_t i = 0; i < v->as_array().size(); ++i)
            spec.slowdowns.push_back(parse_fault_rule(
                v->as_array()[i],
                "faults.slowdowns[" + std::to_string(i) + "]",
                /*is_slowdown=*/true, file));
    }
    if (const JsonValue* v = obj.find("hangs")) {
        if (!v->is_array())
            fail(file, "faults.hangs must be an array");
        for (size_t i = 0; i < v->as_array().size(); ++i)
            spec.hangs.push_back(parse_fault_rule(
                v->as_array()[i],
                "faults.hangs[" + std::to_string(i) + "]",
                /*is_slowdown=*/false, file));
    }
    if (const JsonValue* ecc = obj.find("ecc")) {
        if (!ecc->is_object())
            fail(file, "faults.ecc must be a JSON object");
        check_keys(*ecc, {"prob", "extra_cycles"}, "faults.ecc", file);
        const JsonValue* p = ecc->find("prob");
        if (!p)
            fail(file, "faults.ecc: missing required key \"prob\"");
        spec.ecc_prob = p->as_number();
        if (spec.ecc_prob < 0 || spec.ecc_prob >= 1)
            fail(file, "faults.ecc.prob must be in [0, 1)");
        const int extra = get_int(*ecc, "extra_cycles", 0, file);
        if (spec.ecc_prob > 0 && extra < 1)
            fail(file, "faults.ecc.extra_cycles must be >= 1 when prob "
                       "> 0");
        spec.ecc_extra_cycles = static_cast<uint64_t>(extra);
    }
    return spec;
}

}  // namespace

namespace {

/** One overridable GpuConfig field: the scenario key, whether it is
 *  genuinely fractional, the smallest accepted value, and the setter.
 *  The single declaration per field drives key listing, validation,
 *  and application. */
struct OverrideField
{
    const char* name;
    bool is_float;
    int min_value;
    double max_value;
    void (*apply)(GpuConfig*, double);
};

#define TCSIM_INT_FIELD_RANGE(key, lo, hi)                                    \
    {#key, false, lo, hi, [](GpuConfig* c, double v) {                        \
         c->key = static_cast<decltype(c->key)>(v);                           \
     }}
#define TCSIM_INT_FIELD(key) TCSIM_INT_FIELD_RANGE(key, 1, kNoMax)
#define TCSIM_INT_FIELD_MIN0(key) TCSIM_INT_FIELD_RANGE(key, 0, kNoMax)
#define TCSIM_FLOAT_FIELD(key)                                                \
    {#key, true, 1, kNoMax, [](GpuConfig* c, double v) { c->key = v; }}

constexpr double kNoMax = std::numeric_limits<double>::infinity();

constexpr OverrideField kOverrideFields[] = {
    TCSIM_INT_FIELD(num_sms),
    TCSIM_INT_FIELD(subcores_per_sm),
    TCSIM_INT_FIELD(tensor_cores_per_subcore),
    TCSIM_INT_FIELD(max_warps_per_sm),
    TCSIM_INT_FIELD(max_ctas_per_sm),
    TCSIM_INT_FIELD(registers_per_sm),
    TCSIM_INT_FIELD(shared_mem_per_sm),
    TCSIM_FLOAT_FIELD(clock_ghz),
    TCSIM_INT_FIELD(fp32_lanes),
    TCSIM_INT_FIELD(fedp_units_per_tc),
    TCSIM_INT_FIELD(hmma_issue_interval),
    TCSIM_INT_FIELD(max_tc_warps_per_sm),
    TCSIM_INT_FIELD(ldst_queue_depth),
    // shared_bank_conflict_degree keeps a fixed 32-entry bank table.
    TCSIM_INT_FIELD_RANGE(shared_mem_banks, 1, 32),
    TCSIM_INT_FIELD(shared_mem_latency),
    TCSIM_INT_FIELD(l1_size),
    TCSIM_INT_FIELD(l1_hit_latency),
    TCSIM_INT_FIELD(l2_size),
    TCSIM_INT_FIELD(l2_hit_latency),
    TCSIM_INT_FIELD(dram_latency),
    TCSIM_INT_FIELD(num_mem_partitions),
    TCSIM_FLOAT_FIELD(dram_bytes_per_cycle_per_partition),
    TCSIM_INT_FIELD(mio_bytes_per_cycle),
    // The MSHR line index stores 16-bit slot numbers.
    TCSIM_INT_FIELD_RANGE(l1_mshr_entries, 1, 65534),
    TCSIM_INT_FIELD(l2_banks),
    TCSIM_FLOAT_FIELD(l2_bank_bytes_per_cycle),
    TCSIM_INT_FIELD(l2_bank_queue_depth),
    TCSIM_FLOAT_FIELD(noc_bytes_per_cycle),
    TCSIM_INT_FIELD(noc_queue_depth),
    TCSIM_INT_FIELD(dram_queue_depth),
    TCSIM_INT_FIELD_MIN0(dram_rw_turnaround),
};

#undef TCSIM_INT_FIELD_RANGE
#undef TCSIM_INT_FIELD
#undef TCSIM_INT_FIELD_MIN0
#undef TCSIM_FLOAT_FIELD

const OverrideField*
find_override_field(const std::string& key)
{
    for (const OverrideField& f : kOverrideFields)
        if (key == f.name)
            return &f;
    return nullptr;
}

/** Why @p v is out of range for gpu.@p key (empty when valid). */
std::string
override_range_error(const std::string& key, const OverrideField& f,
                     double v)
{
    if (f.is_float && v <= 0)
        return "gpu." + key + " must be positive";
    if (!f.is_float && v < f.min_value)
        return "gpu." + key + " must be >= " + std::to_string(f.min_value);
    if (v > f.max_value)
        return "gpu." + key + " must be <= " +
               std::to_string(static_cast<int>(f.max_value));
    return "";
}

}  // namespace

const std::vector<std::string>&
gpu_override_keys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (const OverrideField& f : kOverrideFields)
            k.push_back(f.name);
        return k;
    }();
    return keys;
}

void
apply_gpu_override(GpuConfig* cfg, const std::string& key, double value)
{
    const OverrideField* f = find_override_field(key);
    if (!f)
        throw ScenarioError("unknown gpu override \"" + key + "\"");
    std::string err = override_range_error(key, *f, value);
    if (!err.empty())
        throw ScenarioError(err);
    f->apply(cfg, value);
}

uint64_t
us_to_cycles(double us, double clock_ghz)
{
    return static_cast<uint64_t>(std::llround(us * clock_ghz * 1000.0));
}

GpuConfig
Scenario::gpu_config() const
{
    GpuConfig cfg =
        gpu_preset == "rtx2080" ? rtx2080_config() : titan_v_config();
    for (const auto& [key, value] : gpu_overrides)
        apply_gpu_override(&cfg, key, value);
    return cfg;
}

Scenario
parse_scenario(const JsonValue& doc, const std::string& file)
{
    if (!doc.is_object())
        fail(file, "scenario document must be a JSON object");
    check_keys(doc,
               {"name", "description", "gpu", "sim", "tensors", "kernels",
                "verify_tolerance", "expect", "sweep", "model", "serving",
                "faults"},
               "scenario", file);

    Scenario sc;
    sc.file = file;
    const JsonValue* name = doc.find("name");
    if (!name || name->as_string().empty())
        fail(file, "missing required key \"name\"");
    sc.name = name->as_string();
    sc.description = get_string(doc, "description", "");

    if (const JsonValue* gpu = doc.find("gpu")) {
        for (const auto& [key, value] : gpu->as_object()) {
            if (key == "preset") {
                sc.gpu_preset = value.as_string();
                if (sc.gpu_preset != "titan_v" && sc.gpu_preset != "rtx2080")
                    fail(file, "bad gpu.preset \"" + sc.gpu_preset +
                                   "\" (want titan_v | rtx2080)");
            } else {
                const OverrideField* field = find_override_field(key);
                if (!field)
                    fail(file, "unknown key \"" + key + "\" in gpu");
                // Integer fields: reject fractional values before the
                // setter truncates them (0.9 SMs must not silently
                // become 0).
                if (!field->is_float &&
                    (!value.is_number() ||
                     std::nearbyint(value.as_number()) != value.as_number()))
                    fail(file, "gpu." + key + " must be an integer");
                const double v = value.as_number();
                std::string err = override_range_error(key, *field, v);
                if (!err.empty())
                    fail(file, err);
                sc.gpu_overrides.emplace_back(key, v);
            }
        }
    }

    if (const JsonValue* sim = doc.find("sim")) {
        check_keys(*sim,
                   {"scheduler", "max_cycles", "sim_threads", "idle_skip",
                    "min_sms", "detailed_sms", "sample_window", "replay",
                    "replay_verify_every", "replay_verify_bound"},
                   "sim", file);
        sc.sim.scheduler =
            parse_scheduler(get_string(*sim, "scheduler", "gto"), file);
        if (const JsonValue* v = sim->find("max_cycles")) {
            int64_t mc = v->as_int();
            if (mc <= 0)
                fail(file, "sim.max_cycles must be positive");
            sc.sim.max_cycles = static_cast<uint64_t>(mc);
        }
        // Accepted for old scenario files; one simulation runs on one
        // thread.
        if (const JsonValue* v = sim->find("sim_threads"))
            if (v->as_int() != 1)
                fail(file, "sim.sim_threads must be 1");
        if (const JsonValue* v = sim->find("idle_skip"))
            sc.sim.idle_skip = v->as_bool();
        if (const JsonValue* v = sim->find("min_sms")) {
            int64_t s = v->as_int();
            if (s < 0)
                fail(file, "sim.min_sms must be >= 0");
            sc.sim.min_sms = static_cast<int>(s);
        }
        if (const JsonValue* v = sim->find("detailed_sms")) {
            int64_t s = v->as_int();
            if (s < 0)
                fail(file, "sim.detailed_sms must be >= 0 (0 = every SM "
                           "detailed)");
            sc.sim.detailed_sms = static_cast<int>(s);
        }
        if (const JsonValue* v = sim->find("sample_window")) {
            int64_t w = v->as_int();
            if (w < 1)
                fail(file, "sim.sample_window must be >= 1");
            sc.sim.sample_window = static_cast<uint64_t>(w);
        }
        if (const JsonValue* v = sim->find("replay")) {
            const std::string mode = v->as_string();
            if (mode == "off")
                sc.sim.replay_mode = SimOptions::ReplayMode::kOff;
            else if (mode == "record")
                sc.sim.replay_mode = SimOptions::ReplayMode::kRecord;
            else if (mode == "replay")
                sc.sim.replay_mode = SimOptions::ReplayMode::kReplay;
            else if (mode == "verify")
                sc.sim.replay_mode = SimOptions::ReplayMode::kVerify;
            else
                fail(file, "sim.replay must be \"off\", \"record\", "
                           "\"replay\" or \"verify\"");
            if (sc.sim.replay_mode != SimOptions::ReplayMode::kOff &&
                sc.sim.detailed_sms > 0)
                fail(file, "sim.replay and sim.detailed_sms are mutually "
                           "exclusive (sampled profiles would poison the "
                           "replay cache)");
        }
        if (const JsonValue* v = sim->find("replay_verify_every")) {
            int64_t n = v->as_int();
            if (n < 1)
                fail(file, "sim.replay_verify_every must be >= 1");
            sc.sim.replay_verify_every = static_cast<int>(n);
        }
        if (const JsonValue* v = sim->find("replay_verify_bound")) {
            double b = v->as_number();
            if (b < 0)
                fail(file, "sim.replay_verify_bound must be >= 0");
            sc.sim.replay_verify_bound = b;
        }
    }

    // Deterministic fault injection.  Parsed before the serving form
    // so faulty serving scenarios see it; mutually exclusive with the
    // paths that assume a healthy, homogeneous chip.
    if (const JsonValue* faults = doc.find("faults")) {
        if (doc.find("sweep"))
            fail(file, "\"faults\" and \"sweep\" are mutually exclusive "
                       "(forked sweep points assume a healthy prefix)");
        if (sc.sim.replay_mode != SimOptions::ReplayMode::kOff)
            fail(file, "\"faults\" and sim.replay are mutually exclusive "
                       "(fault timing would poison the replay cache)");
        if (sc.sim.detailed_sms > 0)
            fail(file, "\"faults\" and sim.detailed_sms are mutually "
                       "exclusive (sampled-SM scaling assumes homogeneous "
                       "SMs)");
        sc.faults = parse_fault_spec(*faults, file);
    }

    // Serving form: a standalone scenario type.  The serving engine
    // lowers and launches model batches itself, so there is no kernel
    // list to parse — validate the spec, restrict the expectations to
    // the metrics a serving run produces, and return.
    if (const JsonValue* serving = doc.find("serving")) {
        for (const char* k :
             {"kernels", "tensors", "model", "sweep", "verify_tolerance"})
            if (doc.find(k))
                fail(file, std::string("a \"serving\" scenario excludes \"") +
                               k + "\"");
        sc.serving = parse_serving_spec(*serving, sc, file);
        if (const JsonValue* expect = doc.find("expect")) {
            for (size_t i = 0; i < expect->as_array().size(); ++i) {
                Expectation e =
                    parse_expectation(expect->as_array()[i], i, file);
                if (e.metric.rfind("kernel.", 0) == 0 ||
                    e.metric.rfind("event.", 0) == 0 ||
                    e.metric.rfind("verify.", 0) == 0)
                    fail(file, "metric \"" + e.metric +
                                   "\": serving scenarios expose total.*, "
                                   "mem.*, serve.* and fault.* metrics");
                if (e.metric.rfind("fault.", 0) == 0 && !sc.has_faults())
                    fail(file, "metric \"" + e.metric +
                                   "\": needs a \"faults\" object");
                for (const char* m :
                     {"serve.deadline_miss", "serve.goodput",
                      "serve.retries", "serve.shed", "serve.dropped",
                      "serve.killed_batches"})
                    if (e.metric == m && !sc.serving.resilience)
                        fail(file, "metric \"" + e.metric +
                                       "\": needs a serving.resilience "
                                       "object");
                sc.expect.push_back(std::move(e));
            }
        }
        return sc;
    }

    // Model form: lower the layer graph into tensors+kernels here,
    // then fall through to the declarative (task-graph) path exactly
    // as if the scenario had spelled them out.
    const JsonValue* model_obj = doc.find("model");
    if (model_obj) {
        for (const char* k : {"kernels", "tensors"})
            if (doc.find(k))
                fail(file,
                     std::string("\"model\" replaces \"") + k + "\"");
        int batch = 1;
        model::ModelGraph g =
            parse_model_graph(*model_obj, "model", sc.name, &batch, file);
        lower_model_into(&sc, g, batch, file);
    }

    // Tensor arena (declarative form).  Parsed before the kernels so
    // read/write sets resolve against it.
    if (const JsonValue* tensors = doc.find("tensors")) {
        if (!tensors->is_array())
            fail(file, "\"tensors\" must be an array");
        std::set<std::string> tnames;
        for (size_t i = 0; i < tensors->as_array().size(); ++i) {
            const JsonValue& obj = tensors->as_array()[i];
            std::string where = "tensors[" + std::to_string(i) + "]";
            if (!obj.is_object())
                fail(file, where + " must be a JSON object");
            check_keys(obj, {"name", "bytes", "alias_of", "offset",
                             "address"},
                       where, file);
            TensorSpec t;
            t.line = obj.line();
            t.col = obj.col();
            const JsonValue* nm = obj.find("name");
            if (!nm || nm->as_string().empty())
                fail(file, where + ": missing required key \"name\"");
            t.name = nm->as_string();
            if (!tnames.insert(t.name).second)
                fail(file,
                     where + ": duplicate tensor name \"" + t.name + "\"");
            const JsonValue* b = obj.find("bytes");
            if (!b)
                fail(file, where + ": missing required key \"bytes\"");
            if (b->as_int() < 1)
                fail(file, where + ": bytes must be >= 1");
            t.bytes = static_cast<uint64_t>(b->as_int());
            t.alias_of = get_string(obj, "alias_of", "");
            if (const JsonValue* v = obj.find("offset")) {
                if (t.alias_of.empty())
                    fail(file, where + ": \"offset\" needs \"alias_of\"");
                if (v->as_int() < 0)
                    fail(file, where + ": offset must be >= 0");
                t.offset = static_cast<uint64_t>(v->as_int());
            }
            if (const JsonValue* v = obj.find("address")) {
                if (!t.alias_of.empty())
                    fail(file, where + ": \"address\" and \"alias_of\" are "
                                       "mutually exclusive");
                if (v->as_int() < 0)
                    fail(file, where + ": address must be >= 0");
                t.placed = true;
                t.address = static_cast<uint64_t>(v->as_int());
            }
            sc.tensors.push_back(std::move(t));
        }
    }

    const JsonValue* kernels = doc.find("kernels");
    if (!model_obj && (!kernels || kernels->as_array().empty()))
        fail(file,
             "scenario needs a non-empty \"kernels\" array (or a \"model\")");

    // Declarative form: a lowered model, a tensor arena, or any kernel
    // declaring its read/write sets.  Decided before parsing the
    // kernels — it flips which per-kernel keys are legal.
    sc.declarative |= doc.find("tensors") != nullptr;
    if (kernels)
        for (const JsonValue& k : kernels->as_array())
            if (k.is_object() && (k.find("reads") || k.find("writes")))
                sc.declarative = true;

    std::set<std::string> names;
    std::set<std::string> functional_names;
    std::set<std::string> recorded_events;
    bool any_functional = false;
    int legacy_plumbing = 0;
    const Arch arch = sc.gpu_preset == "rtx2080" ? Arch::kTuring : Arch::kVolta;
    if (kernels) {
        for (size_t i = 0; i < kernels->as_array().size(); ++i) {
            KernelSpec spec =
                parse_kernel(kernels->as_array()[i], i, file, sc.declarative);
            legacy_plumbing += (!spec.record_event.empty() ||
                                !spec.wait_events.empty() || spec.sync)
                                   ? 1
                                   : 0;
            if ((spec.mode == TcMode::kInt8 || spec.mode == TcMode::kInt4) &&
                arch != Arch::kTuring)
                fail(file, "kernels[" + std::to_string(i) +
                               "]: int8/int4 modes need the rtx2080 preset");
            if (spec.mode == TcMode::kInt4)
                fail(file, "kernels[" + std::to_string(i) +
                               "]: int4 needs the 8x8x32 tile, which no "
                               "registered kernel family emits yet");
            if (!names.insert(spec.name).second)
                fail(file, "duplicate kernel name \"" + spec.name + "\"");
            any_functional |= spec.functional;
            if (spec.functional)
                functional_names.insert(spec.name);
            if (!spec.record_event.empty())
                recorded_events.insert(spec.record_event);
            sc.kernels.push_back(std::move(spec));
        }
    } else {
        // Model form: sc.kernels was filled by lower_model_into.
        for (const KernelSpec& k : sc.kernels)
            names.insert(k.name);
    }
    if (sc.declarative) {
        // Compile read/write sets into streams and events; the plan
        // overwrites the per-kernel stream/record/wait fields, so
        // everything downstream of here sees a legacy-shaped scenario.
        compile_taskgraph(&sc, file);
        recorded_events.clear();
        for (const KernelSpec& k : sc.kernels)
            if (!k.record_event.empty())
                recorded_events.insert(k.record_event);
    } else if (legacy_plumbing > 0) {
        // One aggregated warning per scenario (not per kernel): batch
        // runs over the legacy suite stay readable.
        warn("%s: scenario \"%s\": %d of %zu kernel(s) hand-write "
             "record_event/wait_event/sync plumbing (deprecated): "
             "declare \"tensors\" plus per-kernel \"reads\"/\"writes\" "
             "and the task-graph compiler derives streams and events",
             file.empty() ? "scenario" : file.c_str(), sc.name.c_str(),
             legacy_plumbing, sc.kernels.size());
    }

    // Dependency sanity: a wait on an event no kernel records can
    // never be satisfied — fail those at parse time.  Deeper problems
    // (record/wait cycles, a record ordered behind its own wait) are
    // left to the engine, which reports them as an EngineDeadlockError
    // with the cycle-accurate wait graph.
    for (size_t i = 0; i < sc.kernels.size(); ++i)
        for (const std::string& e : sc.kernels[i].wait_events)
            if (!recorded_events.count(e))
                fail(file, "kernels[" + std::to_string(i) +
                               "]: waits on event \"" + e +
                               "\" which no kernel records");
    // A wait on an event recorded earlier on the *same* stream is a
    // no-op — stream FIFO order already guarantees it.  The compiler
    // never emits one (it only appears in hand-written plumbing).
    for (size_t i = 0; i < sc.kernels.size(); ++i)
        for (const std::string& e : sc.kernels[i].wait_events)
            for (size_t j = 0; j < i; ++j)
                if (sc.kernels[j].record_event == e &&
                    sc.kernels[j].stream == sc.kernels[i].stream)
                    warn("%s: kernels[%zu] (\"%s\") waits on \"%s\", "
                         "recorded earlier on the same stream %d — a "
                         "no-op wait (stream order already guarantees "
                         "it)",
                         file.empty() ? "scenario" : file.c_str(), i,
                         sc.kernels[i].name.c_str(), e.c_str(),
                         sc.kernels[i].stream);

    if (const JsonValue* v = doc.find("verify_tolerance")) {
        sc.verify_tolerance = v->as_number();
        if (sc.verify_tolerance <= 0)
            fail(file, "verify_tolerance must be positive");
    }

    if (const JsonValue* expect = doc.find("expect")) {
        for (size_t i = 0; i < expect->as_array().size(); ++i) {
            Expectation e =
                parse_expectation(expect->as_array()[i], i, file);
            validate_expectation(e, names, functional_names,
                                 recorded_events, any_functional, file);
            if (e.metric.rfind("fault.", 0) == 0 && !sc.has_faults())
                fail(file, "metric \"" + e.metric +
                               "\": needs a \"faults\" object");
            if (e.metric.rfind("serve.", 0) == 0)
                fail(file, "metric \"" + e.metric +
                               "\": serve.* metrics need a \"serving\" "
                               "scenario");
            sc.expect.push_back(std::move(e));
        }
    }

    if (const JsonValue* sweep = doc.find("sweep"))
        parse_sweep_into(&sc, *sweep, file);
    return sc;
}

void
attach_sweep(Scenario* sc, const JsonValue& doc, const std::string& file)
{
    const std::string& where = file.empty() ? sc->file : file;
    if (sc->is_sweep())
        fail(where, "scenario \"" + sc->name +
                        "\" already declares a sweep; --grid cannot "
                        "attach a second one");
    parse_sweep_into(sc, doc, where);
}

Scenario
materialize_sweep_point(const Scenario& sc, size_t index)
{
    if (index >= sc.sweep.points.size())
        throw ScenarioError("sweep point index out of range");
    const SweepPoint& pt = sc.sweep.points[index];
    Scenario out = sc;
    out.sweep = SweepSpec{};
    out.name = sc.name + "/" + pt.name;
    out.kernels.insert(out.kernels.end(), pt.kernels.begin(),
                       pt.kernels.end());
    out.expect.insert(out.expect.end(), pt.expect.begin(), pt.expect.end());
    return out;
}

Scenario
parse_scenario_text(const std::string& text, const std::string& file)
{
    try {
        return parse_scenario(json_parse(text), file);
    } catch (const JsonError& e) {
        fail(file, e.what());
    }
}

Scenario
load_scenario_file(const std::string& path)
{
    try {
        return parse_scenario(json_parse_file(path), path);
    } catch (const JsonError& e) {
        // Type errors thrown by as_int()/as_number() during schema
        // extraction carry no location; prefix the file like every
        // other diagnostic (json_parse_file already includes it).
        std::string what = e.what();
        if (what.rfind(path, 0) == 0)
            throw ScenarioError(what);
        fail(path, what);
    }
}

const char*
tc_mode_key(TcMode mode)
{
    switch (mode) {
      case TcMode::kFp16: return "fp16";
      case TcMode::kMixed: return "mixed";
      case TcMode::kInt8: return "int8";
      case TcMode::kInt4: return "int4";
    }
    return "?";
}

const char*
scheduler_key(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::kGto: return "gto";
      case SchedulerPolicy::kLrr: return "lrr";
      case SchedulerPolicy::kTwoLevel: return "two_level";
    }
    return "?";
}

}  // namespace driver
}  // namespace tcsim
