"""Seeded input generators for the three benchmark workloads.

Each generator is a pure function of (seed, size): the same arguments
give byte-identical inputs, and tcbench sees only the files written
here.  The seed picks gemm_tc's GEMM aspect ratios, mem_bound's
scenario order and serve_mlp's arrival times; kernel configurations,
output areas, K, memory profiles and the arrival rate are fixed, so
every seed gives the same amount of work and the benchmark's figures
stay comparable across seeds.  See README.md for
why each workload looks the way it does.
"""

import json
import os
import random

# gemm_tc: the Fig 14b CUTLASS configurations
# (block_m, block_n, block_k, warp_m, warp_n, double_buffer).
CUTLASS_CONFIGS = [
    (64, 64, 16, 32, 32, False),
    (64, 64, 32, 32, 32, True),
    (128, 64, 32, 32, 32, True),
    (64, 128, 32, 32, 64, True),
    (128, 128, 32, 32, 64, True),
    (128, 128, 32, 64, 64, False),
]
MODES = ("mixed", "fp16")

# mem_bound: constricted hierarchies on an 8-SM Titan V, each with
# expect bands that hold for every generated shape.
MEM_PROFILES = {
    "tiny_l1": (
        {"l1_size": 16384, "dram_latency": 400},
        [{"metric": "mem.mshr_merges", "min": 1},
         {"metric": "mem.l2_queue_cycles", "min": 1}],
    ),
    "tiny_mshr": (
        {"l1_size": 16384, "dram_latency": 400, "l1_mshr_entries": 4},
        [{"metric": "mem.mshr_peak", "equals": 4},
         {"metric": "total.stall.mshr_full", "min": 1}],
    ),
    "narrow_noc": (
        {"l1_size": 16384, "dram_latency": 400, "noc_bytes_per_cycle": 8,
         "noc_queue_depth": 16},
        [{"metric": "total.stall.noc_busy", "min": 1},
         {"metric": "mem.noc_queue_cycles", "min": 1}],
    ),
    "slow_dram": (
        {"l1_size": 16384, "dram_latency": 1000, "dram_queue_depth": 2},
        [{"metric": "mem.dram_queue_cycles", "min": 1},
         {"metric": "total.stall.dram_queue", "min": 1}],
    ),
}

# serve_mlp: a 2-layer MLP served at one fixed Poisson rate that keeps
# the modeled chip about 80% busy, with one per-request latency limit.
SERVE_REQUESTS = {"full": 240, "tiny": 20}
SERVE_INTERARRIVAL_US = 10.0
SERVE_LATENCY_LIMIT_US = 50.0

HMMA_PER_TILE = {"mixed": 16, "fp16": 8}


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def _factorizations(area, m_mult, n_mult, lo, hi):
    """Every (m, n) with m * n == area, m a multiple of m_mult, n of
    n_mult, both within [lo, hi]."""
    return [(m, area // m) for m in range(m_mult, hi + 1, m_mult)
            if area % m == 0 and lo <= m and lo <= area // m <= hi
            and (area // m) % n_mult == 0]


def _shape(rng, area, k, m_mult, n_mult, lo, hi):
    m, n = rng.choice(_factorizations(area, m_mult, n_mult, lo, hi))
    return {"m": m, "n": n, "k": k}


def gemm_tc(seed, size="full"):
    """Launch list: every CUTLASS configuration in both modes, two
    wmma_shared GEMMs and two hmma_stress kernels.  Each launch has a
    fixed output area M*N (hence CTA count) and K; the seed picks the
    aspect ratio, so shapes change with the seed while the work and the
    size ladder the accuracy metrics correlate over do not."""
    rng = _rng("gemm_tc", seed)
    tiny = size == "tiny"
    launches = []
    for bm, bn, bk, wm, wn, pipe in CUTLASS_CONFIGS:
        for mode in MODES:
            if tiny and mode == "fp16":
                continue
            area = 128 * 256 if tiny else {"mixed": 256 * 256,
                                           "fp16": 256 * 384}[mode]
            shape = _shape(rng, area, 128 if tiny else 256, bm, bn, 128, 768)
            launches.append(dict(shape, kind="cutlass", mode=mode,
                                 block_m=bm, block_n=bn, block_k=bk,
                                 warp_m=wm, warp_n=wn, double_buffer=pipe))
    for mode, area, k in (("mixed", 128 * 192, 192), ("fp16", 192 * 256, 128)):
        if tiny:
            area, k = 64 * 128, 64
        launches.append(dict(_shape(rng, area, k, 64, 64, 64, 768),
                             kind="wmma_shared", mode=mode))
    for mode in MODES:
        ctas, ops = rng.choice([(8, 32), (16, 16)] if tiny
                               else [(80, 64), (160, 32)])
        launches.append({"kind": "hmma_stress", "mode": mode, "ctas": ctas,
                         "warps_per_cta": 4, "wmma_per_warp": ops,
                         "accumulators": 4})
    return {"launches": launches}


def mem_bound(seed, size="full"):
    """Scenario documents: per memory profile, square wmma_naive GEMMs of
    2, 8 and 18 CTAs on 8 SMs, in an order the seed shuffles.  Shapes
    are fixed: with only twelve scenarios, letting the seed reshape them
    moved the latency median by 11% between seeds.  The first GEMM of
    each profile runs functionally, so its result is verified too."""
    rng = _rng("mem_bound", seed)
    tiny = size == "tiny"
    sizes = [32] if tiny else [64, 128, 192]
    k = 64 if tiny else 128
    docs = []
    for profile, (gpu, expect) in MEM_PROFILES.items():
        for i, m in enumerate(sizes):
            n = m
            name = "%s_%d" % (profile, i)
            kernel = "gemm%dx%dx%d" % (m, n, k)
            hmma = (m // 16) * (n // 16) * (k // 16) * HMMA_PER_TILE["mixed"]
            docs.append({
                "name": name,
                "description": "mem_bound %s: wmma_naive GEMM %s"
                               % (profile, kernel),
                "gpu": dict({"preset": "titan_v", "num_sms": 8}, **gpu),
                "sim": {"sim_threads": 1},
                "kernels": [{"kernel": "wmma_naive", "name": kernel,
                             "m": m, "n": n, "k": k, "mode": "mixed",
                             "functional": i == 0}],
                "expect": [{"metric": "kernel.%s.hmma_instructions" % kernel,
                            "equals": hmma}] + expect,
            })
    rng.shuffle(docs)
    return docs


def serve_arrivals(seed, size="full"):
    """Poisson arrival times in microseconds, one per request."""
    rng = _rng("serve_mlp", seed)
    t, out = 0.0, []
    for _ in range(SERVE_REQUESTS[size]):
        t += rng.expovariate(1.0 / SERVE_INTERARRIVAL_US)
        out.append(round(t, 3))
    return out


def serve_mlp(seed, size="full"):
    """(scenario document, arrival times in us) for the serving run."""
    n = SERVE_REQUESTS[size]
    doc = {
        "name": "serve_mlp",
        "description": "Continuous-batching serving of a seeded Poisson "
                       "trace against a 2-layer MLP",
        "gpu": {"preset": "titan_v", "num_sms": 8},
        "sim": {"sim_threads": 1},
        "serving": {
            "model": {
                "tokens_per_request": 16,
                "input_features": 64,
                "precision": "mixed",
                "layers": [
                    {"type": "linear", "name": "fc1", "out_features": 128},
                    {"type": "linear", "name": "fc2", "out_features": 64},
                ],
            },
            "trace": {"kind": "file", "path": "arrivals.jsonl"},
            "batching": {"policy": "continuous", "max_batch": 8,
                         "max_in_flight": 2},
            "resilience": {"deadline_us": SERVE_LATENCY_LIMIT_US},
        },
        "expect": [
            {"metric": "serve.requests", "equals": n},
            {"metric": "serve.completed", "equals": n},
            {"metric": "serve.shed", "equals": 0},
            {"metric": "serve.dropped", "equals": 0},
        ],
    }
    return doc, serve_arrivals(seed, size)


def _write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def write_inputs(workload, seed, out_dir, size="full"):
    """Write the inputs tcbench reads for @workload into @out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    if workload == "gemm_tc":
        _write_json(os.path.join(out_dir, "launches.json"),
                    gemm_tc(seed, size))
        return
    if workload == "mem_bound":
        docs = mem_bound(seed, size)
    elif workload == "serve_mlp":
        doc, arrivals = serve_mlp(seed, size)
        with open(os.path.join(out_dir, "arrivals.jsonl"), "w") as f:
            for i, t in enumerate(arrivals):
                f.write(json.dumps({"id": i, "arrival_us": t}) + "\n")
        docs = [doc]
    else:
        raise ValueError("unknown workload %r" % workload)
    files = []
    for doc in docs:
        files.append(doc["name"] + ".json")
        _write_json(os.path.join(out_dir, files[-1]), doc)
    _write_json(os.path.join(out_dir, "manifest.json"), {"scenarios": files})
