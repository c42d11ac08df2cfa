#pragma once
/**
 * @file
 * Runtime state of one resident grid (a kernel launch being executed
 * by the engine): the CTA dispenser, per-kernel statistics, and the
 * cycle window the launch occupied.  Shared between the chip-level
 * execution engine (which owns and dispatches grids) and the SM model
 * (which hosts their CTAs and attributes statistics).
 */

#include <cstdint>
#include <map>

#include "common/stats.h"
#include "sim/core/stall.h"
#include "sim/kernel_desc.h"

namespace tcsim {

/** Per-kernel collected statistics. */
struct RunStats
{
    uint64_t instructions = 0;
    uint64_t hmma_instructions = 0;
    /** Latency histograms of the WMMA macro classes (Figs 15/16). */
    std::map<MacroClass, Histogram> macro_latency;
    /** Issue-stall cycles attributed to this grid's warps (the warp
     *  that blocked the scheduler belonged to this grid). */
    StallCounts stalls;

    void record_macro(MacroClass mc, uint64_t latency)
    {
        macro_latency[mc].add(static_cast<double>(latency));
    }
};

/**
 * One resident grid: CTA dispenser plus per-kernel accounting.  Grids
 * from different streams may be resident simultaneously; CTAs of all
 * resident grids compete for SM resources (concurrent kernel
 * execution).
 */
struct GridRun
{
    const KernelDesc* kernel = nullptr;
    /** Engine-unique launch id (also the dispatch priority order). */
    int grid_id = 0;
    /** Stream this launch arrived on. */
    int stream_id = 0;

    int next_cta = 0;   ///< Next CTA id to dispatch.
    int ctas_done = 0;  ///< CTAs fully completed (all warps drained).
    /** CTAs dispatched to shadow SMs (sampled mode): these never ran
     *  in detail, so per-grid instruction counts extrapolate from the
     *  detailed grid_ctas - shadow_ctas fraction at finalize. */
    int shadow_ctas = 0;

    /** Cycle the grid became resident (eligible for dispatch). */
    uint64_t start_cycle = 0;
    /** Cycle the last CTA drained (valid once done()). */
    uint64_t finish_cycle = 0;

    RunStats stats;

    bool pending() const { return next_cta < kernel->grid_ctas; }
    bool done() const { return ctas_done == kernel->grid_ctas; }
};

}  // namespace tcsim
