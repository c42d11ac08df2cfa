#pragma once
/**
 * @file
 * Seeded, deterministic fault injection.
 *
 * A FaultSpec (parsed from a scenario's `"faults"` key) compiles into
 * a FaultPlan against a concrete GpuConfig.  All faults are
 * *timing-only* — functional results are untouched, so scenario
 * verify passes under any fault plan:
 *
 *  - Disabled SMs: the dispatcher never places a CTA there.  The SM
 *    still exists (array sizes, stall accounting for idle SMs) so a
 *    faulty chip stays timing-comparable to a healthy one.
 *  - Degraded SMs: a reduced warp-slot cap (SM::set_warp_cap), i.e.
 *    partial-core failures that cut occupancy.
 *  - Kernel slowdown: a matched launch's retirement is held past its
 *    natural completion by (factor - 1) x its own duration — clock
 *    throttling / persistent-interference faults.
 *  - Kernel hang: a matched launch never retires.  The engine's
 *    watchdog (SimOptions::max_cycles / wall_budget_ms) or the host's
 *    kill_stream() path (serving batch-kill + retry) contains it.
 *  - ECC retry: each L2/DRAM-bound sector transaction independently
 *    suffers extra latency with probability `ecc.prob`, decided by a
 *    stateless hash of (seed, SM, sector address, cycle) — no RNG
 *    stream to order, so acceptance is independent of the order the
 *    memory system services SMs and the plan stays bit-identical
 *    across --jobs.
 *
 * Determinism: random SM picks draw from Pcg32(seed, stream) at
 * *compile* time (one canonical draw order), match-based faults
 * resolve at launch promotion (engine thread, stream-promotion
 * order), and every counter mutates on the engine thread only.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "arch/gpu_config.h"

namespace tcsim {

/** One kernel-matching fault rule (substring match on the kernel
 *  name).  `count` launches match (in promotion order); 0 = every
 *  launch. */
struct KernelFaultRule
{
    std::string match;
    /** Slowdown: completion stretched to factor x natural duration
     *  (> 1.0).  Ignored for hang rules. */
    double factor = 1.0;
    /** Launches affected, in promotion order (0 = all). */
    int count = 0;
};

/** Scenario-level fault description (see driver/scenario.h for the
 *  JSON schema).  Compiled into a FaultPlan against a GpuConfig. */
struct FaultSpec
{
    bool enabled = false;
    uint64_t seed = 1;

    /** Explicitly disabled SM ids. */
    std::vector<int> disabled_sms;
    /** Additionally disable this many randomly chosen SMs. */
    int random_disabled_sms = 0;

    /** Explicitly degraded SMs: {sm id, warp-slot cap}. */
    std::vector<std::pair<int, int>> degraded_sms;
    /** Additionally degrade this many randomly chosen SMs... */
    int random_degraded_sms = 0;
    /** ...to this warp-slot cap. */
    int degraded_warp_slots = 0;

    /** Kernel slowdown rules (factor > 1). */
    std::vector<KernelFaultRule> slowdowns;
    /** Kernel hang rules (factor unused). */
    std::vector<KernelFaultRule> hangs;

    /** ECC-retry probability per L2/DRAM-bound sector transaction
     *  (0 = off) and the extra latency each retry costs. */
    double ecc_prob = 0.0;
    uint64_t ecc_extra_cycles = 0;
};

/** Injected-fault telemetry, surfaced as `fault.*` metrics. */
struct FaultCounters
{
    uint64_t disabled_sms = 0;
    uint64_t degraded_sms = 0;
    uint64_t slowdowns = 0;        ///< Launches held by a slowdown rule.
    uint64_t slowdown_extra_cycles = 0;
    uint64_t hangs = 0;            ///< Launches hung (never retired).
    uint64_t ecc_retries = 0;      ///< Sector transactions hit.
    uint64_t ecc_extra_cycles = 0;
};

/**
 * A FaultSpec resolved against a concrete chip.  Owned by Gpu,
 * consulted by the engine (dispatch / promotion / retirement) and the
 * memory system (per-sector ECC delay).  All mutation happens on the
 * simulation's one thread, so plain counters suffice.
 */
class FaultPlan
{
  public:
    /** Compile @p spec against @p cfg.  Random SM picks draw from
     *  Pcg32(spec.seed).  Throws SimError when the plan would leave
     *  no dispatchable SM or names an SM id out of range. */
    FaultPlan(const FaultSpec& spec, const GpuConfig& cfg);

    bool enabled() const { return spec_.enabled; }

    /** The dispatcher must skip this SM entirely. */
    bool sm_disabled(int sm) const
    {
        return sm >= 0 && sm < static_cast<int>(disabled_.size()) &&
               disabled_[static_cast<size_t>(sm)];
    }

    /** Warp-slot cap for @p sm (0 = architectural cap). */
    int warp_slot_cap(int sm) const
    {
        return (sm >= 0 && sm < static_cast<int>(warp_cap_.size()))
                   ? warp_cap_[static_cast<size_t>(sm)]
                   : 0;
    }

    /** Consume one hang-rule match for @p kernel (promotion order).
     *  True = this launch hangs.  Counts fault.hangs. */
    bool take_hang(const std::string& kernel);

    /** Slowdown factor for @p kernel, consuming one rule match
     *  (promotion order).  1.0 = unaffected.  Counts
     *  fault.slowdowns. */
    double take_slowdown(const std::string& kernel);

    bool ecc_enabled() const { return spec_.ecc_prob > 0.0; }

    /** Extra latency the ECC fault injects into the sector
     *  transaction (@p sm, @p addr) admitted at @p now — 0 almost
     *  always.  Stateless hash-Bernoulli: no draw order, so the
     *  decision is identical however SMs are serviced.  Counts
     *  fault.ecc_retries. */
    uint64_t ecc_delay(int sm, uint64_t addr, uint64_t now);

    const FaultCounters& counters() const { return counters_; }
    void add_slowdown_cycles(uint64_t c)
    {
        counters_.slowdown_extra_cycles += c;
    }

  private:
    FaultSpec spec_;
    std::vector<bool> disabled_;
    std::vector<int> warp_cap_;  ///< 0 = uncapped.
    /** Remaining match budget per rule (parallel to spec_ rules;
     *  INT_MAX for count=0). */
    std::vector<int> hang_left_;
    std::vector<int> slow_left_;
    FaultCounters counters_;
};

}  // namespace tcsim
