#include "sim/engine.h"

#include <algorithm>
#include <stdexcept>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/sim_error.h"
#include "sim/fault/fault_plan.h"
#include "sim/stats_codec.h"

namespace tcsim {

ExecutionEngine::ExecutionEngine(const GpuConfig& cfg, const SimOptions& opts,
                                 MemorySystem* mem, ExecutorCache* executors)
    : cfg_(cfg), opts_(opts), mem_(mem), executors_(executors)
{
    if (opts_.sim_threads != 1)
        throw std::invalid_argument(
            "SimOptions::sim_threads must be 1 (one simulation runs on "
            "one thread; got " + std::to_string(opts_.sim_threads) + ")");
    config_hash_ = hash_config(cfg_);
    if (opts_.replay_mode != SimOptions::ReplayMode::kOff) {
        if (opts_.detailed_sms > 0)
            throw std::runtime_error(
                "replay_mode and detailed_sms are mutually exclusive: "
                "sampled (extrapolated) executions would poison the "
                "replay cache with approximate profiles");
        replay_cache_ = opts_.replay_cache;
        if (!replay_cache_) {
            owned_cache_ = std::make_unique<ReplayCache>();
            replay_cache_ = owned_cache_.get();
        }
    }
}

ExecutionEngine::~ExecutionEngine() = default;

uint64_t
ExecutionEngine::now() const
{
    return run_ ? run_->now : 0;
}

bool
ExecutionEngine::prepare(const std::vector<Stream*>& streams)
{
    entry_streams_ = streams;
    if (!run_) {
        bool any_work = false;
        for (Stream* s : streams)
            any_work |= !s->ops_.empty();
        if (!any_work)
            return false;
        run_ = std::make_unique<RunState>();
        run_->wall_start = std::chrono::steady_clock::now();
        mem_->reset_timing();
    }
    absorb_streams(streams);
    validate_and_size();
    streams_dirty_ = true;
    return true;
}

void
ExecutionEngine::absorb_streams(const std::vector<Stream*>& streams)
{
    // Streams created since the run began join at the end (their
    // StreamRun order follows the caller's stream order on first
    // sight).
    for (Stream* s : streams) {
        bool known = false;
        for (const StreamRun& sr : run_->stream_runs)
            known |= sr.stream == s;
        if (!known)
            run_->stream_runs.push_back(StreamRun{s, nullptr});
    }
}

void
ExecutionEngine::validate_and_size()
{
    // Validate every queued launch and count the CTAs pending: a run
    // whose grids total fewer CTAs than the chip has SMs never
    // occupies the excess SMs, so don't construct (or tick) them.
    // Re-run on every advance entry and after host callbacks fire, so
    // work enqueued mid-run is checked and sized too.
    uint64_t total_ctas = 0;
    for (const StreamRun& sr : run_->stream_runs) {
        for (const Stream::Op& op : sr.stream->ops_) {
            if (op.kind != Stream::OpKind::kLaunch)
                continue;
            const KernelDesc& k = op.kernel;
            TCSIM_CHECK(k.grid_ctas > 0);
            TCSIM_CHECK(k.trace != nullptr);
            SM::check_fits(cfg_, k);
            if (opts_.detailed_sms > 0 && k.functional)
                throw std::runtime_error(detail::format(
                    "sampled mode (detailed_sms=%d) requires "
                    "functional=false kernels; \"%s\" is functional",
                    opts_.detailed_sms, k.name.c_str()));
            total_ctas += static_cast<uint64_t>(k.grid_ctas);
        }
    }
    for (const auto& l : run_->resident)
        total_ctas += static_cast<uint64_t>(l->desc.grid_ctas);

    // Grow the SM array when new work justifies it; SMs appended
    // mid-run behave exactly like SMs that had been idle all along, so
    // timing is independent of when (or whether) the excess SMs exist.
    // min_sms floors the size: sweep forks pin it so forked and cold
    // runs of every point get identical (timing-observable) arrays.
    size_t want = static_cast<size_t>(std::min<uint64_t>(
        cfg_.num_sms,
        std::max<uint64_t>(static_cast<uint64_t>(std::max(opts_.min_sms, 0)),
                           std::max<uint64_t>(1, total_ctas))));
    // Sampled mode: cap the detailed array and give the remainder of
    // the wanted size to occupancy-only shadow SMs.
    size_t detailed = want;
    if (opts_.detailed_sms > 0)
        detailed = std::min<size_t>(
            want, static_cast<size_t>(opts_.detailed_sms));
    while (run_->sms.size() < detailed) {
        const int id = static_cast<int>(run_->sms.size());
        auto sm = std::make_unique<SM>(id, cfg_, mem_, executors_,
                                       opts_.scheduler);
        if (fault_plan_)
            if (int cap = fault_plan_->warp_slot_cap(id))
                sm->set_warp_cap(cap);
        run_->sms.push_back(std::move(sm));
    }
    if (opts_.detailed_sms > 0 && want > run_->sms.size() &&
        run_->shadows.size() < want - run_->sms.size())
        run_->shadows.resize(want - run_->sms.size());
}

bool
ExecutionEngine::promote_streams(uint64_t now)
{
    RunState& rs = *run_;
    bool any_op = false;
    streams_dirty_ = false;
    // Fixpoint: a record completed on one stream can unblock a wait on
    // another in the same tick, so rescan until nothing changes.
    for (bool progress = true; progress;) {
        progress = false;
        for (StreamRun& sr : rs.stream_runs) {
            while (sr.live == nullptr && !sr.stream->ops_.empty()) {
                Stream::Op& front = sr.stream->ops_.front();
                if (front.kind == Stream::OpKind::kWaitEvent) {
                    // Dependency gate: not promotable past this point
                    // until the event has been recorded and retired.
                    if (!front.wait->complete())
                        break;
                    sr.stream->ops_.pop_front();
                    any_op = progress = true;
                    continue;
                }
                if (front.kind == Stream::OpKind::kRecordEvent) {
                    // All prior work on this stream has retired:
                    // complete the event, stamped with this cycle.
                    Event* ev = front.record;
                    sr.stream->ops_.pop_front();
                    ev->complete_ = true;
                    ev->cycle_ = now;
                    any_op = progress = true;
                    continue;
                }
                if (front.kind == Stream::OpKind::kCallback) {
                    // Pop before invoking: the callback may enqueue
                    // more work onto this very stream.  step() re-runs
                    // validation/SM sizing after the promote pass.
                    auto fn = std::move(front.callback);
                    sr.stream->ops_.pop_front();
                    if (fn)
                        fn(now);
                    callbacks_fired_ = true;
                    any_op = progress = true;
                    continue;
                }
                // Validate at promotion too: launches injected by a
                // host callback never pass through prepare(), and an
                // unfittable grid must die with the check_fits
                // diagnostic, not a confusing engine-stall panic.
                TCSIM_CHECK(front.kernel.grid_ctas > 0);
                TCSIM_CHECK(front.kernel.trace != nullptr);
                SM::check_fits(cfg_, front.kernel);
                Stream::Op op = sr.stream->pop();
                auto l = std::make_unique<Launch>();
                l->desc = std::move(op.kernel);
                l->grid.kernel = &l->desc;
                l->grid.grid_id = rs.next_grid_id++;
                l->grid.stream_id = sr.stream->id();
                l->grid.start_cycle = now;
                l->mem_base = mem_->stats();
                if (replay_cache_)
                    classify_replay(l.get(), now);
                // Fault classification: promotion happens in
                // canonical stream order, so the per-rule match
                // budgets drain identically on every run.
                if (fault_plan_ && fault_plan_->enabled()) {
                    if (fault_plan_->take_hang(l->desc.name))
                        l->fault_hung = true;
                    else
                        l->fault_slowdown =
                            fault_plan_->take_slowdown(l->desc.name);
                }
                sr.live = l.get();
                rs.resident.push_back(std::move(l));
                progress = true;
                break;
            }
        }
    }
    return any_op;
}

bool
ExecutionEngine::dispatch_to(SM* sm)
{
    // A fault-disabled SM never receives work (it still exists and
    // ticks idle, so chip timing stays comparable to a healthy run).
    if (fault_plan_ && fault_plan_->sm_disabled(sm->id()))
        return false;
    // Resident grids compete in launch order; one CTA per SM per cycle
    // (hardware rasterizer pacing, matching the legacy distribution).
    for (auto& l : run_->resident) {
        if (l->grid.pending() && sm->can_accept(*l->grid.kernel)) {
            sm->launch_cta(&l->grid, l->grid.next_cta++, run_->now);
            return true;
        }
    }
    return false;
}

std::string
ExecutionEngine::replay_key(const KernelDesc& k) const
{
    // Uncacheable: no builder fingerprint, or functional (a replayed
    // launch executes nothing, which would silently drop the data
    // movement functional kernels exist for).
    if (k.timing_key.empty() || k.functional)
        return {};
    const RunState& rs = *run_;
    // Memory-warmth class: w0 = nothing retired yet this run (cold
    // caches), w1 = the last retired launch had this same timing_key
    // (warmed by this very kernel), w2 = warmed by other work.
    char warmth = !rs.any_finished
                      ? '0'
                      : (rs.last_finished_key == k.timing_key ? '1' : '2');
    char cfg[24];
    std::snprintf(cfg, sizeof cfg, "%016llx",
                  static_cast<unsigned long long>(config_hash_));
    return k.timing_key + "|cfg:" + cfg + "|w" + warmth;
}

void
ExecutionEngine::classify_replay(Launch* l, uint64_t now)
{
    RunState& rs = *run_;
    std::string key = replay_key(l->desc);
    if (key.empty())
        return;  // Uncacheable: plain detailed execution.

    // Every cacheable occurrence of a key consumes one sequence slot,
    // assigned in promotion order: recordings fill their slot at
    // retire, and the i-th hit is served the i-th recorded duration —
    // so replaying a recorded trace walks the recorded sequence in
    // lockstep and hands every launch its own duration.
    uint64_t seq = 0;
    if (auto sit = rs.replay_seq.find(key); sit != rs.replay_seq.end())
        seq = sit->second;
    auto profile = std::make_unique<KernelTimingProfile>();
    const bool hit = replay_cache_->lookup(key, seq, profile.get());
    rs.replay_seq[key] = seq + 1;
    if (!hit || opts_.replay_mode == SimOptions::ReplayMode::kRecord) {
        // Miss (or record-only mode): run in detail and fold the
        // result into the cache at retire.  Record mode folds *every*
        // execution, not just the first per key, so the duration
        // sequence covers the key's full range of contention contexts.
        if (hit)
            ++rs.stats.replay_hits;
        else
            ++rs.stats.replay_misses;
        l->record_key = std::move(key);
        l->record_seq = seq;
        return;
    }

    ++rs.stats.replay_hits;
    if (opts_.replay_mode == SimOptions::ReplayMode::kVerify) {
        // Deterministic 1-in-N sampling: the first hit always
        // verifies, then every replay_verify_every-th.
        uint64_t n = std::max(1, opts_.replay_verify_every);
        bool verify = rs.replay_attempts % n == 0;
        ++rs.replay_attempts;
        if (verify) {
            l->verify_expect = std::move(profile);
            ++rs.stats.replay_verified;
            return;  // Runs in detail; retire compares.
        }
    }

    // Replay: no CTA ever dispatches (pending() is false from the
    // start); the grid completes at replay_done with the profile's
    // statistics applied as deltas.  Stream/event ordering is
    // untouched — the launch occupies its stream slot until then.
    TCSIM_CHECK(profile->cycles > 0);
    l->replay_done = now + profile->cycles - 1;
    l->replay_profile = std::move(profile);
    l->grid.next_cta = l->desc.grid_ctas;
}

void
ExecutionEngine::record_occupancy(uint64_t now)
{
    RunState& rs = *run_;
    for (const CtaCompletion& c : completions_) {
        for (auto& l : rs.resident) {
            if (&l->grid != c.grid)
                continue;
            if (l->record_key.empty())
                break;
            OccupancyPhase ph;
            ph.offset = now - l->grid.start_cycle;
            ph.ctas_left = static_cast<uint32_t>(l->desc.grid_ctas -
                                                 l->grid.ctas_done);
            // One sample per tick: completions in the same cycle
            // collapse onto the last (ctas_done already counts them
            // all by commit time).
            if (!l->occupancy.empty() &&
                l->occupancy.back().offset == ph.offset)
                l->occupancy.back() = ph;
            else
                l->occupancy.push_back(ph);
            // Compact deterministically: keep every 2nd sample once
            // the scratch outgrows the profile bound.
            if (l->occupancy.size() > kMaxOccupancyPhases) {
                size_t out = 0;
                for (size_t i = 1; i < l->occupancy.size(); i += 2)
                    l->occupancy[out++] = l->occupancy[i];
                l->occupancy.resize(out);
            }
            break;
        }
    }
    completions_.clear();
}

void
ExecutionEngine::finish_replay(Launch& l, const LaunchStats& ls)
{
    RunState& rs = *run_;
    if (l.verify_expect) {
        const KernelTimingProfile& p = *l.verify_expect;
        double detailed = static_cast<double>(ls.cycles);
        double recorded = static_cast<double>(p.cycles);
        double rel = detailed > 0
                         ? std::abs(recorded - detailed) / detailed
                         : 0.0;
        if (rel > opts_.replay_verify_bound ||
            ls.instructions != p.instructions)
            throw std::runtime_error(detail::format(
                "replay verify: kernel \"%s\" diverged from its recorded "
                "profile (cycles %llu recorded vs %llu detailed, rel err "
                "%.4f > bound %.4f%s)",
                l.desc.name.c_str(),
                static_cast<unsigned long long>(p.cycles),
                static_cast<unsigned long long>(ls.cycles), rel,
                opts_.replay_verify_bound,
                ls.instructions != p.instructions
                    ? "; instruction counters differ"
                    : ""));
    }
    if (!l.record_key.empty() && replay_cache_) {
        KernelTimingProfile p;
        p.cycles = ls.cycles;
        p.instructions = ls.instructions;
        p.hmma_instructions = ls.hmma_instructions;
        p.mem = ls.mem;
        p.stalls = ls.stalls;
        p.macro_latency = ls.macro_latency;
        p.occupancy = std::move(l.occupancy);
        replay_cache_->record(l.record_key, l.record_seq, std::move(p));
    }
    if (l.replay_profile) {
        // The memory system and SMs never saw a replayed launch's
        // traffic: accumulate its recorded deltas for fill_totals.
        rs.replay_mem.add(l.replay_profile->mem);
        rs.replay_stalls.add(l.replay_profile->stalls);
    }
    // Warmth tracking advances for *every* retiring launch (replayed
    // and uncacheable included), so a replay run walks the identical
    // warmth sequence the detailed run it mirrors did.
    rs.any_finished = true;
    rs.last_finished_key = l.desc.timing_key;
}

/** Per-CTA register demand (mirrors the SM's accounting). */
static uint64_t
shadow_cta_registers(const KernelDesc& k)
{
    return static_cast<uint64_t>(k.warps_per_cta) * kWarpSize *
           static_cast<uint64_t>(k.regs_per_thread);
}

bool
ExecutionEngine::dispatch_shadow(ShadowSm& sh, uint64_t now)
{
    RunState& rs = *run_;
    for (auto& l : rs.resident) {
        GridRun& g = l->grid;
        if (!g.pending())
            continue;
        // A grid must seed the detailed SMs before it fast-forwards:
        // the estimator needs real completions, and a pending shadow
        // CTA relies on a live detailed CTA to eventually supply the
        // measurement that prices it.
        if (g.next_cta - g.shadow_ctas == 0)
            continue;
        const KernelDesc& k = *g.kernel;
        if (sh.used_ctas >= cfg_.max_ctas_per_sm ||
            sh.used_warps + k.warps_per_cta > cfg_.max_warps_per_sm ||
            sh.used_smem + k.shared_mem_bytes > cfg_.shared_mem_per_sm ||
            sh.used_regs + shadow_cta_registers(k) > cfg_.registers_per_sm)
            continue;
        ++sh.used_ctas;
        sh.used_warps += k.warps_per_cta;
        sh.used_smem += k.shared_mem_bytes;
        sh.used_regs += shadow_cta_registers(k);
        // Price the CTA now if a measurement exists; otherwise leave
        // it pending (predicted_done = 0) for shadow_commit to price
        // when the grid's first detailed completion lands.
        auto it = rs.estimators.find(g.grid_id);
        uint64_t eta = 0;
        if (it != rs.estimators.end() && it->second.ready())
            eta = std::max(now + it->second.mean(), now + 1);
        sh.resident.push_back(ShadowCta{&g, now, eta});
        ++g.next_cta;
        ++g.shadow_ctas;
        return true;
    }
    return false;
}

void
ExecutionEngine::shadow_commit(uint64_t now)
{
    RunState& rs = *run_;
    for (const CtaCompletion& c : completions_)
        rs.estimators[c.grid->grid_id].add(now, c.latency,
                                           opts_.sample_window);
    completions_.clear();
    // Price pending shadow CTAs whose grid now has a measurement,
    // counting residency from their launch cycle.
    for (ShadowSm& sh : rs.shadows) {
        for (ShadowCta& c : sh.resident) {
            if (c.predicted_done != 0)
                continue;
            auto it = rs.estimators.find(c.grid->grid_id);
            if (it == rs.estimators.end() || !it->second.ready())
                continue;
            c.predicted_done =
                std::max(c.launched + it->second.mean(), now + 1);
        }
    }
    // Retire predicted completions, shadow order then entry order.
    for (ShadowSm& sh : rs.shadows) {
        for (size_t i = 0; i < sh.resident.size();) {
            if (sh.resident[i].predicted_done == 0 ||
                sh.resident[i].predicted_done > now) {
                ++i;
                continue;
            }
            GridRun* g = sh.resident[i].grid;
            const KernelDesc& k = *g->kernel;
            --sh.used_ctas;
            sh.used_warps -= k.warps_per_cta;
            sh.used_smem -= k.shared_mem_bytes;
            sh.used_regs -= shadow_cta_registers(k);
            if (++g->ctas_done == k.grid_ctas)
                g->finish_cycle = now;
            sh.resident.erase(sh.resident.begin() +
                              static_cast<ptrdiff_t>(i));
        }
    }
}

LaunchStats
ExecutionEngine::finalize(Launch& l) const
{
    LaunchStats s;
    s.kernel = l.desc.name;
    s.stream = l.grid.stream_id;
    s.start_cycle = l.grid.start_cycle;
    s.finish_cycle = l.grid.finish_cycle;
    s.cycles = l.grid.finish_cycle - l.grid.start_cycle + 1;
    // Replayed launch: no SM ever saw it — every statistic comes from
    // the recorded profile (the memory system's counters did not move,
    // so since(mem_base) would report concurrent kernels' traffic).
    if (l.replay_profile) {
        const KernelTimingProfile& p = *l.replay_profile;
        s.instructions = p.instructions;
        s.hmma_instructions = p.hmma_instructions;
        s.ipc = s.cycles > 0 ? static_cast<double>(s.instructions) /
                                   static_cast<double>(s.cycles)
                             : 0.0;
        s.mem = p.mem;
        s.macro_latency = p.macro_latency;
        s.stalls = p.stalls;
        return s;
    }
    s.instructions = l.grid.stats.instructions;
    s.hmma_instructions = l.grid.stats.hmma_instructions;
    // Sampled mode: shadow CTAs executed no instructions — scale the
    // detailed counts up by the full-grid fraction.  Memory counters
    // are left as-measured (detailed traffic only); total.cycles is
    // the approximate figure whose error CI bounds.
    if (l.grid.shadow_ctas > 0) {
        uint64_t total = static_cast<uint64_t>(l.desc.grid_ctas);
        uint64_t det = total - static_cast<uint64_t>(l.grid.shadow_ctas);
        TCSIM_CHECK(det > 0);
        s.instructions = s.instructions * total / det;
        s.hmma_instructions = s.hmma_instructions * total / det;
    }
    s.ipc = s.cycles > 0 ? static_cast<double>(s.instructions) /
                               static_cast<double>(s.cycles)
                         : 0.0;
    s.mem = mem_->stats().since(l.mem_base);
    s.macro_latency = l.grid.stats.macro_latency;
    s.stalls = l.grid.stats.stalls;
    return s;
}

bool
ExecutionEngine::drained() const
{
    for (const StreamRun& sr : run_->stream_runs)
        if (sr.live != nullptr || !sr.stream->empty())
            return false;
    return run_->resident.empty();
}

std::string
ExecutionEngine::wait_graph_string() const
{
    const RunState& rs = *run_;
    std::string graph;
    for (const StreamRun& sr : rs.stream_runs) {
        if (sr.stream->ops_.empty())
            continue;
        const Stream::Op& front = sr.stream->ops_.front();
        if (front.kind != Stream::OpKind::kWaitEvent)
            continue;
        const Event* ev = front.wait;
        // Every stream still holding a record for this event (a
        // re-recorded event may have several).
        std::vector<int> recorders;
        for (const StreamRun& other : rs.stream_runs) {
            for (const Stream::Op& op : other.stream->ops_) {
                if (op.kind == Stream::OpKind::kRecordEvent &&
                    op.record == ev) {
                    recorders.push_back(other.stream->id());
                    break;
                }
            }
        }
        std::string why;
        if (!recorders.empty()) {
            why = recorders.size() == 1 ? "record queued on stream"
                                        : "records queued on streams";
            for (size_t r = 0; r < recorders.size(); ++r)
                why += (r == 0 ? " " : ", ") + std::to_string(recorders[r]);
            why += ", behind work that cannot start";
        } else if (ev->recorded()) {
            why = "its record was dropped before the engine reached it";
        } else {
            why = "never recorded";
        }
        graph += detail::format(
            "  stream %d: waiting on event \"%s\" (%s), %zu launch(es) "
            "gated behind it\n",
            sr.stream->id(), ev->name().c_str(), why.c_str(),
            sr.stream->depth());
    }
    return graph;
}

void
ExecutionEngine::report_deadlock()
{
    // Chip idle, streams blocked: every remaining front op is a wait
    // on an event that did not complete.  Report the wait graph.
    throw EngineDeadlockError(
        detail::format("deadlock detected at cycle %llu: no stream can "
                       "make progress\n",
                       static_cast<unsigned long long>(run_->now)) +
        wait_graph_string());
}

bool
ExecutionEngine::any_fault_hung() const
{
    if (!run_)
        return false;
    for (const auto& l : run_->resident)
        if (l->fault_hung)
            return true;
    return false;
}

std::string
ExecutionEngine::hang_dump(const std::string& reason) const
{
    const RunState& rs = *run_;
    size_t queued = 0;
    for (const StreamRun& sr : rs.stream_runs)
        queued += sr.stream->depth();
    std::string out = detail::format(
        "%s\n  cycle %llu: %zu resident kernel(s), %zu queued op(s), "
        "%zu busy SM(s)\n",
        reason.c_str(), static_cast<unsigned long long>(rs.now),
        rs.resident.size(), queued, rs.busy_sms.size());
    if (!rs.busy_sms.empty()) {
        out += "  busy SMs:";
        for (int id : rs.busy_sms)
            out += " " + std::to_string(id);
        out += "\n";
    }
    for (const auto& l : rs.resident) {
        const char* hold = l->fault_hung ? " [fault: hung]"
                           : l->fault_release > rs.now
                               ? " [fault: slowdown hold]"
                               : "";
        out += detail::format(
            "  resident: \"%s\" stream=%d grid=%d ctas %d/%d done%s\n",
            l->desc.name.c_str(), l->grid.stream_id, l->grid.grid_id,
            l->grid.ctas_done, l->desc.grid_ctas, hold);
    }
    out += wait_graph_string();
    return out;
}

ExecutionEngine::StepResult
ExecutionEngine::step(uint64_t bound)
{
    RunState& rs = *run_;
    uint64_t now = rs.now;
    bool ops = streams_dirty_ && promote_streams(now);
    if (callbacks_fired_) {
        // A host callback may have enqueued work — possibly onto a
        // stream created inside the callback.  Re-fetch the live
        // stream set, validate the new launches, and grow the SM
        // array before this tick dispatches anything; the new
        // streams are promoted next tick.
        callbacks_fired_ = false;
        streams_dirty_ = true;
        absorb_streams(stream_source_ ? stream_source_() : entry_streams_);
        validate_and_size();
    }

    bool dispatch_pending = false;
    for (const auto& l : rs.resident)
        if (l->grid.pending())
            dispatch_pending = true;

    // Select the SMs that tick this cycle: every SM while CTAs await
    // dispatch (any SM may accept one — and idle SMs' schedulers
    // record the same kEmpty stalls a lockstep run does), otherwise
    // the busy SMs whose cached next event is due; the others are
    // provably stalled this cycle and settle their stalls lazily
    // (SM::begin_tick, settle()).  Lockstep mode cycles every busy SM
    // and checks that those with a later next event stay quiet.
    // cycled_ stays in ascending SM-index order: the tick passes
    // below rely on it.
    bool launched = false;
    cycled_.clear();
    quiet_.clear();
    const bool lockstep = !opts_.idle_skip;
    if (dispatch_pending) {
        cycled_.reserve(rs.sms.size());
        for (auto& sm : rs.sms) {
            // A new CTA changes what the SM's skipped cycles would
            // have charged (an empty sub-core stalls kEmpty): settle
            // them first.
            sm->settle(now);
            const bool accepted = dispatch_to(sm.get());
            launched |= accepted;
            if (lockstep && !accepted && sm->busy_cached() &&
                sm->next_event_cached() > now)
                quiet_.push_back(sm.get());
            cycled_.push_back(sm.get());
        }
        // Sampled mode: shadow SMs accept after the detailed array
        // (same one-CTA-per-SM-per-cycle rasterizer pacing).
        for (ShadowSm& sh : rs.shadows)
            launched |= dispatch_shadow(sh, now);
    } else {
        for (int id : rs.busy_sms) {
            SM* sm = rs.sms[static_cast<size_t>(id)].get();
            if (sm->next_event_cached() <= now)
                cycled_.push_back(sm);
            else if (lockstep) {
                quiet_.push_back(sm);
                cycled_.push_back(sm);
            }
        }
    }

    // Sampled mode collects each CTA's measured latency for the
    // shadow estimators and retires due shadow CTAs.  Replay recording
    // also wants completions: each one becomes an occupancy-timeline
    // sample in the launch's profile.  Sampled and replay modes are
    // mutually exclusive (ctor-enforced), so the two consumers never
    // contend for the buffer.
    bool recording = false;
    for (const auto& l : rs.resident)
        if (!l->record_key.empty())
            recording = true;
    const bool sampled = !rs.shadows.empty();
    completions_.clear();

    // Drain every MIO head through the shared memory hierarchy first,
    // then compute, both in SM-index order: memory acceptance/refusal
    // and retry cycles land in the order the BENCH_ baselines pin.
    for (SM* sm : cycled_)
        sm->begin_tick(now);
    for (SM* sm : cycled_)
        sm->tick_compute(now,
                         (sampled || recording) ? &completions_ : nullptr);
    // Lockstep is the reference the skipping path is proven against:
    // an SM whose cached next event lies in the future must be a no-op
    // now, or the skipping path would have dropped a real tick.
    for (SM* sm : quiet_)
        if (sm->progressed())
            panic("%s", hang_dump(detail::format(
                            "SM %d progressed at cycle %llu before its "
                            "cached next event %llu (stale next-event "
                            "cache)",
                            sm->id(), static_cast<unsigned long long>(now),
                            static_cast<unsigned long long>(
                                sm->next_event_cached())))
                            .c_str());
    if (sampled)
        shadow_commit(now);
    else if (recording)
        record_occupancy(now);

    // The busy list for the next tick, ascending.  A dispatch tick
    // cycled every SM; otherwise only cycled SMs can have gone idle.
    if (dispatch_pending) {
        rs.busy_sms.clear();
        for (SM* sm : cycled_)
            if (sm->busy_cached())
                rs.busy_sms.push_back(sm->id());
    } else {
        std::erase_if(rs.busy_sms, [&](int id) {
            return !rs.sms[static_cast<size_t>(id)]->busy_cached();
        });
    }
    ++rs.stats.ticks;

    // Replayed launches complete by the clock, not by CTA drain: mark
    // each one done once its recorded duration elapses.  Unconditional
    // on replay_mode so a snapshot captured mid-replay resumes
    // correctly on a replay-off engine.
    for (const auto& l : rs.resident) {
        if (l->replay_profile && !l->grid.done() && now >= l->replay_done) {
            l->grid.ctas_done = l->desc.grid_ctas;
            l->grid.finish_cycle = l->replay_done;
        }
    }

    // Retire launches whose last CTA drained this tick: finalize in
    // residency order, then one forget pass over the SMs for all of
    // them together (the per-launch pass inside the erase loop was
    // O(SMs x resident^2) on grid-heavy ticks).
    bool retired = false;
    retiring_.clear();
    for (const auto& l : rs.resident) {
        if (!l->grid.done())
            continue;
        // Fault holds: a hung launch never signals completion (its
        // stream stays blocked until kill_stream() or a watchdog), a
        // slowed one is held until its stretched duration elapses.
        if (l->fault_hung)
            continue;
        if (l->fault_slowdown > 1.0 && l->fault_release == 0) {
            const uint64_t dur =
                l->grid.finish_cycle - l->grid.start_cycle + 1;
            const auto held = static_cast<uint64_t>(std::ceil(
                l->fault_slowdown * static_cast<double>(dur)));
            l->fault_release =
                l->grid.start_cycle + std::max(held, dur) - 1;
        }
        if (l->fault_release > now)
            continue;
        if (l->fault_release > l->grid.finish_cycle) {
            fault_plan_->add_slowdown_cycles(l->fault_release -
                                             l->grid.finish_cycle);
            l->grid.finish_cycle = l->fault_release;
        }
        rs.last_finish = std::max(rs.last_finish, l->grid.finish_cycle);
        // finalize reads the grid's stall counters: charge this
        // cycle to the SMs the tick skipped first.
        if (!retired)
            settle(now + 1);
        rs.stats.kernels.push_back(finalize(*l));
        finish_replay(*l, rs.stats.kernels.back());
        for (StreamRun& sr : rs.stream_runs) {
            if (sr.live == l.get()) {
                sr.live = nullptr;
                streams_dirty_ = true;
            }
        }
        retiring_.push_back(&l->grid);
        l->retired = true;
        retired = true;
    }
    if (retired) {
        for (auto& sm : rs.sms)
            sm->forget_grids(retiring_);
        std::erase_if(rs.resident,
                      [](const std::unique_ptr<Launch>& l) {
                          return l->retired;
                      });
        retiring_.clear();
    }
    if (drained())
        return StepResult::kDrained;

    // Next tick: the successor of a retired launch (or of a processed
    // record/wait/callback) becomes dispatchable next cycle; otherwise
    // jump to the next event when the whole chip is provably stalled.
    // Only busy SMs are consulted, and each answers from the O(1)
    // next-event cache its compute phase filled in.
    uint64_t next = now + 1;
    if (!launched && !retired && !ops) {
        uint64_t e = UINT64_MAX;
        for (int id : rs.busy_sms)
            e = std::min(e, rs.sms[static_cast<size_t>(id)]
                                ->next_event_cached());
        // Shadow CTAs in flight are scheduled events too: their
        // predicted completions bound the idle-skip jump (and keep a
        // shadow-only chip from tripping the dead-chip panic).
        // (Unpriced CTAs contribute nothing: the detailed CTA that
        // will price them is itself a scheduled event.)
        for (const ShadowSm& sh : rs.shadows)
            for (const ShadowCta& c : sh.resident)
                if (c.predicted_done != 0)
                    e = std::min(e, c.predicted_done);
        // Replayed launches never touch an SM: their scheduled
        // completion is the only event that will unblock them (and a
        // replay-only chip would otherwise trip the dead-chip panic).
        for (const auto& l : rs.resident)
            if (l->replay_profile && !l->grid.done())
                e = std::min(e, l->replay_done);
        // A slowdown-held launch retires at fault_release: that is a
        // scheduled event (a hung launch schedules nothing — only
        // host action or a watchdog ends it).
        for (const auto& l : rs.resident)
            if (l->grid.done() && !l->fault_hung && l->fault_release > now)
                e = std::min(e, l->fault_release);
        if (e == UINT64_MAX) {
            if (!rs.resident.empty()) {
                bool all_hung = true;
                for (const auto& l : rs.resident)
                    all_hung &= l->grid.done() && l->fault_hung;
                if (all_hung) {
                    // Every resident kernel is an injected hang: the
                    // chip is quiescent and only host action (a
                    // kill_stream, a watchdog) can end the run.
                    // Blocked, not a bug.
                    return StepResult::kBlocked;
                }
                // An enabled fault plan can starve a pending grid for
                // good: every SM is disabled or degraded below the
                // kernel's CTA footprint.  That is scenario input, not
                // a modelling bug — throw a typed error the batch
                // driver can contain to one error row.
                if (fault_plan_ && fault_plan_->enabled()) {
                    for (const auto& l : rs.resident)
                        if (l->grid.pending())
                            throw SimError(hang_dump(detail::format(
                                "faults: kernel \"%s\" is undispatchable "
                                "— no enabled SM can accept its CTAs "
                                "under the fault plan's disabled/degraded "
                                "SMs",
                                l->desc.name.c_str())));
                }
                // Work is on the chip but no SM can ever advance: an
                // internal modelling bug, not a user-constructed
                // dependency cycle.
                size_t unfinished = rs.resident.size();
                for (const StreamRun& sr : rs.stream_runs)
                    unfinished += sr.stream->depth();
                panic("engine stalled at cycle %llu with %zu kernels "
                      "unfinished (first: %s)",
                      static_cast<unsigned long long>(rs.now), unfinished,
                      rs.resident[0]->desc.name.c_str());
            }
            // Only blocked waits remain; the clock stays put so the
            // host may record the missing event and resume.
            return StepResult::kBlocked;
        }
        // Never leap past a bounded advance's target: the host has a
        // stimulus (a request arrival, a deadline) to deliver at
        // bound + 1, and a replay-heavy chip's next scheduled event can
        // be an entire kernel duration beyond it.
        if (bound != UINT64_MAX && e > bound + 1)
            e = std::max(bound + 1, now + 1);
        // Every SM's cached next event lies past the cycle it last
        // ticked, and this tick cycled the due ones; an event at or
        // before now is a stale cache, and jumping to it would run the
        // clock backwards.
        if (e <= now) {
            std::string stale;
            for (int id : rs.busy_sms)
                if (rs.sms[static_cast<size_t>(id)]->next_event_cached() <=
                    now)
                    stale += " " + std::to_string(id);
            panic("%s", hang_dump(detail::format(
                            "engine next event %llu is not after cycle "
                            "%llu (stale next-event cache on SM(s)%s)",
                            static_cast<unsigned long long>(e),
                            static_cast<unsigned long long>(now),
                            stale.c_str()))
                            .c_str());
        }
        // The skipped SMs charge the gap's stalls when they next tick
        // or settle.  Lockstep (idle_skip off): tick every cycle; e was
        // still computed so the checks above catch real stalls.
        if (opts_.idle_skip) {
            rs.stats.skipped_cycles += e - (now + 1);
            next = e;
        }
    }
    rs.now = next;
    if (rs.now > opts_.max_cycles) {
        // A user-settable limit, not an internal invariant: throw so
        // embedders (the scenario batch runner) can report one runaway
        // simulation without aborting the process.
        throw SimHangError(hang_dump(detail::format(
            "engine exceeded max_cycles=%llu",
            static_cast<unsigned long long>(opts_.max_cycles))));
    }
    // Wall-clock watchdog (containment only): probed once per 4096
    // ticks so a healthy run pays nothing measurable.
    if (opts_.wall_budget_ms > 0 && (rs.stats.ticks & 0xFFFu) == 0) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - rs.wall_start)
                .count();
        if (static_cast<uint64_t>(elapsed) > opts_.wall_budget_ms)
            throw SimHangError(hang_dump(detail::format(
                "engine exceeded wall budget of %llu ms (%llu ms "
                "elapsed)",
                static_cast<unsigned long long>(opts_.wall_budget_ms),
                static_cast<unsigned long long>(elapsed))));
    }
    return StepResult::kRunning;
}

void
ExecutionEngine::fill_totals(EngineStats* out) const
{
    out->cycles = out->kernels.empty() ? 0 : run_->last_finish + 1;
    out->instructions = 0;
    out->hmma_instructions = 0;
    for (const LaunchStats& k : out->kernels) {
        out->instructions += k.instructions;
        out->hmma_instructions += k.hmma_instructions;
    }
    out->ipc = out->cycles > 0 ? static_cast<double>(out->instructions) /
                                     static_cast<double>(out->cycles)
                               : 0.0;
    out->mem = mem_->stats();
    // Replayed launches' traffic never reached the memory system or
    // any SM: fold their recorded deltas into the totals.
    out->mem.add(run_->replay_mem);
    out->stalls = StallCounts{};
    for (const auto& sm : run_->sms)
        sm->add_stalls(&out->stalls);
    out->stalls.add(run_->replay_stalls);
    out->current_cycle = run_->now;
}

EngineStats
ExecutionEngine::snapshot() const
{
    EngineStats out = run_->stats;
    fill_totals(&out);
    return out;
}

EngineStats
ExecutionEngine::finish()
{
    EngineStats out = std::move(run_->stats);
    fill_totals(&out);
    run_.reset();
    return out;
}

void
ExecutionEngine::settle(uint64_t cycle)
{
    for (int id : run_->busy_sms)
        run_->sms[static_cast<size_t>(id)]->settle(cycle);
}

template <typename DoneFn>
EngineStats
ExecutionEngine::advance(DoneFn done, bool pause_on_block, uint64_t bound)
{
    // Every exit settles the skipped SMs up to the clock: the stats it
    // returns (fill_totals) and a snapshot taken before the next
    // advance read their stall counters.
    while (!done()) {
        const StepResult r = step(bound);
        if (r != StepResult::kRunning)
            settle(run_->now);
        switch (r) {
          case StepResult::kDrained:
            return finish();
          case StepResult::kBlocked:
            if (!pause_on_block) {
                // A run-to-completion entry point cannot hand control
                // back to the host: an injected hang is terminal here
                // (a resumable run — run_until — pauses instead, so
                // the serving loop can kill the batch and retry).
                if (any_fault_hung())
                    throw SimHangError(hang_dump(detail::format(
                        "injected kernel hang wedged the run at cycle "
                        "%llu",
                        static_cast<unsigned long long>(run_->now))));
                report_deadlock();
            }
            return snapshot();
          case StepResult::kRunning:
            break;
        }
    }
    settle(run_->now);
    return snapshot();
}

EngineStats
ExecutionEngine::run(const std::vector<Stream*>& streams)
{
    if (!prepare(streams))
        return EngineStats{};
    return advance([] { return false; }, /*pause_on_block=*/false);
}

EngineStats
ExecutionEngine::run_until(const std::vector<Stream*>& streams,
                           uint64_t cycle)
{
    if (!prepare(streams))
        return EngineStats{};
    // A bounded advance pauses on host-resolvable waits instead of
    // throwing: the caller may record the missing event and resume.
    return advance([&] { return run_->now > cycle; },
                   /*pause_on_block=*/true, /*bound=*/cycle);
}

void
ExecutionEngine::advance_idle_to(uint64_t cycle)
{
    if (!run_)
        throw std::runtime_error(
            "advance_idle_to: no active run (begin one with run_until())");
    RunState& rs = *run_;
    if (cycle <= rs.now)
        return;
    // Resident launches forbid the jump — except hung ones: an
    // injected hang is quiescent (all CTAs drained) and will never
    // schedule an event, so skipping idle time past it is exact.  A
    // slowdown hold is NOT exempt: its release is a scheduled event
    // the jump would leap over.
    for (const auto& l : rs.resident)
        if (!(l->grid.done() && l->fault_hung))
            throw std::runtime_error(detail::format(
                "advance_idle_to: chip is not idle at cycle %llu (%zu "
                "kernel(s) resident)",
                static_cast<unsigned long long>(rs.now),
                rs.resident.size()));
    for (const StreamRun& sr : rs.stream_runs) {
        if (sr.stream->ops_.empty())
            continue;
        // A stream blocked behind its own hung launch cannot run
        // anything regardless of what is queued on it.
        if (sr.live != nullptr)
            continue;
        const Stream::Op& front = sr.stream->ops_.front();
        // Only waits on not-yet-complete events may remain: anything
        // else is runnable work the jump would incorrectly delay.
        if (front.kind != Stream::OpKind::kWaitEvent ||
            front.wait->complete())
            throw std::runtime_error(detail::format(
                "advance_idle_to: stream %d has runnable work queued at "
                "cycle %llu; run it (run_until) before jumping the clock",
                sr.stream->id(),
                static_cast<unsigned long long>(rs.now)));
    }
    if (cycle > opts_.max_cycles)
        throw std::runtime_error(detail::format(
            "advance_idle_to: target cycle %llu exceeds max_cycles=%llu",
            static_cast<unsigned long long>(cycle),
            static_cast<unsigned long long>(opts_.max_cycles)));
    rs.stats.skipped_cycles += cycle - rs.now;
    rs.now = cycle;
}

void
ExecutionEngine::kill_stream(Stream* stream)
{
    stream->ops_.clear();
    if (!run_)
        return;
    RunState& rs = *run_;
    for (StreamRun& sr : rs.stream_runs) {
        if (sr.stream != stream || sr.live == nullptr)
            continue;
        Launch* l = sr.live;
        if (!l->grid.done())
            throw std::runtime_error(detail::format(
                "kill_stream: launch \"%s\" on stream %d still has CTAs "
                "executing at cycle %llu (%d/%d done); killing it would "
                "leave SM state dangling",
                l->desc.name.c_str(), stream->id(),
                static_cast<unsigned long long>(rs.now), l->grid.ctas_done,
                l->desc.grid_ctas));
        // Evict without a statistics entry: the kernel never
        // completed, so its work is lost — exactly the cost a real
        // fleet pays for killing a hung batch.
        for (auto& sm : rs.sms)
            sm->forget_grid(&l->grid);
        sr.live = nullptr;
        std::erase_if(rs.resident, [l](const std::unique_ptr<Launch>& p) {
            return p.get() == l;
        });
    }
}

bool
ExecutionEngine::stream_quiescent(const Stream* stream) const
{
    if (!run_)
        return true;
    for (const StreamRun& sr : run_->stream_runs)
        if (sr.stream == stream)
            return sr.live == nullptr || sr.live->grid.done();
    return true;
}

EngineStats
ExecutionEngine::synchronize(const std::vector<Stream*>& streams,
                             const Stream& stream)
{
    // Synchronizing an idle stream is a no-op (the cudaStreamSynchronize
    // pattern): return without beginning a run — prepare() would create
    // RunState and reset memory timing for nothing.
    bool idle = stream.ops_.empty();
    if (idle && run_) {
        for (const StreamRun& sr : run_->stream_runs)
            if (sr.stream == &stream)
                idle = sr.live == nullptr;
    }
    if (idle)
        return active() ? snapshot() : EngineStats{};
    if (!prepare(streams))
        return EngineStats{};
    return advance(
        [&] {
            for (const StreamRun& sr : run_->stream_runs)
                if (sr.stream == &stream)
                    return sr.live == nullptr && sr.stream->empty();
            return true;  // Unknown stream: trivially drained.
        },
        /*pause_on_block=*/false);
}

// ---- Snapshot serialization -------------------------------------

// Scalar stat codecs (stalls / mem / macro-latency) live in
// sim/stats_codec.h, shared with the replay-profile archive so both
// formats walk the same field order.

namespace {

void
save_launch_stats(SnapshotWriter& w, const LaunchStats& k)
{
    w.str(k.kernel);
    w.i32(k.stream);
    w.u64(k.start_cycle);
    w.u64(k.finish_cycle);
    w.u64(k.cycles);
    w.u64(k.instructions);
    w.u64(k.hmma_instructions);
    w.f64(k.ipc);
    save_mem_stats(w, k.mem);
    save_macro_latency(w, k.macro_latency);
    save_stalls(w, k.stalls);
}

LaunchStats
load_launch_stats(SnapshotReader& r)
{
    LaunchStats k;
    k.kernel = r.str();
    k.stream = r.i32();
    k.start_cycle = r.u64();
    k.finish_cycle = r.u64();
    k.cycles = r.u64();
    k.instructions = r.u64();
    k.hmma_instructions = r.u64();
    k.ipc = r.f64();
    load_mem_stats(r, &k.mem);
    load_macro_latency(r, &k.macro_latency);
    load_stalls(r, &k.stalls);
    return k;
}

void
save_run_stats(SnapshotWriter& w, const RunStats& s)
{
    w.u64(s.instructions);
    w.u64(s.hmma_instructions);
    save_macro_latency(w, s.macro_latency);
    save_stalls(w, s.stalls);
}

void
load_run_stats(SnapshotReader& r, RunStats* s)
{
    s->instructions = r.u64();
    s->hmma_instructions = r.u64();
    load_macro_latency(r, &s->macro_latency);
    load_stalls(r, &s->stalls);
}

uint32_t
engine_grid_index(const std::vector<GridRun*>& grids, const GridRun* g)
{
    for (size_t i = 0; i < grids.size(); ++i)
        if (grids[i] == g)
            return static_cast<uint32_t>(i);
    throw SnapshotError("shadow CTA references a grid not in the "
                        "resident table");
}

}  // namespace

void
ExecutionEngine::save_state(SnapshotWriter& w,
                            std::vector<KernelDesc>* kernels) const
{
    if (!run_)
        throw SnapshotError("no active run to snapshot");
    const RunState& rs = *run_;
    w.tag(kTagEngine);
    w.u64(rs.now);
    w.u64(rs.last_finish);
    w.i32(rs.next_grid_id);
    w.u64(rs.stats.ticks);
    w.u64(rs.stats.skipped_cycles);
    w.u64(rs.stats.kernels.size());
    for (const LaunchStats& k : rs.stats.kernels)
        save_launch_stats(w, k);

    // Resident launches in dispatch-priority order.  Descriptors go
    // to the side table — their trace std::function is copyable but
    // not byte-serializable — and everything below references grids
    // by index into this residency order.
    w.u64(rs.resident.size());
    std::vector<GridRun*> grids;
    grids.reserve(rs.resident.size());
    for (const auto& l : rs.resident) {
        w.u32(static_cast<uint32_t>(kernels->size()));
        kernels->push_back(l->desc);
        const GridRun& g = l->grid;
        w.i32(g.grid_id);
        w.i32(g.stream_id);
        w.i32(g.next_cta);
        w.i32(g.ctas_done);
        w.i32(g.shadow_ctas);
        w.u64(g.start_cycle);
        w.u64(g.finish_cycle);
        save_run_stats(w, g.stats);
        save_mem_stats(w, l->mem_base);
        // Replay state: a launch may be mid-replay (profile + done
        // cycle), recording (key + occupancy scratch), or verifying.
        w.b(l->replay_profile != nullptr);
        if (l->replay_profile) {
            save_profile(w, *l->replay_profile);
            w.u64(l->replay_done);
        }
        w.str(l->record_key);
        w.u64(l->record_seq);
        w.b(l->verify_expect != nullptr);
        if (l->verify_expect)
            save_profile(w, *l->verify_expect);
        w.u64(l->occupancy.size());
        for (const OccupancyPhase& ph : l->occupancy) {
            w.u64(ph.offset);
            w.u32(ph.ctas_left);
        }
        grids.push_back(&l->grid);
    }

    w.u64(rs.stream_runs.size());
    for (const StreamRun& sr : rs.stream_runs) {
        w.i32(sr.stream->id());
        int live = -1;
        for (size_t i = 0; i < rs.resident.size(); ++i)
            if (rs.resident[i].get() == sr.live)
                live = static_cast<int>(i);
        w.i32(live);
    }

    w.u64(rs.sms.size());
    for (const auto& sm : rs.sms)
        sm->save_state(w, grids);
    // The settled cycle is not serialized: load_state re-derives it
    // from the clock, which holds only for a settled run.
    for (int id : rs.busy_sms)
        TCSIM_CHECK(rs.sms[static_cast<size_t>(id)]->settled_to() == rs.now);

    w.u64(rs.busy_sms.size());
    for (int id : rs.busy_sms)
        w.i32(id);

    // Sampled mode: shadow occupancy + the per-grid estimators.
    w.tag(kTagShadow);
    w.u64(rs.shadows.size());
    for (const ShadowSm& sh : rs.shadows) {
        w.i32(sh.used_ctas);
        w.i32(sh.used_warps);
        w.u64(sh.used_smem);
        w.u64(sh.used_regs);
        w.u64(sh.resident.size());
        for (const ShadowCta& c : sh.resident) {
            w.u32(engine_grid_index(grids, c.grid));
            w.u64(c.launched);
            w.u64(c.predicted_done);
        }
    }
    w.u64(rs.estimators.size());
    for (const auto& [gid, est] : rs.estimators) {
        w.i32(gid);
        w.u64(est.mean_sum);
        w.u64(est.mean_count);
        w.u64(est.win_start);
        w.u64(est.win_sum);
        w.u64(est.win_count);
    }

    // Replay run-state: warmth trackers, verify sampling counter, the
    // hit/miss/verified tallies, and the accumulated deltas of already
    // retired replayed launches (fill_totals folds them into totals).
    w.tag(kTagReplay);
    w.str(rs.last_finished_key);
    w.b(rs.any_finished);
    w.u64(rs.replay_attempts);
    w.u64(rs.replay_seq.size());
    for (const auto& [key, seq] : rs.replay_seq) {
        w.str(key);
        w.u64(seq);
    }
    w.u64(rs.stats.replay_hits);
    w.u64(rs.stats.replay_misses);
    w.u64(rs.stats.replay_verified);
    save_mem_stats(w, rs.replay_mem);
    save_stalls(w, rs.replay_stalls);
}

void
ExecutionEngine::load_state(SnapshotReader& r,
                            const std::vector<KernelDesc>& kernels,
                            const std::vector<Stream*>& streams)
{
    r.tag(kTagEngine);
    run_ = std::make_unique<RunState>();
    run_->wall_start = std::chrono::steady_clock::now();
    RunState& rs = *run_;
    cycled_.clear();
    retiring_.clear();
    completions_.clear();
    callbacks_fired_ = false;

    rs.now = r.u64();
    rs.last_finish = r.u64();
    rs.next_grid_id = r.i32();
    rs.stats.ticks = r.u64();
    rs.stats.skipped_cycles = r.u64();
    uint64_t nkernels = r.u64();
    rs.stats.kernels.reserve(nkernels);
    for (uint64_t i = 0; i < nkernels; ++i)
        rs.stats.kernels.push_back(load_launch_stats(r));

    uint64_t nres = r.u64();
    std::vector<GridRun*> grids;
    grids.reserve(nres);
    for (uint64_t i = 0; i < nres; ++i) {
        uint32_t ki = r.u32();
        if (ki >= kernels.size())
            throw SnapshotError("kernel table index out of range");
        auto l = std::make_unique<Launch>();
        l->desc = kernels[ki];
        l->grid.kernel = &l->desc;
        l->grid.grid_id = r.i32();
        l->grid.stream_id = r.i32();
        l->grid.next_cta = r.i32();
        l->grid.ctas_done = r.i32();
        l->grid.shadow_ctas = r.i32();
        l->grid.start_cycle = r.u64();
        l->grid.finish_cycle = r.u64();
        load_run_stats(r, &l->grid.stats);
        load_mem_stats(r, &l->mem_base);
        if (r.b()) {
            l->replay_profile = std::make_unique<KernelTimingProfile>(
                load_profile(r));
            l->replay_done = r.u64();
        }
        l->record_key = r.str();
        l->record_seq = r.u64();
        if (r.b())
            l->verify_expect = std::make_unique<KernelTimingProfile>(
                load_profile(r));
        uint64_t nocc = r.u64();
        l->occupancy.reserve(nocc);
        for (uint64_t o = 0; o < nocc; ++o) {
            OccupancyPhase ph;
            ph.offset = r.u64();
            ph.ctas_left = r.u32();
            l->occupancy.push_back(ph);
        }
        rs.resident.push_back(std::move(l));
    }
    for (const auto& l : rs.resident)
        grids.push_back(&l->grid);

    uint64_t nsr = r.u64();
    for (uint64_t i = 0; i < nsr; ++i) {
        int id = r.i32();
        int live = r.i32();
        StreamRun sr;
        for (Stream* s : streams)
            if (s->id() == id)
                sr.stream = s;
        if (sr.stream == nullptr)
            throw SnapshotError("archive references unknown stream id " +
                                std::to_string(id));
        if (live >= 0) {
            if (static_cast<uint64_t>(live) >= nres)
                throw SnapshotError("live launch index out of range");
            sr.live = rs.resident[static_cast<size_t>(live)].get();
        }
        rs.stream_runs.push_back(sr);
    }

    uint64_t nsms = r.u64();
    for (uint64_t i = 0; i < nsms; ++i) {
        auto sm = std::make_unique<SM>(static_cast<int>(i), cfg_, mem_,
                                       executors_, opts_.scheduler);
        if (fault_plan_)
            if (int cap = fault_plan_->warp_slot_cap(static_cast<int>(i)))
                sm->set_warp_cap(cap);
        rs.sms.push_back(std::move(sm));
    }
    for (auto& sm : rs.sms) {
        sm->load_state(r, grids);
        // save_state runs between advances, which settle every busy
        // SM up to the clock.
        sm->mark_settled(rs.now);
    }

    uint64_t nbusy = r.u64();
    for (uint64_t i = 0; i < nbusy; ++i) {
        int id = r.i32();
        if (id < 0 || static_cast<uint64_t>(id) >= nsms)
            throw SnapshotError("busy SM index out of range");
        rs.busy_sms.push_back(id);
    }

    r.tag(kTagShadow);
    rs.shadows.resize(r.u64());
    for (ShadowSm& sh : rs.shadows) {
        sh.used_ctas = r.i32();
        sh.used_warps = r.i32();
        sh.used_smem = r.u64();
        sh.used_regs = r.u64();
        uint64_t n = r.u64();
        sh.resident.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
            uint32_t gi = r.u32();
            if (gi >= grids.size())
                throw SnapshotError("shadow grid index out of range");
            uint64_t launched = r.u64();
            uint64_t done = r.u64();
            sh.resident.push_back(ShadowCta{grids[gi], launched, done});
        }
    }
    uint64_t nest = r.u64();
    for (uint64_t i = 0; i < nest; ++i) {
        int gid = r.i32();
        CtaRateEstimator est;
        est.mean_sum = r.u64();
        est.mean_count = r.u64();
        est.win_start = r.u64();
        est.win_sum = r.u64();
        est.win_count = r.u64();
        rs.estimators.emplace(gid, est);
    }

    r.tag(kTagReplay);
    rs.last_finished_key = r.str();
    rs.any_finished = r.b();
    rs.replay_attempts = r.u64();
    uint64_t nseq = r.u64();
    for (uint64_t i = 0; i < nseq; ++i) {
        std::string key = r.str();
        rs.replay_seq[std::move(key)] = r.u64();
    }
    rs.stats.replay_hits = r.u64();
    rs.stats.replay_misses = r.u64();
    rs.stats.replay_verified = r.u64();
    load_mem_stats(r, &rs.replay_mem);
    load_stalls(r, &rs.replay_stalls);
}

EngineStats
ExecutionEngine::synchronize(const std::vector<Stream*>& streams,
                             const Event& event)
{
    if (event.complete())
        return active() ? snapshot() : EngineStats{};
    if (!prepare(streams)) {
        throw EngineDeadlockError(detail::format(
            "synchronize: event \"%s\" has not completed and no work is "
            "queued that could complete it",
            event.name().c_str()));
    }
    EngineStats out = advance([&] { return event.complete(); },
                              /*pause_on_block=*/false);
    if (!event.complete()) {
        throw EngineDeadlockError(detail::format(
            "synchronize: every stream drained at cycle %llu but event "
            "\"%s\" never completed (%s)",
            static_cast<unsigned long long>(out.current_cycle),
            event.name().c_str(),
            event.recorded() ? "its record was dropped" : "never recorded"));
    }
    return out;
}

}  // namespace tcsim
