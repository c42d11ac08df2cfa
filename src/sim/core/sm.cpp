#include "sim/core/sm.h"

#include <algorithm>

#include "common/logging.h"
#include "common/sim_error.h"
#include "sim/mem/coalescer.h"
#include "sim/snapshot_io.h"

namespace tcsim {

uint64_t
ExecutorCache::key(Arch arch, const HmmaInfo& info)
{
    return (static_cast<uint64_t>(arch) << 40) |
           (static_cast<uint64_t>(info.mode) << 36) |
           (static_cast<uint64_t>(info.a_layout) << 34) |
           (static_cast<uint64_t>(info.b_layout) << 32) |
           (static_cast<uint64_t>(info.shape.m) << 16) |
           (static_cast<uint64_t>(info.shape.n) << 8) |
           static_cast<uint64_t>(info.shape.k);
}

HmmaExecutor&
ExecutorCache::get(Arch arch, const HmmaInfo& info)
{
    std::unique_ptr<HmmaExecutor>& e = cache_[key(arch, info)];
    if (!e)
        e = std::make_unique<HmmaExecutor>(arch, info.mode, info.shape,
                                           info.a_layout, info.b_layout);
    return *e;
}

SM::SM(int id, const GpuConfig& cfg, MemorySystem* mem,
       ExecutorCache* executors, SchedulerPolicy policy)
    : id_(id), cfg_(cfg), mem_(mem), executors_(executors),
      warp_cap_(cfg.max_warps_per_sm)
{
    subcores_.reserve(static_cast<size_t>(cfg.subcores_per_sm));
    for (int i = 0; i < cfg.subcores_per_sm; ++i)
        subcores_.push_back(std::make_unique<SubCore>(this, i, policy));
    cta_slots_.resize(static_cast<size_t>(cfg.max_ctas_per_sm));
    cta_warps_.resize(static_cast<size_t>(cfg.max_ctas_per_sm));
}

/** Per-CTA register demand of @p k (32-bit registers). */
static uint64_t
cta_registers(const KernelDesc& k)
{
    return static_cast<uint64_t>(k.warps_per_cta) * kWarpSize *
           static_cast<uint64_t>(k.regs_per_thread);
}

bool
SM::fits(const GpuConfig& cfg, const KernelDesc& k)
{
    TCSIM_CHECK(k.warps_per_cta > 0);
    return k.warps_per_cta <= cfg.max_warps_per_sm &&
           k.shared_mem_bytes <= cfg.shared_mem_per_sm &&
           cta_registers(k) <= cfg.registers_per_sm;
}

void
SM::check_fits(const GpuConfig& cfg, const KernelDesc& k)
{
    if (!fits(cfg, k)) {
        throw SimError(detail::format(
            "kernel %s exceeds SM resources (warps=%d smem=%u regs=%d)",
            k.name.c_str(), k.warps_per_cta, k.shared_mem_bytes,
            k.regs_per_thread));
    }
}

namespace {

/** Throw SimError if an instruction of @p prog (a warp program of
 *  @p k) names a register range the scoreboard cannot track (one
 *  running past r255): kernel input, not an internal invariant. */
void
check_program(const KernelDesc& k, const WarpProgram& prog)
{
    for (size_t pc = 0; pc < prog.size(); ++pc) {
        if (!Scoreboard::operands_in_range(prog[pc]))
            throw SimError(detail::format(
                "kernel %s: instruction %zu (%s) names registers past "
                "r%d",
                k.name.c_str(), pc, prog[pc].disasm().c_str(),
                Scoreboard::kNumRegs - 1));
    }
}

}  // namespace

bool
SM::can_accept(const KernelDesc& k) const
{
    return used_ctas_ < cfg_.max_ctas_per_sm &&
           used_warps_ + k.warps_per_cta <= warp_cap_ &&
           used_smem_ + k.shared_mem_bytes <= cfg_.shared_mem_per_sm &&
           used_regs_ + cta_registers(k) <= cfg_.registers_per_sm;
}

void
SM::launch_cta(GridRun* grid, int cta_id, uint64_t now)
{
    const KernelDesc& k = *grid->kernel;
    size_t slot = 0;
    while (slot < cta_slots_.size() && cta_slots_[slot].valid)
        ++slot;
    TCSIM_CHECK(slot < cta_slots_.size());

    CtaSlot& cta = cta_slots_[slot];
    cta.valid = true;
    cta.grid = grid;
    cta.cta_id = cta_id;
    cta.live_warps = k.warps_per_cta;
    cta.barrier_arrived = 0;
    cta.start_cycle = now;
    cta.shared = k.shared_mem_bytes
                     ? std::make_unique<SharedMemoryStorage>(
                           k.shared_mem_bytes)
                     : nullptr;
    cta_warps_[slot].clear();

    ++used_ctas_;
    used_warps_ += k.warps_per_cta;
    used_smem_ += k.shared_mem_bytes;
    used_regs_ += cta_registers(k);

    for (int wi = 0; wi < k.warps_per_cta; ++wi) {
        auto w = std::make_unique<Warp>();
        w->prog = k.trace(cta_id, wi);
        TCSIM_CHECK(!w->prog.empty());
        TCSIM_CHECK(w->prog.back().op == Opcode::kExit);
        check_program(k, w->prog);
        if (k.functional)
            w->regs = std::make_unique<WarpRegState>(k.regs_per_thread);
        w->grid = grid;
        w->cta_slot = static_cast<int>(slot);
        w->warp_in_cta = wi;
        int sc = wi % cfg_.subcores_per_sm;
        int warp_slot = subcores_[static_cast<size_t>(sc)]->add_warp(
            std::move(w));
        cta_warps_[slot].push_back({sc, warp_slot});
    }
}

void
SM::begin_tick(uint64_t now)
{
    settle(now);
    settled_to_ = now + 1;
    now_ = now;
    progress_ = false;
    process_mio();
}

void
SM::tick_compute(uint64_t now, std::vector<CtaCompletion>* completions)
{
    completions_ = completions;
    for (auto& sc : subcores_) {
        if (sc->do_writebacks(now))
            progress_ = true;
        if (sc->try_issue(now))
            progress_ = true;
    }
    completions_ = nullptr;
    // Tick-end caches: the engine's busy-list rebuild and stalled-chip
    // event scan read one value per SM instead of re-walking SM
    // internals.
    busy_cache_ = busy();
    next_event_cache_ = next_event(now);
}

bool
SM::busy() const
{
    for (const auto& sc : subcores_)
        if (sc->busy())
            return true;
    return !mio_shared_.empty() || !mio_global_.empty();
}

uint64_t
SM::next_event(uint64_t now) const
{
    if (!busy())
        return UINT64_MAX;
    if (progress_)
        return now + 1;
    uint64_t e = UINT64_MAX;
    if (!mio_shared_.empty())
        e = std::min(e, std::max(mio_shared_free_, now + 1));
    if (!mio_global_.empty()) {
        // A head blocked by memory back-pressure cannot progress
        // before its retry cycle; jumping straight there is exact
        // because queue slots free only at already-scheduled times.
        uint64_t t = std::max(mio_global_free_, mio_global_retry_);
        e = std::min(e, std::max(t, now + 1));
    }
    for (const auto& sc : subcores_)
        e = std::min(e, sc->next_event(now));
    return e;
}

void
SM::account_skipped(uint64_t cycles)
{
    for (auto& sc : subcores_)
        sc->account_skipped(cycles);
}

uint64_t
SM::issued() const
{
    uint64_t total = 0;
    for (const auto& sc : subcores_)
        total += sc->issued();
    return total;
}

StallReason
SM::mio_push(int subcore, int warp_slot, const Instruction* inst, int iter)
{
    auto& queue = inst->is_shared_space() ? mio_shared_ : mio_global_;
    if (static_cast<int>(queue.size()) >= cfg_.ldst_queue_depth) {
        // A full global queue caused by a refused head transaction
        // surfaces the memory system's reason, so the warp's stall is
        // attributed to the level that is actually back-pressuring.
        if (!inst->is_shared_space() &&
            mio_block_reason_ != StallReason::kNone)
            return mio_block_reason_;
        return StallReason::kMioFull;
    }
    MioEntry& e = queue.emplace_back();
    e.subcore = subcore;
    e.warp_slot = warp_slot;
    e.inst = inst;
    e.iter = iter;
    return StallReason::kNone;
}

void
SM::process_mio()
{
    // A pop or a new global block reason can turn a refused mio_push
    // into an accepted one (or change its stall reason).
    bool mio_changed = false;
    const StallReason prev_block = mio_block_reason_;
    // Shared-memory pipe.
    if (!mio_shared_.empty() && now_ >= mio_shared_free_) {
        MioEntry entry = mio_shared_.front();
        mio_shared_.pop_front();
        progress_ = true;
        mio_changed = true;
        const Instruction& inst = *entry.inst;
        int degree = shared_bank_conflict_degree(inst, cfg_.shared_mem_banks,
                                                 entry.iter);
        int words = std::max(1, inst.width_bits / 32);
        // Each conflict replay and each extra 32-bit phase serializes.
        uint64_t occupancy = static_cast<uint64_t>(degree) * words;
        uint64_t done = now_ + static_cast<uint64_t>(cfg_.shared_mem_latency) +
                        occupancy - 1;
        mio_shared_free_ = now_ + occupancy;
        subcores_[static_cast<size_t>(entry.subcore)]->register_writeback(
            done, entry.warp_slot, entry.inst, entry.iter);
    }
    // L1/global pipe: drive the head entry's sectors through the
    // transaction path.  A refused sector (MSHR / NoC / DRAM-queue
    // back-pressure) leaves the entry at the head with its progress;
    // the retry cycle feeds next_event so idle-skip stays exact.
    if (!mio_global_.empty() &&
        now_ >= std::max(mio_global_free_, mio_global_retry_)) {
        MioEntry& entry = mio_global_.front();
        if (!entry.primed) {
            coalesce_sectors(*entry.inst, cfg_.l1_sector_bytes, entry.iter,
                             &sector_buf_);
            entry.sectors.swap(sector_buf_);
            entry.port_next = now_;
            entry.primed = true;
        }
        const bool is_write = entry.inst->op == Opcode::kStg;
        mio_global_retry_ = 0;
        mio_block_reason_ = StallReason::kNone;
        size_t accepted = 0;
        while (entry.next_sector < entry.sectors.size()) {
            // The L1 tag port serializes: one sector per cycle.
            uint64_t t0 = std::max(entry.port_next, now_);
            MemAccessResult r = mem_->access_sector(
                id_, entry.sectors[entry.next_sector], is_write, t0);
            if (r.status != MemAccept::kAccepted) {
                mio_global_retry_ = std::max(r.cycle, now_ + 1);
                mio_block_reason_ = stall_reason_of(r.status);
                break;
            }
            entry.done = std::max(entry.done, r.cycle);
            entry.port_next = t0 + 1;
            ++entry.next_sector;
            ++accepted;
        }
        if (accepted > 0)
            progress_ = true;
        // The LDST port accepts ~2 sectors per cycle.
        if (accepted > 0)
            mio_global_free_ = now_ + std::max<uint64_t>(1, accepted / 2);
        if (entry.next_sector == entry.sectors.size()) {
            progress_ = true;
            uint64_t done = std::max(entry.done, now_);
            subcores_[static_cast<size_t>(entry.subcore)]->register_writeback(
                done, entry.warp_slot, entry.inst, entry.iter);
            sector_buf_.swap(entry.sectors);
            mio_global_.pop_front();
            mio_changed = true;
        }
    }
    if (mio_changed || mio_block_reason_ != prev_block)
        for (auto& sc : subcores_)
            sc->mio_changed();
}

StallReason
SM::stall_reason_of(MemAccept status)
{
    switch (status) {
      case MemAccept::kMshrFull: return StallReason::kMshrFull;
      case MemAccept::kNocBusy: return StallReason::kNocBusy;
      case MemAccept::kDramQueue: return StallReason::kDramQueue;
      case MemAccept::kAccepted: break;
    }
    return StallReason::kNone;
}

void
SM::barrier_arrive(int cta_slot)
{
    CtaSlot& cta = cta_slots_[static_cast<size_t>(cta_slot)];
    TCSIM_CHECK(cta.valid);
    if (++cta.barrier_arrived < cta.live_warps)
        return;
    cta.barrier_arrived = 0;
    for (auto [sc, slot] : cta_warps_[static_cast<size_t>(cta_slot)])
        subcores_[static_cast<size_t>(sc)]->release_barrier(slot);
}

void
SM::warp_finished(int cta_slot)
{
    CtaSlot& cta = cta_slots_[static_cast<size_t>(cta_slot)];
    TCSIM_CHECK(cta.valid && cta.live_warps > 0);
    if (--cta.live_warps > 0)
        return;

    ++ctas_completed_;
    GridRun* grid = cta.grid;
    const KernelDesc& k = *grid->kernel;
    uint64_t latency = now_ - cta.start_cycle;
    --used_ctas_;
    used_warps_ -= k.warps_per_cta;
    used_smem_ -= k.shared_mem_bytes;
    used_regs_ -= cta_registers(k);
    cta.valid = false;
    cta.grid = nullptr;
    cta.shared.reset();

    if (++grid->ctas_done == k.grid_ctas)
        grid->finish_cycle = now_;
    if (completions_)
        completions_->push_back(CtaCompletion{grid, latency});
}

void
SM::count_issue(const Warp& w, const Instruction& inst)
{
    RunStats& s = w.grid->stats;
    ++s.instructions;
    if (inst.op == Opcode::kHmma)
        ++s.hmma_instructions;
}

SharedMemoryStorage*
SM::shared(int cta_slot)
{
    return cta_slots_[static_cast<size_t>(cta_slot)].shared.get();
}

void
SM::execute_functional(Warp& w, const Instruction& inst)
{
    if (!w.regs)
        return;
    WarpRegState& regs = *w.regs;

    switch (inst.op) {
      case Opcode::kHmma: {
        // Per-SM memo of the shared executor cache: kernels switch
        // HMMA configurations rarely, so one entry skips nearly every
        // map lookup in the functional hot path.
        uint64_t key = ExecutorCache::key(cfg_.arch, inst.hmma);
        if (executor_memo_ == nullptr || key != executor_memo_key_) {
            executor_memo_ = &executors_->get(cfg_.arch, inst.hmma);
            executor_memo_key_ = key;
        }
        executor_memo_->execute_step(inst.hmma, regs);
        break;
      }

      case Opcode::kLdg:
      case Opcode::kStg:
        TCSIM_CHECK(inst.addr);
        functional_global_access(w, inst);
        break;

      case Opcode::kLds: {
        TCSIM_CHECK(inst.addr);
        const int bytes = inst.width_bits / 8;
        SharedMemoryStorage* shm = shared(w.cta_slot);
        TCSIM_CHECK(shm != nullptr);
        for (int lane = 0; lane < kWarpSize; ++lane) {
            uint64_t a = inst.effective_addr(lane, w.iter);
            if (a == kNoAddr)
                continue;
            uint32_t buf[4] = {0, 0, 0, 0};
            shm->read(a, buf, static_cast<size_t>(bytes));
            int nregs = std::max(1, inst.width_bits / 32);
            for (int r = 0; r < nregs; ++r)
                regs.write(lane, inst.dst[0] + r, buf[r]);
        }
        break;
      }

      case Opcode::kSts: {
        TCSIM_CHECK(inst.addr);
        const int bytes = inst.width_bits / 8;
        SharedMemoryStorage* shm = shared(w.cta_slot);
        TCSIM_CHECK(shm != nullptr);
        for (int lane = 0; lane < kWarpSize; ++lane) {
            uint64_t a = inst.effective_addr(lane, w.iter);
            if (a == kNoAddr)
                continue;
            uint32_t buf[4];
            int nregs = std::max(1, inst.width_bits / 32);
            for (int r = 0; r < nregs; ++r)
                buf[r] = regs.read(lane, inst.src[0] + r);
            shm->write(a, buf, static_cast<size_t>(bytes));
        }
        break;
      }

      case Opcode::kFfma:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            float v = regs.read_f32(lane, inst.src[0]) *
                          regs.read_f32(lane, inst.src[1]) +
                      regs.read_f32(lane, inst.src[2]);
            regs.write_f32(lane, inst.dst[0], v);
        }
        break;

      case Opcode::kFadd:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            regs.write_f32(lane, inst.dst[0],
                           regs.read_f32(lane, inst.src[0]) +
                               regs.read_f32(lane, inst.src[1]));
        }
        break;

      case Opcode::kHfma2:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            for (int hi = 0; hi < 2; ++hi) {
                half v(regs.read_h16(lane, inst.src[0], hi).to_float() *
                           regs.read_h16(lane, inst.src[1], hi).to_float() +
                       regs.read_h16(lane, inst.src[2], hi).to_float());
                regs.write_h16(lane, inst.dst[0], hi, v);
            }
        }
        break;

      case Opcode::kIadd:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            regs.write(lane, inst.dst[0],
                       regs.read(lane, inst.src[0]) +
                           regs.read(lane, inst.src[1]));
        }
        break;

      case Opcode::kImad:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            regs.write(lane, inst.dst[0],
                       regs.read(lane, inst.src[0]) *
                               regs.read(lane, inst.src[1]) +
                           regs.read(lane, inst.src[2]));
        }
        break;

      case Opcode::kMov:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            uint32_t v = inst.n_src == 0 ? inst.imm
                                         : regs.read(lane, inst.src[0]);
            regs.write(lane, inst.dst[0], v);
        }
        break;

      case Opcode::kCs2r:
        for (int lane = 0; lane < kWarpSize; ++lane)
            regs.write(lane, inst.dst[0], static_cast<uint32_t>(now_));
        break;

      case Opcode::kBarSync:
      case Opcode::kNop:
      case Opcode::kLoopBegin:
      case Opcode::kLoopEnd:
      case Opcode::kExit:
        break;
    }
}

void
SM::functional_global_access(Warp& w, const Instruction& inst)
{
    WarpRegState& regs = *w.regs;
    const int bytes = inst.width_bits / 8;
    const int nregs = std::max(1, inst.width_bits / 32);
    if (inst.op == Opcode::kLdg) {
        for (int lane = 0; lane < kWarpSize; ++lane) {
            uint64_t a = inst.effective_addr(lane, w.iter);
            if (a == kNoAddr)
                continue;
            uint32_t buf[4] = {0, 0, 0, 0};
            mem_->global().read(a, buf, static_cast<size_t>(bytes));
            for (int r = 0; r < nregs; ++r)
                regs.write(lane, inst.dst[0] + r, buf[r]);
        }
        return;
    }
    TCSIM_CHECK(inst.op == Opcode::kStg);
    for (int lane = 0; lane < kWarpSize; ++lane) {
        uint64_t a = inst.effective_addr(lane, w.iter);
        if (a == kNoAddr)
            continue;
        uint32_t buf[4];
        for (int r = 0; r < nregs; ++r)
            buf[r] = regs.read(lane, inst.src[0] + r);
        mem_->global().write(a, buf, static_cast<size_t>(bytes));
    }
}

/** Index of @p g in the resident-grid table. */
static uint32_t
sm_grid_index(const std::vector<GridRun*>& grids, const GridRun* g)
{
    for (size_t i = 0; i < grids.size(); ++i)
        if (grids[i] == g)
            return static_cast<uint32_t>(i);
    throw SnapshotError("SM references a grid not in the resident table");
}

void
SM::save_state(SnapshotWriter& w, const std::vector<GridRun*>& grids) const
{
    w.tag(kTagSm);
    w.u64(now_);
    w.b(progress_);

    // CTA slot table first: SubCore::load_state regenerates warp
    // programs from each slot's cta_id.
    w.u64(cta_slots_.size());
    for (const CtaSlot& cta : cta_slots_) {
        w.b(cta.valid);
        if (!cta.valid)
            continue;
        w.u32(sm_grid_index(grids, cta.grid));
        w.i32(cta.cta_id);
        w.i32(cta.live_warps);
        w.i32(cta.barrier_arrived);
        w.u64(cta.start_cycle);
        w.b(cta.shared != nullptr);
        if (cta.shared) {
            uint32_t bytes = cta.shared->size();
            w.u32(bytes);
            std::vector<uint8_t> buf(bytes);
            cta.shared->read(0, buf.data(), buf.size());
            w.bytes(buf.data(), buf.size());
        }
    }
    // Barrier-release fan-out lists, verbatim (entries of freed slots
    // are stale but unobservable; they clear on the slot's next
    // launch — keeping them preserves bit-identity of future state).
    for (const auto& vec : cta_warps_) {
        w.u64(vec.size());
        for (auto [sc, slot] : vec) {
            w.i32(sc);
            w.i32(slot);
        }
    }

    w.i32(used_ctas_);
    w.i32(used_warps_);
    w.u64(used_smem_);
    w.u64(used_regs_);

    // Sub-cores before the MIO queues: queue entries hold Instruction
    // pointers into warp programs the sub-cores own.
    w.u64(subcores_.size());
    for (const auto& sc : subcores_)
        sc->save_state(w, grids);

    auto save_queue = [&](const std::deque<MioEntry>& q) {
        w.u64(q.size());
        for (const MioEntry& e : q) {
            w.i32(e.subcore);
            w.i32(e.warp_slot);
            const Warp& owner =
                subcores_[static_cast<size_t>(e.subcore)]->warp(e.warp_slot);
            size_t idx = static_cast<size_t>(e.inst - owner.prog.data());
            if (idx >= owner.prog.size())
                throw SnapshotError(
                    "MIO instruction outside its warp program");
            w.u64(idx);
            w.i32(e.iter);
            w.u64(e.sectors.size());
            for (uint64_t s : e.sectors)
                w.u64(s);
            w.u64(e.next_sector);
            w.u64(e.done);
            w.u64(e.port_next);
            w.b(e.primed);
        }
    };
    save_queue(mio_shared_);
    save_queue(mio_global_);
    w.u64(mio_shared_free_);
    w.u64(mio_global_free_);
    w.u64(mio_global_retry_);
    w.u8(static_cast<uint8_t>(mio_block_reason_));
    w.i32(ctas_completed_);
    w.b(busy_cache_);
    w.u64(next_event_cache_);
}

void
SM::load_state(SnapshotReader& r, const std::vector<GridRun*>& grids)
{
    r.tag(kTagSm);
    now_ = r.u64();
    progress_ = r.b();

    if (r.u64() != cta_slots_.size())
        throw SnapshotError("CTA slot count mismatch");
    for (CtaSlot& cta : cta_slots_) {
        cta.valid = r.b();
        if (!cta.valid) {
            cta.grid = nullptr;
            cta.cta_id = -1;
            cta.live_warps = 0;
            cta.barrier_arrived = 0;
            cta.start_cycle = 0;
            cta.shared.reset();
            continue;
        }
        uint32_t gi = r.u32();
        if (gi >= grids.size())
            throw SnapshotError("CTA grid index out of range");
        cta.grid = grids[gi];
        cta.cta_id = r.i32();
        cta.live_warps = r.i32();
        cta.barrier_arrived = r.i32();
        cta.start_cycle = r.u64();
        if (r.b()) {
            uint32_t bytes = r.u32();
            cta.shared = std::make_unique<SharedMemoryStorage>(bytes);
            std::vector<uint8_t> buf(bytes);
            r.bytes(buf.data(), buf.size());
            cta.shared->write(0, buf.data(), buf.size());
        } else {
            cta.shared.reset();
        }
    }
    for (auto& vec : cta_warps_) {
        vec.clear();
        uint64_t n = r.u64();
        vec.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
            int sc = r.i32();
            int slot = r.i32();
            vec.push_back({sc, slot});
        }
    }

    used_ctas_ = r.i32();
    used_warps_ = r.i32();
    used_smem_ = r.u64();
    used_regs_ = r.u64();

    if (r.u64() != subcores_.size())
        throw SnapshotError("sub-core count mismatch");
    for (auto& sc : subcores_)
        sc->load_state(r, grids);

    auto load_queue = [&](std::deque<MioEntry>& q) {
        q.clear();
        uint64_t n = r.u64();
        for (uint64_t i = 0; i < n; ++i) {
            MioEntry e{};
            e.subcore = r.i32();
            e.warp_slot = r.i32();
            uint64_t idx = r.u64();
            e.iter = r.i32();
            uint64_t ns = r.u64();
            e.sectors.reserve(ns);
            for (uint64_t s = 0; s < ns; ++s)
                e.sectors.push_back(r.u64());
            e.next_sector = r.u64();
            e.done = r.u64();
            e.port_next = r.u64();
            e.primed = r.b();
            if (e.subcore < 0 ||
                e.subcore >= static_cast<int>(subcores_.size()))
                throw SnapshotError("MIO sub-core index out of range");
            SubCore& sc = *subcores_[static_cast<size_t>(e.subcore)];
            if (e.warp_slot < 0 ||
                static_cast<size_t>(e.warp_slot) >= sc.warp_count())
                throw SnapshotError("MIO warp slot out of range");
            Warp& owner = sc.warp(e.warp_slot);
            if (idx >= owner.prog.size())
                throw SnapshotError(
                    "MIO instruction index out of range");
            e.inst = &owner.prog[idx];
            q.push_back(std::move(e));
        }
    };
    load_queue(mio_shared_);
    load_queue(mio_global_);
    mio_shared_free_ = r.u64();
    mio_global_free_ = r.u64();
    mio_global_retry_ = r.u64();
    mio_block_reason_ = static_cast<StallReason>(r.u8());
    ctas_completed_ = r.i32();
    busy_cache_ = r.b();
    next_event_cache_ = r.u64();

    // Derived memo over the shared executor cache: repopulated on the
    // next functional HMMA (restores may target a different Gpu whose
    // ExecutorCache is distinct).
    executor_memo_ = nullptr;
    executor_memo_key_ = 0;
}

}  // namespace tcsim
