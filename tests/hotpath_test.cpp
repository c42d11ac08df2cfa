/**
 * @file
 * Oracle property tests for the simulator's hot paths.  Each fast
 * implementation (bank-conflict degree, word-mask scoreboard, MSHR
 * file with a prune horizon) is driven with Pcg32-random inputs side
 * by side with the straightforward reference implementation it
 * replaced, kept here verbatim in behaviour, and must agree on every
 * answer, counter and snapshot byte.  Also covers the register-range
 * guard that keeps operand ranges inside the scoreboard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/sim_error.h"
#include "sim/core/scoreboard.h"
#include "sim/gpu.h"
#include "sim/mem/mshr.h"
#include "sim/mem/shared_memory.h"
#include "sim/snapshot_io.h"

namespace tcsim {
namespace {

int
pick(Pcg32& rng, int n)
{
    return static_cast<int>(rng.next_u32() % static_cast<uint32_t>(n));
}

// ---- Bank-conflict degree ----------------------------------------

/** Reference: per-phase, per-bank distinct-word lists. */
int
ref_bank_conflict_degree(const Instruction& inst, int num_banks, int iter)
{
    const int words = std::max(1, inst.width_bits / 32);
    int worst = 1;
    for (int phase = 0; phase < words; ++phase) {
        std::array<std::vector<uint64_t>, 32> bank_words;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            uint64_t a = inst.effective_addr(lane, iter);
            if (a == kNoAddr)
                continue;
            uint64_t word_addr = a / 4 + phase;
            auto& v = bank_words[static_cast<size_t>(word_addr % num_banks)];
            if (std::find(v.begin(), v.end(), word_addr) == v.end())
                v.push_back(word_addr);
        }
        for (const auto& v : bank_words)
            worst = std::max(worst, static_cast<int>(v.size()));
    }
    return worst;
}

/** A random warp-wide shared access: strided, broadcast, permuted or
 *  scattered lanes, some inactive, 4-byte aligned or not. */
Instruction
random_shared_access(Pcg32& rng)
{
    static constexpr int kWidths[] = {32, 64, 128};
    Instruction inst;
    inst.op = pick(rng, 2) ? Opcode::kLds : Opcode::kSts;
    inst.width_bits = static_cast<uint16_t>(kWidths[pick(rng, 3)]);
    const bool aligned = pick(rng, 4) != 0;
    const uint64_t base = static_cast<uint64_t>(pick(rng, 4096)) *
                              (aligned ? 4 : 1);
    const int pattern = pick(rng, 4);
    const uint64_t stride = static_cast<uint64_t>(pick(rng, 65)) *
                            (aligned ? 4 : 1);
    std::array<uint64_t, kWarpSize> addr{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
        uint64_t a = base;
        switch (pattern) {
          case 0: a += stride * static_cast<uint64_t>(lane); break;
          case 1: break;  // broadcast
          case 2:
            a += stride * static_cast<uint64_t>((lane * 7 + 3) % kWarpSize);
            break;
          default: a += static_cast<uint64_t>(pick(rng, 512)); break;
        }
        addr[static_cast<size_t>(lane)] = pick(rng, 6) == 0 ? kNoAddr : a;
    }
    inst.addr = std::make_unique<std::array<uint64_t, kWarpSize>>(addr);
    const int64_t unit = aligned ? 4 : 1;
    inst.loop_stride = pick(rng, 3) == 0 ? 0 : pick(rng, 1024) * unit;
    inst.ping_pong = pick(rng, 2) == 0 ? 0 : pick(rng, 2048) * unit;
    return inst;
}

TEST(HotPathOracle, BankConflictDegreeMatchesPerPhaseReference)
{
    Pcg32 rng(0xbadc0de);
    for (int trial = 0; trial < 20000; ++trial) {
        Instruction inst = random_shared_access(rng);
        const int banks = 1 + pick(rng, 32);
        const int iter = pick(rng, 8);
        ASSERT_EQ(shared_bank_conflict_degree(inst, banks, iter),
                  ref_bank_conflict_degree(inst, banks, iter))
            << "trial " << trial << " banks " << banks << " iter " << iter
            << " width " << inst.width_bits;
    }
}

TEST(HotPathOracle, BankConflictDegreeAllLanesInactive)
{
    Instruction inst;
    inst.op = Opcode::kLds;
    inst.width_bits = 128;
    inst.addr = std::make_unique<std::array<uint64_t, kWarpSize>>();
    inst.addr->fill(kNoAddr);
    EXPECT_EQ(shared_bank_conflict_degree(inst, 32, 0), 1);
    EXPECT_EQ(ref_bank_conflict_degree(inst, 32, 0), 1);
}

// ---- Scoreboard ----------------------------------------------------

/** Reference: one bitset<256> per warp, checked register by register. */
class RefScoreboard
{
  public:
    explicit RefScoreboard(int warps) : pending_(static_cast<size_t>(warps)) {}

    bool can_issue(int w, const Instruction& inst) const
    {
        if (inst.op == Opcode::kHmma && !inst.hmma.first_in_group)
            return true;
        bool ok = true;
        for_each_src(inst, [&](int r) { ok = ok && !pending_[w][r]; });
        for_each_dst(inst, [&](int r) { ok = ok && !pending_[w][r]; });
        return ok;
    }

    void issue(int w, const Instruction& inst)
    {
        if (inst.op == Opcode::kHmma && !inst.hmma.first_in_group)
            return;
        for_each_dst(inst, [&](int r) { pending_[w][r] = true; });
    }

    void complete(int w, const Instruction& inst)
    {
        if (inst.op == Opcode::kHmma && !inst.hmma.last_in_group)
            return;
        for_each_dst(inst, [&](int r) { pending_[w][r] = false; });
    }

    bool reg_pending(int w, int r) const { return pending_[w][r]; }
    bool any_pending(int w) const { return pending_[w].any(); }

    void save_state(SnapshotWriter& wr) const
    {
        wr.u64(pending_.size());
        for (const auto& bits : pending_)
            for (int word = 0; word < 4; ++word) {
                uint64_t v = 0;
                for (int bit = 0; bit < 64; ++bit)
                    if (bits[word * 64 + bit])
                        v |= uint64_t{1} << bit;
                wr.u64(v);
            }
    }

  private:
    static int span(const Instruction& inst, Opcode a, Opcode b)
    {
        return inst.op == a || inst.op == b
                   ? std::max(1, inst.width_bits / 32)
                   : 1;
    }

    template <typename Fn>
    static void for_each_dst(const Instruction& inst, Fn fn)
    {
        if (inst.op == Opcode::kHmma) {
            for (int r = 0; r < inst.hmma.d_nregs; ++r)
                fn(inst.hmma.d_reg + r);
            return;
        }
        for (int i = 0; i < inst.n_dst; ++i)
            for (int r = 0; r < span(inst, Opcode::kLdg, Opcode::kLds); ++r)
                fn(inst.dst[i] + r);
    }

    template <typename Fn>
    static void for_each_src(const Instruction& inst, Fn fn)
    {
        if (inst.op == Opcode::kHmma) {
            for (int r = 0; r < inst.hmma.a_nregs; ++r)
                fn(inst.hmma.a_reg + r);
            for (int r = 0; r < inst.hmma.b_nregs; ++r)
                fn(inst.hmma.b_reg + r);
            for (int r = 0; r < inst.hmma.c_nregs; ++r)
                fn(inst.hmma.c_reg + r);
            return;
        }
        for (int i = 0; i < inst.n_src; ++i)
            for (int r = 0; r < span(inst, Opcode::kStg, Opcode::kSts); ++r)
                fn(inst.src[i] + r);
    }

    std::vector<std::bitset<256>> pending_;
};

/** Base register for a range of @p n registers, biased toward the
 *  64-register word boundaries so ranges often straddle them. */
uint8_t
random_base(Pcg32& rng, int n)
{
    if (pick(rng, 3) == 0) {
        const int boundary = 64 * (1 + pick(rng, 3));
        return static_cast<uint8_t>(boundary - 1 - pick(rng, n));
    }
    return static_cast<uint8_t>(pick(rng, 256 - n + 1));
}

/** A random in-range instruction: ALU, wide loads/stores, or an HMMA
 *  step (head, tail or mid-group) with 1..8-register fragments. */
Instruction
random_reg_inst(Pcg32& rng)
{
    static constexpr int kWidths[] = {32, 64, 128};
    Instruction inst;
    switch (pick(rng, 6)) {
      case 0:
      case 1: {
        inst.op = Opcode::kHmma;
        HmmaInfo& h = inst.hmma;
        h.a_nregs = static_cast<uint8_t>(1 + pick(rng, 8));
        h.b_nregs = static_cast<uint8_t>(1 + pick(rng, 8));
        h.c_nregs = static_cast<uint8_t>(1 + pick(rng, 8));
        h.d_nregs = static_cast<uint8_t>(1 + pick(rng, 8));
        h.a_reg = random_base(rng, h.a_nregs);
        h.b_reg = random_base(rng, h.b_nregs);
        h.c_reg = random_base(rng, h.c_nregs);
        h.d_reg = random_base(rng, h.d_nregs);
        h.first_in_group = pick(rng, 2) != 0;
        h.last_in_group = pick(rng, 2) != 0;
        return inst;
      }
      case 2:
        inst.op = pick(rng, 2) ? Opcode::kLdg : Opcode::kLds;
        inst.width_bits = static_cast<uint16_t>(kWidths[pick(rng, 3)]);
        inst.n_dst = 1;
        inst.dst[0] = random_base(rng, inst.width_bits / 32);
        inst.n_src = 1;
        inst.src[0] = random_base(rng, 1);
        return inst;
      case 3:
        inst.op = pick(rng, 2) ? Opcode::kStg : Opcode::kSts;
        inst.width_bits = static_cast<uint16_t>(kWidths[pick(rng, 3)]);
        inst.n_src = 2;
        inst.src[0] = random_base(rng, inst.width_bits / 32);
        inst.src[1] = random_base(rng, inst.width_bits / 32);
        return inst;
      default:
        inst.op = pick(rng, 2) ? Opcode::kFfma : Opcode::kIadd;
        inst.n_dst = static_cast<uint8_t>(pick(rng, 3));
        for (int i = 0; i < inst.n_dst; ++i)
            inst.dst[static_cast<size_t>(i)] = random_base(rng, 1);
        inst.n_src = static_cast<uint8_t>(pick(rng, 7));
        for (int i = 0; i < inst.n_src; ++i)
            inst.src[static_cast<size_t>(i)] = random_base(rng, 1);
        return inst;
    }
}

void
expect_same_state(const Scoreboard& sb, const RefScoreboard& ref, int warps)
{
    for (int w = 0; w < warps; ++w) {
        ASSERT_EQ(sb.any_pending(w), ref.any_pending(w));
        for (int r = 0; r < Scoreboard::kNumRegs; ++r)
            ASSERT_EQ(sb.reg_pending(w, r), ref.reg_pending(w, r))
                << "warp " << w << " r" << r;
    }
    SnapshotWriter a, b;
    sb.save_state(a);
    ref.save_state(b);
    ASSERT_EQ(a.take(), b.take());
}

TEST(HotPathOracle, ScoreboardMatchesBitsetReference)
{
    constexpr int kWarps = 3;
    Pcg32 rng(42);
    Scoreboard sb(kWarps);
    RefScoreboard ref(kWarps);
    std::vector<std::pair<int, Instruction>> inflight;
    for (int step = 0; step < 40000; ++step) {
        if (!inflight.empty() && pick(rng, 3) == 0) {
            size_t i = static_cast<size_t>(
                pick(rng, static_cast<int>(inflight.size())));
            sb.complete(inflight[i].first, inflight[i].second);
            ref.complete(inflight[i].first, inflight[i].second);
            inflight.erase(inflight.begin() + static_cast<long>(i));
        } else {
            const int w = pick(rng, kWarps);
            Instruction inst = random_reg_inst(rng);
            ASSERT_TRUE(Scoreboard::operands_in_range(inst));
            const bool ok = sb.can_issue(w, inst);
            ASSERT_EQ(ok, ref.can_issue(w, inst)) << "step " << step;
            // Keep the file from saturating: issue what is clear, and
            // now and then force-issue past a hazard (writes may
            // overlap in flight; the oracle must still agree).
            if (ok || pick(rng, 8) == 0) {
                sb.issue(w, inst);
                ref.issue(w, inst);
                inflight.emplace_back(w, std::move(inst));
            }
        }
        if (step % 97 == 0)
            expect_same_state(sb, ref, kWarps);
    }
    expect_same_state(sb, ref, kWarps);
}

TEST(HotPathOracle, ScoreboardRangeStraddlingAWordBoundary)
{
    // An 8-register D fragment at r60 covers r60..r67: bits in two
    // mask words.
    Instruction head;
    head.op = Opcode::kHmma;
    head.hmma.d_reg = 60;
    head.hmma.a_reg = head.hmma.b_reg = head.hmma.c_reg = 100;
    head.hmma.first_in_group = true;
    head.hmma.last_in_group = true;
    Scoreboard sb(1);
    sb.issue(0, head);
    for (int r = 60; r < 68; ++r)
        EXPECT_TRUE(sb.reg_pending(0, r)) << r;
    EXPECT_FALSE(sb.reg_pending(0, 59));
    EXPECT_FALSE(sb.reg_pending(0, 68));

    Instruction reader;
    reader.op = Opcode::kFadd;
    reader.n_dst = 1;
    reader.dst[0] = 0;
    reader.n_src = 1;
    for (int r : {59, 60, 63, 64, 67, 68}) {
        reader.src[0] = static_cast<uint8_t>(r);
        EXPECT_EQ(sb.can_issue(0, reader), r < 60 || r >= 68) << r;
    }
    // A mid-group HMMA bypasses the check even on the pending range.
    Instruction mid = head;
    mid.hmma.first_in_group = false;
    EXPECT_TRUE(sb.can_issue(0, mid));
    sb.complete(0, head);
    EXPECT_FALSE(sb.any_pending(0));
}

TEST(HotPathOracle, OperandRangesPastR255AreOutOfRange)
{
    Instruction lds;
    lds.op = Opcode::kLds;
    lds.width_bits = 128;
    lds.n_dst = 1;
    lds.dst[0] = 252;  // r252..r255
    EXPECT_TRUE(Scoreboard::operands_in_range(lds));
    lds.dst[0] = 254;  // r254..r257
    EXPECT_FALSE(Scoreboard::operands_in_range(lds));

    Instruction hmma;
    hmma.op = Opcode::kHmma;
    hmma.hmma.c_reg = 249;  // 8 registers: r249..r256
    EXPECT_FALSE(Scoreboard::operands_in_range(hmma));
}

// ---- MSHR file -----------------------------------------------------

/** Reference: the MSHR file that prunes and scans on every query. */
class RefMshr
{
  public:
    RefMshr(int entries, int line_bytes, int sector_bytes)
        : entries_(entries), line_bytes_(line_bytes),
          sector_bytes_(sector_bytes)
    {
    }

    struct Lookup
    {
        uint64_t pending_fill = 0;
        bool can_track = false;
        int entry = -1;
    };

    Lookup query(uint64_t addr, uint64_t now)
    {
        prune(now);
        Lookup out;
        const uint64_t line = addr / static_cast<uint64_t>(line_bytes_);
        for (size_t i = 0; i < active_.size() && out.entry < 0; ++i)
            if (active_[i].line == line)
                out.entry = static_cast<int>(i);
        if (out.entry >= 0) {
            out.can_track = true;
            uint64_t fill = active_[static_cast<size_t>(out.entry)]
                                .sector_fill[sector(addr)];
            if (fill > now) {
                out.pending_fill = fill;
                ++merges_;
            }
            return out;
        }
        out.can_track = active_.size() < static_cast<size_t>(entries_);
        return out;
    }

    uint64_t retry_cycle(uint64_t now)
    {
        prune(now);
        uint64_t first_free = UINT64_MAX;
        for (const Entry& e : active_)
            first_free = std::min(first_free, e.last_fill);
        return first_free;
    }

    void track(uint64_t addr, const Lookup& found, uint64_t fill_done)
    {
        Entry* e = nullptr;
        if (found.entry >= 0) {
            e = &active_[static_cast<size_t>(found.entry)];
        } else {
            active_.push_back(Entry{});
            e = &active_.back();
            e->line = addr / static_cast<uint64_t>(line_bytes_);
            peak_ = std::max(peak_, active_.size());
        }
        uint64_t& fill = e->sector_fill[sector(addr)];
        fill = std::max(fill, fill_done);
        e->last_fill = std::max(e->last_fill, fill_done);
    }

    size_t occupancy(uint64_t now)
    {
        prune(now);
        return active_.size();
    }

    size_t peak() const { return peak_; }
    uint64_t merges() const { return merges_; }

    void save_state(SnapshotWriter& w) const
    {
        w.u64(active_.size());
        for (const Entry& e : active_) {
            w.u64(e.line);
            for (uint64_t fill : e.sector_fill)
                w.u64(fill);
            w.u64(e.last_fill);
        }
        w.u64(peak_);
        w.u64(merges_);
    }

  private:
    struct Entry
    {
        uint64_t line = 0;
        std::array<uint64_t, 8> sector_fill{};
        uint64_t last_fill = 0;
    };

    size_t sector(uint64_t addr) const
    {
        return (addr % static_cast<uint64_t>(line_bytes_)) /
               static_cast<uint64_t>(sector_bytes_);
    }

    void prune(uint64_t now)
    {
        for (size_t i = 0; i < active_.size();) {
            if (active_[i].last_fill <= now) {
                active_[i] = active_.back();
                active_.pop_back();
            } else {
                ++i;
            }
        }
    }

    int entries_;
    int line_bytes_;
    int sector_bytes_;
    std::vector<Entry> active_;
    size_t peak_ = 0;
    uint64_t merges_ = 0;
};

std::vector<uint8_t>
saved(const auto& file)
{
    SnapshotWriter w;
    file.save_state(w);
    return w.take();
}

TEST(HotPathOracle, MshrMatchesPruneEveryQueryReference)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Pcg32 rng(seed);
        const int entries = 1 + pick(rng, 8);
        MshrFile mshr(entries, 128, 32);
        RefMshr ref(entries, 128, 32);
        // A small line pool forces merges, hits-under-miss and full
        // files; fills land 1..400 cycles out, some at `now` itself.
        uint64_t now = 0;
        for (int op = 0; op < 30000; ++op) {
            now += static_cast<uint64_t>(pick(rng, 4) == 0 ? pick(rng, 60) : 0);
            const uint64_t addr =
                static_cast<uint64_t>(pick(rng, 24)) * 128 +
                static_cast<uint64_t>(pick(rng, 128));
            const int kind = pick(rng, 10);
            if (kind == 0) {
                ASSERT_EQ(mshr.occupancy(now), ref.occupancy(now));
                continue;
            }
            MshrFile::Lookup got = mshr.query(addr, now);
            RefMshr::Lookup want = ref.query(addr, now);
            ASSERT_EQ(got.pending_fill, want.pending_fill) << "op " << op;
            ASSERT_EQ(got.can_track, want.can_track) << "op " << op;
            ASSERT_EQ(got.entry != nullptr, want.entry >= 0);
            if (!got.can_track) {
                ASSERT_EQ(mshr.retry_cycle(now), ref.retry_cycle(now));
            } else if (!got.pending_fill && kind > 2) {
                const uint64_t done =
                    now + static_cast<uint64_t>(pick(rng, 401));
                mshr.track(addr, got, done);
                ref.track(addr, want, done);
            }
            ASSERT_EQ(mshr.peak(), ref.peak());
            ASSERT_EQ(mshr.merges(), ref.merges());
            if (op % 53 == 0) {
                ASSERT_EQ(saved(mshr), saved(ref)) << "op " << op;
            }
            if (op % 1009 == 0) {
                // A restored file resumes identically.
                std::vector<uint8_t> bytes = saved(mshr);
                SnapshotReader r(bytes);
                MshrFile restored(entries, 128, 32);
                restored.load_state(r);
                mshr = std::move(restored);
            }
        }
        ASSERT_EQ(saved(mshr), saved(ref));
    }
}

// ---- Register-range guard at kernel launch --------------------------

KernelDesc
one_lds_kernel(uint8_t dst)
{
    KernelDesc k;
    k.name = "lds128";
    k.functional = false;
    k.shared_mem_bytes = 1024;
    k.trace = [dst](int, int) {
        WarpProgram prog(2);
        Instruction& lds = prog[0];
        lds.op = Opcode::kLds;
        lds.width_bits = 128;
        lds.n_dst = 1;
        lds.dst[0] = dst;
        lds.addr = std::make_unique<std::array<uint64_t, kWarpSize>>();
        for (int lane = 0; lane < kWarpSize; ++lane)
            (*lds.addr)[static_cast<size_t>(lane)] =
                16 * static_cast<uint64_t>(lane);
        prog[1].op = Opcode::kExit;
        return prog;
    };
    return k;
}

TEST(RegisterRangeGuard, KernelWritingPastR255IsATypedError)
{
    GpuConfig cfg = titan_v_config();
    cfg.num_sms = 1;
    {
        Gpu gpu(cfg);
        EXPECT_NO_THROW(gpu.launch(one_lds_kernel(252)));
    }
    Gpu gpu(cfg);
    try {
        gpu.launch(one_lds_kernel(254));
        FAIL() << "expected SimError";
    } catch (const SimError& e) {
        EXPECT_NE(std::string(e.what()).find("past r255"), std::string::npos)
            << e.what();
    }
}

}  // namespace
}  // namespace tcsim
