/**
 * @file
 * Oracle property tests for the simulator's hot paths.  Each fast
 * implementation (bank-conflict degree, word-mask scoreboard, MSHR
 * file with a prune horizon and a hashed line index, bitmap sector
 * coalescer, shift-and-mask cache indexing) is driven with
 * Pcg32-random inputs side by side with the straightforward reference
 * implementation it replaced, kept here verbatim in behaviour, and
 * must agree on every answer, counter and snapshot byte.  Also covers
 * the register-range guard that keeps operand ranges inside the
 * scoreboard.
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
#include "sim/mem/cache.h"
#include "sim/mem/coalescer.h"
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

/** Drive an MshrFile and the reference with the same random stream:
 *  addresses from @p lines (any sector offset), the clock advancing by
 *  up to @p max_step every few operations and past every fill (a
 *  drain) every @p drain_every operations (0 = never), fills landing
 *  0..@p max_fill cycles out.  Every answer, counter and snapshot byte
 *  must agree, and a file restored mid-stream resumes identically.
 *  The file must fill up (refuse a line) along the way. */
void
expect_mshr_matches_reference(int entries, uint64_t seed,
                              const std::vector<uint64_t>& lines,
                              int max_step, int drain_every, int max_fill,
                              int ops)
{
    SCOPED_TRACE("entries " + std::to_string(entries) + " seed " +
                 std::to_string(seed));
    Pcg32 rng(seed);
    MshrFile mshr(entries, 128, 32);
    RefMshr ref(entries, 128, 32);
    uint64_t now = 0;
    int full = 0;
    for (int op = 0; op < ops; ++op) {
        now += static_cast<uint64_t>(pick(rng, 4) == 0 ? pick(rng, max_step)
                                                       : 0);
        if (drain_every > 0 && op % drain_every == drain_every - 1)
            now += static_cast<uint64_t>(max_fill) + 1;
        const uint64_t addr =
            lines[static_cast<size_t>(
                pick(rng, static_cast<int>(lines.size())))] *
                128 +
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
            ++full;
        } else if (!got.pending_fill && kind > 2) {
            const uint64_t done =
                now + static_cast<uint64_t>(pick(rng, max_fill + 1));
            mshr.track(addr, got, done);
            ref.track(addr, want, done);
        }
        ASSERT_EQ(mshr.peak(), ref.peak());
        ASSERT_EQ(mshr.merges(), ref.merges());
        if (op % 53 == 0) {
            ASSERT_EQ(saved(mshr), saved(ref)) << "op " << op;
        }
        if (op % 1009 == 0) {
            std::vector<uint8_t> bytes = saved(mshr);
            SnapshotReader r(bytes);
            MshrFile restored(entries, 128, 32);
            restored.load_state(r);
            mshr = std::move(restored);
        }
    }
    ASSERT_EQ(saved(mshr), saved(ref));
    EXPECT_GT(full, 0);
}

TEST(HotPathOracle, MshrMatchesPruneEveryQueryReference)
{
    // A small line pool forces merges, hits-under-miss and full
    // files; fills land 0..400 cycles out, some at `now` itself.
    std::vector<uint64_t> lines(24);
    for (size_t i = 0; i < lines.size(); ++i)
        lines[i] = i;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Pcg32 rng(seed);
        expect_mshr_matches_reference(1 + pick(rng, 8), seed, lines, 60, 0,
                                      400, 30000);
    }
}

TEST(HotPathOracle, MshrIndexUnderCollisionsAndChurn)
{
    // Line pools of three times the file size mixing consecutive,
    // power-of-two-strided and random 40-bit lines, so the index sees
    // long probe runs, wrap-around and backward-shift deletions; long
    // fills fill the file, and every 5000 operations the clock passes
    // every fill so one prune drains it.
    for (int entries : {1, 4, 256, 1000}) {
        Pcg32 rng(static_cast<uint64_t>(entries) * 7919);
        std::vector<uint64_t> lines;
        for (int i = 0; i < entries + 2; ++i) {
            lines.push_back(static_cast<uint64_t>(i));
            lines.push_back(static_cast<uint64_t>(i) << 14);
            lines.push_back(rng.next_u64() >> 24);
        }
        expect_mshr_matches_reference(entries, 11, lines, 8, 5000,
                                      20 * entries + 400, 40000);
    }
}

// ---- Sector coalescer ----------------------------------------------

/** Reference: every lane's sectors, then sort and unique. */
std::vector<uint64_t>
ref_coalesce_sectors(const Instruction& inst, int sector_bytes, int iter)
{
    std::vector<uint64_t> sectors;
    const uint64_t bytes = inst.width_bits / 8;
    const uint64_t mask = ~static_cast<uint64_t>(sector_bytes - 1);
    for (int lane = 0; lane < kWarpSize; ++lane) {
        uint64_t a = inst.effective_addr(lane, iter);
        if (a == kNoAddr)
            continue;
        for (uint64_t sec = a & mask; sec <= ((a + bytes - 1) & mask);
             sec += static_cast<uint64_t>(sector_bytes))
            sectors.push_back(sec);
    }
    std::sort(sectors.begin(), sectors.end());
    sectors.erase(std::unique(sectors.begin(), sectors.end()),
                  sectors.end());
    return sectors;
}

/** A random warp-wide global access: unit-stride, strided (up to
 *  spans far past 64 sectors), broadcast or scattered lanes, any
 *  width from 8 to 128 bits, aligned or not, some lanes inactive, and
 *  a loop stride / double-buffer advance. */
Instruction
random_global_access(Pcg32& rng)
{
    static constexpr int kWidths[] = {8, 16, 32, 64, 128};
    Instruction inst;
    inst.op = pick(rng, 2) ? Opcode::kLdg : Opcode::kStg;
    inst.width_bits = static_cast<uint16_t>(kWidths[pick(rng, 5)]);
    const uint64_t unit = pick(rng, 3) == 0 ? 1 : inst.width_bits / 8;
    const uint64_t base = (rng.next_u64() >> 20) * unit;
    const int pattern = pick(rng, 4);
    const uint64_t stride = static_cast<uint64_t>(pick(rng, 300)) * unit;
    const int inactive = pick(rng, 3) == 0 ? 0 : pick(rng, 8);
    std::array<uint64_t, kWarpSize> addr{};
    for (int lane = 0; lane < kWarpSize; ++lane) {
        uint64_t a = base;
        switch (pattern) {
          case 0: a += unit * static_cast<uint64_t>(lane); break;
          case 1: a += stride * static_cast<uint64_t>(lane); break;
          case 2: break;  // broadcast
          default: a += static_cast<uint64_t>(pick(rng, 4096)); break;
        }
        addr[static_cast<size_t>(lane)] =
            inactive > 0 && pick(rng, inactive) == 0 ? kNoAddr : a;
    }
    inst.addr = std::make_unique<std::array<uint64_t, kWarpSize>>(addr);
    inst.loop_stride =
        pick(rng, 3) == 0 ? 0 : static_cast<int64_t>(pick(rng, 4096));
    inst.ping_pong =
        pick(rng, 2) == 0 ? 0 : static_cast<int64_t>(pick(rng, 8192));
    return inst;
}

TEST(HotPathOracle, CoalescerMatchesSortUniqueReference)
{
    Pcg32 rng(0xc0a1e5ce);
    std::vector<uint64_t> buf;
    int wide = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        Instruction inst = random_global_access(rng);
        const int sector_bytes = pick(rng, 4) == 0 ? 64 : 32;
        const int iter = pick(rng, 8);
        std::vector<uint64_t> want =
            ref_coalesce_sectors(inst, sector_bytes, iter);
        // The output buffer is reused across calls, like the SM's.
        coalesce_sectors(inst, sector_bytes, iter, &buf);
        ASSERT_EQ(buf, want) << "trial " << trial;
        ASSERT_EQ(coalesce_sectors(inst, sector_bytes, iter), want);
        if (!want.empty() &&
            (want.back() - want.front()) / sector_bytes >= 64)
            ++wide;
    }
    // The sort-and-unique fallback for spans over 64 sectors ran too.
    EXPECT_GT(wide, 1000);
}

TEST(HotPathOracle, CoalescerAllLanesInactive)
{
    Instruction inst;
    inst.op = Opcode::kLdg;
    inst.width_bits = 128;
    inst.addr = std::make_unique<std::array<uint64_t, kWarpSize>>();
    inst.addr->fill(kNoAddr);
    std::vector<uint64_t> buf = {1, 2, 3};
    coalesce_sectors(inst, 32, 0, &buf);
    EXPECT_TRUE(buf.empty());
    EXPECT_TRUE(ref_coalesce_sectors(inst, 32, 0).empty());
}

// ---- Cache indexing --------------------------------------------------

/** Reference: the sectored LRU tag store indexed by division. */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig& cfg)
        : cfg_(cfg),
          num_sets_(cfg.size_bytes /
                    (static_cast<uint32_t>(cfg.line_bytes) * cfg.assoc)),
          lines_(static_cast<size_t>(num_sets_) * cfg.assoc)
    {
    }

    CacheOutcome access(uint64_t addr, bool is_write)
    {
        ++tick_;
        const uint64_t set = set_of(addr);
        Line* entry = find(addr);
        if (entry) {
            entry->lru = tick_;
            if (entry->sector_valid & sector_bit(addr)) {
                ++hits_;
                return CacheOutcome::kHit;
            }
            if (!is_write || cfg_.write_allocate)
                entry->sector_valid |= sector_bit(addr);
            ++misses_;
            return CacheOutcome::kSectorMiss;
        }
        ++misses_;
        if (is_write && !cfg_.write_allocate)
            return CacheOutcome::kLineMiss;
        Line* victim = &lines_[set * cfg_.assoc];
        for (int w = 1; w < cfg_.assoc; ++w) {
            Line& line = lines_[set * cfg_.assoc + w];
            if (!line.valid) {
                victim = &line;
                break;
            }
            if (line.lru < victim->lru)
                victim = &line;
        }
        victim->valid = true;
        victim->tag = tag_of(addr);
        victim->lru = tick_;
        victim->sector_valid = sector_bit(addr);
        return CacheOutcome::kLineMiss;
    }

    CacheOutcome probe(uint64_t addr)
    {
        const Line* line = find(addr);
        if (!line)
            return CacheOutcome::kLineMiss;
        return (line->sector_valid & sector_bit(addr))
                   ? CacheOutcome::kHit
                   : CacheOutcome::kSectorMiss;
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    void save_state(SnapshotWriter& w) const
    {
        w.u64(lines_.size());
        for (const Line& line : lines_) {
            w.u64(line.tag);
            w.u64(line.lru);
            w.u8(line.sector_valid);
            w.b(line.valid);
        }
        w.u64(tick_);
        w.u64(hits_);
        w.u64(misses_);
    }

  private:
    struct Line
    {
        uint64_t tag = ~uint64_t{0};
        uint64_t lru = 0;
        uint8_t sector_valid = 0;
        bool valid = false;
    };

    uint64_t set_of(uint64_t addr) const
    {
        return addr / static_cast<uint64_t>(cfg_.line_bytes) % num_sets_;
    }
    uint64_t tag_of(uint64_t addr) const
    {
        return addr / static_cast<uint64_t>(cfg_.line_bytes) / num_sets_;
    }
    uint8_t sector_bit(uint64_t addr) const
    {
        return static_cast<uint8_t>(
            1u << (addr % static_cast<uint64_t>(cfg_.line_bytes) /
                   static_cast<uint64_t>(cfg_.sector_bytes)));
    }
    Line* find(uint64_t addr)
    {
        const uint64_t set = set_of(addr);
        for (int w = 0; w < cfg_.assoc; ++w) {
            Line& line = lines_[set * cfg_.assoc + w];
            if (line.valid && line.tag == tag_of(addr))
                return &line;
        }
        return nullptr;
    }

    CacheConfig cfg_;
    uint64_t num_sets_;
    std::vector<Line> lines_;
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

TEST(HotPathOracle, CacheMatchesDivisionReference)
{
    // 256 sets (shift-and-mask indexing) and 2304 sets (the Titan V
    // L2: division), each with and without write allocation.  Lines
    // a multiple of the set count apart share a set and evict each
    // other.
    for (int sets : {256, 2304}) {
        for (bool write_allocate : {false, true}) {
            SCOPED_TRACE("sets " + std::to_string(sets) +
                         (write_allocate ? " write-allocate" : ""));
            CacheConfig cc;
            cc.assoc = sets == 256 ? 4 : 16;
            cc.size_bytes = static_cast<uint32_t>(sets) * 128 *
                            static_cast<uint32_t>(cc.assoc);
            cc.write_allocate = write_allocate;
            Cache cache(cc);
            RefCache ref(cc);
            ASSERT_EQ(cache.num_sets(), sets);
            Pcg32 rng(static_cast<uint64_t>(sets) + write_allocate);
            for (int op = 0; op < 60000; ++op) {
                const uint64_t line =
                    pick(rng, 2) == 0
                        ? static_cast<uint64_t>(pick(rng, 8)) *
                                  static_cast<uint64_t>(sets) +
                              static_cast<uint64_t>(pick(rng, 4))
                        : rng.next_u64() >> 30;
                const uint64_t addr =
                    line * 128 + static_cast<uint64_t>(pick(rng, 128));
                const bool is_write = pick(rng, 4) == 0;
                ASSERT_EQ(cache.probe(addr, is_write), ref.probe(addr))
                    << "op " << op;
                ASSERT_EQ(cache.access(addr, is_write),
                          ref.access(addr, is_write))
                    << "op " << op;
                ASSERT_EQ(cache.hits(), ref.hits());
                ASSERT_EQ(cache.misses(), ref.misses());
                if (op % 4999 == 0) {
                    ASSERT_EQ(saved(cache), saved(ref)) << "op " << op;
                }
            }
            ASSERT_EQ(saved(cache), saved(ref));
        }
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
