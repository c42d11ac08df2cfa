#include "sim/mem/mshr.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "sim/snapshot_io.h"

namespace tcsim {

MshrFile::MshrFile(int entries, int line_bytes, int sector_bytes)
    : entries_(entries), line_bytes_(line_bytes), sector_bytes_(sector_bytes)
{
    TCSIM_CHECK(entries > 0);
    TCSIM_CHECK(line_bytes > 0 && sector_bytes > 0);
    TCSIM_CHECK(line_bytes % sector_bytes == 0);
    TCSIM_CHECK(line_bytes / sector_bytes <= 8);
    TCSIM_CHECK(entries < kNoSlot);
    // Full reservation up front: entry pointers handed out by query()
    // stay valid across the push_back in track().
    active_.reserve(static_cast<size_t>(entries));
    lines_.reserve(static_cast<size_t>(entries));
    // At most half the buckets are ever occupied: probes stay short.
    const size_t buckets =
        std::bit_ceil(2 * static_cast<size_t>(entries));
    index_.assign(buckets, kNoSlot);
    index_shift_ = 64 - std::countr_zero(buckets);
}

size_t
MshrFile::home(uint64_t line) const
{
    // Fibonacci hashing: the top bits of a golden-ratio multiply (the
    // index has at least two buckets, so the shift is below 64).
    return static_cast<size_t>((line * 0x9E3779B97F4A7C15ull) >>
                               index_shift_);
}

size_t
MshrFile::bucket_of(uint64_t line) const
{
    const size_t mask = index_.size() - 1;
    size_t b = home(line);
    while (lines_[index_[b]] != line)
        b = (b + 1) & mask;
    return b;
}

void
MshrFile::index_insert(uint64_t line, uint16_t slot)
{
    const size_t mask = index_.size() - 1;
    size_t b = home(line);
    while (index_[b] != kNoSlot)
        b = (b + 1) & mask;
    index_[b] = slot;
}

void
MshrFile::index_erase(size_t b)
{
    // Backward-shift deletion: move each later member of the probe run
    // into the hole unless its home lies cyclically in (hole, member].
    const size_t mask = index_.size() - 1;
    size_t hole = b;
    for (size_t j = (b + 1) & mask; index_[j] != kNoSlot;
         j = (j + 1) & mask) {
        const size_t h = home(lines_[index_[j]]);
        const bool stays = hole <= j ? (hole < h && h <= j)
                                     : (hole < h || h <= j);
        if (stays)
            continue;
        index_[hole] = index_[j];
        hole = j;
    }
    index_[hole] = kNoSlot;
}

void
MshrFile::prune(uint64_t now)
{
    if (now < next_free_)
        return;
    // An entry frees once its last sector fill has arrived.  Order is
    // irrelevant (lookup is by line), so swap-erase.
    next_free_ = UINT64_MAX;
    for (size_t i = 0; i < active_.size();) {
        if (active_[i].last_fill <= now) {
            index_erase(bucket_of(lines_[i]));
            const size_t last = active_.size() - 1;
            if (i != last)
                index_[bucket_of(lines_[last])] = static_cast<uint16_t>(i);
            active_[i] = active_.back();
            active_.pop_back();
            lines_[i] = lines_.back();
            lines_.pop_back();
        } else {
            next_free_ = std::min(next_free_, active_[i].last_fill);
            ++i;
        }
    }
}

MshrFile::Entry*
MshrFile::find(uint64_t line)
{
    const size_t mask = index_.size() - 1;
    for (size_t b = home(line); index_[b] != kNoSlot; b = (b + 1) & mask)
        if (lines_[index_[b]] == line)
            return &active_[index_[b]];
    return nullptr;
}

MshrFile::Lookup
MshrFile::query(uint64_t addr, uint64_t now)
{
    prune(now);
    Lookup out;
    Entry* e = find(addr / static_cast<uint64_t>(line_bytes_));
    out.entry = e;
    if (e) {
        // Merge-on-sector: the line's entry absorbs new fills, and a
        // fill already in flight for this exact sector is ridden home.
        out.can_track = true;
        size_t sector = (addr % static_cast<uint64_t>(line_bytes_)) /
                        static_cast<uint64_t>(sector_bytes_);
        uint64_t fill = e->sector_fill[sector];
        if (fill > now) {
            out.pending_fill = fill;
            ++merges_;
        }
        return out;
    }
    out.can_track = active_.size() < static_cast<size_t>(entries_);
    return out;
}

uint64_t
MshrFile::retry_cycle(uint64_t now)
{
    prune(now);
    TCSIM_CHECK(active_.size() >= static_cast<size_t>(entries_));
    uint64_t first_free = UINT64_MAX;
    for (const Entry& e : active_)
        first_free = std::min(first_free, e.last_fill);
    return first_free;
}

void
MshrFile::track(uint64_t addr, const Lookup& found, uint64_t fill_done)
{
    Entry* e = static_cast<Entry*>(found.entry);
    if (!e) {
        TCSIM_CHECK(active_.size() < static_cast<size_t>(entries_));
        active_.push_back(Entry{});
        e = &active_.back();
        lines_.push_back(addr / static_cast<uint64_t>(line_bytes_));
        index_insert(lines_.back(),
                     static_cast<uint16_t>(lines_.size() - 1));
        peak_ = std::max(peak_, active_.size());
    }
    size_t sector = (addr % static_cast<uint64_t>(line_bytes_)) /
                    static_cast<uint64_t>(sector_bytes_);
    e->sector_fill[sector] = std::max(e->sector_fill[sector], fill_done);
    e->last_fill = std::max(e->last_fill, fill_done);
    // last_fill only grows, so the bound stays valid for merged lines.
    next_free_ = std::min(next_free_, e->last_fill);
}

size_t
MshrFile::occupancy(uint64_t now)
{
    prune(now);
    return active_.size();
}

void
MshrFile::reset()
{
    active_.clear();
    lines_.clear();
    std::fill(index_.begin(), index_.end(), kNoSlot);
    next_free_ = UINT64_MAX;
    peak_ = 0;
    merges_ = 0;
}

void
MshrFile::save_state(SnapshotWriter& w) const
{
    w.u64(active_.size());
    for (size_t i = 0; i < active_.size(); ++i) {
        const Entry& e = active_[i];
        w.u64(lines_[i]);
        for (uint64_t fill : e.sector_fill)
            w.u64(fill);
        w.u64(e.last_fill);
    }
    w.u64(peak_);
    w.u64(merges_);
}

void
MshrFile::load_state(SnapshotReader& r)
{
    uint64_t n = r.u64();
    if (n > static_cast<uint64_t>(entries_))
        throw SnapshotError("MSHR occupancy exceeds file size");
    active_.clear();
    lines_.clear();
    std::fill(index_.begin(), index_.end(), kNoSlot);
    next_free_ = UINT64_MAX;
    for (uint64_t i = 0; i < n; ++i) {
        const uint64_t line = r.u64();
        if (find(line))
            throw SnapshotError("MSHR file holds a line twice");
        lines_.push_back(line);
        index_insert(line, static_cast<uint16_t>(i));
        Entry e;
        for (uint64_t& fill : e.sector_fill)
            fill = r.u64();
        e.last_fill = r.u64();
        active_.push_back(e);
        next_free_ = std::min(next_free_, e.last_fill);
    }
    peak_ = r.u64();
    merges_ = r.u64();
}

}  // namespace tcsim
