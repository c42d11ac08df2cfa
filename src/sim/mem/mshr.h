#pragma once
/**
 * @file
 * Per-SM L1 miss-status holding registers.  Every outstanding line
 * fill holds one entry; sector misses to a line that already has an
 * entry merge into it (one entry per line, per-sector fill times), and
 * a request to a sector whose fill is already in flight completes at
 * that fill's arrival without generating new downstream traffic.
 *
 * When every entry is held by an unfinished fill the file is full and
 * the access is refused — the refusal propagates through the SM's MIO
 * queue back to the issuing warp as a kMshrFull stall.  Entries are
 * pruned lazily against the query cycle (an entry frees once its last
 * sector fill has arrived), so the file has no autonomous clock; a
 * lower bound on the earliest fill lets queries before it skip the
 * prune pass.  Lookups go through an open-addressed line -> slot
 * index, so a query costs O(1) whatever the file size.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcsim {

class SnapshotReader;
class SnapshotWriter;

/** The miss-status holding register file of one L1. */
class MshrFile
{
  public:
    MshrFile(int entries, int line_bytes, int sector_bytes);

    /** What one file scan found for an address (see query()). */
    struct Lookup
    {
        /** Fill-arrival cycle of the exact sector when a fill for it
         *  is already in flight (the access merges — no MSHR slot, no
         *  downstream traffic); 0 otherwise. */
        uint64_t pending_fill = 0;
        /** The line already holds an entry (merge-on-sector), or a
         *  free entry exists for a new fill. */
        bool can_track = false;
        /** Internal: the line's entry, for a following track(). */
        void* entry = nullptr;
    };

    /**
     * One prune + one scan answering everything the access path needs
     * about @p addr at @p now.  The result (and its entry pointer) is
     * valid until the next mutating call on this file.  Finding an
     * in-flight fill for the exact sector counts as a merge.
     */
    Lookup query(uint64_t addr, uint64_t now);

    /** Convenience wrappers over query() (tests, simple callers). */
    uint64_t merge(uint64_t addr, uint64_t now)
    {
        return query(addr, now).pending_fill;
    }
    bool can_track(uint64_t addr, uint64_t now)
    {
        return query(addr, now).can_track;
    }

    /** First cycle an entry frees (call only when can_track is
     *  false).  Fill times are fixed once scheduled, so tracking can
     *  never become possible earlier than this. */
    uint64_t retry_cycle(uint64_t now);

    /** Record a sector fill for @p addr arriving at @p fill_done,
     *  reusing @p found from the immediately preceding query() (whose
     *  can_track was true, with no mutation in between). */
    void track(uint64_t addr, const Lookup& found, uint64_t fill_done);

    /** Standalone track: queries, then records (tests). */
    void track(uint64_t addr, uint64_t now, uint64_t fill_done)
    {
        track(addr, query(addr, now), fill_done);
    }

    /** Entries currently held by unfinished fills. */
    size_t occupancy(uint64_t now);

    /** High-water mark of occupancy since the last reset. */
    size_t peak() const { return peak_; }

    /** Sector requests that merged with an in-flight fill. */
    uint64_t merges() const { return merges_; }

    int entries() const { return entries_; }

    void reset();

    /** Serialize/restore active entries and counters.  Each line holds
     *  at most one entry, so lookups do not depend on entry order; only
     *  the snapshot bytes do. */
    void save_state(SnapshotWriter& w) const;
    void load_state(SnapshotReader& r);

  private:
    struct Entry
    {
        /** Fill-arrival cycle per sector; 0 = no fill in flight. */
        std::array<uint64_t, 8> sector_fill{};
        /** Latest fill of the entry; the entry frees when it passes. */
        uint64_t last_fill = 0;
    };

    void prune(uint64_t now);
    Entry* find(uint64_t line);

    /** Linear-probing index over lines_: index_[h] is a slot of
     *  active_/lines_ or kNoSlot.  Keys live in lines_ only, so a
     *  bucket is two bytes.  Entry order in active_/lines_ is exactly
     *  that of the index-free file (snapshot bytes depend on it). */
    static constexpr uint16_t kNoSlot = UINT16_MAX;
    size_t home(uint64_t line) const;
    /** Bucket holding @p line (which must be indexed). */
    size_t bucket_of(uint64_t line) const;
    void index_insert(uint64_t line, uint16_t slot);
    /** Remove the bucket at @p b, shifting later probes back so no
     *  tombstones are needed. */
    void index_erase(size_t b);

    int entries_;
    int line_bytes_;
    int sector_bytes_;
    std::vector<Entry> active_;
    /** Line address of active_[i]. */
    std::vector<uint64_t> lines_;
    std::vector<uint16_t> index_;
    int index_shift_ = 0;  ///< 64 - log2(index_.size()).
    /** Lower bound on every active entry's last_fill: no entry frees
     *  before it, so prune() has nothing to do while now < next_free_. */
    uint64_t next_free_ = UINT64_MAX;
    size_t peak_ = 0;
    uint64_t merges_ = 0;
};

}  // namespace tcsim
