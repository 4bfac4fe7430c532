//! Set-associative LRU cache model.

use crate::device::CacheGeometry;

/// Result of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line filled from the next level.
    Miss,
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags are full line addresses; each set's ways are kept in
/// **most-recent-first order** (move-to-front on hit, insert-at-front on
/// fill), so the last valid entry *is* the LRU victim — no timestamp array,
/// no second victim scan. The model tracks hits and misses only — data
/// never moves through it (numerics live on the CPU side of each kernel).
///
/// Recency ordering is observationally identical to stamp-based LRU: an
/// access's hit/miss outcome depends only on the set's membership, and both
/// schemes evict the least-recently-used line when a full set misses (the
/// per-set recency order is a strict total order either way). The
/// `tests/hot_path_equivalence.rs` property test pins this against the
/// allocating reference walk.
///
/// `access_line` is on the simulator's critical path (every sector of every
/// warp load walks L1→L2 through it), so the layout is tuned for the probe:
/// a set is one contiguous run of `ways` tags — 32 B for a 4-way L1, one
/// hardware cache line — and set indexing uses a mask when the set count is
/// a power of two (`line & (sets-1)` instead of the `%` division), with a
/// checked modulo fallback for the geometries that are not (the Xavier
/// texture cache has 96 sets). Both index paths compute the same value
/// wherever both apply.
pub struct Cache {
    geometry: CacheGeometry,
    sets: usize,
    /// `Some(sets - 1)` when the set count is a power of two.
    set_mask: Option<u64>,
    /// `tags[set * geometry.ways ..][..geometry.ways]`, most-recent-first;
    /// `u64::MAX` = invalid. Valid tags always form a prefix of the set.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty cache from a geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.num_sets();
        Cache {
            geometry,
            sets,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            tags: vec![u64::MAX; sets * geometry.ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.geometry.line_bytes
    }

    /// Maps a byte address to its line address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.geometry.line_bytes as u64
    }

    /// Accesses one byte address; loads the containing line on miss.
    pub fn access(&mut self, addr: u64) -> Access {
        self.access_line(self.line_of(addr))
    }

    /// Set index of a line: mask for power-of-two set counts, modulo
    /// otherwise. Both give `line mod sets`; the mask skips the division.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.sets as u64) as usize,
        }
    }

    /// Accesses one *line* address directly (the coalescer works in lines).
    ///
    /// One forward scan handles everything: a matching tag is a hit
    /// (rotated to the front to refresh recency), an invalid tag ends the
    /// valid prefix so the new line fills that slot (again at the front),
    /// and scanning off the end means the set is full and the last — least
    /// recent — entry falls off as the new line is inserted.
    pub fn access_line(&mut self, line: u64) -> Access {
        let ways = self.geometry.ways;
        let base = self.set_of(line) * ways;
        let set = &mut self.tags[base..base + ways];

        let mut w = ways - 1;
        for (i, &tag) in set.iter().enumerate() {
            if tag == line {
                set.copy_within(0..i, 1);
                set[0] = line;
                self.hits += 1;
                return Access::Hit;
            }
            if tag == u64::MAX {
                w = i;
                break;
            }
        }
        // Miss: insert at the front; the entry at `w` (the first free slot,
        // or the LRU line when the set is full) is overwritten by the shift.
        set.copy_within(0..w, 1);
        set[0] = line;
        self.misses += 1;
        Access::Miss
    }

    /// Counts a hit for a line the caller knows sits at the MRU front of
    /// its set — i.e. the line of this cache's immediately preceding
    /// [`Cache::access_line`], with no flush in between. Equivalent to the
    /// probe it replaces (which would hit at way 0 and move nothing), just
    /// without the scan; callers on the sector walk use it to collapse
    /// runs of same-line sectors.
    #[inline]
    pub fn note_mru_hit(&mut self) {
        self.hits += 1;
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Invalidates all lines but keeps the statistics (used between thread
    /// blocks for per-SM caches).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
    }

    /// Zeroes the statistics.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::CacheGeometry;

    fn tiny() -> Cache {
        // 4 sets * 2 ways * 64B lines = 512 B
        Cache::new(CacheGeometry {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            hit_latency: 1,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(4), Access::Hit); // same line
        assert_eq!(c.access(64), Access::Miss); // next line
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines in the same set (stride = sets * line = 256B).
        c.access(0);
        c.access(256);
        c.access(512); // evicts line 0
        assert_eq!(c.access(256), Access::Hit);
        assert_eq!(c.access(0), Access::Miss);
    }

    #[test]
    fn lru_refresh_on_hit() {
        let mut c = tiny();
        c.access(0);
        c.access(256);
        c.access(0); // refresh line 0
        c.access(512); // should evict 256, not 0
        assert_eq!(c.access(0), Access::Hit);
        assert_eq!(c.access(256), Access::Miss);
    }

    #[test]
    fn flush_clears_contents_not_stats() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = tiny();
        assert_eq!(c.hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn working_set_within_capacity_all_hits_on_second_pass() {
        let mut c = tiny();
        for i in 0..8 {
            c.access(i * 64);
        }
        c.reset_stats();
        for i in 0..8 {
            assert_eq!(c.access(i * 64), Access::Hit, "line {i}");
        }
    }
}
