//! The one content-addressed report cache of the workspace.
//!
//! Two clients share it: the per-call launch memo of a memoizing [`Gpu`]
//! (values are single [`KernelReport`]s, keyed by
//! [`BlockTrace::memo_key`]) and the serving layer's request cache
//! (values are a request's reports plus its ladder outcome, keyed by the
//! request's canonical JSON).
//!
//! A key is the FNV-1a 64 hash of a canonical string, and every lookup
//! also compares the full string, so a 64-bit collision can only miss —
//! it never aliases two entries. The cache is bounded and evicts the
//! least recently used entry. An optional fault point (serving arms
//! `serve.cache`) models a corrupt entry: when it fires on a would-be hit,
//! the entry is dropped and the lookup misses, so the caller re-derives
//! identical bytes and re-inserts them.
//!
//! [`Gpu`]: crate::Gpu
//! [`KernelReport`]: crate::KernelReport
//! [`BlockTrace::memo_key`]: crate::BlockTrace::memo_key

use defcon_support::fault;

struct Entry<V> {
    key: u64,
    canonical: String,
    value: V,
    last_used: u64,
}

/// A bounded, LRU-evicting, content-addressed cache of `V`s.
pub struct ReportCache<V> {
    capacity: usize,
    fault_point: Option<&'static str>,
    entries: Vec<Entry<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    drops: u64,
    inserts: u64,
}

/// Entries an empty cache makes room for up front, so filling a small
/// cache never reallocates its entry list in the middle of the work that
/// fills it (see the launch memo in `engine`).
const RESERVED_ENTRIES: usize = 32;

impl<V: Clone> ReportCache<V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ReportCache {
            capacity,
            fault_point: None,
            entries: Vec::with_capacity(capacity.min(RESERVED_ENTRIES)),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            drops: 0,
            inserts: 0,
        }
    }

    /// The same cache with lookups gated by the named fault point: when it
    /// fires on a would-be hit, the entry is dropped and the lookup misses.
    pub fn with_fault_point(mut self, point: &'static str) -> Self {
        self.fault_point = Some(point);
        self
    }

    /// Looks up a content address. Only a byte-identical canonical string
    /// counts as a hit; a firing fault point drops the matching entry
    /// instead (forcing a deterministic re-derivation).
    pub fn lookup(&mut self, key: u64, canonical: &str) -> Option<V> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.key == key && e.canonical == canonical);
        let Some(i) = pos else {
            self.misses += 1;
            return None;
        };
        if self.fault_point.is_some_and(fault::fires) {
            // Injected corruption: the stored bytes are untrustworthy, so
            // drop the entry and miss — the fresh simulation re-derives
            // identical bytes and re-inserts them.
            self.entries.remove(i);
            self.drops += 1;
            self.misses += 1;
            return None;
        }
        self.tick += 1;
        self.entries[i].last_used = self.tick;
        self.hits += 1;
        Some(self.entries[i].value.clone())
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used
    /// one when at capacity.
    pub fn insert(&mut self, key: u64, canonical: String, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.key == key && e.canonical == canonical)
        {
            e.last_used = self.tick;
            return;
        }
        if self.entries.len() >= self.capacity {
            let mut lru = 0;
            for (i, e) in self.entries.iter().enumerate() {
                if e.last_used < self.entries[lru].last_used {
                    lru = i;
                }
            }
            self.entries.swap_remove(lru);
            self.evictions += 1;
        }
        self.entries.push(Entry {
            key,
            canonical,
            value,
            last_used: self.tick,
        });
        self.inserts += 1;
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed (including fault-dropped entries).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted by the LRU bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Entries dropped by the fault point.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Entries actually pushed (refreshes excluded). Every inserted entry
    /// is still resident, was LRU-evicted, or was fault-dropped, so
    /// `inserts == len + evictions + drops` at every quiescent point —
    /// the chaos soak's cache-accounting invariant.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Lifetime hit rate in `[0, 1]` (0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_point_is_only_consulted_when_attached() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let _armed = fault::arm(FaultPlan::new(1).point("serve.cache", Schedule::Always));
        let mut plain = ReportCache::new(2);
        plain.insert(1, "a".into(), 'a');
        assert_eq!(plain.lookup(1, "a"), Some('a'));
        assert_eq!(plain.drops(), 0);
        let mut gated = ReportCache::new(2).with_fault_point("serve.cache");
        gated.insert(1, "a".into(), 'a');
        assert_eq!(gated.lookup(1, "a"), None);
        assert_eq!((gated.drops(), gated.misses(), gated.len()), (1, 1, 0));
    }
}
