//! The coreset cache used by CC and RCC.
//!
//! The cache stores previously computed coresets, keyed by the *right
//! endpoint* of their span (the index of the newest base bucket they
//! summarize). After answering a query at `N` buckets, CC inserts the freshly
//! built coreset with key `N` and evicts every entry whose key is not in
//! `prefixsum(N, r) ∪ {N}` (Algorithm 3, lines 18–19), which keeps at most
//! `O(log_r N)` cached coresets alive (Lemma 7).

use crate::numeric::prefixsum;
use serde::{Deserialize, Serialize, Value};
use skm_coreset::coreset::Coreset;
use std::collections::HashMap;

/// A cache of coresets keyed by the right endpoint of their span.
#[derive(Debug, Clone, Default)]
pub struct CoresetCache {
    entries: HashMap<u64, Coreset>,
}

impl CoresetCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: HashMap::new(),
        }
    }

    /// Number of cached coresets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a coreset with right endpoint `key` is cached.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Looks up the coreset with right endpoint `key`.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<&Coreset> {
        self.entries.get(&key)
    }

    /// Inserts a coreset under the right endpoint of its span, replacing any
    /// previous entry with the same key.
    pub fn insert(&mut self, coreset: Coreset) {
        self.entries.insert(coreset.right_endpoint(), coreset);
    }

    /// Evicts every entry whose key is not in `prefixsum(n, r) ∪ {n}`
    /// (Algorithm 3, line 19). Returns the number of evicted entries.
    pub fn evict_stale(&mut self, n: u64, r: u64) -> usize {
        let mut keep = prefixsum(n, r);
        keep.push(n);
        let before = self.entries.len();
        self.entries.retain(|key, _| keep.contains(key));
        before - self.entries.len()
    }

    /// All cached keys (right endpoints), in ascending order.
    #[must_use]
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// The cached coresets, in no particular order.
    pub fn coresets(&self) -> impl Iterator<Item = &Coreset> {
        self.entries.values()
    }

    /// Total number of (weighted) points stored in the cache.
    #[must_use]
    pub fn stored_points(&self) -> usize {
        self.entries.values().map(Coreset::len).sum()
    }

    /// Removes every entry (used when an enclosing RCC structure is reset).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The cache serializes as a sequence of coresets sorted by right endpoint
/// (the map key is recomputed from each coreset's span on restore, and the
/// sort keeps snapshot bytes independent of `HashMap` iteration order).
impl Serialize for CoresetCache {
    fn to_value(&self) -> Value {
        let mut entries: Vec<&Coreset> = self.entries.values().collect();
        entries.sort_by_key(|c| c.right_endpoint());
        Value::Seq(entries.iter().map(|c| c.to_value()).collect())
    }
}

impl Deserialize for CoresetCache {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::Error> {
        let coresets: Vec<Coreset> = Deserialize::from_value(value)?;
        let mut cache = Self::new();
        for coreset in coresets {
            cache.insert(coreset);
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skm_clustering::PointBlock;
    use skm_coreset::Span;

    fn coreset(span: Span, n_points: usize) -> Coreset {
        let mut s = PointBlock::new(1);
        for i in 0..n_points {
            s.push(&[i as f64], 1.0);
        }
        Coreset::with_parts(s, span, 1)
    }

    #[test]
    fn insert_and_lookup_by_right_endpoint() {
        let mut cache = CoresetCache::new();
        assert!(cache.is_empty());
        cache.insert(coreset(Span::new(1, 4), 3));
        cache.insert(coreset(Span::new(1, 6), 5));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(4));
        assert!(cache.contains(6));
        assert!(!cache.contains(5));
        assert_eq!(cache.lookup(4).unwrap().span(), Span::new(1, 4));
        assert_eq!(cache.stored_points(), 8);
    }

    #[test]
    fn reinsert_replaces_entry() {
        let mut cache = CoresetCache::new();
        cache.insert(coreset(Span::new(1, 4), 3));
        cache.insert(coreset(Span::new(1, 4), 9));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(4).unwrap().len(), 9);
    }

    #[test]
    fn eviction_keeps_only_prefixsum_and_n() {
        // After bucket 7 with r = 2: prefixsum(7,2) = {6, 4}; keep {4, 6, 7}.
        let mut cache = CoresetCache::new();
        for end in 1..=7u64 {
            cache.insert(coreset(Span::new(1, end), 2));
        }
        let evicted = cache.evict_stale(7, 2);
        assert_eq!(evicted, 4);
        assert_eq!(cache.keys(), vec![4, 6, 7]);
    }

    #[test]
    fn eviction_matches_paper_figure_2() {
        // Figure 2: after bucket 15 (r = 2) the cache holds coresets with
        // right endpoints {8, 12, 14, 15} = prefixsum(15,2) ∪ {15}.
        let mut cache = CoresetCache::new();
        for end in 1..=15u64 {
            cache.insert(coreset(Span::new(1, end), 1));
        }
        cache.evict_stale(15, 2);
        assert_eq!(cache.keys(), vec![8, 12, 14, 15]);
        // After bucket 16, only [1,16] remains (16 is a power of 2).
        cache.insert(coreset(Span::new(1, 16), 1));
        cache.evict_stale(16, 2);
        assert_eq!(cache.keys(), vec![16]);
    }

    #[test]
    fn cache_size_stays_logarithmic() {
        let r = 2u64;
        let mut cache = CoresetCache::new();
        for n in 1..=1024u64 {
            cache.insert(coreset(Span::new(1, n), 1));
            cache.evict_stale(n, r);
            let bound = crate::numeric::ceil_log(n, r) as usize + 1;
            assert!(
                cache.len() <= bound,
                "cache holds {} entries at N = {n}, bound {bound}",
                cache.len()
            );
        }
    }

    #[test]
    fn clear_empties_cache() {
        let mut cache = CoresetCache::new();
        cache.insert(coreset(Span::new(1, 3), 2));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stored_points(), 0);
    }

    #[test]
    fn serde_round_trip_preserves_entries_in_sorted_order() {
        let mut cache = CoresetCache::new();
        for end in [9u64, 2, 5] {
            cache.insert(coreset(Span::new(1, end), end as usize));
        }
        let json = serde_json::to_string(&cache).unwrap();
        let back: CoresetCache = serde_json::from_str(&json).unwrap();
        assert_eq!(back.keys(), vec![2, 5, 9]);
        assert_eq!(back.stored_points(), cache.stored_points());
        assert_eq!(back.lookup(5).unwrap().span(), Span::new(1, 5));
        // Serialized form is key-sorted, so snapshot bytes are stable across
        // runs despite HashMap's randomized iteration order.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }
}
