//! Shared prepared-network cache across sweep cells.
//!
//! A comparison sweep runs five algorithms on the same `(scenario, seed)`
//! point, and every cell used to call [`engine::prepare`] from scratch —
//! re-propagating the identical constellation and re-discovering the
//! identical ISLs/USLs five times. [`PreparedCache`] memoizes
//! `Arc<PreparedNetwork>` by a ([`engine::prepare_digest`], seed) key so
//! those cells share a single build.
//!
//! The cache is safe to consult from concurrent sweep workers: the first
//! requester of a key builds while later requesters for the same key block
//! on that one build (build-once semantics), and requests for *different*
//! keys build in parallel. Because `prepare` is deterministic in
//! `(scenario, seed)`, a cached network is bit-identical to a fresh one —
//! the cache tunes speed, never results.
//!
//! Entries live for the lifetime of the cache (one sweep), which is
//! bounded: the digest covers only the fields `prepare` reads, so e.g. a
//! rate sweep collapses to one entry per seed no matter how many load
//! points it evaluates.

use crate::engine::{self, PreparedNetwork};
use crate::scenario::ScenarioConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A build-once cell: the first requester initializes it, concurrent
/// requesters for the same key block on that one initialization.
type BuildCell = Arc<OnceLock<Arc<PreparedNetwork>>>;

/// Memoizes [`PreparedNetwork`]s by ([`engine::prepare_digest`], seed).
/// See the module docs for semantics.
#[derive(Debug)]
pub struct PreparedCache {
    /// One build-once cell per key. The map lock is held only to look up
    /// or insert a cell, never across a build, so workers building
    /// different keys proceed in parallel.
    cells: Mutex<HashMap<(u64, u64), BuildCell>>,
    hits: AtomicU64,
    misses: AtomicU64,
    build_threads: usize,
}

impl PreparedCache {
    /// A cache whose builds fan snapshot construction across
    /// `build_threads` workers ([`engine::prepare_with`]).
    pub fn new(build_threads: usize) -> Self {
        PreparedCache {
            cells: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            build_threads: build_threads.max(1),
        }
    }

    /// The prepared network for `(scenario, seed)` — built on first
    /// request, shared on every later one. Concurrent requests for the
    /// same key block on the single builder; requests for different keys
    /// build concurrently.
    pub fn get(&self, scenario: &ScenarioConfig, seed: u64) -> Arc<PreparedNetwork> {
        let key = (engine::prepare_digest(scenario), seed);
        let cell = {
            let mut map = self.cells.lock().expect("prepared-cache map poisoned");
            map.entry(key).or_default().clone()
        };
        let mut built = false;
        let prepared = cell
            .get_or_init(|| {
                built = true;
                Arc::new(engine::prepare_with(scenario, seed, self.build_threads))
            })
            .clone();
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        prepared
    }

    /// How many `get`s were answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// How many `get`s had to build.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct keys built so far.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("prepared-cache map poisoned").len()
    }

    /// Whether no key has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn tiny() -> ScenarioConfig {
        ScenarioConfig::tiny()
    }

    #[test]
    fn same_key_shares_one_build() {
        let cache = PreparedCache::new(1);
        let a = cache.get(&tiny(), 7);
        let b = cache.get(&tiny(), 7);
        assert!(Arc::ptr_eq(&a, &b), "same (scenario, seed) must share the Arc");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_seeds_build_separately() {
        let cache = PreparedCache::new(1);
        let a = cache.get(&tiny(), 7);
        let b = cache.get(&tiny(), 8);
        assert!(!Arc::ptr_eq(&a, &b), "different seeds must not share");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn workload_only_fields_share_the_prepared_network() {
        // The digest covers exactly what `prepare` reads: changing the
        // arrival rate must hit, changing the pair count must miss.
        let cache = PreparedCache::new(1);
        let base = tiny();
        let mut loaded = tiny();
        loaded.arrivals_per_slot *= 3.0;
        let mut reshaped = tiny();
        reshaped.num_pairs += 1;
        let a = cache.get(&base, 7);
        let b = cache.get(&loaded, 7);
        let c = cache.get(&reshaped, 7);
        assert!(Arc::ptr_eq(&a, &b), "arrival rate is workload-only");
        assert!(!Arc::ptr_eq(&a, &c), "pair count changes the prepared network");
    }

    #[test]
    fn concurrent_requests_block_on_one_builder() {
        let cache = PreparedCache::new(1);
        let results: Vec<Arc<PreparedNetwork>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| cache.get(&tiny(), 7))).collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], r), "all workers must share one build");
        }
        assert_eq!(cache.misses(), 1, "exactly one build for one key");
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn cached_network_is_bit_identical_to_fresh() {
        let cache = PreparedCache::new(4);
        let cached = cache.get(&tiny(), 7);
        let fresh = engine::prepare(&tiny(), 7);
        assert_eq!(cached.pairs, fresh.pairs);
        assert_eq!(cached.series.as_ref(), fresh.series.as_ref());
    }
}
