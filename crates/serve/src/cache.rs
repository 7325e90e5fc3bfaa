//! Capped, sharded cross-request plan cache.
//!
//! The concurrency shape mirrors `ExactOracle`'s sharded memo
//! (crates/cost/src/oracle.rs): keys hash to one of up to 16 independent
//! shards so concurrent workers rarely contend on the same lock, and
//! insertion is first-writer-wins. Unlike the oracle memo, every shard
//! carries a hard entry cap with LRU-style eviction (a global logical
//! clock stamps each touch; the stalest entry in the full shard is
//! evicted), so the cache's total size can never exceed the configured
//! cap over an arbitrarily long soak run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::EngineResponse;

struct Entry {
    resp: EngineResponse,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<String, Entry>,
}

/// The cache. `new(0)` disables it (every insert is dropped).
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    caps: Vec<usize>,
    tick: AtomicU64,
}

fn lock(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl PlanCache {
    /// A cache holding at most `cap` entries in total.
    pub fn new(cap: usize) -> PlanCache {
        // Small caps get fewer shards so per-shard caps stay meaningful;
        // the per-shard caps always sum to exactly `cap`.
        let shard_count = cap.clamp(1, 16);
        let caps: Vec<usize> = (0..shard_count)
            .map(|i| cap / shard_count + usize::from(i < cap % shard_count))
            .collect();
        PlanCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            caps,
            tick: AtomicU64::new(0),
        }
    }

    /// The configured total entry cap.
    pub fn cap(&self) -> usize {
        self.caps.iter().sum()
    }

    fn shard_of(&self, key: &str) -> usize {
        // FNV-1a, then the same Fibonacci spread ExactOracle uses.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<EngineResponse> {
        let mut shard = lock(&self.shards[self.shard_of(key)]);
        let entry = shard.entries.get_mut(key)?;
        entry.last_used = self.next_tick();
        Some(entry.resp.clone())
    }

    /// Inserts `key` (first writer wins), evicting the least-recently-used
    /// entries in its shard as needed. Returns how many were evicted.
    pub fn insert(&self, key: String, resp: EngineResponse) -> u64 {
        let idx = self.shard_of(&key);
        let cap = self.caps[idx];
        if cap == 0 {
            return 0;
        }
        let mut shard = lock(&self.shards[idx]);
        if shard.entries.contains_key(&key) {
            return 0;
        }
        let mut evicted = 0u64;
        while shard.entries.len() >= cap {
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            shard.entries.remove(&victim);
            evicted += 1;
        }
        let last_used = self.next_tick();
        shard.entries.insert(key, Entry { resp, last_used });
        evicted
    }

    /// A copy of every cached `(key, response)` pair, sorted by key so the
    /// drain snapshot written to a persistent store is deterministic for a
    /// given cache content.
    pub fn export(&self) -> Vec<(String, EngineResponse)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for (k, e) in &shard.entries {
                out.push((k.clone(), e.resp.clone()));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(tag: &str) -> EngineResponse {
        EngineResponse {
            output: tag.to_string(),
            extra: Vec::new(),
        }
    }

    #[test]
    fn round_trips_and_respects_first_writer_wins() {
        let c = PlanCache::new(8);
        assert_eq!(c.insert("k".into(), resp("a")), 0);
        assert_eq!(c.insert("k".into(), resp("b")), 0);
        assert_eq!(c.get("k").unwrap().output, "a");
        assert!(c.get("missing").is_none());
    }

    #[test]
    fn never_exceeds_the_cap_and_evicts_lru() {
        let cap = 4;
        let c = PlanCache::new(cap);
        let mut evictions = 0;
        for i in 0..64 {
            evictions += c.insert(format!("key-{i}"), resp("x"));
            assert!(c.len() <= cap, "len {} > cap {cap} at i={i}", c.len());
        }
        assert!(evictions >= 60 - cap as u64, "evictions: {evictions}");
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        // A single-shard cache makes the LRU order directly observable.
        let c = PlanCache::new(2);
        assert_eq!(c.shards.len(), 2);
        let c = PlanCache::new(1);
        c.insert("old".into(), resp("old"));
        c.insert("new".into(), resp("new"));
        assert!(c.get("old").is_none(), "old entry must have been evicted");
        assert_eq!(c.get("new").unwrap().output, "new");
    }

    #[test]
    fn zero_cap_disables_caching() {
        let c = PlanCache::new(0);
        assert_eq!(c.insert("k".into(), resp("a")), 0);
        assert!(c.get("k").is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.cap(), 0);
    }

    #[test]
    fn concurrent_hammering_stays_bounded() {
        let c = std::sync::Arc::new(PlanCache::new(16));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..200 {
                        c.insert(format!("t{t}-k{i}"), resp("x"));
                        c.get(&format!("t{t}-k{}", i / 2));
                    }
                });
            }
        });
        assert!(c.len() <= 16, "len {}", c.len());
    }
}
