//! The engine's result cache: bounded LRU with optional TTL expiry.
//!
//! Keys are the canonical request encodings of [`crate::request::Request::cache_key`],
//! so syntactically different but semantically identical requests share one
//! entry: permuted or absorbed (non-minimal) edges for `check`/`enumerate`,
//! permuted edges and reordered relation rows for `mine`/`keys`.
//! The cache stores finished outcomes, not parsed inputs: repeated requests
//! skip the solver entirely.
//!
//! Eviction is **least-recently-used**: every hit refreshes an entry's
//! recency, and inserting a new key into a full cache removes the entry that
//! has gone longest without being touched (a generation-clock design — a
//! monotone tick per touch, with a `BTreeMap` recency index from tick to key,
//! so both the hit path and the eviction path are `O(log n)`).  An optional
//! TTL additionally expires entries a fixed duration after they were stored;
//! expired entries answer as misses and are removed on access.  All four
//! outcomes — hit, miss, eviction, expiration — are counted and exposed via
//! [`CacheStats`] (also available on the wire through the `stats` request,
//! see `docs/WIRE.md`).

use crate::lock_ignoring_poison;
use crate::ops::ExecInfo;
use crate::response::{EngineError, Outcome};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A finished result as stored in the cache.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The outcome (or rendered error) of the first execution.
    pub outcome: Result<Outcome, EngineError>,
    /// Telemetry of the first execution (solver name, peak bits, call count).
    pub info: ExecInfo,
}

/// Counters of a [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of lookups answered from the cache.
    pub hits: u64,
    /// Number of lookups that missed (including expired entries).
    pub misses: u64,
    /// Number of entries currently stored.
    pub entries: u64,
    /// Number of live entries evicted to make room for new keys (LRU).
    pub evictions: u64,
    /// Number of entries removed because they outlived the TTL.
    pub expirations: u64,
    /// The maximum number of entries the cache will hold.
    pub capacity: u64,
}

/// Default bound on stored entries (see [`QueryCache::with_capacity`]).
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// One stored entry: the result plus its recency tick and insertion time.
/// The result is `Arc`-shared with every hit (and with snapshot exports), so
/// replaying a hot streamed key never deep-copies the stored chunk vectors.
#[derive(Debug)]
struct Entry {
    result: Arc<CachedResult>,
    /// Generation-clock value of the last touch; index into `recency`.
    tick: u64,
    /// When the entry was stored (TTL is measured from here; hits do not
    /// refresh it).
    stored_at: Instant,
}

/// The mutexed interior: the key map plus the recency index.  Keys are
/// `Arc<str>` shared between the two containers: canonical keys are complete
/// request encodings (potentially kilobytes), so neither the second index nor
/// the hit-path recency bump should copy them.
#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Arc<str>, Entry>,
    /// Recency index: tick → key, ascending ticks are least recently used.
    recency: BTreeMap<u64, Arc<str>>,
    /// The generation clock; strictly increases on every touch.
    tick: u64,
}

/// A shared, thread-safe LRU map from canonical request keys to finished
/// results.
///
/// The cache is bounded: storing a new key into a full cache evicts the
/// least-recently-used entry (every [`QueryCache::get`] hit counts as a use).
/// With a TTL configured, entries older than the TTL answer as misses and are
/// dropped.  This keeps memory bounded on long-running daemon sessions while
/// letting hot keys survive arbitrary amounts of mostly-unique traffic.
#[derive(Debug)]
pub struct QueryCache {
    inner: Mutex<Inner>,
    capacity: usize,
    ttl: Option<Duration>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expirations: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl QueryCache {
    /// An empty cache with the default entry bound and no TTL.
    pub fn new() -> Self {
        QueryCache::default()
    }

    /// An empty cache holding at most `capacity` entries, no TTL.
    pub fn with_capacity(capacity: usize) -> Self {
        QueryCache::with_limits(capacity, None)
    }

    /// An empty cache holding at most `capacity` entries whose entries expire
    /// `ttl` after insertion (when `ttl` is `Some`).
    pub fn with_limits(capacity: usize, ttl: Option<Duration>) -> Self {
        QueryCache {
            inner: Mutex::new(Inner::default()),
            capacity,
            ttl,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
        }
    }

    /// Whether `entry` has outlived the configured TTL.
    fn expired(&self, entry: &Entry) -> bool {
        self.ttl.is_some_and(|ttl| entry.stored_at.elapsed() >= ttl)
    }

    /// Looks up a canonical key, counting the hit or miss.  A hit refreshes
    /// the entry's recency; an expired entry is removed and counts as a miss.
    /// The returned handle shares the stored result (no deep copy per hit).
    pub fn get(&self, key: &str) -> Option<Arc<CachedResult>> {
        let found = self.lookup(key);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Looks `key` up again after a [`QueryCache::get`] miss (the
    /// single-flight gate re-probes before it lets a worker execute).  A hit
    /// re-books that lookup from `misses` to `hits`; a miss counts nothing,
    /// so every lookup is counted exactly once.
    pub(crate) fn reprobe(&self, key: &str) -> Option<Arc<CachedResult>> {
        let found = self.lookup(key);
        if found.is_some() {
            self.misses.fetch_sub(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// The uncounted lookup behind [`QueryCache::get`] and
    /// [`QueryCache::reprobe`]: refreshes a hit's recency, removes (and
    /// counts the expiration of) an entry past its TTL.
    fn lookup(&self, key: &str) -> Option<Arc<CachedResult>> {
        let mut inner = lock_ignoring_poison(&self.inner);
        let entry = inner.map.get(key)?;
        if self.expired(entry) {
            let old_tick = entry.tick;
            inner.map.remove(key);
            inner.recency.remove(&old_tick);
            self.expirations.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // Touch: move the entry to the most-recent end of the recency index
        // (an Arc clone of the stored key, not a copy of its bytes).
        inner.tick += 1;
        let tick = inner.tick;
        let (shared_key, entry) = inner.map.get_key_value(key).expect("entry checked above");
        let shared_key = Arc::clone(shared_key);
        let old_tick = entry.tick;
        let result = Arc::clone(&entry.result);
        inner.map.get_mut(key).expect("entry checked above").tick = tick;
        inner.recency.remove(&old_tick);
        inner.recency.insert(tick, shared_key);
        Some(result)
    }

    /// Stores a finished result under its canonical key, evicting the
    /// least-recently-used entry if the cache is full.  Re-inserting an
    /// existing key refreshes both its value and its recency.
    pub fn insert(&self, key: String, result: CachedResult) {
        self.insert_stored_at(key, Arc::new(result), Instant::now());
    }

    /// [`QueryCache::insert`] with an explicit storage instant, so snapshot
    /// restoration can backdate entries and keep their TTL clocks running.
    fn insert_stored_at(&self, key: String, result: Arc<CachedResult>, stored_at: Instant) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = lock_ignoring_poison(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((shared_key, existing)) = inner.map.get_key_value(key.as_str()) {
            let shared_key = Arc::clone(shared_key);
            let old_tick = existing.tick;
            let existing = inner
                .map
                .get_mut(key.as_str())
                .expect("entry checked above");
            existing.result = result;
            existing.tick = tick;
            existing.stored_at = stored_at;
            inner.recency.remove(&old_tick);
            inner.recency.insert(tick, shared_key);
            return;
        }
        if inner.map.len() >= self.capacity {
            // Evict the least-recently-used entry (the smallest tick).  If it
            // happens to be past its TTL this is an expiration, not a "real"
            // eviction of live data.
            if let Some((&lru_tick, _)) = inner.recency.iter().next() {
                let lru_key = inner
                    .recency
                    .remove(&lru_tick)
                    .expect("recency entry just observed");
                let victim = inner.map.remove(&lru_key);
                match victim {
                    Some(v) if self.expired(&v) => self.expirations.fetch_add(1, Ordering::Relaxed),
                    _ => self.evictions.fetch_add(1, Ordering::Relaxed),
                };
            }
        }
        let key: Arc<str> = key.into();
        inner.recency.insert(tick, Arc::clone(&key));
        inner.map.insert(
            key,
            Entry {
                result,
                tick,
                stored_at,
            },
        );
    }

    /// Current counters.  With a TTL configured, entries that have outlived it
    /// are swept first (counted as expirations), so `entries` reports live
    /// entries only — an idle daemon must not over-report its cache size just
    /// because nothing has touched the dead keys yet.
    pub fn stats(&self) -> CacheStats {
        let entries = {
            let mut inner = lock_ignoring_poison(&self.inner);
            if self.ttl.is_some() {
                let expired: Vec<Arc<str>> = inner
                    .map
                    .iter()
                    .filter(|(_, entry)| self.expired(entry))
                    .map(|(key, _)| Arc::clone(key))
                    .collect();
                for key in expired {
                    if let Some(entry) = inner.map.remove(key.as_ref()) {
                        inner.recency.remove(&entry.tick);
                        self.expirations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            inner.map.len() as u64
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            evictions: self.evictions.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
            capacity: self.capacity as u64,
        }
    }

    /// The configured TTL, if any.
    pub fn ttl(&self) -> Option<Duration> {
        self.ttl
    }

    /// All live entries in least-recently-used → most-recently-used order,
    /// with their ages (time since storage).  Feeding these back through
    /// [`QueryCache::import_entry`] in order reproduces both the contents and
    /// the recency order of the cache — the basis of the snapshot format in
    /// [`crate::snapshot`].
    pub fn export_entries(&self) -> Vec<SnapshotEntry> {
        let inner = lock_ignoring_poison(&self.inner);
        inner
            .recency
            .values()
            .filter_map(|key| {
                let entry = inner.map.get(key.as_ref())?;
                if self.expired(entry) {
                    return None;
                }
                Some(SnapshotEntry {
                    key: key.to_string(),
                    age: entry.stored_at.elapsed(),
                    result: Arc::clone(&entry.result),
                })
            })
            .collect()
    }

    /// Inserts a restored entry as if it had been stored `age` ago, so a
    /// configured TTL keeps counting down across the snapshot round trip.
    /// Entries already past the TTL (or whose age predates what [`Instant`]
    /// can represent) are dropped; returns whether the entry was admitted.
    pub fn import_entry(&self, entry: SnapshotEntry) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let stored_at = match self.ttl {
            // Without a TTL the age never matters again — don't let a large
            // age (long downtime) underflow the monotonic clock and lose the
            // entry.
            None => Instant::now(),
            Some(ttl) => {
                if entry.age >= ttl {
                    return false;
                }
                match Instant::now().checked_sub(entry.age) {
                    Some(stored_at) => stored_at,
                    None => return false,
                }
            }
        };
        self.insert_stored_at(entry.key, entry.result, stored_at);
        true
    }
}

/// One exported cache entry: the canonical key, the result, and how long ago
/// it was stored (see [`QueryCache::export_entries`]).
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// The canonical request key.
    pub key: String,
    /// Time since the entry was stored (TTL clocks resume from here).
    pub age: Duration,
    /// The stored result (shared with the live cache entry on export).
    pub result: Arc<CachedResult>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::Outcome;

    fn entry() -> CachedResult {
        CachedResult {
            outcome: Ok(Outcome::Duality {
                dual: true,
                witness: None,
            }),
            info: ExecInfo::default(),
        }
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = QueryCache::new();
        assert!(cache.get("k").is_none());
        cache.insert("k".into(), entry());
        assert!(cache.get("k").is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.evictions, stats.expirations), (0, 0));
    }

    #[test]
    fn reprobe_rebooks_a_miss_as_a_hit() {
        let cache = QueryCache::new();
        assert!(cache.get("k").is_none());
        assert!(
            cache.reprobe("k").is_none(),
            "a reprobe miss counts nothing"
        );
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1));
        // The entry lands between the miss and the reprobe: one lookup, one hit.
        cache.insert("k".into(), entry());
        assert!(cache.reprobe("k").is_some());
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 0));
    }

    #[test]
    fn full_cache_evicts_least_recently_used() {
        let cache = QueryCache::with_capacity(2);
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        // Touch `a`, making `b` the LRU entry, then overflow.
        assert!(cache.get("a").is_some());
        cache.insert("c".into(), entry());
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get("a").is_some(), "recently used entry must survive");
        assert!(cache.get("c").is_some(), "new entry must be admitted");
        assert!(cache.get("b").is_none(), "LRU entry must have been evicted");
    }

    #[test]
    fn reinsert_refreshes_recency_without_growing() {
        let cache = QueryCache::with_capacity(2);
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        cache.insert("a".into(), entry()); // refresh, not a new key
        assert_eq!(cache.stats().entries, 2);
        cache.insert("c".into(), entry()); // evicts `b`, the LRU
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn capacity_one_keeps_only_the_newest_key() {
        let cache = QueryCache::with_capacity(1);
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get("b").is_some());
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache = QueryCache::with_capacity(0);
        cache.insert("a".into(), entry());
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get("a").is_none());
    }

    #[test]
    fn ttl_expires_entries() {
        let cache = QueryCache::with_limits(8, Some(Duration::from_millis(20)));
        cache.insert("k".into(), entry());
        assert!(cache.get("k").is_some(), "fresh entry answers");
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get("k").is_none(), "expired entry is a miss");
        let stats = cache.stats();
        assert_eq!(stats.expirations, 1);
        assert_eq!(stats.entries, 0);
        // Hits do not refresh the TTL: reinsert, touch, wait, gone.
        cache.insert("k".into(), entry());
        assert!(cache.get("k").is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get("k").is_none());
    }

    #[test]
    fn stats_sweeps_expired_entries_instead_of_counting_them() {
        let cache = QueryCache::with_limits(8, Some(Duration::from_millis(20)));
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        assert_eq!(cache.stats().entries, 2, "fresh entries count");
        std::thread::sleep(Duration::from_millis(30));
        // Nothing has touched the dead keys, yet `entries` must not report
        // them as live; the sweep books them as expirations.
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.expirations, 2);
        assert_eq!(stats.misses, 0, "sweeping is not a lookup");
        // The swept keys really are gone (this get is the first miss).
        assert!(cache.get("a").is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().expirations, 2, "no double counting");
    }

    #[test]
    fn export_import_round_trips_contents_and_recency() {
        let cache = QueryCache::with_capacity(3);
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        cache.insert("c".into(), entry());
        assert!(cache.get("a").is_some()); // recency order now: b, c, a
        let exported = cache.export_entries();
        assert_eq!(
            exported.iter().map(|e| e.key.as_str()).collect::<Vec<_>>(),
            vec!["b", "c", "a"],
            "export is LRU → MRU"
        );

        let restored = QueryCache::with_capacity(3);
        for e in exported {
            assert!(restored.import_entry(e));
        }
        assert_eq!(restored.stats().entries, 3);
        // Importing in order reproduced the recency: inserting a fourth key
        // must evict `b`, the LRU of the original cache.
        restored.insert("d".into(), entry());
        assert!(restored.get("b").is_none());
        assert!(restored.get("a").is_some());
        assert!(restored.get("c").is_some());
        assert!(restored.get("d").is_some());
    }

    #[test]
    fn import_respects_ttl_ages() {
        let ttl = Duration::from_millis(50);
        let fresh = SnapshotEntry {
            key: "fresh".into(),
            age: Duration::from_millis(0),
            result: Arc::new(entry()),
        };
        let stale = SnapshotEntry {
            key: "stale".into(),
            age: Duration::from_millis(60),
            result: Arc::new(entry()),
        };
        let cache = QueryCache::with_limits(8, Some(ttl));
        assert!(cache.import_entry(fresh.clone()));
        assert!(
            !cache.import_entry(stale),
            "entries past the TTL are dropped"
        );
        assert_eq!(cache.stats().entries, 1);
        // An un-TTL'd cache admits any age.
        let no_ttl = QueryCache::with_capacity(8);
        assert!(no_ttl.import_entry(SnapshotEntry {
            key: "old".into(),
            age: Duration::from_millis(60),
            result: Arc::new(entry()),
        }));
        // The restored age keeps counting: an entry imported at half its TTL
        // expires half a TTL later.
        let half = SnapshotEntry {
            key: "half".into(),
            age: Duration::from_millis(30),
            result: Arc::new(entry()),
        };
        assert!(cache.import_entry(half));
        assert!(cache.get("half").is_some());
        std::thread::sleep(Duration::from_millis(30));
        assert!(cache.get("half").is_none(), "TTL survived the round trip");
        assert!(cache.get("fresh").is_some(), "importing preserves each age");
    }

    #[test]
    fn zero_capacity_rejects_imports() {
        let cache = QueryCache::with_capacity(0);
        assert!(!cache.import_entry(SnapshotEntry {
            key: "k".into(),
            age: Duration::ZERO,
            result: Arc::new(entry()),
        }));
        assert_eq!(cache.stats().entries, 0);
    }
}
