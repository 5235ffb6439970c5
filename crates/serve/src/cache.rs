//! The content-hash-keyed LRU cache of compiled MTBDD artifacts.
//!
//! [`CompiledMtbdd`] is fully owned (no lifetimes), so artifacts are
//! shared as `Arc`s across worker threads; the per-request fault graph
//! and knowledge table are rebuilt cheaply instead.  Capacity is
//! byte-approximate: a diagram's cost is dominated by its decision
//! nodes and configuration table, both of which the artifact reports.
//!
//! A key whose build was refused for its node cap holds that verdict
//! instead: the build is deterministic, so a later request with the
//! same or a tighter cap skips it (see
//! `BudgetGuard::with_refused_node_cap`), and each model's refused
//! diagram is built once per process.

use fmperf_core::CompiledMtbdd;
use fmperf_ftlqn::KnowPolicy;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A cache key: the model's content hash plus every knob that changes
/// the compiled diagram.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Stable model content hash (`sha256:…`).
    pub hash: String,
    /// Knowledge policy the diagram was compiled under.
    pub policy_any: bool,
    /// Unmonitored-known semantics the diagram was compiled under.
    pub unmonitored_known: bool,
}

impl CacheKey {
    /// Builds a key from the request's knobs.
    pub fn new(hash: &str, policy: KnowPolicy, unmonitored_known: bool) -> CacheKey {
        CacheKey {
            hash: hash.to_string(),
            policy_any: matches!(policy, KnowPolicy::AnyFailedComponent),
            unmonitored_known,
        }
    }
}

/// Approximate resident size of a compiled artifact, in bytes: decision
/// nodes (two branch indices + a variable), the configuration table and
/// the availability vector.
pub fn approx_artifact_bytes(compiled: &CompiledMtbdd) -> usize {
    compiled.node_count() * 32
        + compiled.configurations().len() * 64
        + compiled.baseline_up().len() * 8
}

/// Byte charge of a remembered refusal: its key and map slot.
const REFUSAL_BYTES: usize = 128;

/// What the cache holds for a key.
#[derive(Debug, Clone)]
pub(crate) enum Cached {
    /// The compiled diagram.
    Diagram(Arc<CompiledMtbdd>),
    /// The MTBDD build was refused for its node cap.
    Refused {
        /// The largest node cap a build of this key was refused under.
        max_nodes: usize,
    },
}

struct Entry {
    artifact: Cached,
    bytes: usize,
    last_used: u64,
    inserted: Instant,
}

/// One cached artifact as seen by the observability endpoints
/// (`/debug/cache` and the per-entry age gauges on `/metrics`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntryInfo {
    /// The entry's cache key.
    pub key: CacheKey,
    /// Approximate resident bytes.
    pub bytes: usize,
    /// Seconds since the artifact was (re)inserted.
    pub age_seconds: u64,
    /// LRU tick of the last lookup or insert that touched the entry.
    pub last_used: u64,
    /// For a remembered refusal, the node cap it was refused under;
    /// `None` for a compiled diagram.
    pub refused_node_cap: Option<usize>,
}

struct CacheState {
    map: HashMap<CacheKey, Entry>,
    bytes: usize,
    tick: u64,
}

/// A byte-bounded LRU of compiled artifacts, safe to share across
/// worker threads.  A panicking worker can never poison it: the inner
/// lock is recovered on poison (the state is a plain map plus counters,
/// valid at every suspension point).
pub struct ArtifactCache {
    state: Mutex<CacheState>,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ArtifactCache {
    /// A cache bounded at `capacity_bytes`; zero disables caching.
    pub fn new(capacity_bytes: usize) -> ArtifactCache {
        ArtifactCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        // Poison-proof: a panic between operations leaves the map
        // consistent, so recovery is always safe.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks a key up, refreshing its LRU position.  Only a compiled
    /// diagram counts as a hit: a remembered refusal answers nothing,
    /// so it counts as a miss, like an absent key.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Cached> {
        if self.capacity_bytes == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut state = self.lock();
        state.tick += 1;
        let tick = state.tick;
        let found = state.map.get_mut(key).map(|entry| {
            entry.last_used = tick;
            entry.artifact.clone()
        });
        let counter = match found {
            Some(Cached::Diagram(_)) => &self.hits,
            _ => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Looks a compiled diagram up, counting a hit or miss and
    /// refreshing its LRU position.  A remembered refusal answers
    /// `None` and counts as a miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CompiledMtbdd>> {
        match self.lookup(key)? {
            Cached::Diagram(artifact) => Some(artifact),
            Cached::Refused { .. } => None,
        }
    }

    /// Inserts an artifact, replacing whatever the key held (a refusal
    /// under a tighter cap included) and evicting least-recently-used
    /// entries until the cache fits its capacity.  An artifact larger
    /// than the whole cache is simply not retained.
    pub fn insert(&self, key: CacheKey, artifact: Arc<CompiledMtbdd>) {
        let bytes = approx_artifact_bytes(&artifact);
        let mut state = self.lock();
        self.store(&mut state, key, Cached::Diagram(artifact), bytes);
    }

    /// Remembers that building `key`'s diagram was refused under node
    /// cap `max_nodes`, keeping the largest such cap.  A key that holds
    /// a compiled diagram keeps it.
    pub(crate) fn insert_refusal(&self, key: CacheKey, max_nodes: usize) {
        let mut state = self.lock();
        let max_nodes = match state.map.get(&key).map(|e| &e.artifact) {
            Some(Cached::Diagram(_)) => return,
            Some(Cached::Refused { max_nodes: held }) => max_nodes.max(*held),
            None => max_nodes,
        };
        self.store(
            &mut state,
            key,
            Cached::Refused { max_nodes },
            REFUSAL_BYTES,
        );
    }

    /// Puts `artifact` under `key` at the head of the LRU.
    fn store(&self, state: &mut CacheState, key: CacheKey, artifact: Cached, bytes: usize) {
        if bytes > self.capacity_bytes {
            return;
        }
        state.tick += 1;
        let tick = state.tick;
        if let Some(old) = state.map.remove(&key) {
            state.bytes -= old.bytes;
        }
        while state.bytes + bytes > self.capacity_bytes {
            let Some(lru_key) = state
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(evicted) = state.map.remove(&lru_key) {
                state.bytes -= evicted.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        state.bytes += bytes;
        state.map.insert(
            key,
            Entry {
                artifact,
                bytes,
                last_used: tick,
                inserted: Instant::now(),
            },
        );
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed (or found caching disabled).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to make room (capacity pressure, not
    /// replacement of the same key).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The configured capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// A snapshot of every cached entry, most recently used first.
    pub fn entries(&self) -> Vec<CacheEntryInfo> {
        let state = self.lock();
        let mut out: Vec<CacheEntryInfo> = state
            .map
            .iter()
            .map(|(key, e)| CacheEntryInfo {
                key: key.clone(),
                bytes: e.bytes,
                age_seconds: e.inserted.elapsed().as_secs(),
                last_used: e.last_used,
                refused_node_cap: match e.artifact {
                    Cached::Diagram(_) => None,
                    Cached::Refused { max_nodes } => Some(max_nodes),
                },
            })
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.last_used));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmperf_core::Analysis;
    use fmperf_mama::ComponentSpace;
    use fmperf_text::parse;

    fn artifact() -> Arc<CompiledMtbdd> {
        let m = parse(
            "processor pc cores inf\nprocessor p1 fail 0.1\nusers u on pc\n\
             task s on p1 fail 0.1\nentry eu of u\nentry es of s demand 0.2\ncall eu -> es\n",
        )
        .unwrap();
        let graph = fmperf_ftlqn::FaultGraph::build(&m.app).unwrap();
        let space = ComponentSpace::app_only(&m.app);
        let compiled = Analysis::new(&graph, &space).compile_mtbdd();
        Arc::new(compiled)
    }

    fn key(n: u32) -> CacheKey {
        CacheKey::new(
            &format!("sha256:{n:064}"),
            KnowPolicy::AnyFailedComponent,
            false,
        )
    }

    #[test]
    fn hit_after_insert() {
        let cache = ArtifactCache::new(1 << 20);
        let a = artifact();
        cache.insert(key(1), Arc::clone(&a));
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let a = artifact();
        let one = approx_artifact_bytes(&a);
        // Room for exactly two artifacts.
        let cache = ArtifactCache::new(one * 2 + 1);
        cache.insert(key(1), Arc::clone(&a));
        cache.insert(key(2), Arc::clone(&a));
        // Touch 1 so 2 is the LRU.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), Arc::clone(&a));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ArtifactCache::new(0);
        cache.insert(key(1), artifact());
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn evictions_are_counted_and_entries_are_observable() {
        let a = artifact();
        let one = approx_artifact_bytes(&a);
        let cache = ArtifactCache::new(one * 2 + 1);
        cache.insert(key(1), Arc::clone(&a));
        cache.insert(key(2), Arc::clone(&a));
        assert_eq!(cache.evictions(), 0);
        cache.insert(key(3), Arc::clone(&a));
        assert_eq!(cache.evictions(), 1, "capacity pressure evicted one");
        // Replacing an existing key is not an eviction.
        cache.insert(key(3), Arc::clone(&a));
        assert_eq!(cache.evictions(), 1);
        let entries = cache.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].last_used >= entries[1].last_used, "MRU first");
        for e in &entries {
            assert_eq!(e.bytes, one);
            assert!(e.age_seconds < 60, "fresh entries have small ages");
            assert!(e.key.hash.starts_with("sha256:"));
        }
        assert_eq!(cache.capacity_bytes(), one * 2 + 1);
    }

    #[test]
    fn refusals_keep_the_largest_cap_until_a_diagram_replaces_them() {
        let cache = ArtifactCache::new(1 << 20);
        cache.insert_refusal(key(1), 64);
        cache.insert_refusal(key(1), 16);
        assert!(matches!(
            cache.lookup(&key(1)),
            Some(Cached::Refused { max_nodes: 64 })
        ));
        assert!(cache.get(&key(1)).is_none(), "a refusal answers nothing");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        let entries = cache.entries();
        assert_eq!(entries[0].refused_node_cap, Some(64));
        assert_eq!(entries[0].bytes, REFUSAL_BYTES);
        assert_eq!(cache.bytes(), REFUSAL_BYTES);

        // A roomier cap compiled: the diagram replaces the refusal, and
        // a late refusal never shadows it.
        cache.insert(key(1), artifact());
        cache.insert_refusal(key(1), 1 << 30);
        assert!(cache.get(&key(1)).is_some());
        assert_eq!(cache.entries()[0].refused_node_cap, None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_policies_are_distinct_keys() {
        let a = CacheKey::new("sha256:x", KnowPolicy::AnyFailedComponent, false);
        let b = CacheKey::new("sha256:x", KnowPolicy::AllFailedComponents, false);
        let c = CacheKey::new("sha256:x", KnowPolicy::AnyFailedComponent, true);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
