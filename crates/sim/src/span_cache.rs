//! The golden-span cache shared by every replayed golden representation.

use std::sync::{Arc, Mutex, PoisonError};

/// A cached span's key: its exact `start..end` cycle range.
type SpanKey = (usize, usize);

/// LRU entries, least-recent first, most-recent last.
type Entries<T> = Vec<(SpanKey, Arc<T>)>;

/// Where a [`SpanCache`] keeps its spans: a plain per-handle vector, or
/// a store shared (behind a mutex) by every handle cloned from the same
/// [`SpanCache::shared`] root — so a pool of grading workers replays
/// each span once *in total*, not once per worker.
#[derive(Debug)]
enum Store<T> {
    /// Exclusive to this handle; no locking.
    Local(Entries<T>),
    /// Shared by all handles cloned from the same root. The lock is held
    /// only for lookup/insert (never during a replay), and poison is
    /// ignored — the store holds immutable golden spans, which a worker
    /// panic cannot corrupt.
    Shared(Arc<Mutex<Entries<T>>>),
}

/// A small LRU of replayed golden spans, keyed by the exact `start..end`
/// cycle span.
///
/// Golden data that is not stored (checkpointed value windows, bit-packed
/// internal values) is replayed from the nearest stored state — pure
/// waste when adjacent chunks of a cycle-major plan ask for the *same*
/// span over and over. The cache replays a span once, wraps it in an
/// [`Arc`], and serves every later request for it zero-copy. Eviction is
/// least-recently-used.
///
/// [`new`](Self::new) makes a private, lock-free cache.
/// [`shared`](Self::shared) makes a cache whose *store* is shared by
/// every handle [`clone_handle`](Self::clone_handle) produces — the
/// engine gives each worker a handle of one per-run store, so the replay
/// tax is paid once per span across the whole pool. Hit/miss/replay
/// counters always stay per-handle.
///
/// A capacity of `0` disables retention: every request replays, which
/// is exactly the uncached behaviour (the equivalence suites exploit
/// this to pin verdict digests across cache configurations).
///
/// [`WindowCache`](crate::WindowCache) and [`BitCache`](crate::BitCache)
/// are the two instantiations.
#[derive(Debug)]
pub struct SpanCache<T> {
    capacity: usize,
    store: Store<T>,
    hits: u64,
    misses: u64,
    replayed_cycles: u64,
}

impl<T> SpanCache<T> {
    fn with_store(capacity: usize, store: Store<T>) -> Self {
        SpanCache { capacity, store, hits: 0, misses: 0, replayed_cycles: 0 }
    }

    /// A private (lock-free) cache holding up to `capacity` spans.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_store(capacity, Store::Local(Vec::with_capacity(capacity.min(64))))
    }

    /// A cache whose span store is shared with every handle cloned off
    /// it via [`clone_handle`](Self::clone_handle).
    #[must_use]
    pub fn shared(capacity: usize) -> Self {
        let entries = Vec::with_capacity(capacity.min(64));
        Self::with_store(capacity, Store::Shared(Arc::new(Mutex::new(entries))))
    }

    /// A new handle with zeroed counters. For a [`shared`](Self::shared)
    /// cache the handle uses the *same* span store; for a private cache
    /// it is simply a fresh empty cache of the same capacity.
    #[must_use]
    pub fn clone_handle(&self) -> Self {
        match &self.store {
            Store::Local(_) => Self::new(self.capacity),
            Store::Shared(store) => {
                Self::with_store(self.capacity, Store::Shared(Arc::clone(store)))
            }
        }
    }

    /// A capacity-0 cache: every span request replays.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Span requests this handle served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Span requests through this handle that had to replay (capacity-0
    /// requests count here too).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total golden cycles re-simulated on behalf of this handle — the
    /// replay tax actually paid. Each miss adds the distance from the
    /// stored state the replay started at to the span's end.
    #[must_use]
    pub fn replayed_cycles(&self) -> u64 {
        self.replayed_cycles
    }

    /// Serves span `start..end`: zero-copy on a hit, otherwise `replay`
    /// builds it — re-simulating from the stored state at cycle
    /// `replay_from` — and the cache retains it.
    pub(crate) fn get_or_replay(
        &mut self,
        key: SpanKey,
        replay_from: usize,
        replay: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(span) = self.with_entries(|entries| {
            let pos = entries.iter().position(|(k, _)| *k == key)?;
            let entry = entries.remove(pos);
            let span = Arc::clone(&entry.1);
            entries.push(entry);
            Some(span)
        }) {
            self.hits += 1;
            return span;
        }
        let span = Arc::new(replay());
        self.misses += 1;
        self.replayed_cycles += (key.1 - replay_from) as u64;
        if self.capacity > 0 {
            let capacity = self.capacity;
            let kept = Arc::clone(&span);
            self.with_entries(|entries| {
                // A racing handle may have replayed the same span first;
                // keep its copy.
                if entries.iter().all(|(k, _)| *k != key) {
                    if entries.len() == capacity {
                        entries.remove(0);
                    }
                    entries.push((key, kept));
                }
            });
        }
        span
    }

    /// Runs `f` on the entry list, locking it if shared.
    fn with_entries<R>(&mut self, f: impl FnOnce(&mut Entries<T>) -> R) -> R {
        match &mut self.store {
            Store::Local(entries) => f(entries),
            Store::Shared(store) => f(&mut store.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}
