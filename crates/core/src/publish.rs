//! The snapshot-published query fast path (extension).
//!
//! The paper's headline claim is that queries are cheap; this module makes
//! them cheap *under concurrency* as well. Every clusterer can produce a
//! complete, immutable answer — centers, a coreset-estimated cost, the
//! points-seen watermark and the query diagnostics — via
//! [`StreamingClusterer::query_clustering`](crate::StreamingClusterer::query_clustering);
//! the coordinating owner publishes it into a shared [`PublishSlot`]
//! ([`ShardedStream`](crate::ShardedStream) publishes from inside its own
//! query; for the single-threaded clusterers the serving engine publishes
//! after each strict query). Concurrent readers then serve `cached`
//! queries straight from the slot: one atomically swapped `Arc` load, no
//! ingest lock, no coreset merge, no k-means++ run.
//!
//! ## Consistency model
//!
//! A published value is built in full *before* it becomes visible, and it is
//! replaced by pointer swap, never mutated in place. A reader therefore
//! always observes an internally consistent `{epoch, centers, cost,
//! points_seen, stats}` tuple — torn snapshots are impossible by
//! construction. Epochs are stamped by the slot on publish and only ever
//! grow, so readers can order observations and detect staleness
//! (`points_seen` tells them *how* stale).
//!
//! ## Why an `RwLock<Arc<…>>` and not atomics
//!
//! The workspace forbids `unsafe` and the build is offline (no `arc-swap`
//! or `crossbeam`), so the swap primitive is a standard `RwLock` around the
//! `Arc` pointer. The critical sections are pointer-sized — a reader clones
//! an `Arc`, a writer stores one — and are never held across clustering
//! work, so readers never wait on a coreset merge or a shard drain; the
//! read path is lock-free in the sense that matters for tail latency:
//! no request-visible critical section.

use crate::clusterer::QueryStats;
use serde::{Deserialize, Serialize};
use skm_clustering::Centers;
use std::sync::{Arc, PoisonError, RwLock};

/// Scope of a time-windowed query answer: how many of the most recent
/// stream points the caller asked for, and how many the selected summary
/// structures actually cover.
///
/// Windows are answered from the *existing* bucket/coreset state, so
/// coverage is bucket-granular: the answer covers the smallest suffix of
/// stored summaries that contains the requested window, which means
/// `covered_points >= last_points` (never less). `covered_points` equal to
/// the stream length means the stored structure could not isolate a
/// smaller suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowInfo {
    /// The requested window, resolved to a point count (`last_secs`
    /// windows are resolved against the tenant's arrival history before
    /// reaching the clusterer).
    pub last_points: u64,
    /// Points actually covered by the summaries the answer was derived
    /// from (bucket-granular over-approximation of `last_points`).
    pub covered_points: u64,
}

/// One complete query answer, as produced by
/// [`StreamingClusterer::query_clustering`](crate::StreamingClusterer::query_clustering) —
/// the unstamped form of [`PublishedClustering`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringResult {
    /// The k cluster centers.
    pub centers: Centers,
    /// Clustering cost of `centers` over the algorithm's candidate coreset
    /// (an estimate of the SSQ over the whole stream). `NaN` when the
    /// algorithm cannot estimate it.
    pub cost: f64,
    /// Stream points observed when this answer was computed.
    pub points_seen: u64,
    /// Diagnostics of the query that produced this answer.
    pub stats: QueryStats,
    /// The time window this answer covers (`None` = the whole stream).
    pub window: Option<WindowInfo>,
}

/// An epoch-stamped, immutable query answer published through a
/// [`PublishSlot`].
///
/// Serializable so engine snapshots can persist the currently published
/// value: a restored engine republishes the same epoch and centers instead
/// of starting readers from an empty slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishedClustering {
    /// Publish sequence number: 1 for the first publish of a slot, and
    /// strictly increasing afterwards (restores continue the sequence).
    pub epoch: u64,
    /// The k cluster centers of this epoch.
    pub centers: Centers,
    /// Coreset-estimated clustering cost of [`PublishedClustering::centers`]
    /// at publish time (`NaN` when unavailable).
    pub cost: f64,
    /// Stream points covered by this answer.
    pub points_seen: u64,
    /// Diagnostics of the query that produced this answer.
    pub stats: QueryStats,
    /// The time window this answer covers (`None` = the whole stream).
    /// Omitted when absent, so whole-stream snapshots keep their pre-window
    /// byte layout and snapshots written before windows existed restore
    /// cleanly.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub window: Option<WindowInfo>,
}

impl PublishedClustering {
    /// Stamps an unstamped result with an epoch.
    fn stamp(epoch: u64, result: ClusteringResult) -> Self {
        Self {
            epoch,
            centers: result.centers,
            cost: result.cost,
            points_seen: result.points_seen,
            stats: result.stats,
            window: result.window,
        }
    }
}

/// The shared cell a clusterer publishes its latest answer into.
///
/// Writers ([`ShardedStream::query`](crate::ShardedStream) and the serving
/// engine's strict query path) call [`PublishSlot::publish`]; any number of
/// concurrent readers call [`PublishSlot::load`] without contending with
/// ingestion. See the [module documentation](self) for the consistency
/// model and the choice of swap primitive.
#[derive(Debug, Default)]
pub struct PublishSlot {
    current: RwLock<Option<Arc<PublishedClustering>>>,
}

impl PublishSlot {
    /// Creates an empty slot (nothing published yet).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently published answer, if any. This is the `cached`
    /// read path: one `Arc` clone under a pointer-sized read lock.
    #[must_use]
    pub fn load(&self) -> Option<Arc<PublishedClustering>> {
        // A panic can never happen while the pointer is being cloned or
        // stored (no user code runs inside the critical section), so a
        // poisoned lock still guards a fully consistent value; recover
        // instead of propagating the poison to every later reader.
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Epoch of the currently published answer (0 when nothing has been
    /// published yet).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.load().map_or(0, |p| p.epoch)
    }

    /// Stamps `result` with the next epoch and swaps it in, returning the
    /// published value.
    pub fn publish(&self, result: ClusteringResult) -> Arc<PublishedClustering> {
        let mut guard = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let epoch = guard.as_ref().map_or(0, |p| p.epoch) + 1;
        let published = Arc::new(PublishedClustering::stamp(epoch, result));
        *guard = Some(Arc::clone(&published));
        published
    }

    /// Replaces the slot contents with an exact previously published value
    /// (snapshot restore): the epoch sequence continues from
    /// `published.epoch` instead of restarting at 1.
    pub fn restore(&self, published: Option<PublishedClustering>) {
        let mut guard = self.current.write().unwrap_or_else(PoisonError::into_inner);
        *guard = published.map(Arc::new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(points_seen: u64) -> ClusteringResult {
        let mut centers = Centers::new(2);
        centers.push(&[1.0, 2.0], 10.0);
        ClusteringResult {
            centers,
            cost: 3.5,
            points_seen,
            stats: QueryStats::default(),
            window: None,
        }
    }

    #[test]
    fn empty_slot_loads_nothing() {
        let slot = PublishSlot::new();
        assert!(slot.load().is_none());
        assert_eq!(slot.epoch(), 0);
    }

    #[test]
    fn publish_stamps_monotone_epochs() {
        let slot = PublishSlot::new();
        let first = slot.publish(result(10));
        assert_eq!(first.epoch, 1);
        let second = slot.publish(result(20));
        assert_eq!(second.epoch, 2);
        let loaded = slot.load().unwrap();
        assert_eq!(loaded.epoch, 2);
        assert_eq!(loaded.points_seen, 20);
        assert_eq!(slot.epoch(), 2);
    }

    #[test]
    fn restore_continues_the_epoch_sequence() {
        let slot = PublishSlot::new();
        slot.publish(result(10));
        slot.publish(result(20));
        let saved = slot.load().unwrap().as_ref().clone();

        let restored = PublishSlot::new();
        restored.restore(Some(saved));
        assert_eq!(restored.epoch(), 2);
        let next = restored.publish(result(30));
        assert_eq!(next.epoch, 3);

        restored.restore(None);
        assert!(restored.load().is_none());
    }

    #[test]
    fn published_value_round_trips_through_serde() {
        let slot = PublishSlot::new();
        let published = slot.publish(result(42)).as_ref().clone();
        let json = serde_json::to_string(&published).unwrap();
        // Whole-stream answers keep the pre-window byte layout.
        assert!(!json.contains("window"));
        let back: PublishedClustering = serde_json::from_str(&json).unwrap();
        assert_eq!(back, published);
    }

    #[test]
    fn windowed_published_value_round_trips_and_old_snapshots_restore() {
        let slot = PublishSlot::new();
        let mut windowed = result(42);
        windowed.window = Some(WindowInfo {
            last_points: 10,
            covered_points: 16,
        });
        let published = slot.publish(windowed).as_ref().clone();
        let json = serde_json::to_string(&published).unwrap();
        assert!(json.contains("\"window\""));
        let back: PublishedClustering = serde_json::from_str(&json).unwrap();
        assert_eq!(back, published);
        assert_eq!(
            back.window,
            Some(WindowInfo {
                last_points: 10,
                covered_points: 16,
            })
        );

        // A snapshot written before windows existed (no `window` key) must
        // restore with `window: None` — this pins snapshot back-compat.
        let stripped = json.replace(",\"window\":{\"last_points\":10,\"covered_points\":16}", "");
        assert_ne!(stripped, json, "window key should have been removable");
        let old: PublishedClustering = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.window, None);
        assert_eq!(old.centers, published.centers);
    }

    #[test]
    fn readers_see_complete_values_under_contention() {
        let slot = Arc::new(PublishSlot::new());
        std::thread::scope(|scope| {
            let writer_slot = Arc::clone(&slot);
            scope.spawn(move || {
                for i in 1..=500u64 {
                    writer_slot.publish(result(i * 10));
                }
            });
            for _ in 0..2 {
                let reader_slot = Arc::clone(&slot);
                scope.spawn(move || {
                    let mut last_epoch = 0;
                    for _ in 0..500 {
                        if let Some(p) = reader_slot.load() {
                            assert!(p.epoch >= last_epoch, "epoch went backwards");
                            // Published values are immutable: epoch and
                            // payload always agree.
                            assert_eq!(p.points_seen, p.epoch * 10);
                            last_epoch = p.epoch;
                        }
                    }
                });
            }
        });
        assert_eq!(slot.epoch(), 500);
    }
}
