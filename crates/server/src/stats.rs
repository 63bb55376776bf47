//! Deterministic server counters.
//!
//! Same philosophy as the peeling engine's `PeelStats`: every counter is
//! a deterministic function of the request sequence the server served,
//! so CI can gate them at tolerance 0 (`bench-serve/*`).  Wall-clock
//! timings deliberately live elsewhere — nothing here varies run to run.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Monotone counters maintained by a running server.  All methods are
/// lock-free and safe to call from any worker thread.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Individual calls served (batch members count individually).
    pub requests: AtomicU64,
    /// Batch envelopes served.
    pub batches: AtomicU64,
    /// Frames that failed before dispatch: framing violations or
    /// unparseable JSON.  The CI smoke gate pins this to 0.
    pub protocol_errors: AtomicU64,
    /// Well-formed calls answered with a typed error (unknown method,
    /// wrong rank, off-grid threshold, …).
    pub request_errors: AtomicU64,
    /// Per-threshold points served from the LRU cache.
    pub cache_hits: AtomicU64,
    /// Per-threshold points computed because the cache had no entry.
    pub cache_misses: AtomicU64,
    /// Cache entries displaced by the LRU policy.
    pub cache_evictions: AtomicU64,
    /// Rank supports built since startup — the resident-service analogue
    /// of the sweep engine's `support_builds`; one per distinct rank
    /// ever queried, no matter how many sessions or connections.
    pub support_builds: AtomicU64,
    /// Sessions opened.
    pub sessions_opened: AtomicU64,
    /// Sessions explicitly closed.
    pub sessions_closed: AtomicU64,
    /// Requests that hit their `deadline_ms` before completing.
    pub deadlines_exceeded: AtomicU64,
    /// `apply_updates` batches accepted and applied (rejected batches
    /// count as `request_errors`, never here).
    pub updates_applied: AtomicU64,
    /// Resident rank supports repaired incrementally by an update batch
    /// — the streaming analogue of `support_builds`; one per resident
    /// rank per applied batch, never a rebuild.
    pub supports_repaired: AtomicU64,
    /// Cached per-threshold points dropped because an update changed
    /// their rank's support.  A rank an update provably did not touch
    /// keeps its cached points, so this counts *exactly* the affected
    /// entries.
    pub cache_invalidations: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// See [`ServerStats::requests`].
    pub requests: u64,
    /// See [`ServerStats::batches`].
    pub batches: u64,
    /// See [`ServerStats::protocol_errors`].
    pub protocol_errors: u64,
    /// See [`ServerStats::request_errors`].
    pub request_errors: u64,
    /// See [`ServerStats::cache_hits`].
    pub cache_hits: u64,
    /// See [`ServerStats::cache_misses`].
    pub cache_misses: u64,
    /// See [`ServerStats::cache_evictions`].
    pub cache_evictions: u64,
    /// See [`ServerStats::support_builds`].
    pub support_builds: u64,
    /// See [`ServerStats::sessions_opened`].
    pub sessions_opened: u64,
    /// See [`ServerStats::sessions_closed`].
    pub sessions_closed: u64,
    /// See [`ServerStats::deadlines_exceeded`].
    pub deadlines_exceeded: u64,
    /// See [`ServerStats::updates_applied`].
    pub updates_applied: u64,
    /// See [`ServerStats::supports_repaired`].
    pub supports_repaired: u64,
    /// See [`ServerStats::cache_invalidations`].
    pub cache_invalidations: u64,
}

impl ServerStats {
    /// Increments `counter` by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            request_errors: self.request_errors.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            support_builds: self.support_builds.load(Ordering::Relaxed),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            deadlines_exceeded: self.deadlines_exceeded.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            supports_repaired: self.supports_repaired.load(Ordering::Relaxed),
            cache_invalidations: self.cache_invalidations.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// The counter fields as (name, value) pairs, in wire order — one
    /// place to keep the JSON shape and the gate list in sync.
    pub fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("requests", self.requests),
            ("batches", self.batches),
            ("protocol_errors", self.protocol_errors),
            ("request_errors", self.request_errors),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("support_builds", self.support_builds),
            ("sessions_opened", self.sessions_opened),
            ("sessions_closed", self.sessions_closed),
            ("deadlines_exceeded", self.deadlines_exceeded),
            ("updates_applied", self.updates_applied),
            ("supports_repaired", self.supports_repaired),
            ("cache_invalidations", self.cache_invalidations),
        ]
    }

    /// The snapshot as a JSON object (counter order fixed).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.fields()
                .into_iter()
                .map(|(name, value)| (name.to_string(), Json::num(value as f64)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_every_counter() {
        let stats = ServerStats::default();
        ServerStats::bump(&stats.requests);
        ServerStats::bump(&stats.requests);
        ServerStats::bump(&stats.cache_hits);
        ServerStats::bump(&stats.support_builds);
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.support_builds, 1);
        assert_eq!(snap.protocol_errors, 0);
    }

    #[test]
    fn json_shape_matches_the_field_list() {
        let stats = ServerStats::default();
        ServerStats::bump(&stats.batches);
        let snap = stats.snapshot();
        let json = snap.to_json();
        for (name, value) in snap.fields() {
            assert_eq!(
                json.get(name).and_then(Json::as_f64),
                Some(value as f64),
                "{name}"
            );
        }
        match json {
            Json::Obj(members) => assert_eq!(members.len(), snap.fields().len()),
            other => panic!("expected object, got {other:?}"),
        }
    }
}
