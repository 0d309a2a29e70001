//! Transport-layer counters for the TCP front end.
//!
//! The paper's availability argument (§2.1) is only testable if the
//! serving path can report what it did under load: how many connections it
//! accepted, how many it refused because the worker pool was saturated,
//! how many it dropped for idling past the read deadline, and how many
//! requests it actually answered. [`ServerStats`] collects those counters
//! behind one lock; [`StatsSnapshot`] is the consistent point-in-time view
//! the D3 attack experiment, the bench harness, and the socket tests
//! assert against.

use parking_lot::Mutex;

/// A consistent point-in-time copy of every transport counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections handed to a pool worker.
    pub accepted: u64,
    /// Connections currently being served.
    pub active: u64,
    /// Connections refused with `overloaded` because the pool was full.
    pub rejected_overload: u64,
    /// Connections dropped for idling past the read deadline.
    pub timed_out: u64,
    /// Requests answered (one response frame written each).
    pub requests_served: u64,
    /// Connections that have finished (cleanly or otherwise).
    pub closed: u64,
}

/// Shared transport counters. All updates take one short critical
/// section, so a [`StatsSnapshot`] is internally consistent — `active`
/// never drifts from `accepted - closed`.
#[derive(Debug, Default)]
pub struct ServerStats {
    inner: Mutex<StatsSnapshot>,
}

impl ServerStats {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// A connection was handed to a worker.
    pub fn record_accepted(&self) {
        let mut s = self.inner.lock();
        s.accepted = s.accepted.saturating_add(1);
        s.active = s.active.saturating_add(1);
    }

    /// A previously accepted connection finished.
    pub fn record_closed(&self) {
        let mut s = self.inner.lock();
        s.closed = s.closed.saturating_add(1);
        s.active = s.active.saturating_sub(1);
    }

    /// A connection was refused because the worker pool was full.
    pub fn record_rejected_overload(&self) {
        let mut s = self.inner.lock();
        s.rejected_overload = s.rejected_overload.saturating_add(1);
    }

    /// A connection idled past the read deadline and was dropped.
    pub fn record_timed_out(&self) {
        let mut s = self.inner.lock();
        s.timed_out = s.timed_out.saturating_add(1);
    }

    /// One request was answered.
    pub fn record_request_served(&self) {
        let mut s = self.inner.lock();
        s.requests_served = s.requests_served.saturating_add(1);
    }

    /// Consistent copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        *self.inner.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_active_tracks_lifecycle() {
        let stats = ServerStats::new();
        stats.record_accepted();
        stats.record_accepted();
        stats.record_request_served();
        stats.record_closed();
        stats.record_rejected_overload();
        stats.record_timed_out();
        let s = stats.snapshot();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.active, 1);
        assert_eq!(s.closed, 1);
        assert_eq!(s.requests_served, 1);
        assert_eq!(s.rejected_overload, 1);
        assert_eq!(s.timed_out, 1);
    }

    #[test]
    fn active_saturates_rather_than_underflowing() {
        let stats = ServerStats::new();
        stats.record_closed();
        assert_eq!(stats.snapshot().active, 0);
        assert_eq!(stats.snapshot().closed, 1);
    }

    #[test]
    fn snapshot_is_internally_consistent() {
        let stats = ServerStats::new();
        for _ in 0..10 {
            stats.record_accepted();
        }
        for _ in 0..4 {
            stats.record_closed();
        }
        let s = stats.snapshot();
        assert_eq!(s.active, s.accepted - s.closed);
    }
}
