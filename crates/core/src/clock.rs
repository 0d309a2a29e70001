//! Time sources for the reputation system.
//!
//! Two of the paper's core mechanisms are defined against wall-clock time:
//! ratings are recomputed "at fixed points in time (currently once in every
//! 24-hour period)" and trust factors may grow by at most 5 units per week
//! (§3.2). The experiments need to compress months of simulated operation
//! into milliseconds, so every component takes a [`Clock`] rather than
//! calling the OS directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Seconds in a day.
pub const DAY_SECS: u64 = 86_400;
/// Seconds in a week.
pub const WEEK_SECS: u64 = 7 * DAY_SECS;

/// A point in time, in seconds since the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Seconds since the epoch.
    pub fn secs(self) -> u64 {
        self.0
    }

    /// Index of the calendar day containing this instant.
    pub fn day_index(self) -> u64 {
        self.0 / DAY_SECS
    }

    /// Index of the calendar week containing this instant (the unit of the
    /// trust growth cap).
    pub fn week_index(self) -> u64 {
        self.0 / WEEK_SECS
    }

    /// This instant advanced by `secs`.
    pub fn plus_secs(self, secs: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(secs))
    }

    /// This instant advanced by whole days.
    pub fn plus_days(self, days: u64) -> Timestamp {
        self.plus_secs(days.saturating_mul(DAY_SECS))
    }

    /// This instant advanced by whole weeks.
    pub fn plus_weeks(self, weeks: u64) -> Timestamp {
        self.plus_secs(weeks.saturating_mul(WEEK_SECS))
    }

    /// Seconds elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t+{}d{:02}h", self.day_index(), (self.0 % DAY_SECS) / 3600)
    }
}

/// Anything that can tell the current time.
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Timestamp;
}

/// A manually-advanced clock shared by every component of a simulation.
///
/// Cloning shares the underlying time cell, so the scenario driver can
/// advance time once and every subsystem observes it.
#[derive(Clone, Default)]
pub struct SimClock {
    current: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock starting at the epoch.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// A clock starting at `start`.
    pub fn starting_at(start: Timestamp) -> Self {
        let clock = SimClock::new();
        clock.current.store(start.0, Ordering::SeqCst);
        clock
    }

    /// Advance by `secs` seconds.
    pub fn advance_secs(&self, secs: u64) {
        self.current.fetch_add(secs, Ordering::SeqCst);
    }

    /// Advance by whole days.
    pub fn advance_days(&self, days: u64) {
        self.advance_secs(days * DAY_SECS);
    }

    /// Advance by whole weeks.
    pub fn advance_weeks(&self, weeks: u64) {
        self.advance_secs(weeks * WEEK_SECS);
    }

    /// Jump to an absolute instant (must not move backwards).
    pub fn set(&self, to: Timestamp) {
        debug_assert!(to.0 >= self.current.load(Ordering::SeqCst), "clocks may not run backwards");
        self.current.store(to.0, Ordering::SeqCst);
    }
}

impl SimClock {
    /// The current instant (inherent mirror of [`Clock::now`], so callers
    /// don't need the trait in scope).
    pub fn now(&self) -> Timestamp {
        Timestamp(self.current.load(Ordering::SeqCst))
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        SimClock::now(self)
    }
}

/// The operating system clock, for real deployments of the server binary.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    #[allow(
        clippy::disallowed_methods,
        reason = "the one calendar-clock read; everything else takes a Clock"
    )]
    fn now(&self) -> Timestamp {
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Timestamp(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::ZERO.plus_days(10).plus_secs(3_600);
        assert_eq!(t.day_index(), 10);
        assert_eq!(t.week_index(), 1);
        assert_eq!(t.since(Timestamp::ZERO), 10 * DAY_SECS + 3_600);
        assert_eq!(Timestamp::ZERO.since(t), 0, "since saturates");
    }

    #[test]
    fn week_boundaries() {
        assert_eq!(Timestamp(WEEK_SECS - 1).week_index(), 0);
        assert_eq!(Timestamp(WEEK_SECS).week_index(), 1);
        assert_eq!(Timestamp::ZERO.plus_weeks(3).week_index(), 3);
    }

    #[test]
    fn sim_clock_is_shared_between_clones() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance_days(2);
        assert_eq!(b.now().day_index(), 2);
        b.advance_weeks(1);
        assert_eq!(a.now(), Timestamp(9 * DAY_SECS));
    }

    #[test]
    fn sim_clock_starting_at() {
        let c = SimClock::starting_at(Timestamp(500));
        assert_eq!(c.now(), Timestamp(500));
        c.set(Timestamp(700));
        assert_eq!(c.now().secs(), 700);
    }

    #[test]
    fn system_clock_is_sane() {
        // Anything after 2020-01-01 counts as sane for this check.
        assert!(SystemClock.now().secs() > 1_577_836_800);
    }

    #[test]
    fn display_formats_day_and_hour() {
        let t = Timestamp::ZERO.plus_days(3).plus_secs(2 * 3600);
        assert_eq!(t.to_string(), "t+3d02h");
    }
}
