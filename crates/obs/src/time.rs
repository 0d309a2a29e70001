//! Monotonic time for latency measurement.
//!
//! This module is the **only** place outside `crates/core/src/clock.rs`
//! allowed to read an OS clock (the root `clippy.toml` disallows
//! `Instant::now` and `SystemTime::now`; both homes allow it by name).
//! The separation is deliberate: `core::clock` models *simulated calendar
//! time* — everything the paper's semantics depend on (24 h batches,
//! weekly trust caps) is driven by an injected `Clock` so experiments stay
//! deterministic. Latency measurement is the opposite animal: it must
//! observe *real* elapsed wall time of real I/O, and injecting a simulated
//! clock into it would only ever report zeros. Keeping the monotonic read
//! behind [`Stopwatch`] means no other module grows its own `Instant::now`
//! habit, and clippy keeps every caller honest.

use std::time::Instant;

/// A started monotonic stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start measuring now.
    #[allow(clippy::disallowed_methods, reason = "the one monotonic-clock read for latency")]
    pub fn start() -> Self {
        Stopwatch { started: Instant::now() }
    }

    /// Microseconds elapsed since [`Stopwatch::start`], saturating at
    /// `u64::MAX` (a ~585 000-year span; saturation keeps the no-panic
    /// guarantee rather than guarding a case that cannot occur).
    pub fn elapsed_micros(&self) -> u64 {
        let micros = self.started.elapsed().as_micros();
        u64::try_from(micros).unwrap_or(u64::MAX)
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturating at
    /// `u64::MAX` (~584 years).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_micros();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = sw.elapsed_micros();
        assert!(b >= a);
        assert!(b >= 2_000, "2ms sleep must register at least 2000µs, got {b}");
    }
}
