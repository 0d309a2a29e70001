//! Observability substrate: metrics registry, tracing spans, slow-op log.
//!
//! The paper's deployment story (§2.1, §4) is a reputation server
//! absorbing vote floods and periodic aggregation under adversarial load.
//! Benchmarks prove the steady state; this crate is what makes the *live*
//! system inspectable: every layer records counters, gauges and latency
//! histograms into one process-wide [`Registry`], and the web front end
//! renders the whole thing as a Prometheus-style text exposition
//! (`GET /metrics`).
//!
//! Design constraints, in order:
//!
//! 1. **Non-blocking on hot paths.** Every record operation is a handful
//!    of relaxed atomic adds on pre-registered metrics; the only mutex in
//!    the crate guards metric *registration* (startup) and the slow-op
//!    ring (touched only when an op actually exceeded the threshold).
//!    Request-latency spans are *sampled* (default 1 in 64, see
//!    [`span::SpanFamily`]) so the two monotonic clock reads they cost
//!    stay off the nanosecond-scale request path.
//! 2. **Zero dependencies.** Like the rest of the workspace, everything —
//!    the log-linear histogram, the exposition writer — is hand-rolled.
//! 3. **No panics.** The crate denies clippy's panic lints (below): a
//!    metrics bug must never take down the serving path it observes.
//!
//! Knobs (read once, at first use of the global registry):
//!
//! * `SOFTREP_SLOW_OP_MS` — spans slower than this land in the slow-op
//!   ring buffer (default 500 ms).
//! * `SOFTREP_SPAN_SAMPLE` — sample 1 in N span timings for families
//!   constructed with [`span::SpanFamily::sampled`] (default 64, clamped
//!   to a power of two; 1 = time every span).

// A panic on the request path turns one hostile frame or bad record into
// an outage: these lints hold outside tests (every module of this crate).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod metrics;
pub mod span;
pub mod time;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use span::{PausedSpan, RequestScope, SlowOp, Span, SpanFamily};

use std::sync::OnceLock;

/// The process-wide registry every subsystem records into. First use
/// initialises it (and reads the env knobs); the handle is `'static`, so
/// call sites can cache the `Arc`s they register once and touch only
/// atomics afterwards.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-wide slow-op log (see [`span::SlowOpLog`]).
pub fn slow_ops() -> &'static span::SlowOpLog {
    static GLOBAL: OnceLock<span::SlowOpLog> = OnceLock::new();
    GLOBAL.get_or_init(span::SlowOpLog::from_env)
}

/// Parse a `u64` environment knob, falling back to `default` when unset
/// or malformed (observability must never abort startup).
pub(crate) fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        let a = registry() as *const Registry;
        let b = registry() as *const Registry;
        assert_eq!(a, b);
    }

    #[test]
    fn env_u64_falls_back_on_garbage() {
        assert_eq!(env_u64("SOFTREP_OBS_TEST_UNSET_KNOB", 7), 7);
        std::env::set_var("SOFTREP_OBS_TEST_BAD_KNOB", "not-a-number");
        assert_eq!(env_u64("SOFTREP_OBS_TEST_BAD_KNOB", 9), 9);
        std::env::set_var("SOFTREP_OBS_TEST_GOOD_KNOB", " 250 ");
        assert_eq!(env_u64("SOFTREP_OBS_TEST_GOOD_KNOB", 9), 250);
    }
}
