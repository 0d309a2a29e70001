//! Shared helpers for the experiment harnesses and micro-benchmarks.
//!
//! The `benches/experiments.rs` target regenerates every table and figure
//! of EXPERIMENTS.md (`cargo bench -p softrep-bench --bench experiments`);
//! the criterion targets cover experiment D10 (system performance).

/// Experiment scale selector.
///
/// * `SOFTREP_SCALE=quick` — the test-sized configurations (seconds).
/// * default — the `full()` configurations recorded in EXPERIMENTS.md.
pub fn use_quick_scale() -> bool {
    std::env::var("SOFTREP_SCALE").map(|v| v == "quick").unwrap_or(false)
}

/// Print an experiment header followed by its tables.
pub fn print_tables(id: &str, tables: &[softrep_sim::TextTable]) {
    println!("\n######## {id} ########");
    for table in tables {
        println!("{}", table.render());
    }
}

/// Wall-clock one closure, printing the duration after the experiment id.
#[allow(
    clippy::disallowed_methods,
    reason = "wall-clock duration of a bench run is the measurement itself"
)]
pub fn timed<T>(id: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    println!("[{id} completed in {:.1?}]", start.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_selector_reads_env() {
        // Unset by default in the test environment.
        if std::env::var("SOFTREP_SCALE").is_err() {
            assert!(!use_quick_scale());
        }
    }

    #[test]
    fn timed_returns_value() {
        assert_eq!(timed("t", || 42), 42);
    }
}
