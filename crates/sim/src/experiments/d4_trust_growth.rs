//! **D4 — the trust growth schedule**: §3.2's cap in numbers.
//!
//! "The reputation system has implemented a growth limitation on users'
//! trust factors, by setting the maximum growth per week to 5 units.
//! Hence, you can reach a maximum trust factor of 5 the first week you are
//! a member, 10 the second week, and so on. Thereby preventing any user
//! from gaining a high trust factor and a high influence without proving
//! themselves worthy of it over a relatively long period of time."
//!
//! The experiment traces three accounts over a year — a celebrated expert
//! (maximal positive remarks every week), a typical member (+1/week), and
//! a freshly-registered Sybil — and reports the attacker's maximum vote-
//! weight share against a mature community of a given size.

use softrep_core::clock::Timestamp;
use softrep_core::model::TrustRecord;
use softrep_core::trust::TrustEngine;

use crate::report::{pct, TextTable};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Weeks traced.
    pub weeks: u64,
    /// Weeks sampled into the output table.
    pub sample_every: u64,
    /// Honest community size for the weight-share computation.
    pub community: usize,
    /// Sybil accounts the attacker registers at the measurement instant.
    pub sybils: usize,
}

impl Config {
    /// Test-sized run.
    pub fn quick() -> Self {
        Config { weeks: 12, sample_every: 4, community: 50, sybils: 10 }
    }

    /// Headline run.
    pub fn full() -> Self {
        Config { weeks: 52, sample_every: 4, community: 1_000, sybils: 100 }
    }
}

/// One sampled week.
#[derive(Debug, Clone, Copy)]
pub struct WeekSample {
    /// Week index.
    pub week: u64,
    /// Theoretical maximum reachable trust.
    pub max_reachable: f64,
    /// The celebrated expert's actual trust.
    pub expert: f64,
    /// The typical member's trust.
    pub typical: f64,
    /// Attacker weight share at this community age: `sybils × 1` against
    /// `community × typical`.
    pub attacker_share: f64,
}

/// Structured result.
#[derive(Debug, Clone)]
pub struct Result {
    /// Sampled weeks.
    pub samples: Vec<WeekSample>,
    /// Printable tables.
    pub tables: Vec<TextTable>,
}

fn at_week(w: u64) -> Timestamp {
    Timestamp::ZERO.plus_weeks(w)
}

/// Run the experiment. Pure `TrustEngine` arithmetic — no harness needed.
pub fn run(config: &Config) -> Result {
    let mut expert: TrustRecord = TrustEngine::new_user("expert", at_week(0));
    let mut typical: TrustRecord = TrustEngine::new_user("typical", at_week(0));

    let mut samples = Vec::new();
    for week in 0..=config.weeks {
        if week > 0 {
            // The expert maxes the weekly allowance; the typical member
            // earns one positive remark a week.
            TrustEngine::apply_delta(&mut expert, f64::INFINITY, at_week(week));
            TrustEngine::apply_delta(&mut typical, 1.0, at_week(week));
        }
        if week % config.sample_every == 0 || week == config.weeks {
            let honest_mass = config.community as f64 * typical.trust();
            let attacker_mass = config.sybils as f64 * 1.0; // newcomers hold trust 1
            samples.push(WeekSample {
                week,
                max_reachable: TrustEngine::max_reachable(week),
                expert: expert.trust(),
                typical: typical.trust(),
                attacker_share: attacker_mass / (attacker_mass + honest_mass),
            });
        }
    }

    let mut table = TextTable::new(
        format!(
            "D4 — trust growth under the +5/week cap ({} honest members vs {} fresh sybils)",
            config.community, config.sybils
        ),
        &["week", "max reachable", "expert", "typical member", "sybil weight share"],
    );
    for s in &samples {
        table.row(vec![
            s.week.to_string(),
            format!("{:.0}", s.max_reachable),
            format!("{:.0}", s.expert),
            format!("{:.1}", s.typical),
            pct(s.attacker_share),
        ]);
    }
    table.note(
        "sybils always weigh 1 (the newcomer minimum); their share decays as honest trust matures",
    );

    Result { samples, tables: vec![table] }
}

#[cfg(test)]
mod tests {
    use super::*;

    use softrep_core::trust::MAX_TRUST;

    #[test]
    fn expert_tracks_the_cap_schedule() {
        let result = run(&Config::quick());
        for s in &result.samples {
            assert!(s.expert <= s.max_reachable);
            assert!(s.expert <= MAX_TRUST);
            // The maximal earner stays within one weekly allowance of the
            // theoretical bound.
            assert!(s.max_reachable - s.expert <= 5.0 + 1e-9, "week {}", s.week);
        }
    }

    #[test]
    fn attacker_share_decays_with_community_age() {
        let result = run(&Config::quick());
        let first = result.samples.first().unwrap().attacker_share;
        let last = result.samples.last().unwrap().attacker_share;
        assert!(last < first, "sybil share must decay: {first:.3} -> {last:.3}");
    }

    #[test]
    fn typical_member_grows_one_unit_per_week() {
        let result = run(&Config::quick());
        for s in &result.samples {
            assert!((s.typical - (1.0 + s.week as f64)).abs() < 1e-9, "week {}", s.week);
        }
    }

    #[test]
    fn full_year_reaches_the_ceiling() {
        let result = run(&Config::full());
        let last = result.samples.last().unwrap();
        assert_eq!(last.expert, MAX_TRUST, "a year of maximal remarks reaches 100");
    }
}
