//! The explorer probe of the traced run: random walks over the small
//! P4Update registry scenarios and their one-liar byzantine variants,
//! exactly as `explore::search::random_walk` runs them with default
//! `WalkOptions`, timed walk by walk through `explore::run`.
//!
//! The explorer is not an end-to-end workload of this benchmark: a walk
//! set's cost is dominated by the few walks a fault stalls until the
//! horizon, so its throughput moves with the seed far more than any
//! bound could allow. Its layers are still measured here, in every traced
//! run.

use crate::stats::{median, secs, Outcome};
use p4update::core::Violation;
use p4update::des::SimRng;
use p4update::explore::scenarios::{self, base_name};
use p4update::explore::search::WalkOptions;
use p4update::explore::{self, FreePolicy, TraceChooser};
use p4update::sim::{simulation, Event};
use std::collections::BTreeMap;
use std::time::Instant;

/// The walked scenarios: the small P4Update registry entries and the
/// one-liar byzantine vectors on the Fig. 2 race. `ft512-dual` is left
/// out: its walks are almost all scenario rebuild, the same path-table
/// work `setup_s` covers.
const SCENARIOS: [&str; 8] = [
    "fig1-single",
    "fig1-dual",
    "fig2-p4",
    "multigw-dual",
    "fig2-p4+byz-ack-k1",
    "fig2-p4+byz-dep-k1",
    "fig2-p4+byz-equiv-k1",
    "fig2-p4+byz-stale-k1",
];

/// Repetitions of each probe; the metrics are their medians.
const REPS: usize = 3;

/// Walk `i`'s free policy, derived from the walk seed as `random_walk`
/// derives it.
fn policy(walk_seed: u64, i: u32) -> FreePolicy {
    let o = WalkOptions::default();
    FreePolicy::Random {
        rng: SimRng::new(
            walk_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(i)),
        ),
        fault_p: o.fault_p,
        tie_p: o.tie_p,
        byz_p: o.byz_p,
    }
}

/// The search's notion of a broken run: a violation other than a caught
/// forgery.
fn breached(violations: &[Violation]) -> bool {
    violations.iter().any(|v| !v.is_forgery_rejection())
}

/// What one walk reports.
#[derive(PartialEq)]
struct Walk {
    events: u64,
    choices: usize,
    breached: bool,
}

/// One pass over the walk set: host seconds and report per walk.
fn walk_pass(seed: u64) -> (Vec<f64>, Vec<Walk>) {
    let mut walls = Vec::new();
    let mut walks = Vec::new();
    for name in SCENARIOS {
        for i in 0..WalkOptions::default().runs {
            let start = Instant::now();
            let report = explore::run(name, seed, BTreeMap::new(), policy(seed, i))
                .expect("every probe scenario is registered");
            walls.push(secs(start));
            walks.push(Walk {
                events: report.events,
                choices: report.choices.len(),
                breached: breached(&report.violations),
            });
        }
    }
    (walls, walks)
}

/// Mean over the scenarios of: a default-schedule run of `build`
/// (paranoid checking, fault choice points) minus the same base scenario
/// from `build_deterministic`.
fn checker_share(seed: u64) -> f64 {
    let mut total = 0.0;
    for name in SCENARIOS {
        let built = scenarios::build(name, seed).expect("registered scenario");
        let (chooser, _log) = TraceChooser::with_policy(BTreeMap::new(), FreePolicy::Default);
        let mut sim = built.sim.with_chooser(Box::new(chooser));
        let start = Instant::now();
        let _ = sim.run_until(built.horizon);
        let full = secs(start);

        let d = scenarios::build_deterministic(base_name(name), seed).expect("deterministic base");
        let mut sim = simulation(d.world);
        sim.schedule_at(d.trigger_at, Event::Trigger { batch: d.batch });
        let start = Instant::now();
        let _ = sim.run_until(d.horizon);
        total += full - secs(start);
    }
    total / SCENARIOS.len() as f64
}

/// Record the explorer layers: per-walk `scenarios::build` and
/// `explore::run` seconds, the walks' mean event and choice counts, and
/// the paranoid checker's share of a run. Checks that every pass runs the
/// same walks and that no walk breaches a safety property: the walks are
/// the ones `random_walk` runs on walk seed `seed`, so this is its verdict.
pub fn layers(out: &mut Outcome, seed: u64) {
    let mut build_s = Vec::new();
    let mut walk_s = Vec::new();
    let mut checker_s = Vec::new();
    let mut first: Option<Vec<Walk>> = None;
    for _ in 0..REPS {
        let start = Instant::now();
        for name in SCENARIOS {
            for _ in 0..WalkOptions::default().runs {
                std::hint::black_box(scenarios::build(name, seed));
            }
        }
        let builds = SCENARIOS.len() as f64 * f64::from(WalkOptions::default().runs);
        build_s.push(secs(start) / builds);
        let (walls, walks) = walk_pass(seed);
        walk_s.push(walls.iter().sum::<f64>() / walls.len() as f64);
        match &first {
            None => first = Some(walks),
            Some(f) => out.check(*f == walks, || {
                "an explorer walk pass diverged from the first".to_string()
            }),
        }
        checker_s.push(checker_share(seed));
    }
    let walks = first.expect("at least one probe pass");
    let breaches = walks.iter().filter(|w| w.breached).count();
    out.check(breaches == 0, || {
        format!("{breaches} explorer walks breached a safety property")
    });
    let n = walks.len() as f64;
    let events: u64 = walks.iter().map(|w| w.events).sum();
    let choices: usize = walks.iter().map(|w| w.choices).sum();
    out.metric("explore.scenario_build_s", median(&build_s), "s");
    out.metric("explore.walk_s", median(&walk_s), "s");
    out.metric("explore.events_per_walk", events as f64 / n, "count");
    out.metric("explore.choices_per_walk", choices as f64 / n, "count");
    out.metric("sim.checker_s", median(&checker_s), "s");
}
