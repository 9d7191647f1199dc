//! The fat-tree migration workloads: every switch of the 4096-switch
//! synthetic fat-tree sources one gravity-model flow, and one batch moves
//! every flow from its shortest to its second-shortest route.
//!
//! A run sets up (topology, path tables, workload), then times
//! fresh-world update passes for the requested seconds. A pass is world
//! assembly, the trigger as its own `step()` (controller preparation, plus
//! the analysis gate on P4Update) and the event loop to drain.

use crate::explorer;
use crate::stats::{median, percentile, proc_mib, secs, Outcome, ReferenceKernel};
use crate::traced::{traced_simulation, KindStats, Side, KINDS, UNTIMED};
use p4update::analysis::{AnalysisContext, BatchAnalyzer};
use p4update::core::{prepare_update, PreparedUpdate, Strategy};
use p4update::des::{SimDuration, SimRng, SimTime, Simulation, World};
use p4update::net::{topologies, FlowId, Topology, Version};
use p4update::sim::{
    self, simulation, Event, NetworkSim, NullMetrics, PathTables, SimConfig, StreamingMetrics,
    System, TimingConfig, Violation,
};
use p4update::traffic::{multi_flow, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Gravity-model load as a share of link capacity (§9.1's near-capacity
/// multi-flow setting).
const LOAD_FACTOR: f64 = 0.55;

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Host seconds of one reference-kernel run at the speed `setup_s` is
/// given in: its median on the 2-core Xeon VM of the baseline.
const NOMINAL_KERNEL_S: f64 = 0.032;

/// Minimum update passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// The paper's dual-layer protocol; every world turns the analysis gate on,
/// and it lints this system's batches.
pub const P4UPDATE: System = System::P4Update(Strategy::ForceDual);

/// The congestion-aware centralized baseline (the gate skips baselines).
pub const CENTRAL: System = System::Central { congestion: true };

/// The simulated-time horizon of a pass.
fn horizon() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(600)
}

/// Everything a pass starts from.
struct Setup {
    topo: Topology,
    tables: Arc<PathTables>,
    workload: Workload,
}

/// Host cost of each set-up layer.
struct SetupTimes {
    topology_s: f64,
    tables_s: f64,
    tables_mib: f64,
    workload_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.topology_s + self.tables_s + self.workload_s
    }
}

fn set_up(seed: u64) -> (Setup, SetupTimes) {
    let start = Instant::now();
    let topo = topologies::synthetic_fat_tree_4096();
    let topology_s = secs(start);
    let rss = proc_mib("VmRSS");
    let start = Instant::now();
    let tables = Arc::new(PathTables::compute(&topo));
    let tables_s = secs(start);
    let tables_mib = proc_mib("VmRSS") - rss;
    let start = Instant::now();
    let workload = multi_flow(&topo, &mut SimRng::new(seed), LOAD_FACTOR);
    let workload_s = secs(start);
    let setup = Setup {
        topo,
        tables,
        workload,
    };
    let times = SetupTimes {
        topology_s,
        tables_s,
        tables_mib,
        workload_s,
    };
    (setup, times)
}

/// Which metrics sink a pass installs.
#[derive(Clone, Copy)]
enum Sink {
    Streaming,
    Null,
}

/// A fresh world with every old path installed and the whole workload
/// queued as one batch.
fn assemble(setup: &Setup, system: System, seed: u64, sink: Sink) -> (NetworkSim, usize) {
    let config = SimConfig::new(TimingConfig::fat_tree(), seed).with_analysis_gate(true);
    let mut net = NetworkSim::with_path_tables(
        setup.topo.clone(),
        system,
        config,
        Some(setup.workload.free_capacity.clone()),
        Arc::clone(&setup.tables),
    );
    match sink {
        Sink::Streaming => net.set_metrics_sink(Box::new(StreamingMetrics::new())),
        Sink::Null => net.set_metrics_sink(Box::new(NullMetrics)),
    }
    for u in &setup.workload.updates {
        if let Some(old) = &u.old_path {
            net.install_initial_path(u.flow, old, u.size);
        }
    }
    let batch = net.add_batch(setup.workload.updates.clone());
    (net, batch)
}

/// Host time of one pass's phases.
#[derive(Clone, Copy)]
struct PassTimes {
    assemble_s: f64,
    trigger_s: f64,
    loop_s: f64,
}

impl PassTimes {
    fn wall_s(&self) -> f64 {
        self.assemble_s + self.trigger_s + self.loop_s
    }
}

/// What a finished pass shows; two passes of one workload must agree.
#[derive(PartialEq)]
struct Observed {
    /// Events delivered, trigger included.
    events: u64,
    peak_queue_depth: usize,
    /// Per workload flow: simulated ms from trigger to its final completion
    /// (`None`: not completed by the horizon, or the sink keeps no
    /// completions).
    completion_ms: Vec<Option<f64>>,
    /// Flows not completed by the horizon or named by the final-state
    /// `sim::check`, each counted once.
    failed: u64,
    /// Links the final-state `sim::check` finds overloaded.
    overloaded_links: usize,
    /// Error-severity findings of the analysis gate.
    gate_errors: usize,
}

fn observe<W: World>(sim: &Simulation<W>, net: &NetworkSim, setup: &Setup) -> Observed {
    let mut last: BTreeMap<FlowId, SimTime> = BTreeMap::new();
    for &(t, flow, _) in net.sink().completions() {
        let e = last.entry(flow).or_insert(t);
        *e = (*e).max(t);
    }
    let mut violating = Vec::new();
    let mut overloaded_links = 0;
    for v in sim::check(net.topology(), &net.switches, &net.flows) {
        match v {
            Violation::Loop { flow, .. }
            | Violation::Blackhole { flow, .. }
            | Violation::ForgedReject { flow, .. } => violating.push(flow),
            Violation::Congestion { .. } => overloaded_links += 1,
        }
    }
    let updates = &setup.workload.updates;
    let completion_ms: Vec<Option<f64>> = updates
        .iter()
        .map(|u| last.get(&u.flow).map(|t| t.as_millis_f64()))
        .collect();
    let failed = updates
        .iter()
        .zip(&completion_ms)
        .filter(|(u, done)| done.is_none() || violating.contains(&u.flow))
        .count();
    Observed {
        events: sim.events_delivered(),
        peak_queue_depth: sim.peak_queue_depth(),
        completion_ms,
        failed: failed as u64,
        overloaded_links,
        gate_errors: net
            .analysis_findings
            .iter()
            .filter(|d| d.is_error())
            .count(),
    }
}

/// Schedule the trigger, then time the trigger as its own step and the
/// loop to drain. `assembly` started when world assembly began.
fn drive<W: World<Event = Event>>(
    mut sim: Simulation<W>,
    batch: usize,
    assembly: Instant,
) -> (PassTimes, Simulation<W>) {
    sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
    let assemble_s = secs(assembly);
    let start = Instant::now();
    sim.step();
    let trigger_s = secs(start);
    let start = Instant::now();
    let _ = sim.run_until(horizon());
    let loop_s = secs(start);
    let times = PassTimes {
        assemble_s,
        trigger_s,
        loop_s,
    };
    (times, sim)
}

/// One untraced pass through `p4update::sim::simulation`.
fn pass(setup: &Setup, system: System, seed: u64, sink: Sink) -> (PassTimes, Observed) {
    let start = Instant::now();
    let (net, batch) = assemble(setup, system, seed, sink);
    let (times, sim) = drive(simulation(net), batch, start);
    (times, observe(&sim, sim.world(), setup))
}

/// One traced pass: the same world, run through the benchmark's
/// [`Traced`](crate::traced::Traced) wrapper.
fn traced_pass(setup: &Setup, system: System, seed: u64) -> (PassTimes, Observed, KindStats) {
    let start = Instant::now();
    let (net, batch) = assemble(setup, system, seed, Sink::Streaming);
    let (times, sim) = drive(traced_simulation(net), batch, start);
    let observed = observe(&sim, &sim.world().net, setup);
    (times, observed, sim.world().stats)
}

/// The plans the analysis gate lints for this workload: each migration
/// moves its flow from installed version 1 to version 2 under the
/// dual-layer strategy, whichever system runs the update.
fn gate_plans(workload: &Workload) -> (Vec<PreparedUpdate>, BTreeMap<FlowId, Version>) {
    let mut installed = BTreeMap::new();
    let plans = workload
        .updates
        .iter()
        .map(|u| {
            let version = if u.old_path.is_some() {
                installed.insert(u.flow, Version(1));
                Version(2)
            } else {
                Version(1)
            };
            prepare_update(u, version, Strategy::ForceDual)
        })
        .collect();
    (plans, installed)
}

/// Compare a pass with the run's first pass.
fn check_repeat(out: &mut Outcome, what: &str, first: &Observed, this: &Observed) {
    out.check(first == this, || {
        format!(
            "{what} pass diverged from the first pass: {} vs {} events, completions equal: {}",
            this.events,
            first.events,
            first.completion_ms == this.completion_ms
        )
    });
}

fn check_pass(out: &mut Outcome, observed: &Observed) {
    out.check(observed.gate_errors == 0, || {
        format!(
            "the analysis gate recorded {} error diagnostics",
            observed.gate_errors
        )
    });
    out.check(observed.overloaded_links == 0, || {
        format!(
            "sim::check found {} overloaded links in the final state",
            observed.overloaded_links
        )
    });
}

/// The untraced run: every end-to-end metric.
pub fn run(system: System, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    // Set-up `i` is bracketed by `setup_kernels[i]` and `[i + 1]`.
    let mut setup_kernels = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition first so peak memory holds one set,
        // and the kernel's tables live only while no set-up does.
        drop(setup.take());
        setup_kernels.push(ReferenceKernel::new().settled());
        let (s, times) = set_up(seed);
        setup_s.push(times.total());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up repetition");

    // A warm-up pass fills caches and the allocator, gives the reference
    // observation every timed pass must repeat, and sets the program's
    // peak memory before the reference kernel allocates its tables.
    let (_, first) = pass(&setup, system, seed, Sink::Streaming);
    check_pass(&mut out, &first);
    let peak_rss_mib = proc_mib("VmHWM");
    let reference = ReferenceKernel::new();
    setup_kernels.push(reference.settled());
    let setup_nominal: Vec<f64> = setup_s
        .iter()
        .enumerate()
        .map(|(i, s)| s * NOMINAL_KERNEL_S * 2.0 / (setup_kernels[i] + setup_kernels[i + 1]))
        .collect();

    // Each timed pass is bracketed by reference-kernel runs:
    // `kernels[i]` runs before pass `i` and `kernels[i + 1]` after it.
    let mut times: Vec<PassTimes> = Vec::new();
    let mut kernels: Vec<f64> = vec![reference.run()];
    let start = Instant::now();
    while times.len() < MIN_PASSES || secs(start) < seconds {
        let (t, observed) = pass(&setup, system, seed, Sink::Streaming);
        check_repeat(&mut out, "untraced", &first, &observed);
        times.push(t);
        kernels.push(reference.run());
    }
    let flows = setup.workload.updates.len() as u64;
    out.attempted = flows * times.len() as u64;
    out.failed = first.failed * times.len() as u64;

    let kernel = |i: usize| (kernels[i] + kernels[i + 1]) / 2.0;
    let walls: Vec<f64> = times.iter().map(PassTimes::wall_s).collect();
    let walls_ref: Vec<f64> = walls
        .iter()
        .enumerate()
        .map(|(i, w)| w / kernel(i))
        .collect();
    let rates_ref: Vec<f64> = times
        .iter()
        .enumerate()
        .map(|(i, t)| (first.events - 1) as f64 * kernel(i) / t.loop_s)
        .collect();
    let done: Vec<f64> = first.completion_ms.iter().flatten().copied().collect();
    out.check(!done.is_empty(), || "no flow completed".to_string());
    let (p50, p99) = if done.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (percentile(&done, 0.5), percentile(&done, 0.99))
    };
    out.metric("setup_s", median(&setup_nominal), "s");
    out.metric("update_wall_ref", median(&walls_ref), "ref");
    out.metric("events_per_ref", median(&rates_ref), "1/ref");
    out.metric("update_time_p50_ms", p50, "ms");
    out.metric("update_time_p99_ms", p99, "ms");
    out.metric("peak_rss_mib", peak_rss_mib, "MiB");
    eprintln!(
        "passes: {}, events per pass: {}, flows: {flows}, completed: {}, set-up runs (host s): {setup_s:?}, \
         kernels around them (s): {setup_kernels:?}, median pass wall: {:.4} s, median reference kernel: {:.4} s",
        times.len(),
        first.events,
        done.len(),
        median(&walls),
        median(&kernels)
    );
    out
}

/// The traced run: every per-layer metric. Each round runs three passes
/// of the same world: untraced with the streaming sink, untraced with the
/// null sink, and traced.
pub fn run_traced(system: System, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup, st) = set_up(seed);

    let (plans, installed) = gate_plans(&setup.workload);
    let ctx = AnalysisContext::with_installed(Some(&setup.topo), installed);
    let mut lint_s = Vec::new();
    for _ in 0..MIN_PASSES {
        let start = Instant::now();
        let analysis = BatchAnalyzer::new(1).analyze(&plans, &ctx);
        lint_s.push(secs(start));
        let errors = analysis
            .diagnostics()
            .iter()
            .filter(|d| d.is_error())
            .count();
        out.check(errors == 0, || {
            format!("the analyzer rejected {errors} of the workload's plans")
        });
        std::hint::black_box(analysis);
    }

    let mut plain: Vec<PassTimes> = Vec::new();
    let mut null_loop: Vec<f64> = Vec::new();
    let mut traced: Vec<PassTimes> = Vec::new();
    let mut kinds: Vec<KindStats> = Vec::new();
    let mut kernels: Vec<f64> = Vec::new();
    let mut first: Option<Observed> = None;
    let reference = ReferenceKernel::new();
    let start = Instant::now();
    while plain.len() < MIN_PASSES || secs(start) < seconds {
        kernels.push(reference.run());
        let (t, observed) = pass(&setup, system, seed, Sink::Streaming);
        check_pass(&mut out, &observed);
        match &first {
            None => first = Some(observed),
            Some(f) => check_repeat(&mut out, "untraced", f, &observed),
        }
        let f = first.as_ref().expect("set by the first round");
        plain.push(t);

        let (t, null) = pass(&setup, system, seed, Sink::Null);
        out.check(null.events == f.events, || {
            format!(
                "null-sink pass delivered {} events, not {}",
                null.events, f.events
            )
        });
        null_loop.push(t.loop_s);

        let (t, observed, stats) = traced_pass(&setup, system, seed);
        check_repeat(&mut out, "traced", f, &observed);
        out.check(stats.events() == f.events, || {
            format!(
                "traced per-kind counts sum to {}, the untraced pass delivered {}",
                stats.events(),
                f.events
            )
        });
        traced.push(t);
        kinds.push(stats);
    }
    let first = first.expect("at least one pass");
    let flows = setup.workload.updates.len() as u64;
    out.attempted = flows * plain.len() as u64;
    out.failed = first.failed * plain.len() as u64;

    let col =
        |v: &[PassTimes], f: fn(&PassTimes) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    let plain_loop = col(&plain, |t| t.loop_s);
    let traced_loop = col(&traced, |t| t.loop_s);
    out.metric("net.topology_s", st.topology_s, "s");
    out.metric("sim.path_tables_s", st.tables_s, "s");
    out.metric("sim.path_tables_mib", st.tables_mib, "MiB");
    out.metric("traffic.workload_s", st.workload_s, "s");
    out.metric("sim.assemble_s", col(&plain, |t| t.assemble_s), "s");
    out.metric("sim.trigger_s", col(&plain, |t| t.trigger_s), "s");
    out.metric("analysis.lint_s", median(&lint_s), "s");
    out.metric("sim.loop_s", plain_loop, "s");
    report_kinds(&mut out, &kinds);
    let self_s: Vec<f64> = traced
        .iter()
        .zip(&kinds)
        .map(|(t, k)| t.loop_s - k.loop_handler_secs())
        .collect();
    out.metric("des.self_s", median(&self_s), "s");
    out.metric("des.events", first.events as f64, "count");
    out.metric(
        "des.peak_queue_depth",
        first.peak_queue_depth as f64,
        "count",
    );
    out.metric("sim.sink_s", plain_loop - median(&null_loop), "s");
    explorer::layers(&mut out, seed);
    out.metric("trace.overhead", traced_loop / plain_loop - 1.0, "ratio");
    out.metric("bench.reference_kernel_s", median(&kernels), "s");
    out.metric("failed_share", first.failed as f64 / flows as f64, "share");
    eprintln!("rounds: {}, events per pass: {}", plain.len(), first.events);
    out
}

/// `sim.handle.<kind>.n` (per pass) and `.s` (median handler seconds per
/// pass), and the per-side handler totals.
fn report_kinds(out: &mut Outcome, kinds: &[KindStats]) {
    for (k, kind) in KINDS.iter().enumerate() {
        let n = kinds[0].n[k];
        for other in kinds {
            out.check(other.n[k] == n, || {
                format!("{} count differs between traced passes", kind.name)
            });
        }
        if kind.side == Side::Other {
            continue;
        }
        out.metric(format!("sim.handle.{}.n", kind.name), n as f64, "count");
        if !UNTIMED.contains(&kind.name) {
            let s: Vec<f64> = kinds.iter().map(|x| x.time[k].as_secs_f64()).collect();
            out.metric(format!("sim.handle.{}.s", kind.name), median(&s), "s");
        }
    }
    for (name, side) in [
        ("switch_s", Side::Switch),
        ("controller_s", Side::Controller),
    ] {
        let s: Vec<f64> = kinds.iter().map(|x| x.side_secs(side)).collect();
        out.metric(format!("sim.handle.{name}"), median(&s), "s");
    }
}
