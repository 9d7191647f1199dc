//! The scale runner: drives multi-flow updates over four topology
//! scales for every system under test and aggregates the measurements
//! the `BENCH_p4update.json` baseline records.
//!
//! Runs are independent simulations, so the runner shards the
//! (system × seed) grid across a `std::thread::scope` pool. Each run is
//! a pure function of (workload, seed); results are merged in job-index
//! order, so everything except wall-clock-derived fields is byte
//! identical for any `--threads` value (see [`crate::json::strip_timing`]).

use crate::json::{Json, EXPECTED_SYSTEMS, SCHEMA};
use crate::workload::bench_workload;
use p4update_core::Strategy;
use p4update_des::{Samples, SimDuration, SimTime};
use p4update_net::{topologies, FlowId, FlowUpdate, Path, Topology};
use p4update_sim::{
    simulation, Event, NetworkSim, PathTables, SimConfig, StreamingMetrics, System, TimingConfig,
};
use p4update_traffic::Workload;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The gravity-model load factor all perf runs use (§9.1's near-capacity
/// multi-flow setting).
pub const LOAD_FACTOR: f64 = 0.55;

/// The four systems every scale measures, labeled per
/// [`EXPECTED_SYSTEMS`] so the emitted artifact and the validator can
/// never drift apart.
pub fn systems() -> [(&'static str, System); 4] {
    [
        (EXPECTED_SYSTEMS[0], System::P4Update(Strategy::ForceSingle)),
        (EXPECTED_SYSTEMS[1], System::P4Update(Strategy::ForceDual)),
        (EXPECTED_SYSTEMS[2], System::EzSegway { congestion: true }),
        (EXPECTED_SYSTEMS[3], System::Central { congestion: true }),
    ]
}

/// One topology scale of the benchmark.
pub struct Scale {
    /// Artifact label ("fig1", "ft64", "ft512", "ft4096").
    pub name: &'static str,
    /// Topology constructor.
    pub build: fn() -> Topology,
    /// Timing model for this scale.
    pub timing: fn(&Topology) -> TimingConfig,
    /// Seeds to run per system at full fidelity.
    pub full_runs: u64,
    /// Seeds to run per system in smoke mode (0 = skipped).
    pub smoke_runs: u64,
}

fn wan_timing(topo: &Topology) -> TimingConfig {
    TimingConfig::wan_multi_flow(topo.centroid())
}

fn dc_timing(_topo: &Topology) -> TimingConfig {
    TimingConfig::fat_tree()
}

/// The benchmark's four scales: Fig.-1-size, 64-, 512- and 4096-switch.
pub fn scales() -> [Scale; 4] {
    [
        Scale {
            name: "fig1",
            build: topologies::fig1,
            timing: wan_timing,
            full_runs: 20,
            smoke_runs: 2,
        },
        Scale {
            name: "ft64",
            build: topologies::synthetic_fat_tree_64,
            timing: dc_timing,
            full_runs: 5,
            smoke_runs: 1,
        },
        Scale {
            name: "ft512",
            build: topologies::synthetic_fat_tree_512,
            timing: dc_timing,
            // Enough seeds that steady-state throughput dominates the
            // cold first run — a single ft512 run is ~10 ms of event
            // loop, which is timer-noise territory.
            full_runs: 8,
            smoke_runs: 0,
        },
        Scale {
            name: "ft4096",
            build: topologies::synthetic_fat_tree_4096,
            timing: dc_timing,
            full_runs: 1,
            smoke_runs: 0,
        },
    ]
}

/// Measurements of one (scale, system) cell, aggregated over seeds.
pub struct SystemResult {
    /// Artifact label of the system.
    pub system: &'static str,
    /// Seeds run.
    pub runs: u64,
    /// Total events delivered across runs.
    pub events: u64,
    /// Total wall-clock seconds spent inside the event loop.
    pub wall_secs: f64,
    /// Largest pending-event high-water mark over all runs.
    pub peak_queue_depth: usize,
    /// Median flow-completion time (ms since trigger), across all flows
    /// of all runs.
    pub fct_p50_ms: f64,
    /// 99th-percentile flow-completion time (ms).
    pub fct_p99_ms: f64,
    /// Flows that completed inside the horizon, across all runs.
    pub completed_flows: u64,
    /// Flows attempted across all runs (`flows × runs`).
    pub total_flows: u64,
    /// Flows stranded without completing across all runs (ez-Segway's
    /// circular capacity waits; zero for every other system).
    pub stranded_flows: u64,
}

/// Measurements of one topology scale.
pub struct ScaleResult {
    /// Scale label.
    pub scale: &'static str,
    /// Switch count.
    pub nodes: usize,
    /// Link count.
    pub links: usize,
    /// Flows updated per run (one per switch, gravity model).
    pub flows: usize,
    /// Per-system cells.
    pub systems: Vec<SystemResult>,
}

/// What one (topology, system, seed) run measured.
struct RunMeasure {
    events: u64,
    peak: usize,
    fct_ms: Vec<f64>,
    stranded: u64,
    wall: std::time::Duration,
}

/// Deterministic fork-join map: evaluate `f(0..jobs)` on up to `threads`
/// workers and return the results in input order. Workers pull job
/// indices from a shared atomic counter (so stragglers don't idle a
/// lane) and stash `(index, result)` pairs locally; the merge sorts by
/// index, so the output is identical for any thread count — the whole
/// determinism argument for the parallel runner rests on each `f(i)`
/// being a pure function of `i`.
pub(crate) fn parallel_map<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, jobs.max(1));
    if threads == 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("perf worker panicked"));
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

/// The bench event-loop horizon.
fn horizon() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(600)
}

/// Run one (topology, system) cell for one seed. A flow missing from the
/// completion-time list failed to finish inside the horizon (ez-Segway
/// can strand flows under contention); such flows are recorded as
/// stranded. The world starts with every initial path installed and the
/// whole workload queued as one batch. Workload and path-table
/// construction happen outside the timed section; `wall` covers only the
/// event loop.
fn run_once(
    topo: &Topology,
    tables: &Arc<PathTables>,
    workload: &Workload,
    timing: TimingConfig,
    system: System,
    seed: u64,
) -> RunMeasure {
    let config = SimConfig::new(timing, seed).with_analysis_gate(false);
    let mut world = NetworkSim::with_path_tables(
        topo.clone(),
        system,
        config,
        Some(workload.free_capacity.clone()),
        Arc::clone(tables),
    )
    .with_metrics_sink(Box::new(StreamingMetrics::new()));
    for u in &workload.updates {
        if let Some(old) = &u.old_path {
            world.install_initial_path(u.flow, old, u.size);
        }
    }
    let batch = world.add_batch(workload.updates.clone());
    let mut sim = simulation(world);
    sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
    let start = std::time::Instant::now();
    let _ = sim.run_until(horizon());
    let wall = start.elapsed();
    let (events, peak) = (sim.events_delivered(), sim.peak_queue_depth());
    let mut world = sim.into_world();
    let stranded = world.record_stranded_flows().len() as u64;
    let mut latest: BTreeMap<FlowId, SimTime> = BTreeMap::new();
    for &(t, f, _) in world.sink().completions() {
        let last = latest.entry(f).or_insert(t);
        *last = (*last).max(t);
    }
    let fct_ms: Vec<f64> = workload
        .updates
        .iter()
        .filter_map(|u| latest.get(&u.flow))
        .map(|t| t.as_millis_f64())
        .collect();
    RunMeasure {
        events,
        peak,
        fct_ms,
        stranded,
        wall,
    }
}

/// Run one scale for every system, sharding the (system × seed) grid
/// over `threads` workers. Path tables are computed once per topology
/// and workloads once per seed (both system-independent), then shared
/// read-only across the pool.
pub fn run_scale(scale: &Scale, runs: u64, threads: usize) -> ScaleResult {
    let topo = (scale.build)();
    let timing = (scale.timing)(&topo);
    let tables = Arc::new(PathTables::compute(&topo));
    let flows = topo.node_count();
    // One workload per seed, shared by all four systems (the gravity
    // model depends only on topology and seed). Generation itself is
    // deterministic per index, so it parallelizes like the runs do.
    let workloads: Vec<Workload> = parallel_map(runs as usize, threads, |i| {
        bench_workload(&topo, 1 + i as u64)
    });
    let grid = systems();
    let measures = parallel_map(grid.len() * runs as usize, threads, |job| {
        let (sys_idx, seed_idx) = (job / runs as usize, job % runs as usize);
        run_once(
            &topo,
            &tables,
            &workloads[seed_idx],
            timing,
            grid[sys_idx].1,
            1 + seed_idx as u64,
        )
    });
    let mut results = Vec::new();
    for (sys_idx, &(label, _)) in grid.iter().enumerate() {
        let mut events = 0u64;
        let mut wall = std::time::Duration::ZERO;
        let mut peak = 0usize;
        let mut stranded = 0u64;
        let mut fct = Samples::new();
        for m in &measures[sys_idx * runs as usize..(sys_idx + 1) * runs as usize] {
            events += m.events;
            wall += m.wall;
            peak = peak.max(m.peak);
            stranded += m.stranded;
            for &t in &m.fct_ms {
                fct.push(t);
            }
        }
        let ps = fct.percentiles(&[50.0, 99.0]);
        results.push(SystemResult {
            system: label,
            runs,
            events,
            wall_secs: wall.as_secs_f64(),
            peak_queue_depth: peak,
            fct_p50_ms: ps[0],
            fct_p99_ms: ps[1],
            completed_flows: fct.len() as u64,
            total_flows: flows as u64 * runs,
            stranded_flows: stranded,
        });
    }
    ScaleResult {
        scale: scale.name,
        nodes: topo.node_count(),
        links: topo.link_count(),
        flows,
        systems: results,
    }
}

fn parallelism_available() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
}

/// Measure run-level thread scaling: the same (scale, system, seeds)
/// cell timed end to end at 1, 2 and 4 workers. Wall times are
/// inherently machine-dependent (and meaningless on a single-core box —
/// `parallelism_available` records what the machine offered), which is
/// why [`crate::json::strip_timing`] drops the whole `thread_scaling`
/// section from the canonical artifact. Emitted as that section's
/// `run_level` entry.
fn run_level_scaling_probe(smoke: bool) -> Json {
    let all = scales();
    // ft64 for the baseline, fig1 for CI smoke — big enough to amortize
    // thread spawn, small enough to run three times over.
    let scale = if smoke { &all[0] } else { &all[1] };
    let runs = 4u64;
    let system = systems()[0];
    let topo = (scale.build)();
    let timing = (scale.timing)(&topo);
    let tables = Arc::new(PathTables::compute(&topo));
    let workloads: Vec<Workload> = (0..runs).map(|i| bench_workload(&topo, 1 + i)).collect();
    let mut points = Vec::new();
    let mut base_secs = 0.0;
    for threads in [1usize, 2, 4] {
        let start = std::time::Instant::now();
        let _ = parallel_map(runs as usize, threads, |i| {
            run_once(
                &topo,
                &tables,
                &workloads[i],
                timing,
                system.1,
                1 + i as u64,
            )
        });
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        if threads == 1 {
            base_secs = secs;
        }
        points.push(Json::Obj(vec![
            ("threads".into(), Json::Num(threads as f64)),
            ("wall_secs".into(), Json::Num(secs)),
            ("speedup".into(), Json::Num(base_secs / secs)),
        ]));
    }
    Json::Obj(vec![
        ("scale".into(), Json::Str(scale.name.into())),
        ("system".into(), Json::Str(system.0.into())),
        ("runs".into(), Json::Num(runs as f64)),
        (
            "parallelism_available".into(),
            Json::Num(parallelism_available() as f64),
        ),
        ("points".into(), Json::Arr(points)),
    ])
}

/// Hand-rolled cross-pod migrations for the 32768-switch fat-tree.
///
/// The gravity-model workload generator runs Yen's k-shortest-paths per
/// flow — prohibitive on a 1.1M-link graph — so this derives valid
/// old/new routes directly from the generator's wiring rules
/// (`agg{p}_{j}` uplinks to cores `(p+j) % cores` and `(p+j+1) % cores`;
/// pods are internally complete bipartite): flow `i` moves from
/// `edge{i}_0 → agg{i}_1 → core{(i+1)%128} → agg{i+1}_0 → edge{i+1}_0`
/// to the disjoint-spine `agg{i}_2 → core{(i+2)%128} → agg{i+1}_1`
/// route. Every hop exists by construction; `install_initial_path`
/// re-validates each path against the real topology anyway.
fn ft32768_updates(topo: &Topology, flows: usize) -> Vec<FlowUpdate> {
    let node = |name: String| topo.node_by_name(&name).expect("fat-tree grammar name");
    (0..flows)
        .map(|i| {
            let (a, b) = (i, i + 1);
            let old = Path::new(vec![
                node(format!("edge{a}_0")),
                node(format!("agg{a}_1")),
                node(format!("core{}", (a + 1) % 128)),
                node(format!("agg{b}_0")),
                node(format!("edge{b}_0")),
            ]);
            let new = Path::new(vec![
                node(format!("edge{a}_0")),
                node(format!("agg{a}_2")),
                node(format!("core{}", (a + 2) % 128)),
                node(format!("agg{b}_1")),
                node(format!("edge{b}_0")),
            ]);
            FlowUpdate::new(FlowId(i as u32), Some(old), new, 1.0)
        })
        .collect()
}

/// The 32768-switch scale: its [`PathTables`] stay empty (the NormalMs control model never consults a row). Runs
/// `flows` cross-pod migrations (192 for the baseline artifact; CI smoke
/// uses fewer via `--ft32768-smoke`) under the dual-layer protocol and
/// reports the deterministic shape (scale, nodes, flows, events) plus
/// wall-clock throughput (which [`crate::json::strip_timing`] removes).
/// The run checks itself: it is an error unless the queue drained and
/// every flow completed, with none stranded. 32 flows deliver 1,365
/// events and 192 flows deliver 8,348.
pub fn ft32768_probe(flows: usize) -> Result<Json, String> {
    let topo = topologies::synthetic_fat_tree_32768();
    let nodes = topo.node_count();
    let tables = Arc::new(PathTables::compute(&topo));
    let updates = ft32768_updates(&topo, flows);
    let config = SimConfig::new(TimingConfig::fat_tree(), 1).with_analysis_gate(false);
    let mut world = NetworkSim::with_path_tables(topo, systems()[1].1, config, None, tables)
        .with_metrics_sink(Box::new(StreamingMetrics::new()));
    for u in &updates {
        if let Some(old) = &u.old_path {
            world.install_initial_path(u.flow, old, u.size);
        }
    }
    let batch = world.add_batch(updates);
    let mut sim = simulation(world);
    sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
    let start = std::time::Instant::now();
    let outcome = sim.run_until(horizon());
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let events = sim.events_delivered();
    let mut world = sim.into_world();
    if !outcome.drained() {
        return Err(format!("ft32768: queue did not drain ({outcome:?})"));
    }
    let stranded = world.record_stranded_flows().len();
    let mut completed: Vec<FlowId> = world
        .sink()
        .completions()
        .iter()
        .map(|&(_, f, _)| f)
        .collect();
    completed.sort_unstable();
    completed.dedup();
    if completed.len() != flows || stranded != 0 {
        return Err(format!(
            "ft32768: {} of {flows} flows completed, {stranded} stranded",
            completed.len()
        ));
    }
    Ok(Json::Obj(vec![
        ("scale".into(), Json::Str("ft32768".into())),
        ("nodes".into(), Json::Num(nodes as f64)),
        ("flows".into(), Json::Num(flows as f64)),
        ("events".into(), Json::Num(events as f64)),
        ("wall_secs".into(), Json::Num(secs)),
        (
            "events_per_sec".into(),
            Json::Num((events as f64 / secs).round()),
        ),
    ]))
}

/// Measure the static batch verifier's throughput: prepare one bench
/// workload as a plan batch per analysis scale (ft512 and ft4096 for the
/// baseline, ft64 for CI smoke), lint it with
/// [`p4update_analysis::BatchAnalyzer`] at 1, 2 and 4 workers, and run
/// one single-plan delta through the incremental path. Emitted as the
/// artifact's `analysis` section: plans/sec per worker count, the
/// diagnostic tally (generated workloads must be analyzer-clean — the
/// static half of the analyzer-clean ↔ checker-clean cross-validation),
/// and how many plans the incremental pass actually re-linted.
fn analysis_probe(smoke: bool) -> Json {
    use p4update_analysis::{AnalysisContext, BatchAnalyzer, PlanDelta};
    let all = scales();
    let probe_scales: Vec<&Scale> = if smoke {
        vec![&all[1]] // ft64
    } else {
        vec![&all[2], &all[3]] // ft512, ft4096
    };
    let mut entries = Vec::new();
    for scale in probe_scales {
        let topo = (scale.build)();
        let workload = crate::workload::bench_workload(&topo, 1);
        let (plans, installed) = crate::workload::bench_plans(&workload);
        let ctx = AnalysisContext::with_installed(Some(&topo), installed);
        let mut points = Vec::new();
        let mut baseline = None;
        let mut tally = (0usize, 0usize);
        for workers in [1usize, 2, 4] {
            let engine = BatchAnalyzer::new(workers);
            let start = std::time::Instant::now();
            let analysis = engine.analyze(&plans, &ctx);
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            points.push(Json::Obj(vec![
                ("workers".into(), Json::Num(workers as f64)),
                ("wall_secs".into(), Json::Num(secs)),
                (
                    "plans_per_sec".into(),
                    Json::Num((plans.len() as f64 / secs).round()),
                ),
            ]));
            let errors = analysis
                .diagnostics()
                .iter()
                .filter(|d| d.is_error())
                .count();
            tally = (errors, analysis.diagnostics().len() - errors);
            if workers == 1 {
                baseline = Some(analysis);
            }
        }
        // The incremental path: revise one plan (bump its version; still
        // newer than installed, so the batch stays clean) and reanalyze.
        let baseline = baseline.expect("workers=1 ran");
        let mut revised = plans[0].clone();
        revised.version = revised.version.next();
        for (_, uim) in &mut revised.uims {
            uim.version = revised.version;
        }
        let delta = PlanDelta {
            revised: vec![(0, revised)],
            ..PlanDelta::default()
        };
        let incremental = BatchAnalyzer::new(1).reanalyze(&baseline, &delta, &ctx);
        entries.push(Json::Obj(vec![
            ("scale".into(), Json::Str(scale.name.into())),
            ("plans".into(), Json::Num(plans.len() as f64)),
            ("errors".into(), Json::Num(tally.0 as f64)),
            ("warnings".into(), Json::Num(tally.1 as f64)),
            ("points".into(), Json::Arr(points)),
            (
                "incremental_relinted".into(),
                Json::Num(incremental.revalidated() as f64),
            ),
        ]));
    }
    Json::Obj(vec![("scales".into(), Json::Arr(entries))])
}

/// Run the whole benchmark on `threads` workers (the canonical
/// timing-stripped artifact is byte-identical for every thread count).
/// `smoke` restricts to the small scales and seed counts (< 10 s wall)
/// for CI and leaves out the ft32768 probe; the full run regenerates the
/// committed baseline.
pub fn run_bench(smoke: bool, threads: usize) -> Json {
    let mut scale_values = Vec::new();
    for scale in &scales() {
        let runs = if smoke {
            scale.smoke_runs
        } else {
            scale.full_runs
        };
        if runs == 0 {
            continue;
        }
        let result = run_scale(scale, runs, threads);
        scale_values.push(scale_to_json(&result));
    }
    let scaling = Json::Obj(vec![("run_level".into(), run_level_scaling_probe(smoke))]);
    let analysis = analysis_probe(smoke);
    let mut members = vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("load_factor".into(), Json::Num(LOAD_FACTOR)),
        ("smoke".into(), Json::Bool(smoke)),
        ("thread_scaling".into(), scaling),
        ("analysis".into(), analysis),
    ];
    if !smoke {
        let ft32768 = ft32768_probe(192).unwrap_or_else(|e| panic!("{e}"));
        members.push(("ft32768".into(), ft32768));
    }
    members.push(("scales".into(), Json::Arr(scale_values)));
    Json::Obj(members)
}

fn scale_to_json(r: &ScaleResult) -> Json {
    let systems = r
        .systems
        .iter()
        .map(|s| {
            let events_per_sec = if s.wall_secs > 0.0 {
                s.events as f64 / s.wall_secs
            } else {
                0.0
            };
            Json::Obj(vec![
                ("system".into(), Json::Str(s.system.into())),
                ("runs".into(), Json::Num(s.runs as f64)),
                ("events".into(), Json::Num(s.events as f64)),
                ("wall_secs".into(), Json::Num(s.wall_secs)),
                ("events_per_sec".into(), Json::Num(events_per_sec.round())),
                (
                    "peak_queue_depth".into(),
                    Json::Num(s.peak_queue_depth as f64),
                ),
                ("fct_p50_ms".into(), Json::Num(s.fct_p50_ms)),
                ("fct_p99_ms".into(), Json::Num(s.fct_p99_ms)),
                (
                    "completion_rate".into(),
                    Json::Num(s.completed_flows as f64 / s.total_flows.max(1) as f64),
                ),
                ("stranded_flows".into(), Json::Num(s.stranded_flows as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("scale".into(), Json::Str(r.scale.into())),
        ("nodes".into(), Json::Num(r.nodes as f64)),
        ("links".into(), Json::Num(r.links as f64)),
        ("flows".into(), Json::Num(r.flows as f64)),
        ("systems".into(), Json::Arr(systems)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{strip_timing, validate_ft32768, validate_report};
    use p4update_net::{hop_distances_from, latency_distances_from, NodeId};

    /// The smallest cell end to end: every system completes the Fig.-1
    /// scale workload, produces events, and reports plausible FCTs.
    #[test]
    fn fig1_cell_runs_for_every_system() {
        let scale = &scales()[0];
        let result = run_scale(scale, 1, 1);
        assert_eq!(result.nodes, 8);
        assert_eq!(result.systems.len(), 4);
        for s in &result.systems {
            assert_eq!(
                s.completed_flows, s.total_flows,
                "{} did not complete",
                s.system
            );
            assert_eq!(s.stranded_flows, 0, "{} stranded a flow", s.system);
            assert!(s.events > 0);
            assert!(s.peak_queue_depth > 0);
            assert!(s.fct_p50_ms > 0.0 && s.fct_p99_ms >= s.fct_p50_ms);
        }
    }

    #[test]
    fn smoke_report_validates() {
        let report = run_bench(true, 1);
        validate_report(&report, 1).unwrap();
        // Smoke mode must not claim full-scale coverage.
        assert!(validate_report(&report, 4).is_err());
    }

    /// The tentpole determinism claim: the canonical (timing-stripped)
    /// artifact is byte-identical whether the grid ran on one worker or
    /// four.
    #[test]
    fn thread_count_does_not_change_the_canonical_artifact() {
        let serial = strip_timing(&run_bench(true, 1)).to_string_pretty();
        let sharded = strip_timing(&run_bench(true, 4)).to_string_pretty();
        assert_eq!(serial, sharded);
    }

    /// Rows that pool workers race to fill are bit-equal to a sequential
    /// Dijkstra and BFS from the same source.
    #[test]
    fn path_table_rows_filled_concurrently_are_exact() {
        for topo in [topologies::synthetic_fat_tree_64(), topologies::internet2()] {
            let n = topo.node_count();
            let tables = PathTables::compute(&topo);
            // Consecutive jobs read the same row, so workers meet on it.
            let seen = parallel_map(n * n, 4, |job| {
                let (from, to) = (NodeId((job / n) as u32), NodeId((job % n) as u32));
                (tables.latency_ms(from, to).to_bits(), tables.hops(from, to))
            });
            assert_eq!(tables.rows_materialized(), n);
            for from in topo.node_ids() {
                let latency = latency_distances_from(&topo, from);
                let hops = hop_distances_from(&topo, from);
                for to in topo.node_ids() {
                    assert_eq!(
                        seen[from.index() * n + to.index()],
                        (latency[to.index()].to_bits(), hops[to.index()]),
                        "{}: {from} -> {to}",
                        topo.name
                    );
                }
            }
        }
    }

    /// A fat-tree pass never consults the tables: control latency is
    /// `NormalMs` and every switch message goes to a neighbour.
    #[test]
    fn fat_tree_pass_fills_no_path_table_row() {
        let topo = topologies::synthetic_fat_tree_512();
        let tables = Arc::new(PathTables::compute(&topo));
        let workload = bench_workload(&topo, 1);
        let system = System::P4Update(Strategy::ForceDual);
        let m = run_once(&topo, &tables, &workload, dc_timing(&topo), system, 1);
        assert_eq!(m.fct_ms.len(), workload.updates.len());
        assert_eq!(tables.rows_materialized(), 0);
    }

    /// The 32768-switch scale runs on the sequential engine: the queue
    /// drains, every flow completes, and the event count is the one the
    /// windowed engine delivered on the same run.
    #[test]
    fn ft32768_probe_delivers_the_pinned_event_count() {
        let entry = ft32768_probe(32).unwrap();
        assert_eq!(entry.get("nodes").and_then(Json::as_f64), Some(32768.0));
        assert_eq!(entry.get("events").and_then(Json::as_f64), Some(1365.0));
    }

    /// `parallel_map` preserves input order for every thread count,
    /// including more threads than jobs.
    #[test]
    fn parallel_map_is_order_preserving() {
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(37, threads, |i| i * i);
            assert_eq!(got, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn validation_rejects_tampered_reports() {
        let report = run_bench(true, 1);
        let text = report.to_string_pretty();
        validate_report(&Json::parse(&text).unwrap(), 1).unwrap();

        let broken = text.replace(SCHEMA, "other-schema");
        assert!(validate_report(&Json::parse(&broken).unwrap(), 1).is_err());

        let broken = text.replace("\"ez-segway\"", "\"renamed\"");
        assert!(validate_report(&Json::parse(&broken).unwrap(), 1).is_err());

        let broken = text.replace("\"completion_rate\": 1", "\"completion_rate\": 0.5");
        assert!(validate_report(&Json::parse(&broken).unwrap(), 1).is_err());
    }

    /// Superseded schema tags must all be rejected, with the offending
    /// tag named in the error.
    #[test]
    fn validation_rejects_superseded_schemas() {
        let report = run_bench(true, 1);
        for old in [
            "p4update-bench-v1",
            "p4update-bench-v2",
            "p4update-bench-v3",
            "p4update-bench-v4",
        ] {
            let text = report.to_string_pretty().replace(SCHEMA, old);
            let err = validate_report(&Json::parse(&text).unwrap(), 1).unwrap_err();
            assert!(err.contains(old), "unhelpful error: {err}");
        }
    }

    /// A full artifact must carry the `ft32768` entry, with positive
    /// counts; its timing fields go with `strip_timing`.
    #[test]
    fn validation_checks_the_ft32768_entry() {
        let entry = |events: f64| {
            Json::Obj(vec![
                ("scale".into(), Json::Str("ft32768".into())),
                ("nodes".into(), Json::Num(32768.0)),
                ("flows".into(), Json::Num(32.0)),
                ("events".into(), Json::Num(events)),
                ("wall_secs".into(), Json::Num(0.01)),
                ("events_per_sec".into(), Json::Num(events * 100.0)),
            ])
        };
        validate_ft32768(&entry(1365.0)).unwrap();
        let err = validate_ft32768(&entry(0.0)).unwrap_err();
        assert!(err.contains("events"), "unhelpful error: {err}");
        let stripped = strip_timing(&Json::Obj(vec![("ft32768".into(), entry(1365.0))]));
        let stripped = stripped.get("ft32768").unwrap();
        assert!(stripped.get("wall_secs").is_none() && stripped.get("events_per_sec").is_none());
        validate_ft32768(stripped).unwrap();

        let mut report = run_bench(true, 1);
        if let Json::Obj(members) = &mut report {
            for (k, v) in members.iter_mut() {
                if k == "smoke" {
                    *v = Json::Bool(false);
                }
            }
        }
        let err = validate_report(&report, 1).unwrap_err();
        assert!(err.contains("ft32768"), "unhelpful error: {err}");
    }

    /// Duplicate scale entries and duplicate system entries are both
    /// rejected even when every individual entry would validate.
    #[test]
    fn validation_rejects_duplicate_scales_and_systems() {
        let report = run_bench(true, 1);

        let mut dup_scale = report.clone();
        if let Json::Obj(members) = &mut dup_scale {
            for (k, v) in members.iter_mut() {
                if k == "scales" {
                    if let Json::Arr(items) = v {
                        let first = items[0].clone();
                        items.push(first);
                    }
                }
            }
        }
        let err = validate_report(&dup_scale, 1).unwrap_err();
        assert!(err.contains("duplicate scale"), "unhelpful error: {err}");

        let mut dup_system = report.clone();
        if let Json::Obj(members) = &mut dup_system {
            for (k, v) in members.iter_mut() {
                if k == "scales" {
                    if let Json::Arr(items) = v {
                        if let Json::Obj(scale) = &mut items[0] {
                            for (sk, sv) in scale.iter_mut() {
                                if sk == "systems" {
                                    if let Json::Arr(sys) = sv {
                                        let first = sys[0].clone();
                                        sys.push(first);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = validate_report(&dup_system, 1).unwrap_err();
        assert!(err.contains("duplicate system"), "unhelpful error: {err}");
    }
}
