//! The simulated network: switches, the controller, links, and the timing
//! model, assembled into a [`p4update_des::World`].
//!
//! Every system under test (P4Update, ez-Segway, Central) runs on this
//! exact substrate — same link latencies, same per-switch serial
//! processing, same controller queueing — so measured differences come
//! from protocol structure alone.

use crate::checker::{check, FlowSpec, Violation};
use crate::config::{ms, ControlLatency, InstallDelay, SimConfig};
use crate::metrics::{Metrics, MetricsSink};
use crate::table::SwitchTable;
use p4update_analysis::{AnalysisContext, BatchAnalysis, BatchAnalyzer, Diagnostic, PlanDelta};
use p4update_baselines::{CentralController, CentralSwitchLogic, EzController, EzSwitchLogic};
use p4update_core::{prepare_update, P4UpdateController, P4UpdateLogic, PreparedUpdate, Strategy};
use p4update_dataplane::{ControllerLogic, CtrlEffect, Effect, Endpoint, Switch, SwitchLogic};
use p4update_des::{ChoiceKind, Scheduler, SimDuration, SimRng, SimTime, Simulation, World};
use p4update_messages::{ByzDelivery, ByzVector, DataPacket, Message, RejectReason, UfmStatus};
use p4update_net::{
    hop_distances_from, latency_distances_from, FlowId, FlowUpdate, NodeId, Path, Topology, Version,
};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Shortest-path tables (latency and hop count) for a topology, filled
/// one source row at a time on first use.
///
/// A row holds the Dijkstra latencies ([`latency_distances_from`]) and BFS
/// hop counts ([`hop_distances_from`]) from one source node. The simulator
/// consults a row only to time a control message under
/// `ControlLatency::ShortestPathFrom` or a switch-to-switch message between
/// non-neighbours. Fat-tree timing does neither (`ControlLatency::NormalMs`,
/// and every switch message goes to a neighbour), so a whole ft4096 pass
/// fills no row at all, where a precomputed all-pairs table would hold
/// 2 × 4096² entries. Rows depend only on the topology: the scale harness
/// builds one `PathTables` per topology and shares it (`Arc`) across every
/// run and worker thread. Each row sits in a [`OnceLock`], so concurrent
/// first uses fill it once and later reads take no lock; the values are
/// the same whichever thread computes them, so sharing cannot perturb
/// determinism.
pub struct PathTables {
    topo: Topology,
    rows: Vec<OnceLock<PathRow>>,
}

/// Per-destination latencies (ms) and hop counts from one source node.
struct PathRow {
    latency_ms: Vec<f64>,
    hops: Vec<u32>,
}

impl PathTables {
    /// Tables for `topo`, with no row filled yet.
    pub fn compute(topo: &Topology) -> Self {
        PathTables {
            topo: topo.clone(),
            rows: (0..topo.node_count()).map(|_| OnceLock::new()).collect(),
        }
    }

    fn row(&self, from: NodeId) -> &PathRow {
        self.rows[from.index()].get_or_init(|| PathRow {
            latency_ms: latency_distances_from(&self.topo, from),
            hops: hop_distances_from(&self.topo, from),
        })
    }

    /// Shortest-path latency (ms) from `from` to `to`.
    pub fn latency_ms(&self, from: NodeId, to: NodeId) -> f64 {
        self.row(from).latency_ms[to.index()]
    }

    /// Hop count of a fewest-hop path from `from` to `to`.
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        self.row(from).hops[to.index()]
    }

    /// Number of source rows filled so far. A fat-tree pass under
    /// `ControlLatency::NormalMs` leaves this at zero.
    pub fn rows_materialized(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }

    /// Number of nodes the tables cover.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }
}

/// Which system drives the updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// P4Update with the given mechanism strategy (§7.5).
    P4Update(Strategy),
    /// ez-Segway; `congestion` enables its centralized priority
    /// computation.
    EzSegway {
        /// Compute the global congestion dependency graph in the control
        /// plane (Fig. 8b's expensive path).
        congestion: bool,
    },
    /// Central; `congestion` makes rounds capacity-aware.
    Central {
        /// Enforce capacity feasibility when scheduling rounds.
        congestion: bool,
    },
}

/// The controller implementations, kept as an enum so scenario code can
/// reach system-specific state (e.g., flow registration).
pub enum ControllerImpl {
    /// P4Update's controller.
    P4(P4UpdateController),
    /// ez-Segway's controller.
    Ez(EzController),
    /// Central's controller.
    Central(CentralController),
}

impl ControllerImpl {
    fn as_logic(&mut self) -> &mut dyn ControllerLogic {
        match self {
            ControllerImpl::P4(c) => c,
            ControllerImpl::Ez(c) => c,
            ControllerImpl::Central(c) => c,
        }
    }
}

/// One in-flight byzantine-corrupted message: recorded when the lie is
/// scheduled, consumed (and classified into a [`ByzOutcome`]) when the
/// receiver processes it.
struct ByzTaint {
    /// Where the corrupted copy is headed.
    dest: Endpoint,
    /// The corrupted payload (matched by equality at delivery).
    msg: Message,
    /// Which catalog vector produced it.
    vector: ByzVector,
    /// The lying switch.
    liar: NodeId,
}

/// What a byzantine-corrupted message did at its receiver — the raw
/// material of the detector-completeness suite: every lie a run injects
/// must land in exactly one of these buckets; none may vanish silently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ByzDisposition {
    /// The receiver's local verification caught the lie and raised an
    /// alarm UFM; a [`Violation::ForgedReject`] with the same reason is
    /// recorded alongside.
    Rejected(RejectReason),
    /// The receiver acted on the lie — state changed, a rule install
    /// began, or follow-on messages were sent. For a system without
    /// local verification (ez-Segway) this is the expected bucket.
    Accepted,
    /// The receiver neither rejected nor acted (e.g. the lie parked
    /// waiting for a UIM that never names it, or deduplicated away).
    Ignored,
    /// The lie went to the controller, which has no label to verify it
    /// against — undetectable *locally* by construction (forged UFMs).
    Undetectable,
}

/// Classification record for one delivered lie (see [`ByzDisposition`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzOutcome {
    /// When the lie was processed.
    pub at: SimTime,
    /// The lying switch.
    pub liar: NodeId,
    /// Who received it.
    pub receiver: Endpoint,
    /// Which catalog vector it was.
    pub vector: ByzVector,
    /// What happened.
    pub disposition: ByzDisposition,
}

/// Outcome of a per-message fault choice point (see
/// [`crate::config::FaultChoiceConfig`]).
enum FaultDecision {
    /// Deliver untouched (the default alternative).
    Deliver,
    /// Lose the message.
    Drop,
    /// Deliver after the configured extra delay.
    Delay(SimDuration),
    /// Deliver, plus a second copy after the configured delay.
    Duplicate(SimDuration),
}

/// Events of the simulated network.
#[derive(Debug, Clone)]
pub enum Event {
    /// A message reaches a switch.
    DeliverToSwitch {
        /// Destination switch.
        node: NodeId,
        /// Sender.
        from: Endpoint,
        /// Payload.
        msg: Message,
    },
    /// A message reaches the controller's input queue.
    DeliverToController {
        /// Sending switch.
        from: NodeId,
        /// Payload.
        msg: Message,
    },
    /// A switch→controller message crosses into the controller's ingress
    /// domain (only under [`ControlLatency::NormalMs`]): it left `from` at
    /// `sent_at` and this event fires at `sent_at + floor_ms`, where the
    /// *controller side* draws the actual latency and schedules the
    /// [`Event::DeliverToController`]. The draw stays here, not at the
    /// sender, because it fixes the order of RNG draws and the event
    /// stream: the corpus traces' pinned event counts, the pinned
    /// multi-flow results and the benchmark's event and per-kind counts
    /// all depend on it.
    CtrlIngress {
        /// Sending switch.
        from: NodeId,
        /// Payload.
        msg: Message,
        /// When the message left the switch.
        sent_at: SimTime,
        /// Extra adversarial delay (fault-choice `Delay`/`Duplicate`).
        extra: SimDuration,
    },
    /// The controller finishes processing one queued message.
    ControllerExec {
        /// Sending switch.
        from: NodeId,
        /// Payload.
        msg: Message,
    },
    /// A rule write completes at a switch.
    InstallComplete {
        /// The switch.
        node: NodeId,
        /// Flow whose rule was written.
        flow: FlowId,
        /// Continuation token.
        token: u64,
    },
    /// A data packet enters the network at its ingress.
    InjectPacket {
        /// Ingress switch.
        node: NodeId,
        /// The packet.
        pkt: DataPacket,
        /// Destination hint for flow reports.
        egress_hint: NodeId,
    },
    /// The controller is asked to start a batch of updates.
    Trigger {
        /// Index into the scheduled batches.
        batch: usize,
    },
    /// Resubmission poll round at a switch: every parked message spins
    /// through the pipeline once, consuming forwarding capacity.
    PollTick {
        /// The polling switch.
        node: NodeId,
    },
    /// The controller's loss-recovery timer fires (§11).
    ControllerTimer,
    /// The primary controller fails; the first standby replica takes over
    /// (see [`crate::config::ReplicationConfig`]). Scheduled once by
    /// [`simulation`] when replication is configured with a failover time.
    ControllerFailover,
}

/// The simulated network world.
pub struct NetworkSim {
    topo: Topology,
    /// Per-switch chassis, densely indexed by [`NodeId`].
    pub switches: SwitchTable,
    /// The controller.
    pub controller: ControllerImpl,
    config: SimConfig,
    rng: SimRng,
    /// Shared all-pairs shortest-path tables (see [`PathTables`]).
    tables: Arc<PathTables>,
    /// Serial-processing horizon per switch, indexed by `NodeId::index`.
    switch_busy: Vec<SimTime>,
    /// Whether each switch has an armed resubmission poll loop.
    polling: Vec<bool>,
    /// Serial-processing horizon of the controller.
    ctrl_busy: SimTime,
    /// Update batches by trigger index.
    batches: Vec<Vec<FlowUpdate>>,
    /// Flow specs for the checker and metrics.
    pub flows: BTreeMap<FlowId, FlowSpec>,
    /// Where measurements go; defaults to the full-recording [`Metrics`].
    sink: Box<dyn MetricsSink>,
    /// Reusable effect buffer: taken at the top of each hot event arm and
    /// put back cleared, so the event loop allocates nothing per event.
    scratch: Vec<Effect>,
    /// Violations found by per-event checking (paranoid mode).
    pub violations: Vec<(SimTime, Violation)>,
    /// Findings of the static analysis gate (`SimConfig::analysis_gate`):
    /// every diagnostic the plan linter raised for triggered P4Update
    /// batches, warnings included.
    pub analysis_findings: Vec<Diagnostic>,
    /// The previous gate pass, kept so the next triggered batch is
    /// revalidated incrementally ([`BatchAnalyzer::reanalyze`]) instead of
    /// re-linted from scratch.
    gate_cache: Option<BatchAnalysis>,
    /// Work counters of the incremental analysis gate.
    pub gate_stats: GateStats,
    /// Switches that have taken a lying alternative at a byzantine choice
    /// point, in first-lie order (bounds enforcement for
    /// `ByzantineConfig::max_liars`).
    liars: Vec<NodeId>,
    /// In-flight corrupted messages awaiting delivery classification.
    byz_taints: Vec<ByzTaint>,
    /// Per-lie classification log (see [`ByzOutcome`]).
    pub byz_outcomes: Vec<ByzOutcome>,
    /// Standby controller replicas (shadow state machines; see
    /// [`crate::config::ReplicationConfig`]).
    standbys: Vec<ControllerImpl>,
    /// Whether [`Event::ControllerFailover`] has fired.
    pub failed_over: bool,
}

/// Work counters of the sim's incremental analysis gate: how much linting
/// the gate was asked for versus how much it actually performed.
#[derive(Debug, Default, Clone, Copy)]
pub struct GateStats {
    /// Triggered batches the gate linted.
    pub batches: usize,
    /// Plans that crossed the gate (sum of batch sizes).
    pub plans: usize,
    /// Plans the gate actually re-linted; the difference to `plans` was
    /// revalidated from the previous batch's cached analysis.
    pub relinted: usize,
}

impl NetworkSim {
    /// Assemble a network for `system` on `topo`. `free_capacity` seeds the
    /// congestion-aware baselines' controller view (from
    /// `p4update_traffic::Workload::free_capacity`).
    pub fn new(
        topo: Topology,
        system: System,
        config: SimConfig,
        free_capacity: Option<BTreeMap<(NodeId, NodeId), f64>>,
    ) -> Self {
        let tables = Arc::new(PathTables::compute(&topo));
        Self::with_path_tables(topo, system, config, free_capacity, tables)
    }

    /// Like [`Self::new`], but reusing precomputed [`PathTables`] — the
    /// scale harness shares one table set across all runs on a topology.
    pub fn with_path_tables(
        topo: Topology,
        system: System,
        config: SimConfig,
        free_capacity: Option<BTreeMap<(NodeId, NodeId), f64>>,
        tables: Arc<PathTables>,
    ) -> Self {
        assert_eq!(
            tables.node_count(),
            topo.node_count(),
            "path tables were computed for a different topology"
        );
        let mut rng = SimRng::new(config.seed);
        let switches = SwitchTable::build(&topo, |id| {
            let logic: Box<dyn SwitchLogic + Send> = match system {
                System::P4Update(_) => Box::new(P4UpdateLogic::new()),
                System::EzSegway { .. } => Box::new(EzSwitchLogic::new()),
                System::Central { .. } => Box::new(CentralSwitchLogic::new()),
            };
            Switch::new(id, &topo, logic)
        });
        let make_controller = || match system {
            System::P4Update(strategy) => {
                // The NIB lets the controller set up paths for flows the
                // data plane reports via FRMs (§6).
                ControllerImpl::P4(P4UpdateController::new(strategy).with_nib(topo.clone()))
            }
            System::EzSegway { congestion } => ControllerImpl::Ez(if congestion {
                EzController::with_congestion(free_capacity.clone().unwrap_or_default())
            } else {
                EzController::new()
            }),
            System::Central { congestion } => ControllerImpl::Central(if congestion {
                CentralController::with_congestion(free_capacity.clone().unwrap_or_default())
            } else {
                CentralController::new()
            }),
        };
        let controller = make_controller();
        // Replicas beyond the primary are identically-constructed shadow
        // state machines (capped at 3 total, per the model).
        let standbys = (1..config.replication.replicas.min(3))
            .map(|_| make_controller())
            .collect();
        let n = topo.node_count();
        let _ = rng.fork(0); // reserve a stream for future model components
        NetworkSim {
            switch_busy: vec![SimTime::ZERO; n],
            polling: vec![false; n],
            topo,
            switches,
            controller,
            config,
            rng,
            tables,
            ctrl_busy: SimTime::ZERO,
            batches: Vec::new(),
            flows: BTreeMap::new(),
            sink: Box::new(Metrics::default()),
            violations: Vec::new(),
            analysis_findings: Vec::new(),
            gate_cache: None,
            gate_stats: GateStats::default(),
            scratch: Vec::new(),
            liars: Vec::new(),
            byz_taints: Vec::new(),
            byz_outcomes: Vec::new(),
            standbys,
            failed_over: false,
        }
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The scheduled update batches, in trigger order (what the analysis
    /// gate will lint; exposed so differential test harnesses can prepare
    /// and analyze the same batches out-of-band).
    pub fn batches(&self) -> &[Vec<FlowUpdate>] {
        &self.batches
    }

    /// The configuration this world was assembled with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replace the metrics sink (builder form). The default is the
    /// full-recording [`Metrics`]; scale runs install
    /// [`crate::StreamingMetrics`] or [`crate::NullMetrics`] instead.
    /// Swap sinks *before* running: sinks are observation-only, so the
    /// simulation itself is unaffected, but a fresh sink obviously does
    /// not know about events recorded into its predecessor.
    pub fn with_metrics_sink(mut self, sink: Box<dyn MetricsSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Replace the metrics sink in place (see [`Self::with_metrics_sink`]).
    pub fn set_metrics_sink(&mut self, sink: Box<dyn MetricsSink>) {
        self.sink = sink;
    }

    /// The installed metrics sink, for fidelity-agnostic queries
    /// (counters, completions, alarms).
    pub fn sink(&self) -> &dyn MetricsSink {
        &*self.sink
    }

    /// End-of-run accounting: record every flow whose scheduled updates
    /// outnumber its completions as *stranded* in the metrics sink, and
    /// return those flows (ascending). Call once after the run; a
    /// non-empty result on a fault-free run is a liveness gap in the
    /// system under test (ez-Segway's circular capacity waits at ft512
    /// are the motivating case — see `tests/fault_injection.rs`).
    pub fn record_stranded_flows(&mut self) -> Vec<FlowId> {
        let mut expected: BTreeMap<FlowId, u64> = BTreeMap::new();
        for batch in &self.batches {
            for u in batch {
                *expected.entry(u.flow).or_insert(0) += 1;
            }
        }
        let mut stranded = Vec::new();
        for (&flow, &want) in &expected {
            let got = self
                .sink
                .completions()
                .iter()
                .filter(|&&(_, f, _)| f == flow)
                .count() as u64;
            if got < want {
                stranded.push(flow);
                self.sink.record_stranded(flow);
            }
        }
        stranded
    }

    /// The full-recording metrics, when the full sink is installed (the
    /// default). Tests and figure regeneration read event series through
    /// this accessor.
    ///
    /// # Panics
    /// If a streaming or null sink is installed — those runs must query
    /// through [`Self::sink`] instead.
    pub fn metrics(&self) -> &Metrics {
        self.sink
            .as_full()
            .expect("metrics(): a non-full MetricsSink is installed; query via sink() instead")
    }

    /// Install a flow's initial path directly (scenario bootstrap: the old
    /// configuration pre-exists the experiment), reserving capacities and
    /// registering the flow with the controller.
    pub fn install_initial_path(&mut self, flow: FlowId, path: &Path, size: f64) {
        assert!(path.validate(&self.topo), "initial path must be routable");
        for (i, &node) in path.nodes().iter().enumerate() {
            let next = path.nodes().get(i + 1).copied();
            let prev = i.checked_sub(1).map(|j| path.nodes()[j]);
            let dist = (path.nodes().len() - 1 - i) as u32;
            let sw = self.switches.get_mut(node).expect("node exists");
            sw.state.uib.update(flow, |e| {
                e.applied_version = Version(1);
                e.applied_distance = dist;
                e.active_next_hop = next;
                e.active_upstream = prev;
                e.old_version = Version(1);
                e.old_distance = dist;
                e.flow_size = size;
                e.last_update_type = Some(p4update_messages::UpdateKind::Single);
            });
            if let Some(next) = next {
                let ok = sw.state.reserve_capacity(next, size);
                assert!(ok, "initial allocation exceeds capacity at {node}");
            }
        }
        if let ControllerImpl::P4(c) = &mut self.controller {
            c.register_flow(flow, Version(1));
        }
        // Standby replicas mirror the primary's flow registry so a
        // post-failover controller assigns the same versions.
        for s in &mut self.standbys {
            if let ControllerImpl::P4(c) = s {
                c.register_flow(flow, Version(1));
            }
        }
        self.flows.insert(
            flow,
            FlowSpec {
                ingress: path.ingress(),
                egress: path.egress(),
                size,
            },
        );
    }

    /// Enable the §11 two-phase-commit mode on every switch: ingresses
    /// stamp packets with their applied version, and forwarding honors the
    /// stamps (per-packet path consistency).
    pub fn enable_two_phase_commit(&mut self) {
        for sw in self.switches.values_mut() {
            sw.enable_two_phase_commit();
        }
    }

    /// Register an update batch; returns the batch index for
    /// [`Event::Trigger`].
    pub fn add_batch(&mut self, updates: Vec<FlowUpdate>) -> usize {
        self.batches.push(updates);
        self.batches.len() - 1
    }

    /// Control latency between the controller and `node` (one way).
    fn control_latency(&mut self, node: NodeId) -> SimDuration {
        match self.config.timing.control {
            ControlLatency::ShortestPathFrom(ctrl) => ms(self.tables.latency_ms(ctrl, node)),
            ControlLatency::NormalMs {
                mean,
                std_dev,
                floor_ms,
            } => ms(self.rng.normal_clamped(mean, std_dev, floor_ms)),
        }
    }

    /// Transit time of a switch-to-switch message: one link hop when
    /// adjacent, otherwise the shortest path plus per-hop relay cost.
    fn transit(&self, from: NodeId, to: NodeId) -> SimDuration {
        if let Some(lat) = self.topo.latency_between(from, to) {
            return lat;
        }
        let lat = ms(self.tables.latency_ms(from, to));
        let hops = self.tables.hops(from, to).max(1);
        lat + ms(self.config.timing.relay_hop_ms).saturating_mul(hops as u64)
    }

    fn install_delay(&mut self) -> SimDuration {
        match self.config.timing.install {
            InstallDelay::None => SimDuration::ZERO,
            InstallDelay::ExponentialMs(mean) => ms(self.rng.exponential(mean)),
        }
    }

    fn fault_drop(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.chance(prob)
    }

    /// Resolve one control message's adversarial fault decision through
    /// the choice-point seam (when `SimConfig::fault_choices` is enabled).
    /// Alternative 0 is always "deliver untouched", so a default chooser
    /// keeps the run fault-free.
    fn fault_choice(&mut self, sched: &mut Scheduler<Event>) -> FaultDecision {
        let Some(fc) = self.config.fault_choices else {
            return FaultDecision::Deliver;
        };
        match sched.choose(ChoiceKind::Fault, 4) {
            0 => FaultDecision::Deliver,
            1 => FaultDecision::Drop,
            2 => FaultDecision::Delay(ms(fc.delay_ms)),
            _ => FaultDecision::Duplicate(ms(fc.delay_ms)),
        }
    }

    /// Resolve one outbound control message's byzantine decision through
    /// the choice-point seam (when `SimConfig::byzantine` is installed).
    /// Emits a `ChoiceKind::Byzantine` choice point only when some catalog
    /// vector applies to `msg` *and* the sender is allowed to lie (it
    /// already lied, or the liar budget has room). Alternative 0 — the
    /// default — means "send honestly" and has zero side effects: no RNG
    /// draw, no state change, no extra event, which is what keeps
    /// byzantine-enabled-but-honest runs identical to the plain engine.
    fn byz_choice(
        &mut self,
        node: NodeId,
        msg: &Message,
        sched: &mut Scheduler<Event>,
    ) -> Option<ByzVector> {
        let bc = self.config.byzantine?;
        let is_liar = self.liars.contains(&node);
        if !is_liar && self.liars.len() >= bc.max_liars as usize {
            return None;
        }
        let applicable = ByzVector::applicable(bc.vector, msg);
        if applicable.is_empty() {
            return None;
        }
        let pick = sched.choose(ChoiceKind::Byzantine, applicable.len() + 1);
        if pick == 0 || pick > applicable.len() {
            return None;
        }
        if !is_liar {
            self.liars.push(node);
        }
        Some(applicable[pick - 1])
    }

    /// Ship a lying switch's corrupted switch-to-switch message according
    /// to the vector's delivery mode, recording the taint so the delivery
    /// can be classified (see [`ByzOutcome`]).
    fn send_byz_switch(
        &mut self,
        liar: NodeId,
        to: NodeId,
        msg: Message,
        vector: ByzVector,
        base: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        let lie = vector.corrupt(&msg).expect("vector was applicable");
        let delay = ms(self.config.byzantine.expect("byz config present").delay_ms);
        let at = base + self.transit(liar, to) + self.fault_jitter();
        let deliver = |msg| Event::DeliverToSwitch {
            node: to,
            from: Endpoint::Switch(liar),
            msg,
        };
        match vector.delivery() {
            ByzDelivery::Replace => {
                self.byz_taints.push(ByzTaint {
                    dest: Endpoint::Switch(to),
                    msg: lie.clone(),
                    vector,
                    liar,
                });
                sched.schedule_at(at, deliver(lie));
            }
            ByzDelivery::ExtraDelayed => {
                sched.schedule_at(at, deliver(msg));
                self.byz_taints.push(ByzTaint {
                    dest: Endpoint::Switch(to),
                    msg: lie.clone(),
                    vector,
                    liar,
                });
                sched.schedule_at(at + delay, deliver(lie));
            }
            ByzDelivery::ExtraToOtherNeighbor => {
                sched.schedule_at(at, deliver(msg));
                // Equivocate toward the lowest-id *other* neighbor; a
                // degree-1 liar has nobody else to lie to.
                let other = self
                    .topo
                    .neighbors(liar)
                    .iter()
                    .map(|&(n, _)| n)
                    .filter(|&n| n != to)
                    .min();
                if let Some(other) = other {
                    let at2 = base + self.transit(liar, other) + self.fault_jitter();
                    self.byz_taints.push(ByzTaint {
                        dest: Endpoint::Switch(other),
                        msg: lie.clone(),
                        vector,
                        liar,
                    });
                    sched.schedule_at(
                        at2,
                        Event::DeliverToSwitch {
                            node: other,
                            from: Endpoint::Switch(liar),
                            msg: lie,
                        },
                    );
                }
            }
        }
    }

    /// Classify what a just-delivered lie did at switch `node`, from the
    /// effects its processing produced and the before/after UIB state.
    /// A raised alarm is a local rejection — the defense the paper's
    /// verification promises — and is additionally recorded as a
    /// [`Violation::ForgedReject`] so traces can pin it.
    fn classify_taint(
        &mut self,
        now: SimTime,
        node: NodeId,
        taint: ByzTaint,
        before: Option<p4update_dataplane::UibEntry>,
        effects: &[Effect],
    ) {
        let mut disposition = ByzDisposition::Ignored;
        for e in effects {
            if let Effect::SendController {
                msg: Message::Ufm(ufm),
            } = e
            {
                if let UfmStatus::Alarm(reason) = ufm.status {
                    disposition = ByzDisposition::Rejected(reason);
                    let v = Violation::ForgedReject {
                        flow: ufm.flow,
                        at: node,
                        reason,
                    };
                    if !self.violations.iter().any(|(_, existing)| *existing == v) {
                        self.violations.push((now, v));
                    }
                    break;
                }
            }
        }
        if disposition == ByzDisposition::Ignored {
            let after = taint
                .msg
                .flow()
                .map(|f| self.switches[node].state.uib.read(f));
            let acted = effects.iter().any(|e| {
                matches!(
                    e,
                    Effect::BeginInstall { .. }
                        | Effect::SendSwitch { .. }
                        | Effect::SendController { .. }
                )
            });
            if before != after || acted {
                disposition = ByzDisposition::Accepted;
            }
        }
        self.byz_outcomes.push(ByzOutcome {
            at: now,
            liar: taint.liar,
            receiver: Endpoint::Switch(node),
            vector: taint.vector,
            disposition,
        });
    }

    /// Mirror a delivered controller message into the standby replicas
    /// (outputs discarded — shadows don't talk), unless it falls inside
    /// the replication-lag window just before a pending failover, in
    /// which case the standbys never learn of it.
    fn feed_standbys_msg(&mut self, now: SimTime, from: NodeId, msg: &Message) {
        if self.standbys.is_empty() {
            return;
        }
        let r = self.config.replication;
        if !self.failed_over
            && r.failover_at_ms > 0.0
            && now.as_millis_f64() >= r.failover_at_ms - r.lag_ms
        {
            return; // lost in the dead primary's replication pipeline
        }
        let mut discard = Vec::new();
        for s in &mut self.standbys {
            s.as_logic()
                .on_message(now, from, msg.clone(), &mut discard);
            discard.clear();
        }
    }

    fn fault_jitter(&mut self) -> SimDuration {
        let j = self.config.faults.jitter_ms;
        if j <= 0.0 {
            SimDuration::ZERO
        } else {
            ms(self.rng.uniform_range(0.0, j))
        }
    }

    /// Apply a switch's effects, all anchored at `base` (the time its
    /// pipeline pass finished).
    fn apply_switch_effects(
        &mut self,
        node: NodeId,
        base: SimTime,
        effects: &mut Vec<Effect>,
        sched: &mut Scheduler<Event>,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::SendSwitch { to, msg } => {
                    if self.fault_drop(self.config.faults.drop_switch_to_switch) {
                        self.sink.record_control_drop();
                        continue;
                    }
                    if let Some(vector) = self.byz_choice(node, &msg, sched) {
                        // A lying send replaces the whole honest delivery
                        // path (no separate fault choice: the lie is the
                        // fault).
                        self.send_byz_switch(node, to, msg, vector, base, sched);
                        continue;
                    }
                    let decision = if matches!(msg, Message::Data(_)) {
                        FaultDecision::Deliver // data is never fault-injected
                    } else {
                        self.fault_choice(sched)
                    };
                    let at = base + self.transit(node, to) + self.fault_jitter();
                    let event = Event::DeliverToSwitch {
                        node: to,
                        from: Endpoint::Switch(node),
                        msg,
                    };
                    match decision {
                        FaultDecision::Drop => self.sink.record_control_drop(),
                        FaultDecision::Deliver => sched.schedule_at(at, event),
                        FaultDecision::Delay(d) => sched.schedule_at(at + d, event),
                        FaultDecision::Duplicate(d) => {
                            sched.schedule_at(at, event.clone());
                            sched.schedule_at(at + d, event);
                        }
                    }
                }
                Effect::SendController { mut msg } => {
                    if let Some(vector) = self.byz_choice(node, &msg, sched) {
                        // Controller-bound lies (forged UFMs) replace the
                        // honest message and ride the normal delivery
                        // path below; the controller has no label to
                        // check them against, so the taint classifies as
                        // locally undetectable on arrival.
                        let lie = vector.corrupt(&msg).expect("vector was applicable");
                        self.byz_taints.push(ByzTaint {
                            dest: Endpoint::Controller,
                            msg: lie.clone(),
                            vector,
                            liar: node,
                        });
                        msg = lie;
                    }
                    if let ControlLatency::NormalMs { floor_ms, .. } = self.config.timing.control {
                        // The latency draw happens controller-side (see
                        // [`Event::CtrlIngress`]); the switch only knows the
                        // message cannot arrive before the floor. A
                        // duplicate becomes two ingresses and therefore two
                        // independent latency draws.
                        let at = base + ms(floor_ms);
                        let ingress = |extra| Event::CtrlIngress {
                            from: node,
                            msg: msg.clone(),
                            sent_at: base,
                            extra,
                        };
                        match self.fault_choice(sched) {
                            FaultDecision::Drop => self.sink.record_control_drop(),
                            FaultDecision::Deliver => {
                                sched.schedule_at(at, ingress(SimDuration::ZERO));
                            }
                            FaultDecision::Delay(d) => sched.schedule_at(at, ingress(d)),
                            FaultDecision::Duplicate(d) => {
                                sched.schedule_at(at, ingress(SimDuration::ZERO));
                                sched.schedule_at(at, ingress(d));
                            }
                        }
                        continue;
                    }
                    let at = base + self.control_latency(node);
                    let event = Event::DeliverToController { from: node, msg };
                    match self.fault_choice(sched) {
                        FaultDecision::Drop => self.sink.record_control_drop(),
                        FaultDecision::Deliver => sched.schedule_at(at, event),
                        FaultDecision::Delay(d) => sched.schedule_at(at + d, event),
                        FaultDecision::Duplicate(d) => {
                            sched.schedule_at(at, event.clone());
                            sched.schedule_at(at + d, event);
                        }
                    }
                }
                Effect::BeginInstall { flow, token } => {
                    let at = base + self.install_delay();
                    sched.schedule_at(at, Event::InstallComplete { node, flow, token });
                }
                Effect::ForwardData { to, pkt } => {
                    let at = base
                        + self
                            .topo
                            .latency_between(node, to)
                            .unwrap_or_else(|| self.transit(node, to));
                    sched.schedule_at(
                        at,
                        Event::DeliverToSwitch {
                            node: to,
                            from: Endpoint::Switch(node),
                            msg: Message::Data(pkt),
                        },
                    );
                }
                Effect::PacketDelivered { pkt } => {
                    self.sink.record_delivery(base, node, pkt);
                }
                Effect::PacketDropped { pkt, reason } => {
                    self.sink.record_drop(base, node, pkt, reason);
                }
            }
        }
    }

    /// Apply controller effects: outbound messages serialize on the
    /// controller's transmit path.
    fn apply_ctrl_effects(
        &mut self,
        base: SimTime,
        effects: Vec<CtrlEffect>,
        sched: &mut Scheduler<Event>,
    ) {
        let tx = ms(self.config.timing.ctrl_tx_ms);
        let mut send_time = base;
        for effect in effects {
            match effect {
                CtrlEffect::Send { to, msg } => {
                    send_time += tx;
                    if self.fault_drop(self.config.faults.drop_ctrl_to_switch) {
                        self.sink.record_control_drop();
                        continue;
                    }
                    let mut at = send_time + self.control_latency(to) + self.fault_jitter();
                    if let Some((held, release)) = self.config.faults.hold_ctrl_to {
                        if held == to {
                            at = at.max(SimTime::ZERO + release);
                        }
                    }
                    let event = Event::DeliverToSwitch {
                        node: to,
                        from: Endpoint::Controller,
                        msg,
                    };
                    match self.fault_choice(sched) {
                        FaultDecision::Drop => self.sink.record_control_drop(),
                        FaultDecision::Deliver => sched.schedule_at(at, event),
                        FaultDecision::Delay(d) => sched.schedule_at(at + d, event),
                        FaultDecision::Duplicate(d) => {
                            sched.schedule_at(at, event.clone());
                            sched.schedule_at(at + d, event);
                        }
                    }
                }
                CtrlEffect::UpdateComplete { flow, version } => {
                    self.sink.record_completion(base, flow, version);
                }
                CtrlEffect::AlarmRaised { flow, reason } => {
                    self.sink.record_alarm(base, flow, reason);
                }
            }
        }
        self.ctrl_busy = self.ctrl_busy.max(send_time);
    }

    /// Arm the resubmission poll loop at a switch that has parked
    /// messages (Appendix B's data-plane waiting): each poll round charges
    /// one pipeline pass per parked message.
    fn arm_poll(&mut self, node: NodeId, sched: &mut Scheduler<Event>) {
        let interval = self.config.timing.resubmit_poll_ms;
        if interval <= 0.0 || self.polling[node.index()] {
            return;
        }
        if self.switches[node].parked_messages() == 0 {
            return;
        }
        self.polling[node.index()] = true;
        sched.schedule_in(ms(interval), Event::PollTick { node });
    }

    /// The static analysis gate: before a P4Update batch ships, re-prepare
    /// each plan exactly as the controller is about to (same strategy, same
    /// version assignment) and lint it against the proof-labeling
    /// invariants. Findings are recorded for the harness; error-severity
    /// findings additionally trip a debug assertion — a plan the analyzer
    /// rejects must never reach the switches in a test build.
    fn run_analysis_gate(&mut self, updates: &[FlowUpdate]) {
        let ControllerImpl::P4(c) = &self.controller else {
            return; // the baselines carry no proof labels to lint
        };
        // Replicate the controller's per-batch version assignment: each
        // entry gets one past the newest version of its flow, including
        // versions assigned earlier in this very batch.
        let mut assigned: BTreeMap<FlowId, Version> = BTreeMap::new();
        let plans: Vec<PreparedUpdate> = updates
            .iter()
            .map(|u| {
                let v = assigned
                    .get(&u.flow)
                    .map_or_else(|| c.next_version(u.flow), |v| v.next());
                assigned.insert(u.flow, v);
                prepare_update(u, v, c.strategy())
            })
            .collect();
        let ctx = AnalysisContext::with_installed(
            Some(&self.topo),
            updates
                .iter()
                .filter_map(|u| c.current_version(u.flow).map(|v| (u.flow, v))),
        );
        // One worker keeps the gate free of threads inside the event loop;
        // the engine is byte-identical at any worker count, so this is
        // purely a scheduling choice. The previous pass's cache makes
        // steady-state batches (unchanged plans, unchanged installed
        // versions) revalidate instead of re-lint.
        let engine = BatchAnalyzer::new(1);
        let analysis = match self.gate_cache.take() {
            Some(prev) => {
                let delta = PlanDelta::diff(prev.plans(), &plans);
                engine.reanalyze(&prev, &delta, &ctx)
            }
            None => engine.analyze(&plans, &ctx),
        };
        self.gate_stats.batches += 1;
        self.gate_stats.plans += analysis.plan_count();
        self.gate_stats.relinted += analysis.revalidated();
        debug_assert!(
            !analysis.diagnostics().iter().any(Diagnostic::is_error),
            "analysis gate rejected a plan: {:?}",
            analysis
                .diagnostics()
                .iter()
                .filter(|d| d.is_error())
                .collect::<Vec<_>>()
        );
        self.analysis_findings
            .extend(analysis.diagnostics().iter().cloned());
        self.gate_cache = Some(analysis);
    }

    fn run_checker(&mut self, now: SimTime) {
        if !self.config.paranoid {
            return;
        }
        for v in check(&self.topo, &self.switches, &self.flows) {
            // Deduplicate persistent violations: record state transitions
            // only.
            let already = self.violations.iter().any(|(_, existing)| *existing == v);
            if !already {
                self.violations.push((now, v));
            }
        }
    }
}

impl World for NetworkSim {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event {
            Event::DeliverToSwitch { node, from, msg } => {
                // Serial pipeline: requeue while the switch is busy.
                let busy = self.switch_busy[node.index()];
                if busy > now {
                    sched.schedule_at(busy, Event::DeliverToSwitch { node, from, msg });
                    return;
                }
                let done = now + ms(self.config.timing.switch_proc_ms);
                self.switch_busy[node.index()] = done;
                if let Message::Data(pkt) = &msg {
                    self.sink.record_arrival(now, node, *pkt);
                }
                if matches!(msg, Message::Unm(_)) {
                    self.sink.record_unm_delivery(now, node);
                }
                // Pull a matching taint *before* processing so the
                // pre-delivery UIB entry can anchor the classification.
                let taint = self
                    .byz_taints
                    .iter()
                    .position(|t| {
                        t.dest == Endpoint::Switch(node)
                            && Endpoint::Switch(t.liar) == from
                            && t.msg == msg
                    })
                    .map(|i| self.byz_taints.remove(i));
                let before = taint
                    .as_ref()
                    .and_then(|t| t.msg.flow())
                    .map(|f| self.switches[node].state.uib.read(f));
                let mut effects = std::mem::take(&mut self.scratch);
                self.switches
                    .get_mut(node)
                    .expect("switch exists")
                    .handle_message_into(now, from, msg, &mut effects);
                if let Some(t) = taint {
                    self.classify_taint(now, node, t, before, &effects);
                }
                self.apply_switch_effects(node, done, &mut effects, sched);
                self.scratch = effects;
                self.arm_poll(node, sched);
            }
            Event::InstallComplete { node, flow, token } => {
                let busy = self.switch_busy[node.index()];
                if busy > now {
                    sched.schedule_at(busy, Event::InstallComplete { node, flow, token });
                    return;
                }
                let done = now + ms(self.config.timing.switch_proc_ms);
                self.switch_busy[node.index()] = done;
                let mut effects = std::mem::take(&mut self.scratch);
                self.switches
                    .get_mut(node)
                    .expect("switch exists")
                    .handle_installed_into(now, flow, token, &mut effects);
                self.apply_switch_effects(node, done, &mut effects, sched);
                self.scratch = effects;
                self.arm_poll(node, sched);
            }
            Event::InjectPacket {
                node,
                pkt,
                egress_hint,
            } => {
                let busy = self.switch_busy[node.index()];
                if busy > now {
                    sched.schedule_at(
                        busy,
                        Event::InjectPacket {
                            node,
                            pkt,
                            egress_hint,
                        },
                    );
                    return;
                }
                let done = now + ms(self.config.timing.switch_proc_ms);
                self.switch_busy[node.index()] = done;
                self.sink.record_arrival(now, node, pkt);
                let mut effects = std::mem::take(&mut self.scratch);
                self.switches
                    .get_mut(node)
                    .expect("switch exists")
                    .inject_packet_into(now, pkt, egress_hint, &mut effects);
                self.apply_switch_effects(node, done, &mut effects, sched);
                self.scratch = effects;
            }
            Event::DeliverToController { from, msg } => {
                // FIFO single-threaded controller: queue behind the busy
                // horizon, then serve with an exponential service time.
                let start = now.max(self.ctrl_busy);
                let svc = ms(self
                    .rng
                    .exponential(self.config.timing.ctrl_service_mean_ms));
                let done = start + svc;
                self.ctrl_busy = done;
                sched.schedule_at(done, Event::ControllerExec { from, msg });
            }
            Event::CtrlIngress {
                from,
                msg,
                sent_at,
                extra,
            } => {
                // Controller-side latency draw: the message left `from` at
                // `sent_at`; now (= sent_at + floor) the actual normal-
                // distributed latency is drawn and the delivery lands at
                // `sent_at + latency (+ adversarial extra)`. The clamp in
                // `schedule_at` is unreachable (latency ≥ floor), so the
                // delivery time distribution matches the switch-side draw
                // this replaces.
                let lat = self.control_latency(from);
                sched.schedule_at(
                    sent_at + lat + extra,
                    Event::DeliverToController { from, msg },
                );
            }
            Event::ControllerExec { from, msg } => {
                if let Some(i) = self
                    .byz_taints
                    .iter()
                    .position(|t| t.dest == Endpoint::Controller && t.liar == from && t.msg == msg)
                {
                    let t = self.byz_taints.remove(i);
                    self.byz_outcomes.push(ByzOutcome {
                        at: now,
                        liar: t.liar,
                        receiver: Endpoint::Controller,
                        vector: t.vector,
                        disposition: ByzDisposition::Undetectable,
                    });
                }
                self.feed_standbys_msg(now, from, &msg);
                let mut out = Vec::new();
                self.controller
                    .as_logic()
                    .on_message(now, from, msg, &mut out);
                self.apply_ctrl_effects(now, out, sched);
            }
            Event::PollTick { node } => {
                let parked = self.switches[node].parked_messages();
                let interval = self.config.timing.resubmit_poll_ms;
                if parked == 0 || interval <= 0.0 {
                    self.polling[node.index()] = false;
                } else {
                    // Each parked message makes one pipeline pass.
                    let start = now.max(self.switch_busy[node.index()]);
                    let spin = ms(self.config.timing.switch_proc_ms).saturating_mul(parked as u64);
                    let done = start + spin;
                    self.switch_busy[node.index()] = done;
                    sched.schedule_at(done + ms(interval), Event::PollTick { node });
                }
            }
            Event::Trigger { batch } => {
                let updates = self.batches.get(batch).cloned().unwrap_or_default();
                self.sink.record_trigger(now, batch);
                if self.config.analysis_gate {
                    self.run_analysis_gate(&updates);
                }
                let mut out = Vec::new();
                let base = now.max(self.ctrl_busy);
                self.controller
                    .as_logic()
                    .start_update(now, &updates, &mut out);
                // Shadow replicas see the same trigger (outputs dropped)
                // so a post-failover primary holds the same pending state.
                let mut discard = Vec::new();
                for s in &mut self.standbys {
                    s.as_logic().start_update(now, &updates, &mut discard);
                    discard.clear();
                }
                self.apply_ctrl_effects(base, out, sched);
                if self.config.retry_ms > 0.0 {
                    sched.schedule_in(ms(self.config.retry_ms), Event::ControllerTimer);
                }
            }
            Event::ControllerTimer => {
                let mut out = Vec::new();
                let keep_going = self.controller.as_logic().on_timer(now, &mut out);
                let base = now.max(self.ctrl_busy);
                self.apply_ctrl_effects(base, out, sched);
                if keep_going && self.config.retry_ms > 0.0 {
                    sched.schedule_in(ms(self.config.retry_ms), Event::ControllerTimer);
                }
            }
            Event::ControllerFailover => {
                if !self.failed_over && !self.standbys.is_empty() {
                    self.failed_over = true;
                    self.controller = self.standbys.remove(0);
                    // The new primary's view may be stale (replication
                    // lag); the §11 recovery timer is what reconciles
                    // in-flight updates, so re-arm it immediately.
                    if self.config.retry_ms > 0.0 {
                        sched.schedule_in(ms(self.config.retry_ms), Event::ControllerTimer);
                    }
                }
            }
        }
        self.run_checker(now);
    }
}

/// Convenience: wrap a [`NetworkSim`] into a ready-to-run simulation with
/// a livelock guard sized for the evaluation scenarios.
pub fn simulation(world: NetworkSim) -> Simulation<NetworkSim> {
    // Pre-size the event queue: in-flight events scale with the switch
    // count (serial pipelines bound per-switch fan-out), so a small
    // multiple of it avoids every steady-state reallocation.
    let capacity = world.topology().node_count() * 8 + 1024;
    let backend = world.config().queue_backend;
    let replication = world.config().replication;
    let mut sim = Simulation::new(world)
        .with_event_budget(20_000_000)
        .with_queue_backend(backend)
        .with_queue_capacity(capacity);
    if replication.enabled() && replication.failover_at_ms > 0.0 {
        sim.schedule_at(
            SimTime::ZERO + ms(replication.failover_at_ms),
            Event::ControllerFailover,
        );
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimingConfig;
    use p4update_net::topologies;

    fn basic_sim(system: System) -> NetworkSim {
        let topo = topologies::fig1();
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1);
        NetworkSim::new(topo, system, config, None)
    }

    #[test]
    fn initial_path_installs_rules_and_reserves_capacity() {
        let mut sim = basic_sim(System::P4Update(Strategy::Auto));
        let path = Path::new(topologies::fig1_old_path());
        sim.install_initial_path(FlowId(0), &path, 2.0);
        let e = sim.switches[&NodeId(0)].state.uib.read(FlowId(0));
        assert_eq!(e.active_next_hop, Some(NodeId(4)));
        assert_eq!(e.applied_distance, 3);
        let remaining = sim.switches[&NodeId(0)]
            .state
            .remaining_capacity(NodeId(4))
            .unwrap();
        assert_eq!(remaining, topologies::DEFAULT_CAPACITY - 2.0);
        // Egress terminates.
        assert!(sim.switches[&NodeId(7)]
            .state
            .uib
            .read(FlowId(0))
            .is_egress());
        // Checker is clean.
        assert!(check(&sim.topo, &sim.switches, &sim.flows).is_empty());
    }

    #[test]
    fn data_packet_traverses_initial_path() {
        let mut world = basic_sim(System::P4Update(Strategy::Auto));
        let path = Path::new(topologies::fig1_old_path());
        world.install_initial_path(FlowId(0), &path, 1.0);
        let mut sim = simulation(world);
        sim.schedule_at(
            SimTime::ZERO,
            Event::InjectPacket {
                node: NodeId(0),
                pkt: DataPacket {
                    flow: FlowId(0),
                    seq: 7,
                    ttl: 64,
                    tag: None,
                },
                egress_hint: NodeId(7),
            },
        );
        assert!(sim.run().drained());
        let world = sim.into_world();
        assert_eq!(world.metrics().deliveries.len(), 1);
        let (t, node, pkt) = &world.metrics().deliveries[0];
        assert_eq!(*node, NodeId(7));
        assert_eq!(pkt.seq, 7);
        // 3 hops of 20 ms plus processing.
        assert!(t.as_millis_f64() > 60.0 && t.as_millis_f64() < 70.0, "{t}");
    }

    #[test]
    fn all_three_systems_assemble() {
        for system in [
            System::P4Update(Strategy::Auto),
            System::EzSegway { congestion: false },
            System::Central { congestion: false },
        ] {
            let sim = basic_sim(system);
            assert_eq!(sim.switches.len(), 8);
        }
    }

    #[test]
    fn analysis_gate_runs_clean_on_fig1_migration() {
        let topo = topologies::fig1();
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1)
            .with_analysis_gate(true);
        let mut world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
        let old = Path::new(topologies::fig1_old_path());
        let new = Path::new(topologies::fig1_new_path());
        world.install_initial_path(FlowId(0), &old, 1.0);
        let batch = world.add_batch(vec![FlowUpdate::new(FlowId(0), Some(old), new, 1.0)]);
        let mut sim = simulation(world);
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
        assert!(sim.run().drained());
        // A well-prepared plan produces no findings at all.
        assert!(sim.into_world().analysis_findings.is_empty());
    }

    #[test]
    fn analysis_gate_records_mechanism_advisories() {
        let topo = topologies::fig1();
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1)
            .with_analysis_gate(true);
        // ForceSingle on Fig. 1 violates the §7.5 rule (backward segment,
        // 8 nodes): the gate warns but does not trip.
        let mut world =
            NetworkSim::new(topo, System::P4Update(Strategy::ForceSingle), config, None);
        let old = Path::new(topologies::fig1_old_path());
        let new = Path::new(topologies::fig1_new_path());
        world.install_initial_path(FlowId(0), &old, 1.0);
        let batch = world.add_batch(vec![FlowUpdate::new(FlowId(0), Some(old), new, 1.0)]);
        let mut sim = simulation(world);
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
        assert!(sim.run().drained());
        let world = sim.into_world();
        assert!(!world.analysis_findings.is_empty());
        assert!(world.analysis_findings.iter().all(|d| !d.is_error()));
    }

    /// Fault choice points with the default chooser alter nothing: every
    /// decision resolves to "deliver", so the run is byte-identical to one
    /// without choice points.
    #[test]
    fn fault_choice_points_with_default_chooser_change_nothing() {
        let run = |fault_choices: bool| {
            let topo = topologies::fig1();
            let mut config =
                SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1).paranoid();
            if fault_choices {
                config = config.with_fault_choices(crate::config::FaultChoiceConfig::default());
            }
            let mut world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
            let old = Path::new(topologies::fig1_old_path());
            let new = Path::new(topologies::fig1_new_path());
            world.install_initial_path(FlowId(0), &old, 1.0);
            let batch = world.add_batch(vec![FlowUpdate::new(FlowId(0), Some(old), new, 1.0)]);
            let mut sim = simulation(world);
            sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
            assert!(sim.run().drained());
            let events = sim.events_delivered();
            let world = sim.into_world();
            (
                events,
                world.metrics().completions.clone(),
                world.violations,
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// A chooser that drops every control message stalls the update (no
    /// completion) without ever breaking consistency.
    #[test]
    fn drop_all_chooser_stalls_but_stays_consistent() {
        struct DropAll;
        impl p4update_des::Chooser for DropAll {
            fn choose(&mut self, kind: ChoiceKind, _arity: usize) -> usize {
                match kind {
                    ChoiceKind::TieBreak => 0,
                    ChoiceKind::Fault => 1,     // drop
                    ChoiceKind::Byzantine => 0, // honest
                }
            }
        }
        let topo = topologies::fig1();
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1)
            .paranoid()
            .with_fault_choices(crate::config::FaultChoiceConfig::default());
        let mut world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
        let old = Path::new(topologies::fig1_old_path());
        let new = Path::new(topologies::fig1_new_path());
        world.install_initial_path(FlowId(0), &old, 1.0);
        let batch = world.add_batch(vec![FlowUpdate::new(FlowId(0), Some(old), new, 1.0)]);
        let mut sim = simulation(world).with_chooser(Box::new(DropAll));
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
        assert!(sim.run().drained());
        let world = sim.into_world();
        assert!(world.metrics().completions.is_empty());
        assert!(world.violations.is_empty(), "{:?}", world.violations);
        assert!(world.metrics().control_drops > 0);
    }

    /// Installing the byzantine catalog without ever taking a lying
    /// alternative changes nothing: alternative 0 draws no randomness and
    /// schedules nothing, so the run is byte-identical to the plain
    /// engine.
    #[test]
    fn byzantine_catalog_with_default_chooser_changes_nothing() {
        let run = |byz: bool| {
            let topo = topologies::fig1();
            let mut config =
                SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1).paranoid();
            if byz {
                config = config.with_byzantine(crate::config::ByzantineConfig::default());
            }
            let mut world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
            let old = Path::new(topologies::fig1_old_path());
            let new = Path::new(topologies::fig1_new_path());
            world.install_initial_path(FlowId(0), &old, 1.0);
            let batch = world.add_batch(vec![FlowUpdate::new(FlowId(0), Some(old), new, 1.0)]);
            let mut sim = simulation(world);
            sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
            assert!(sim.run().drained());
            let events = sim.events_delivered();
            let world = sim.into_world();
            assert!(world.byz_outcomes.is_empty());
            (
                events,
                world.metrics().completions.clone(),
                world.violations,
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// A switch that always lies about its dependency labels is caught by
    /// its upstream neighbor's local verification: the lie is rejected
    /// with an alarm, recorded as a `ForgedReject`, and no real
    /// consistency breach occurs.
    #[test]
    fn p4update_rejects_a_dependency_lie_locally() {
        struct AlwaysLie;
        impl p4update_des::Chooser for AlwaysLie {
            fn choose(&mut self, kind: ChoiceKind, _arity: usize) -> usize {
                match kind {
                    ChoiceKind::Byzantine => 1,
                    _ => 0,
                }
            }
        }
        let topo = topologies::fig1();
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1)
            .paranoid()
            .with_byzantine(crate::config::ByzantineConfig {
                vector: Some(ByzVector::DependencyLie),
                ..Default::default()
            });
        let mut world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
        let old = Path::new(topologies::fig1_old_path());
        let new = Path::new(topologies::fig1_new_path());
        world.install_initial_path(FlowId(0), &old, 1.0);
        let batch = world.add_batch(vec![FlowUpdate::new(FlowId(0), Some(old), new, 1.0)]);
        let mut sim = simulation(world).with_chooser(Box::new(AlwaysLie));
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
        assert!(sim.run().drained());
        let world = sim.into_world();
        assert!(
            world
                .byz_outcomes
                .iter()
                .any(|o| matches!(o.disposition, ByzDisposition::Rejected(_))),
            "no lie was rejected: {:?}",
            world.byz_outcomes
        );
        assert!(world
            .violations
            .iter()
            .any(|(_, v)| v.is_forgery_rejection()));
        // Defense records only — no actual safety breach.
        assert!(world
            .violations
            .iter()
            .all(|(_, v)| v.is_forgery_rejection()));
        assert_eq!(world.liars.len(), 1);
    }

    /// Deterministic mid-update failover: the standby replica takes over
    /// and the §11 recovery timer finishes the update, despite the
    /// replication-lag window having swallowed part of the primary's
    /// feedback.
    #[test]
    fn controller_failover_mid_update_still_completes() {
        let topo = topologies::fig1();
        let config = SimConfig::new(TimingConfig::wan_multi_flow(topo.centroid()), 1)
            .paranoid()
            .with_retry_ms(40.0)
            .with_replication(crate::config::ReplicationConfig {
                replicas: 2,
                failover_at_ms: 50.0,
                lag_ms: 25.0,
            });
        let mut world = NetworkSim::new(topo, System::P4Update(Strategy::Auto), config, None);
        let old = Path::new(topologies::fig1_old_path());
        let new = Path::new(topologies::fig1_new_path());
        world.install_initial_path(FlowId(0), &old, 1.0);
        let batch = world.add_batch(vec![FlowUpdate::new(FlowId(0), Some(old), new, 1.0)]);
        let mut sim = simulation(world);
        sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
        assert!(sim.run().drained());
        let world = sim.into_world();
        assert!(world.failed_over);
        assert!(world.standbys.is_empty());
        assert!(
            world
                .metrics()
                .completions
                .iter()
                .any(|&(_, f, _)| f == FlowId(0)),
            "update did not complete after failover"
        );
        assert!(world.violations.is_empty(), "{:?}", world.violations);
    }

    #[test]
    fn transit_uses_link_latency_for_neighbors() {
        let sim = basic_sim(System::P4Update(Strategy::Auto));
        assert_eq!(
            sim.transit(NodeId(0), NodeId(1)),
            SimDuration::from_millis(20)
        );
        // Non-adjacent: 0 to 7 over >= 3 links at 20ms plus relay cost.
        let t = sim.transit(NodeId(0), NodeId(7));
        assert!(t >= SimDuration::from_millis(60));
    }
}
