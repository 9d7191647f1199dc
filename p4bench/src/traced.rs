//! The traced run's instrument: a [`World`] that delegates every event to
//! [`NetworkSim::handle`] and times each call by [`Event`] variant. It
//! lives in the benchmark, around the call into the simulator, so the
//! program itself carries no tracing code.

use p4update::des::{Scheduler, SimTime, Simulation, World};
use p4update::sim::{Event, NetworkSim};
use std::time::{Duration, Instant};

/// Which side of the network handles an event kind.
#[derive(Clone, Copy, PartialEq)]
pub enum Side {
    Switch,
    Controller,
    /// The trigger and kinds the benchmark's worlds never schedule.
    Other,
}

/// An event kind: its metric name and its side.
pub struct Kind {
    pub name: &'static str,
    pub side: Side,
}

const fn kind_of(name: &'static str, side: Side) -> Kind {
    Kind { name, side }
}

/// Every `Event` variant, in report order. The switch and controller kinds
/// each report `sim.handle.<name>.n`, and `.s` unless [`UNTIMED`] names
/// them; the `Other` kinds count towards the totals only.
pub const KINDS: [Kind; 10] = [
    kind_of("deliver_to_switch", Side::Switch),
    kind_of("install_complete", Side::Switch),
    kind_of("poll_tick", Side::Switch),
    kind_of("ctrl_ingress", Side::Controller),
    kind_of("deliver_to_controller", Side::Controller),
    kind_of("controller_exec", Side::Controller),
    kind_of("controller_timer", Side::Controller),
    kind_of("trigger", Side::Other),
    kind_of("inject_packet", Side::Other),
    kind_of("controller_failover", Side::Other),
];

/// Kinds whose handler seconds are not reported on their own: no central
/// switch parks a message, so `poll_tick` never fires there, and
/// `controller_timer` fires only when the §11 retry timer is configured,
/// which neither workload does. Their time would read exactly 0.0 on every
/// run of a workload, which the benchmark's result format refuses for a
/// time. It stays in the per-side totals.
pub const UNTIMED: [&str; 2] = ["poll_tick", "controller_timer"];

/// Index of the `trigger` kind in [`KINDS`].
const TRIGGER: usize = 7;

fn kind(event: &Event) -> usize {
    match event {
        Event::DeliverToSwitch { .. } => 0,
        Event::InstallComplete { .. } => 1,
        Event::PollTick { .. } => 2,
        Event::CtrlIngress { .. } => 3,
        Event::DeliverToController { .. } => 4,
        Event::ControllerExec { .. } => 5,
        Event::ControllerTimer => 6,
        Event::Trigger { .. } => TRIGGER,
        Event::InjectPacket { .. } => 8,
        Event::ControllerFailover => 9,
    }
}

/// Per-kind handler counts and host time.
#[derive(Default, Clone, Copy)]
pub struct KindStats {
    /// Events handled, by kind.
    pub n: [u64; KINDS.len()],
    /// Host time inside `NetworkSim::handle`, by kind.
    pub time: [Duration; KINDS.len()],
}

impl KindStats {
    /// Events handled, all kinds.
    pub fn events(&self) -> u64 {
        self.n.iter().sum()
    }

    /// Handler seconds, all kinds except the trigger.
    pub fn loop_handler_secs(&self) -> f64 {
        (0..KINDS.len())
            .filter(|&k| k != TRIGGER)
            .map(|k| self.time[k].as_secs_f64())
            .sum()
    }

    /// Handler seconds of one side's kinds.
    pub fn side_secs(&self, side: Side) -> f64 {
        (0..KINDS.len())
            .filter(|&k| KINDS[k].side == side)
            .map(|k| self.time[k].as_secs_f64())
            .sum()
    }
}

/// A [`NetworkSim`] whose handler calls are timed by event kind.
pub struct Traced {
    /// The simulated network.
    pub net: NetworkSim,
    /// Tally so far.
    pub stats: KindStats,
}

impl World for Traced {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        let k = kind(&event);
        let start = Instant::now();
        self.net.handle(now, event, sched);
        self.stats.time[k] += start.elapsed();
        self.stats.n[k] += 1;
    }
}

/// Wrap `net` for a traced run with the same engine settings
/// `p4update::sim::simulation` applies (livelock guard, queue backend and
/// capacity hint); the caller schedules the trigger. Worlds that configure
/// controller replication are not supported (their failover event is
/// scheduled by `simulation` itself), and none of the benchmark's do.
pub fn traced_simulation(net: NetworkSim) -> Simulation<Traced> {
    assert!(
        !net.config().replication.enabled(),
        "traced runs do not schedule replica failover"
    );
    let capacity = net.topology().node_count() * 8 + 1024;
    let backend = net.config().queue_backend;
    Simulation::new(Traced {
        net,
        stats: KindStats::default(),
    })
    .with_event_budget(20_000_000)
    .with_queue_backend(backend)
    .with_queue_capacity(capacity)
}
