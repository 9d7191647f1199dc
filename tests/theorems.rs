//! The paper's correctness claims (Theorems 1–4, Corollaries 1–4) as
//! executable scenario tests: blackhole-, loop-, and congestion-freedom
//! under both mechanisms, including convergence to the highest version.

use p4update::core::Strategy;
use p4update::des::{SimDuration, SimRng, SimTime};
use p4update::net::{topologies, FlowId, FlowUpdate, NodeId, Path, Version};
use p4update::sim::{simulation, Event, NetworkSim, SimConfig, System, TimingConfig};

fn fig1_update() -> FlowUpdate {
    FlowUpdate::new(
        FlowId(0),
        Some(Path::new(topologies::fig1_old_path())),
        Path::new(topologies::fig1_new_path()),
        1.0,
    )
}

/// Run a batch of updates under `strategy`, with the checker armed on
/// every event; return the finished world.
fn run_batches(
    strategy: Strategy,
    seed: u64,
    batches: Vec<(u64, Vec<FlowUpdate>)>,
    topo: p4update::net::Topology,
    installed: &[(FlowId, Path, f64)],
) -> NetworkSim {
    let config = SimConfig::new(TimingConfig::wan_single_flow(topo.centroid()), seed).paranoid();
    let mut world = NetworkSim::new(topo, System::P4Update(strategy), config, None);
    for (flow, path, size) in installed {
        world.install_initial_path(*flow, path, *size);
    }
    let mut idxs = Vec::new();
    for (_, updates) in &batches {
        idxs.push(world.add_batch(updates.clone()));
    }
    let mut sim = simulation(world);
    for ((at_ms, _), idx) in batches.iter().zip(idxs) {
        sim.schedule_at(
            SimTime::ZERO + SimDuration::from_millis(*at_ms),
            Event::Trigger { batch: idx },
        );
    }
    assert!(sim.run().drained());
    sim.into_world()
}

/// Theorem 1 + 3: both mechanisms keep the network blackhole- and
/// loop-free throughout the Fig. 1 migration, across many seeds.
#[test]
fn theorem_1_and_3_consistency_during_migration() {
    for strategy in [Strategy::ForceSingle, Strategy::ForceDual] {
        for seed in 0..10 {
            let world = run_batches(
                strategy,
                seed,
                vec![(0, vec![fig1_update()])],
                topologies::fig1(),
                &[(FlowId(0), Path::new(topologies::fig1_old_path()), 1.0)],
            );
            assert!(
                world.violations.is_empty(),
                "{strategy:?} seed {seed}: {:?}",
                world.violations
            );
        }
    }
}

/// Theorem 2 + 4: the flow converges to the highest version pushed.
#[test]
fn theorem_2_and_4_convergence_to_highest_version() {
    for strategy in [Strategy::ForceSingle, Strategy::ForceDual] {
        for seed in [0, 3, 5] {
            let world = run_batches(
                strategy,
                seed,
                vec![(0, vec![fig1_update()])],
                topologies::fig1(),
                &[(FlowId(0), Path::new(topologies::fig1_old_path()), 1.0)],
            );
            for &node in &topologies::fig1_new_path() {
                let e = world.switches[&node].state.uib.read(FlowId(0));
                assert_eq!(
                    e.applied_version,
                    Version(2),
                    "{strategy:?} seed {seed}: node {node} did not converge"
                );
            }
        }
    }
}

/// §4.2 semantics: two updates in rapid succession converge to the later
/// one, with every intermediate state consistent (fast-forward).
#[test]
fn rapid_succession_converges_to_latest() {
    let topo = topologies::fig1();
    let old = Path::new(topologies::fig1_old_path());
    let new = Path::new(topologies::fig1_new_path());
    let u2 = FlowUpdate::new(FlowId(0), Some(old.clone()), new.clone(), 1.0);
    // V3 goes back to the old route.
    let u3 = FlowUpdate::new(FlowId(0), Some(new), old.clone(), 1.0);
    for seed in 0..5 {
        let world = run_batches(
            Strategy::ForceSingle,
            seed,
            vec![(0, vec![u2.clone()]), (40, vec![u3.clone()])],
            topo.clone(),
            &[(FlowId(0), old.clone(), 1.0)],
        );
        assert!(
            world.violations.is_empty(),
            "seed {seed}: {:?}",
            world.violations
        );
        // Converged to V3's route (the old path again).
        let e = world.switches[&NodeId(0)].state.uib.read(FlowId(0));
        assert_eq!(e.applied_version, Version(3), "seed {seed}");
        assert_eq!(e.active_next_hop, Some(NodeId(4)), "seed {seed}");
    }
}

/// The dual-after-dual restriction (§7.3): a second consecutive dual-layer
/// update is rejected at the gateways (alarms), and no inconsistency
/// appears; an intervening single-layer update re-enables dual-layer.
#[test]
fn dual_after_dual_requires_single_between() {
    let topo = topologies::fig1();
    let old = Path::new(topologies::fig1_old_path());
    let new = Path::new(topologies::fig1_new_path());
    let u2 = FlowUpdate::new(FlowId(0), Some(old.clone()), new.clone(), 1.0);
    let u3 = FlowUpdate::new(FlowId(0), Some(new.clone()), old.clone(), 1.0);
    let world = run_batches(
        Strategy::ForceDual,
        9,
        vec![(0, vec![u2]), (3_000, vec![u3])],
        topo,
        &[(FlowId(0), old, 1.0)],
    );
    // Consistency is never violated even though the second update cannot
    // proceed past dual-updated gateways.
    assert!(world.violations.is_empty(), "{:?}", world.violations);
    // The gateways rejected the second dual-layer update.
    assert!(
        !world.metrics().alarms.is_empty(),
        "expected DualAfterDual alarms"
    );
}

/// Random-topology soak: single- and dual-layer migrations on random
/// connected graphs keep every interleaving consistent.
#[test]
fn random_topology_migrations_stay_consistent() {
    let mut rng = SimRng::new(0xC0FFEE);
    for round in 0..15 {
        let n = 6 + rng.uniform_usize(10);
        let topo = topologies::random_connected(&mut rng, n, n);
        let nodes: Vec<NodeId> = topo.node_ids().collect();
        let src = nodes[rng.uniform_usize(n)];
        let dst = nodes[rng.uniform_usize(n)];
        if src == dst {
            continue;
        }
        let paths = p4update::net::k_shortest_paths(&topo, src, dst, 2);
        if paths.len() < 2 {
            continue;
        }
        let u = FlowUpdate::new(FlowId(0), Some(paths[0].clone()), paths[1].clone(), 1.0);
        for strategy in [Strategy::Auto, Strategy::ForceSingle, Strategy::ForceDual] {
            let world = run_batches(
                strategy,
                round,
                vec![(0, vec![u.clone()])],
                topo.clone(),
                &[(FlowId(0), paths[0].clone(), 1.0)],
            );
            assert!(
                world.violations.is_empty(),
                "round {round} {strategy:?} on {}: {:?}",
                world.topology().name,
                world.violations
            );
            assert!(
                world
                    .metrics()
                    .completion_of(FlowId(0), Version(2))
                    .is_some(),
                "round {round} {strategy:?}: never completed"
            );
        }
    }
}
