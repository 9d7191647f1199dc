//! The evaluation's qualitative claims as assertions, run on the same code
//! paths as the `p4update-experiments` binary (with reduced run counts to
//! keep test time reasonable).

use p4update::core::Strategy;
use p4update::des::SimTime;
use p4update::net::{topologies, FlowId, FlowUpdate, Path, Version};
use p4update::sim::{simulation, Event, NetworkSim, SimConfig, System, TimingConfig};
use p4update_experiments::{fig2, fig4, fig7, fig8};

/// Fig. 2 (§4.1): under reordered updates, ez-Segway loops packets —
/// the worst packet traverses the 3-hop loop ⌊TTL 64 / 3⌋ = 21 times —
/// and loses traffic; P4Update delivers everything exactly once.
#[test]
fn fig2_loop_and_loss_contrast() {
    let (p4, ez) = fig2::run(7);
    assert_eq!(p4.looped_at_v1, 0);
    assert_eq!(p4.ttl_deaths, 0);
    assert_eq!(p4.max_visits_v1, 1);
    assert!(
        ez.looped_at_v1 > 10,
        "ez-Segway should loop many packets, saw {}",
        ez.looped_at_v1
    );
    assert!(
        (21..=22).contains(&ez.max_visits_v1),
        "worst loop count should be ~21 (TTL 64 / 3 hops), saw {}",
        ez.max_visits_v1
    );
    assert!(ez.ttl_deaths > 0, "ez-Segway should lose packets to TTL");
    // P4Update delivers every probe; ez-Segway misses the dead ones.
    assert!(p4.delivered_v4.len() > ez.delivered_v4.len());
    assert_eq!(ez.delivered_v4.len() + ez.ttl_deaths, p4.delivered_v4.len());
}

/// Fig. 4 (§4.2): P4Update fast-forwards to U3 several times faster than
/// ez-Segway's wait-for-U2 (paper: ~4×; assert > 2.5× to keep the test
/// robust across seeds).
#[test]
fn fig4_fast_forward_speedup() {
    let (p4, ez) = fig4::run(10);
    assert_eq!(p4.len(), 10, "P4Update runs must all complete");
    assert_eq!(ez.len(), 10, "ez-Segway runs must all complete");
    let speedup = ez.mean() / p4.mean();
    assert!(
        speedup > 2.5,
        "expected ~4x fast-forward speedup, measured {speedup:.2}x"
    );
}

/// Fig. 7a (synthetic single flow): the dual layer beats the single layer
/// (paper: 31.5%), and P4Update's auto strategy picks the winner; all
/// systems beat none — P4Update is fastest overall.
#[test]
fn fig7a_dual_layer_wins_on_segmented_single_flow() {
    let series = fig7::run(fig7::Panel::SyntheticSingle, 8);
    let mean = |label: &str| {
        series
            .iter()
            .find(|s| s.label == label)
            .expect("series present")
            .samples
            .mean()
    };
    let sl = mean("SL-P4Update");
    let dl = mean("DL-P4Update");
    let auto = mean("P4Update");
    let ez = mean("ez-Segway");
    assert!(dl < sl, "DL ({dl:.0}) must beat SL ({sl:.0}) on Fig. 1");
    assert!(
        (auto - dl).abs() < 1e-6,
        "auto strategy must pick DL here (auto {auto:.0}, dl {dl:.0})"
    );
    assert!(
        auto < ez,
        "P4Update ({auto:.0}) must beat ez-Segway ({ez:.0})"
    );
}

/// Fig. 7 multi-flow ordering: P4Update ≤ ez-Segway ≤/< Central on B4.
#[test]
fn fig7d_multi_flow_ordering() {
    let series = fig7::run(fig7::Panel::B4Multi, 5);
    let mean = |label: &str| {
        series
            .iter()
            .find(|s| s.label == label)
            .expect("series present")
            .samples
            .mean()
    };
    let p4 = mean("P4Update");
    let ez = mean("ez-Segway");
    let central = mean("Central");
    assert!(p4 < ez, "P4Update ({p4:.0}) must beat ez-Segway ({ez:.0})");
    assert!(
        p4 < central,
        "P4Update ({p4:.0}) must beat Central ({central:.0})"
    );
}

/// Fig. 8 (§9.3): P4Update's preparation is cheaper than ez-Segway's in
/// both regimes, and dramatically so once ez-Segway must compute the
/// congestion dependency graph.
#[test]
fn fig8_preparation_ratios() {
    let without = fig8::run(false, 3);
    let with = fig8::run(true, 3);
    for (a, b) in without.iter().zip(&with) {
        assert!(
            a.ratios.mean() < 1.0,
            "{}: P4Update prep must be cheaper (ratio {:.3})",
            a.name,
            a.ratios.mean()
        );
        assert!(
            b.ratios.mean() < 0.25,
            "{}: congestion-freedom prep must be dramatically cheaper (ratio {:.4})",
            b.name,
            b.ratios.mean()
        );
        assert!(
            b.ratios.mean() < a.ratios.mean(),
            "{}: congestion must widen the gap",
            b.name
        );
    }
}

/// The §7.5 strategy is observable: small forward-only updates run
/// single-layer, segmented ones dual-layer (checked through the public
/// controller API).
#[test]
fn strategy_selection_follows_section_7_5() {
    use p4update::core::{prepare_update, segment_update};
    use p4update::messages::UpdateKind;
    use p4update::net::{FlowId, FlowUpdate, NodeId, Path, Version};
    let p = |ids: &[u32]| Path::new(ids.iter().map(|&i| NodeId(i)).collect());
    let small = FlowUpdate::new(FlowId(0), Some(p(&[0, 1, 5])), p(&[0, 2, 3, 5]), 1.0);
    let prepared = prepare_update(&small, Version(2), Strategy::Auto);
    assert_eq!(prepared.kind, UpdateKind::Single);
    assert!(segment_update(&small).forward_only());

    let fig1 = FlowUpdate::new(
        FlowId(0),
        Some(p(&[0, 4, 2, 7])),
        p(&[0, 1, 2, 3, 4, 5, 6, 7]),
        1.0,
    );
    let prepared = prepare_update(&fig1, Version(2), Strategy::Auto);
    assert_eq!(prepared.kind, UpdateKind::Dual);
}

/// Run the Fig. 1 migration under `strategy` and return its
/// flow-completion time.
fn fig1_migration(strategy: Strategy) -> SimTime {
    let topo = topologies::fig1();
    let old = Path::new(topologies::fig1_old_path());
    let new = Path::new(topologies::fig1_new_path());
    let config = SimConfig::new(TimingConfig::wan_single_flow(topo.centroid()), 11).paranoid();
    let mut world = NetworkSim::new(topo, System::P4Update(strategy), config, None);
    world.install_initial_path(FlowId(0), &old, 1.0);
    let batch = world.add_batch(vec![FlowUpdate::new(FlowId(0), Some(old), new, 1.0)]);
    let mut sim = simulation(world);
    sim.schedule_at(SimTime::ZERO, Event::Trigger { batch });
    assert!(sim.run().drained());
    let world = sim.into_world();
    assert!(world.violations.is_empty(), "{:?}", world.violations);
    world
        .metrics()
        .completion_of(FlowId(0), Version(2))
        .expect("Fig. 1 migration must complete")
}

/// Fig. 1: the dual layer's update-time advantage — the paper's headline
/// claim — on the paper's own topology, with the checker armed on every
/// event.
#[test]
fn fig1_dual_layer_beats_single_layer() {
    let single = fig1_migration(Strategy::ForceSingle);
    let dual = fig1_migration(Strategy::ForceDual);
    assert!(
        dual < single,
        "dual-layer ({dual:?}) should finish before single-layer ({single:?})"
    );
}

/// Sanity: the system labels used across experiments match the paper's
/// legends.
#[test]
fn system_labels_match_figures() {
    use p4update_experiments::scenarios::system_label;
    assert_eq!(system_label(System::P4Update(Strategy::Auto)), "P4Update");
    assert_eq!(
        system_label(System::P4Update(Strategy::ForceSingle)),
        "SL-P4Update"
    );
    assert_eq!(
        system_label(System::P4Update(Strategy::ForceDual)),
        "DL-P4Update"
    );
    assert_eq!(
        system_label(System::EzSegway { congestion: false }),
        "ez-Segway"
    );
    assert_eq!(
        system_label(System::Central { congestion: false }),
        "Central"
    );
}
