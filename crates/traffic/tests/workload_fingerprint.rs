//! Bit-exact fingerprints of the §9.1 multi-flow workload.
//!
//! Every flow's old and new node lists, its size bits and the free-capacity
//! bits of every directed link are folded into one FNV-1a hash per seed.
//! The pinned values were recorded before the path search, the path tables
//! and the traffic matrix were optimized; any change to routing, tie
//! breaking, gravity sizes or the generator's RNG consumption moves them.

use p4update_des::SimRng;
use p4update_net::{topologies, NodeId, Topology};
use p4update_traffic::{multi_flow, Workload};

/// Gravity load the benchmark migrations use.
const LOAD_FACTOR: f64 = 0.55;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn nodes(&mut self, nodes: &[NodeId]) {
        self.word(nodes.len() as u64);
        for n in nodes {
            self.word(n.index() as u64);
        }
    }
}

fn fingerprint(w: &Workload) -> u64 {
    let mut h = Fnv::new();
    h.word(w.updates.len() as u64);
    for u in &w.updates {
        h.word(u64::from(u.flow.0));
        h.nodes(u.old_path.as_ref().map_or(&[][..], |p| p.nodes()));
        h.nodes(u.new_path.nodes());
        h.word(u.size.to_bits());
    }
    h.word(w.free_capacity.len() as u64);
    for (&(a, b), free) in &w.free_capacity {
        h.word(a.index() as u64);
        h.word(b.index() as u64);
        h.word(free.to_bits());
    }
    h.0
}

fn workload_fingerprint(topo: &Topology, seed: u64) -> u64 {
    fingerprint(&multi_flow(topo, &mut SimRng::new(seed), LOAD_FACTOR))
}

#[test]
fn ft512_workloads_match_their_fingerprints() {
    let topo = topologies::synthetic_fat_tree_512();
    let pinned: [(u64, u64); 3] = [
        (1, 0x1c2c_26e0_3f45_4479),
        (2, 0x0980_5ac6_6d33_6808),
        (3, 0xe6be_4115_4e4e_54fc),
    ];
    let got: Vec<(u64, u64)> = pinned
        .iter()
        .map(|&(seed, _)| (seed, workload_fingerprint(&topo, seed)))
        .collect();
    assert_eq!(got, pinned, "ft512 (seed, fingerprint): {got:#018x?}");
}

/// The benchmark's own workload. Yen's search over 4096 flows is too slow
/// for a debug build; `scripts/check.sh` runs this in release.
#[test]
#[ignore = "release-only: ft4096 workload generation"]
fn ft4096_seed1_workload_matches_its_fingerprint() {
    let topo = topologies::synthetic_fat_tree_4096();
    let got = workload_fingerprint(&topo, 1);
    assert_eq!(got, 0x3197_fa93_bb18_38ea, "ft4096 seed 1: {got:#018x}");
}
