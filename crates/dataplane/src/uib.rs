//! The Update Information Base (UIB): the per-flow register file of the
//! P4Update data plane (§6, Table 1 / Appendix B).
//!
//! The registers of the paper's Table 1 are the fields of one per-flow
//! row, a [`UibEntry`]. An exact-match table maps flow identifiers to row
//! indices, so a switch addresses a flow's labels by flow ID ("the
//! distance, version number, and other helping variables are defined
//! per-flow and indexed by the flow ID", §10). The P4 program spreads the
//! fields over one register array each; that is a hardware layout, and
//! the model does not need it: a row is read and written whole.
//!
//! Field groups (the paper's Table 1 plus the "other helping variables"
//! §10 mentions):
//!
//! - **staged** (`new_version`, `new_distance`, `egress_port_updated`, and
//!   the clone-session port): the labels of the highest UIM received, not
//!   yet active;
//! - **applied** (`V_n(v)`, `D_n(v)` in Algorithm 2, `egress_port`): the
//!   configuration data packets currently follow;
//! - **inheritance** (`old_version`, `old_distance` — `V_o(v)`, `D_o(v)`):
//!   the dual-layer gating layer. Single-layer flips copy the applied
//!   values here ("the old_distance and old_version will also be updated to
//!   the corresponding value in new_distance and new_version", Appendix B);
//!   dual-layer updates *inherit* downstream old distances instead, which
//!   is the loop-freedom invariant of §3.2.

use p4update_messages::UpdateKind;
use p4update_net::{FlowId, NodeId, Version};
use p4update_pipeline::{ExactTable, RegisterArray};

/// Congestion priority of a flow at this switch (§7.4): flows that must
/// move away from a contended link are raised to high priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowPriority {
    /// Default priority.
    #[default]
    Low,
    /// The flow's move frees capacity another flow is waiting for.
    High,
}

/// A consistent snapshot of one flow's UIB registers at one switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UibEntry {
    // --- staged from the highest UIM ---
    /// `new_version`: version of the highest UIM received.
    pub uim_version: Version,
    /// `new_distance`: this node's `D_n` label in that UIM.
    pub uim_distance: u32,
    /// `egress_port_updated`: staged next hop (`None` = terminate here).
    pub staged_next_hop: Option<NodeId>,
    /// Staged upstream neighbor (UNM clone-session port).
    pub staged_upstream: Option<NodeId>,
    /// Mechanism announced by the UIM.
    pub uim_kind: Option<UpdateKind>,
    // --- applied configuration ---
    /// `V_n(v)`: version of the last accepted configuration
    /// (`Version::NONE` when the switch holds no rule for the flow).
    pub applied_version: Version,
    /// `D_n(v)`: distance of the last accepted configuration.
    pub applied_distance: u32,
    /// `egress_port`: the active next hop data packets follow.
    pub active_next_hop: Option<NodeId>,
    /// Active upstream neighbor.
    pub active_upstream: Option<NodeId>,
    // --- inheritance layer (dual-layer gating) ---
    /// `V_o(v)`.
    pub old_version: Version,
    /// `D_o(v)` — the "segment ID" of §3.2's intuition.
    pub old_distance: u32,
    // --- previous generation (two-phase commit, §11) ---
    /// Version of the configuration that was active before the last flip;
    /// packets tagged with it still forward by its rule.
    pub prev_version: Version,
    /// Next hop of the previous generation (`None` = terminated here).
    pub prev_next_hop: Option<NodeId>,
    // --- misc ---
    /// Immutable flow size bound for local capacity checks.
    pub flow_size: f64,
    /// Dynamic congestion priority.
    pub priority: FlowPriority,
    /// `t`: mechanism of the last applied update.
    pub last_update_type: Option<UpdateKind>,
    /// Hop counter for dual-layer symmetry breaking (Alg. 2).
    pub counter: u32,
}

impl Default for UibEntry {
    fn default() -> Self {
        UibEntry {
            uim_version: Version::NONE,
            uim_distance: u32::MAX,
            staged_next_hop: None,
            staged_upstream: None,
            uim_kind: None,
            applied_version: Version::NONE,
            applied_distance: u32::MAX,
            active_next_hop: None,
            active_upstream: None,
            old_version: Version::NONE,
            old_distance: u32::MAX,
            prev_version: Version::NONE,
            prev_next_hop: None,
            flow_size: 0.0,
            priority: FlowPriority::Low,
            last_update_type: None,
            counter: 0,
        }
    }
}

impl UibEntry {
    /// True when the switch holds an active forwarding or terminating rule
    /// for the flow.
    pub fn has_active_rule(&self) -> bool {
        self.applied_version > Version::NONE
    }

    /// True when the active rule terminates the flow here (egress role).
    pub fn is_egress(&self) -> bool {
        self.has_active_rule() && self.active_next_hop.is_none()
    }

    /// Apply the staged configuration as a **single-layer** flip: the
    /// staged labels become the applied configuration, and the inheritance
    /// layer is reset to the applied values (Appendix B).
    pub fn apply_single(&mut self) {
        self.save_previous_generation();
        self.applied_version = self.uim_version;
        self.applied_distance = self.uim_distance;
        self.active_next_hop = self.staged_next_hop;
        self.active_upstream = self.staged_upstream;
        self.old_version = self.uim_version;
        self.old_distance = self.uim_distance;
        self.last_update_type = Some(UpdateKind::Single);
        self.counter = 0;
    }

    /// Keep the outgoing rule of the configuration being replaced, so
    /// packets stamped with its version under the two-phase-commit mode
    /// (§11) still follow it.
    fn save_previous_generation(&mut self) {
        if self.has_active_rule() {
            self.prev_version = self.applied_version;
            self.prev_next_hop = self.active_next_hop;
        }
    }

    /// Apply the staged configuration as a **dual-layer** flip, inheriting
    /// the sender's old distance/version from the verified UNM
    /// (Alg. 2 lines 11–16 and 20–23).
    pub fn apply_dual(
        &mut self,
        inherited_old_version: Version,
        inherited_old_distance: u32,
        counter: u32,
    ) {
        self.save_previous_generation();
        self.applied_version = self.uim_version;
        self.applied_distance = self.uim_distance;
        self.active_next_hop = self.staged_next_hop;
        self.active_upstream = self.staged_upstream;
        self.old_version = inherited_old_version;
        self.old_distance = inherited_old_distance;
        self.last_update_type = Some(UpdateKind::Dual);
        self.counter = counter;
    }
}

/// The full UIB: the flow-index table plus one register row per flow.
#[derive(Debug, Clone)]
pub struct Uib {
    index: ExactTable<FlowId, usize>,
    rows: RegisterArray<UibEntry>,
}

impl Default for Uib {
    fn default() -> Self {
        Self::new()
    }
}

impl Uib {
    /// Empty UIB; rows are allocated as flows are first written.
    pub fn new() -> Self {
        Uib {
            index: ExactTable::new("flow_index"),
            rows: RegisterArray::new("uib", 0),
        }
    }

    /// The register index of a flow, allocating a default row on first use
    /// (the P4 program computes this by hashing; the model allocates
    /// densely).
    fn slot(&mut self, flow: FlowId) -> usize {
        if let Some(&i) = self.index.lookup(&flow).hit() {
            return i;
        }
        let i = self.rows.len();
        self.index
            .insert(flow, i)
            .expect("flow index table is unbounded");
        self.rows.ensure(i + 1);
        i
    }

    /// True when the flow has ever been seen at this switch.
    pub fn knows(&self, flow: FlowId) -> bool {
        self.index.lookup(&flow).hit().is_some()
    }

    /// Snapshot a flow's registers ([`UibEntry::default`] for unknown
    /// flows, matching uninitialized register contents).
    pub fn read(&self, flow: FlowId) -> UibEntry {
        match self.index.lookup(&flow).hit() {
            Some(&i) => *self.rows.read(i),
            None => UibEntry::default(),
        }
    }

    /// Write a flow's registers wholesale.
    pub fn write(&mut self, flow: FlowId, e: UibEntry) {
        let i = self.slot(flow);
        self.rows.write(i, e);
    }

    /// Read-modify-write a flow's registers.
    pub fn update<R>(&mut self, flow: FlowId, f: impl FnOnce(&mut UibEntry) -> R) -> R {
        let i = self.slot(flow);
        self.rows.update(i, f)
    }

    /// The active next hop data packets follow, if an active rule exists.
    pub fn active_next_hop(&self, flow: FlowId) -> Option<NodeId> {
        self.read(flow).active_next_hop
    }

    /// Every flow with an allocated row and that row, in unspecified order.
    /// A caller whose output depends on the order must sort what it
    /// collects.
    pub fn rows(&self) -> impl Iterator<Item = (FlowId, &UibEntry)> + '_ {
        self.index.iter().map(|(&f, &i)| (f, self.rows.read(i)))
    }

    /// All flows with allocated slots, sorted.
    pub fn flows(&self) -> Vec<FlowId> {
        let mut v: Vec<FlowId> = self.index.iter().map(|(&f, _)| f).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_des::SimRng;

    #[test]
    fn unknown_flow_reads_default() {
        let uib = Uib::new();
        let e = uib.read(FlowId(7));
        assert_eq!(e, UibEntry::default());
        assert!(!e.has_active_rule());
        assert!(!e.is_egress());
        assert!(!uib.knows(FlowId(7)));
    }

    #[test]
    fn write_read_roundtrip() {
        let mut uib = Uib::new();
        let entry = UibEntry {
            uim_version: Version(2),
            uim_distance: 3,
            staged_next_hop: Some(NodeId(4)),
            staged_upstream: Some(NodeId(1)),
            uim_kind: Some(UpdateKind::Dual),
            applied_version: Version(1),
            applied_distance: 2,
            active_next_hop: Some(NodeId(5)),
            active_upstream: None,
            old_version: Version(1),
            old_distance: 2,
            prev_version: Version(1),
            prev_next_hop: Some(NodeId(6)),
            flow_size: 1.5,
            priority: FlowPriority::High,
            last_update_type: Some(UpdateKind::Single),
            counter: 9,
        };
        uib.write(FlowId(3), entry);
        assert_eq!(uib.read(FlowId(3)), entry);
        assert!(uib.knows(FlowId(3)));
        assert_eq!(uib.active_next_hop(FlowId(3)), Some(NodeId(5)));
    }

    #[test]
    fn egress_role_detection() {
        let mut uib = Uib::new();
        uib.update(FlowId(0), |e| {
            e.applied_version = Version(1);
            e.active_next_hop = None;
        });
        assert!(uib.read(FlowId(0)).is_egress());
        uib.update(FlowId(0), |e| e.active_next_hop = Some(NodeId(2)));
        assert!(!uib.read(FlowId(0)).is_egress());
        assert!(uib.read(FlowId(0)).has_active_rule());
    }

    #[test]
    fn apply_single_resets_inheritance_layer() {
        let mut e = UibEntry {
            uim_version: Version(3),
            uim_distance: 4,
            staged_next_hop: Some(NodeId(9)),
            staged_upstream: Some(NodeId(8)),
            old_version: Version(1),
            old_distance: 0, // inherited by a past dual-layer run
            last_update_type: Some(UpdateKind::Dual),
            counter: 5,
            ..UibEntry::default()
        };
        e.apply_single();
        assert_eq!(e.applied_version, Version(3));
        assert_eq!(e.applied_distance, 4);
        assert_eq!(e.active_next_hop, Some(NodeId(9)));
        assert_eq!(e.active_upstream, Some(NodeId(8)));
        // Appendix B: old_* take the new values at a single-layer flip.
        assert_eq!(e.old_version, Version(3));
        assert_eq!(e.old_distance, 4);
        assert_eq!(e.last_update_type, Some(UpdateKind::Single));
        assert_eq!(e.counter, 0);
    }

    #[test]
    fn apply_dual_inherits_old_distance() {
        let mut e = UibEntry {
            uim_version: Version(2),
            uim_distance: 5,
            staged_next_hop: Some(NodeId(3)),
            old_version: Version(1),
            old_distance: 1,
            ..UibEntry::default()
        };
        e.apply_dual(Version(1), 0, 4);
        assert_eq!(e.applied_version, Version(2));
        assert_eq!(e.applied_distance, 5);
        // Inheritance layer takes the UNM's values, not the staged ones.
        assert_eq!(e.old_version, Version(1));
        assert_eq!(e.old_distance, 0);
        assert_eq!(e.counter, 4);
        assert_eq!(e.last_update_type, Some(UpdateKind::Dual));
    }

    #[test]
    fn update_closure_result_propagates() {
        let mut uib = Uib::new();
        let was_known = uib.update(FlowId(1), |e| {
            let known = e.has_active_rule();
            e.applied_version = Version(1);
            known
        });
        assert!(!was_known);
        assert!(uib.read(FlowId(1)).has_active_rule());
    }

    #[test]
    fn registers_grow_past_initial_sizing() {
        let mut uib = Uib::new();
        for i in 0..200 {
            uib.update(FlowId(i), |e| e.uim_distance = i);
        }
        assert_eq!(uib.read(FlowId(150)).uim_distance, 150);
        assert_eq!(uib.flows().len(), 200);
    }

    #[test]
    fn flows_are_sorted() {
        let mut uib = Uib::new();
        for i in [5u32, 1, 3] {
            uib.update(FlowId(i), |_| ());
        }
        assert_eq!(uib.flows(), vec![FlowId(1), FlowId(3), FlowId(5)]);
    }

    fn random_hop(rng: &mut SimRng) -> Option<NodeId> {
        rng.chance(0.5).then(|| NodeId(rng.next_u32() % 16))
    }

    fn random_kind(rng: &mut SimRng) -> Option<UpdateKind> {
        match rng.uniform_usize(3) {
            0 => None,
            1 => Some(UpdateKind::Single),
            _ => Some(UpdateKind::Dual),
        }
    }

    fn random_entry(rng: &mut SimRng) -> UibEntry {
        UibEntry {
            uim_version: Version(rng.next_u32() % 8),
            uim_distance: rng.next_u32(),
            staged_next_hop: random_hop(rng),
            staged_upstream: random_hop(rng),
            uim_kind: random_kind(rng),
            applied_version: Version(rng.next_u32() % 8),
            applied_distance: rng.next_u32(),
            active_next_hop: random_hop(rng),
            active_upstream: random_hop(rng),
            old_version: Version(rng.next_u32() % 8),
            old_distance: rng.next_u32(),
            prev_version: Version(rng.next_u32() % 8),
            prev_next_hop: random_hop(rng),
            flow_size: rng.uniform_range(0.0, 10.0),
            priority: if rng.chance(0.5) {
                FlowPriority::High
            } else {
                FlowPriority::Low
            },
            last_update_type: random_kind(rng),
            counter: rng.next_u32() % 32,
        }
    }

    /// Random `read`/`write`/`update`/`knows`/`flows` sequences over more
    /// flows than any initial sizing agree with a map of whole rows.
    #[test]
    fn matches_a_map_of_rows() {
        use p4update_des::propcheck::{cases, forall};
        use std::collections::BTreeMap;
        forall("uib_matches_a_map_of_rows", cases(32), |rng| {
            let mut uib = Uib::new();
            let mut oracle: BTreeMap<FlowId, UibEntry> = BTreeMap::new();
            for _ in 0..600 {
                let f = FlowId(rng.next_u32() % 150);
                let want = oracle.get(&f).copied().unwrap_or_default();
                match rng.uniform_usize(5) {
                    0 => {
                        // An unknown flow reads as the default row, and a
                        // read never allocates a slot.
                        assert_eq!(uib.read(f), want);
                        assert_eq!(uib.knows(f), oracle.contains_key(&f));
                        assert_eq!(uib.flows().len(), oracle.len());
                    }
                    1 => {
                        let e = random_entry(rng);
                        uib.write(f, e);
                        oracle.insert(f, e);
                    }
                    2 => {
                        // An update on an unknown flow starts from the
                        // default row.
                        let e = random_entry(rng);
                        let seen = uib.update(f, |row| {
                            let seen = *row;
                            row.applied_distance = e.applied_distance;
                            row.priority = e.priority;
                            seen
                        });
                        assert_eq!(seen, want);
                        oracle.insert(
                            f,
                            UibEntry {
                                applied_distance: e.applied_distance,
                                priority: e.priority,
                                ..want
                            },
                        );
                    }
                    3 => assert_eq!(uib.knows(f), oracle.contains_key(&f)),
                    _ => assert_eq!(uib.flows(), oracle.keys().copied().collect::<Vec<_>>()),
                }
            }
            for (&f, &e) in &oracle {
                assert_eq!(uib.read(f), e);
            }
        });
    }
}
