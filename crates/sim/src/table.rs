//! Dense per-switch storage for the hot forwarding path.
//!
//! The harness used to key switches with a `BTreeMap<NodeId, Switch>`;
//! every packet hop then paid an `O(log n)` tree walk. [`NodeId`]s are
//! dense indices assigned in creation order, so a `Vec` indexed by
//! `NodeId::index()` serves the same lookups in `O(1)` while iterating in
//! exactly the same (ascending `NodeId`) order — the replacement is
//! behavior-identical for every deterministic trace the corpus pins.

use p4update_dataplane::Switch;
use p4update_net::{NodeId, Topology};
use std::ops::{Index, IndexMut};

/// All switches of a simulated network, indexed by [`NodeId`].
pub struct SwitchTable {
    switches: Vec<Switch>,
}

impl SwitchTable {
    /// Build one switch per topology node via `make`, in `NodeId` order.
    pub fn build(topo: &Topology, mut make: impl FnMut(NodeId) -> Switch) -> Self {
        let switches: Vec<Switch> = topo
            .node_ids()
            .enumerate()
            .map(|(i, id)| {
                assert_eq!(i, id.index(), "topology node ids must be dense");
                make(id)
            })
            .collect();
        SwitchTable { switches }
    }

    /// Number of switches.
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// True when the table holds no switches.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }

    /// The switch at `id`, if `id` is in range.
    pub fn get(&self, id: NodeId) -> Option<&Switch> {
        self.switches.get(id.index())
    }

    /// Mutable access to the switch at `id`, if `id` is in range.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut Switch> {
        self.switches.get_mut(id.index())
    }

    /// All switches in ascending `NodeId` order.
    pub fn values(&self) -> impl Iterator<Item = &Switch> {
        self.switches.iter()
    }

    /// Mutable iteration in ascending `NodeId` order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Switch> {
        self.switches.iter_mut()
    }

    /// `(id, switch)` pairs in ascending `NodeId` order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Switch)> {
        self.switches
            .iter()
            .enumerate()
            .map(|(i, sw)| (NodeId(i as u32), sw))
    }
}

impl Index<NodeId> for SwitchTable {
    type Output = Switch;
    fn index(&self, id: NodeId) -> &Switch {
        &self.switches[id.index()]
    }
}

impl IndexMut<NodeId> for SwitchTable {
    fn index_mut(&mut self, id: NodeId) -> &mut Switch {
        &mut self.switches[id.index()]
    }
}

// `map[&node]` was the `BTreeMap` indexing syntax; keeping it valid makes
// the dense swap a drop-in for existing scenario and test code.
impl Index<&NodeId> for SwitchTable {
    type Output = Switch;
    fn index(&self, id: &NodeId) -> &Switch {
        &self.switches[id.index()]
    }
}

impl IndexMut<&NodeId> for SwitchTable {
    fn index_mut(&mut self, id: &NodeId) -> &mut Switch {
        &mut self.switches[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_core::P4UpdateLogic;
    use p4update_net::topologies;

    fn table() -> SwitchTable {
        let topo = topologies::fig1();
        SwitchTable::build(&topo, |id| {
            Switch::new(id, &topo, Box::new(P4UpdateLogic::new()))
        })
    }

    #[test]
    fn lookup_and_iteration_follow_node_id_order() {
        let t = table();
        assert_eq!(t.len(), 8);
        assert!(!t.is_empty());
        assert!(t.get(NodeId(7)).is_some());
        assert!(t.get(NodeId(8)).is_none());
        let ids: Vec<NodeId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, (0u32..8).map(NodeId).collect::<Vec<_>>());
        assert_eq!(t.values().count(), 8);
    }

    #[test]
    fn both_index_syntaxes_reach_the_same_switch() {
        let mut t = table();
        let id = NodeId(3);
        assert_eq!(t[id].id(), t[&id].id());
        t[&id].state.uib.update(p4update_net::FlowId(0), |e| {
            e.flow_size = 2.5;
        });
        assert_eq!(t[id].state.uib.read(p4update_net::FlowId(0)).flow_size, 2.5);
    }
}
