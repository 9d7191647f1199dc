//! The Central baseline (§9.1 "Centralized Updates"): the state-of-the-art
//! centralized approach in the spirit of Mahajan–Wattenhofer/Dionysus
//! dependency graphs.
//!
//! The controller greedily computes, per round, the set of nodes that can
//! update in parallel without breaking blackhole/loop freedom (and without
//! violating capacity when congestion awareness is on), pushes their rules,
//! waits for every acknowledgement, and repeats. Every round costs a
//! control-plane round trip plus controller queueing — the overhead
//! P4Update eliminates.

use p4update_dataplane::{
    capacity_fits, ControllerLogic, CtrlEffect, Effect, Endpoint, SwitchLogic, SwitchState,
};
use p4update_des::SimTime;
use p4update_messages::{CentralMsg, Message};
use p4update_net::{FlowId, FlowUpdate, NodeId, Version};
use std::collections::{BTreeMap, BTreeSet};

/// Per-flow migration state at the controller.
#[derive(Debug, Clone)]
struct FlowMigration {
    update: FlowUpdate,
    /// Nodes whose new rule is installed and acknowledged.
    applied: BTreeSet<NodeId>,
    /// Nodes scheduled in the in-flight round, awaiting acks.
    in_flight: BTreeSet<NodeId>,
    round: u32,
    complete: bool,
}

impl FlowMigration {
    /// The next hop of `node` in the mixed state where `extra` is assumed
    /// updated on top of the acknowledged set: new rule if updated, else
    /// the old rule if the node is on the old path.
    fn mixed_next_hop(&self, node: NodeId, extra: Option<NodeId>) -> Option<NodeId> {
        if self.applied.contains(&node) || extra == Some(node) {
            return self.update.new_path.successor(node);
        }
        self.update
            .old_path
            .as_ref()
            .and_then(|p| p.successor(node))
    }

    /// Whether `node` holds any rule (old or new) in the acknowledged
    /// state. Nodes scheduled in the same round may apply in any order, so
    /// no optimism about them is allowed.
    fn has_rule(&self, node: NodeId) -> bool {
        if self.applied.contains(&node) {
            return true;
        }
        if node == self.update.new_path.egress() {
            return true; // egress terminates in every configuration
        }
        self.update
            .old_path
            .as_ref()
            .is_some_and(|p| p.contains(node))
    }

    /// Can `node` switch to its new rule given only the acknowledged
    /// rounds, without creating a blackhole or a loop? Judging each
    /// candidate against the acknowledged state alone keeps every
    /// intra-round interleaving safe.
    fn safe_to_update(&self, node: NodeId) -> bool {
        // Blackhole freedom: the node's new parent must already hold a
        // rule (same-round peers may apply later than this node).
        if let Some(parent) = self.update.new_path.successor(node) {
            if !self.has_rule(parent) {
                return false;
            }
        }
        // Loop freedom: the mixed forwarding function with `node` updated
        // must be acyclic from every ruled node (packets can be in flight
        // anywhere on the old path).
        let limit = self.update.new_path.nodes().len()
            + self.update.old_path.as_ref().map_or(0, |p| p.nodes().len())
            + 2;
        let starts: Vec<NodeId> = self
            .update
            .new_path
            .nodes()
            .iter()
            .chain(
                self.update
                    .old_path
                    .as_ref()
                    .map_or([].as_slice(), |p| p.nodes())
                    .iter(),
            )
            .copied()
            .collect();
        let egress = self.update.new_path.egress();
        for start in starts {
            let mut cur = start;
            let mut steps = 0usize;
            while cur != egress {
                let Some(next) = self.mixed_next_hop(cur, Some(node)) else {
                    break; // no rule: a transient blackhole, not a loop
                };
                cur = next;
                steps += 1;
                if steps > limit {
                    return false; // walked into a cycle
                }
            }
        }
        true
    }
}

/// The Central controller.
pub struct CentralController {
    flows: BTreeMap<FlowId, FlowMigration>,
    /// Flows that are neither complete nor waiting on acks: exactly the
    /// flows whose last `schedule_round` selected no node. Retrying only
    /// these, in `FlowId` order, is what a scan of `flows` would do.
    stalled: BTreeSet<FlowId>,
    /// Global per-directed-link free capacity (controller's view); present
    /// only when congestion awareness is enabled.
    capacity: Option<BTreeMap<(NodeId, NodeId), f64>>,
    /// Completed `(flow, version)` pairs for the harness. Central does not
    /// track versions; it reports `Version(2)` (the post-update config).
    pub completed: Vec<(FlowId, Version)>,
}

impl CentralController {
    /// Controller without congestion awareness (blackhole/loop only).
    pub fn new() -> Self {
        CentralController {
            flows: BTreeMap::new(),
            stalled: BTreeSet::new(),
            capacity: None,
            completed: Vec::new(),
        }
    }

    /// Controller with a global capacity view seeded from link capacities
    /// minus the old paths' allocations.
    pub fn with_congestion(capacity: BTreeMap<(NodeId, NodeId), f64>) -> Self {
        CentralController {
            flows: BTreeMap::new(),
            stalled: BTreeSet::new(),
            capacity: Some(capacity),
            completed: Vec::new(),
        }
    }

    /// Greedily select the nodes of the next round for `flow` and emit
    /// their installation commands.
    fn schedule_round(&mut self, flow: FlowId, out: &mut Vec<CtrlEffect>) {
        let Some(m) = self.flows.get(&flow) else {
            return;
        };
        if m.complete || !m.in_flight.is_empty() {
            return;
        }
        // The flow completes, selects nodes, or stalls again below.
        self.stalled.remove(&flow);
        let pending: Vec<NodeId> = m
            .update
            .nodes_to_update()
            .filter(|n| !m.applied.contains(n))
            .collect();
        if pending.is_empty() {
            let m = self.flows.get_mut(&flow).expect("checked above");
            m.complete = true;
            self.completed.push((flow, Version(2)));
            out.push(CtrlEffect::UpdateComplete {
                flow,
                version: Version(2),
            });
            return;
        }

        // Greedy selection, scanning from the egress end (upstream nodes
        // depend on downstream ones).
        let mut selected: BTreeSet<NodeId> = BTreeSet::new();
        for &node in pending.iter().rev() {
            if !m.safe_to_update(node) {
                continue;
            }
            // Capacity feasibility under congestion awareness: the move
            // claims the new outgoing link before releasing the old one.
            if let Some(cap) = &self.capacity {
                let new_hop = m.update.new_path.successor(node);
                let old_hop = m.update.old_path.as_ref().and_then(|p| p.successor(node));
                if let Some(nh) = new_hop {
                    if Some(nh) != old_hop {
                        let free = cap.get(&(node, nh)).copied().unwrap_or(f64::INFINITY);
                        if !capacity_fits(free, m.update.size) {
                            continue;
                        }
                    }
                }
            }
            selected.insert(node);
            // Reserve immediately so later selections in this round see it.
            if let Some(cap) = &mut self.capacity {
                let new_hop = m.update.new_path.successor(node);
                let old_hop = m.update.old_path.as_ref().and_then(|p| p.successor(node));
                if let (Some(nh), true) = (new_hop, new_hop != old_hop) {
                    if let Some(c) = cap.get_mut(&(node, nh)) {
                        *c -= m.update.size;
                    }
                }
            }
        }

        if selected.is_empty() {
            // Deadlocked (e.g., capacity-infeasible order). Leave pending;
            // progress may resume when other flows release capacity.
            self.stalled.insert(flow);
            return;
        }

        let m = self.flows.get_mut(&flow).expect("checked above");
        m.round += 1;
        let round = m.round;
        m.in_flight = selected.clone();
        let size = m.update.size;
        let hops: Vec<(NodeId, Option<NodeId>)> = selected
            .iter()
            .map(|&n| (n, m.update.new_path.successor(n)))
            .collect();
        for (node, next_hop) in hops {
            out.push(CtrlEffect::Send {
                to: node,
                msg: Message::Central(CentralMsg::Install {
                    flow,
                    next_hop,
                    round,
                    size,
                }),
            });
        }
    }

    /// Retry rounds for flows that made no progress (capacity waits), in
    /// `FlowId` order. Each retry edits `stalled`, hence the snapshot.
    fn reschedule_stalled(&mut self, out: &mut Vec<CtrlEffect>) {
        let stalled: Vec<FlowId> = self.stalled.iter().copied().collect();
        for f in stalled {
            self.schedule_round(f, out);
        }
    }
}

impl Default for CentralController {
    fn default() -> Self {
        Self::new()
    }
}

impl ControllerLogic for CentralController {
    fn start_update(&mut self, _now: SimTime, updates: &[FlowUpdate], out: &mut Vec<CtrlEffect>) {
        for u in updates {
            self.flows.insert(
                u.flow,
                FlowMigration {
                    update: u.clone(),
                    applied: BTreeSet::new(),
                    in_flight: BTreeSet::new(),
                    round: 0,
                    complete: false,
                },
            );
        }
        let flows: Vec<FlowId> = updates.iter().map(|u| u.flow).collect();
        for f in flows {
            self.schedule_round(f, out);
        }
    }

    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Message, out: &mut Vec<CtrlEffect>) {
        let Message::Central(CentralMsg::Ack { flow, node, round }) = msg else {
            return;
        };
        debug_assert_eq!(from, node);
        let Some(m) = self.flows.get_mut(&flow) else {
            return;
        };
        if round != m.round {
            return; // stale ack
        }
        if m.in_flight.remove(&node) {
            m.applied.insert(node);
            // Release the old outgoing link once the node left it.
            if let Some(cap) = &mut self.capacity {
                let old_hop = m.update.old_path.as_ref().and_then(|p| p.successor(node));
                let new_hop = m.update.new_path.successor(node);
                if let (Some(oh), true) = (old_hop, old_hop != new_hop) {
                    if let Some(c) = cap.get_mut(&(node, oh)) {
                        *c += m.update.size;
                    }
                }
            }
        }
        if m.in_flight.is_empty() {
            self.schedule_round(flow, out);
            // Capacity released by this round may unblock other flows.
            if self.capacity.is_some() {
                self.reschedule_stalled(out);
            }
        }
    }
}

/// The Central switch logic: install on command, acknowledge on completion.
#[derive(Debug, Default)]
pub struct CentralSwitchLogic {
    pending: BTreeMap<u64, (FlowId, Option<NodeId>, u32, f64)>,
    next_token: u64,
}

impl CentralSwitchLogic {
    /// Fresh logic.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SwitchLogic for CentralSwitchLogic {
    fn on_control(
        &mut self,
        _now: SimTime,
        _state: &mut SwitchState,
        _from: Endpoint,
        msg: Message,
        out: &mut Vec<Effect>,
    ) {
        let Message::Central(CentralMsg::Install {
            flow,
            next_hop,
            round,
            size,
        }) = msg
        else {
            return;
        };
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, (flow, next_hop, round, size));
        out.push(Effect::BeginInstall { flow, token });
    }

    fn on_installed(
        &mut self,
        _now: SimTime,
        state: &mut SwitchState,
        flow: FlowId,
        token: u64,
        out: &mut Vec<Effect>,
    ) {
        let Some((f, next_hop, round, size)) = self.pending.remove(&token) else {
            return;
        };
        debug_assert_eq!(f, flow);
        // Move capacity accounting from the old link to the new one.
        let entry = state.uib.read(flow);
        if let Some(old) = entry.active_next_hop {
            if Some(old) != next_hop {
                state.release_capacity(old, entry.flow_size.max(size));
            }
        }
        if let Some(new) = next_hop {
            if entry.active_next_hop != Some(new) {
                state.reserve_capacity(new, size);
            }
        }
        state.uib.update(flow, |e| {
            e.applied_version = Version(e.applied_version.0.max(1) + 1);
            e.active_next_hop = next_hop;
            if e.flow_size == 0.0 {
                e.flow_size = size;
            }
        });
        out.push(Effect::SendController {
            msg: Message::Central(CentralMsg::Ack {
                flow,
                node: state.id,
                round,
            }),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4update_net::Path;

    fn path(ids: &[u32]) -> Path {
        Path::new(ids.iter().map(|&i| NodeId(i)).collect())
    }

    fn update(old: &[u32], new: &[u32]) -> FlowUpdate {
        FlowUpdate::new(FlowId(0), Some(path(old)), path(new), 1.0)
    }

    fn sent_nodes(effects: &[CtrlEffect]) -> Vec<NodeId> {
        effects
            .iter()
            .filter_map(|e| match e {
                CtrlEffect::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn first_round_covers_safe_nodes() {
        // Old 0-1-5, new 0-2-3-5: 2 and 3 are fresh (need rules bottom-up);
        // 0 must wait for 2.
        let mut c = CentralController::new();
        let mut out = Vec::new();
        c.start_update(
            SimTime::ZERO,
            &[update(&[0, 1, 5], &[0, 2, 3, 5])],
            &mut out,
        );
        // Round 1: node 3 can point at 5 (egress, has rule). Node 2's
        // parent 3 has no rule yet; node 0's parent 2 neither.
        assert_eq!(sent_nodes(&out), vec![NodeId(3)]);
    }

    #[test]
    fn rounds_progress_with_acks() {
        let mut c = CentralController::new();
        let mut out = Vec::new();
        c.start_update(
            SimTime::ZERO,
            &[update(&[0, 1, 5], &[0, 2, 3, 5])],
            &mut out,
        );
        let mut round = 1;
        let mut total_rounds = 1;
        loop {
            let nodes = sent_nodes(&out);
            if nodes.is_empty() {
                break;
            }
            out.clear();
            for n in nodes {
                c.on_message(
                    SimTime::ZERO,
                    n,
                    Message::Central(CentralMsg::Ack {
                        flow: FlowId(0),
                        node: n,
                        round,
                    }),
                    &mut out,
                );
            }
            if out
                .iter()
                .any(|e| matches!(e, CtrlEffect::UpdateComplete { .. }))
            {
                break;
            }
            round += 1;
            total_rounds += 1;
            assert!(total_rounds < 10, "did not converge");
        }
        // Fresh chain of 2 + ingress flip = 3 rounds.
        assert_eq!(total_rounds, 3);
        assert_eq!(c.completed, vec![(FlowId(0), Version(2))]);
    }

    #[test]
    fn loop_risk_defers_upstream_node() {
        // Fig. 1: v2's new parent v3 is fresh; updating v2 before the
        // backward dependency resolves would loop. Round 1 must not
        // contain v2 (whose flip creates 2->3->4->2 with old rules).
        let u = update(&[0, 4, 2, 7], &[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut c = CentralController::new();
        let mut out = Vec::new();
        c.start_update(SimTime::ZERO, &[u], &mut out);
        let nodes = sent_nodes(&out);
        assert!(!nodes.contains(&NodeId(2)), "round 1 was {nodes:?}");
        // Downstream fresh nodes adjacent to ruled parents do go.
        assert!(nodes.contains(&NodeId(6)));
    }

    #[test]
    fn stale_acks_are_ignored() {
        let mut c = CentralController::new();
        let mut out = Vec::new();
        c.start_update(
            SimTime::ZERO,
            &[update(&[0, 1, 5], &[0, 2, 3, 5])],
            &mut out,
        );
        out.clear();
        c.on_message(
            SimTime::ZERO,
            NodeId(3),
            Message::Central(CentralMsg::Ack {
                flow: FlowId(0),
                node: NodeId(3),
                round: 99,
            }),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn congestion_awareness_defers_capacity_violations() {
        // Node 0 moves flow onto link (0,2) with free capacity 0.5. Neither
        // a size of 1.0 nor a NaN or negative one fits (a negative one
        // would grow the link's free capacity).
        for size in [1.0, f64::NAN, -1.0] {
            let mut cap = BTreeMap::new();
            cap.insert((NodeId(0), NodeId(2)), 0.5);
            let mut c = CentralController::with_congestion(cap);
            let u = FlowUpdate::new(FlowId(0), Some(path(&[0, 1, 2])), path(&[0, 2]), size);
            let mut out = Vec::new();
            c.start_update(SimTime::ZERO, &[u], &mut out);
            // The only node to update is 0, and it does not fit.
            assert!(sent_nodes(&out).is_empty(), "size {size}");
            let free = c.capacity.as_ref().map(|m| m[&(NodeId(0), NodeId(2))]);
            assert_eq!(free, Some(0.5), "size {size}");
        }
    }

    fn install(to: u32, flow: u32, next_hop: u32) -> CtrlEffect {
        CtrlEffect::Send {
            to: NodeId(to),
            msg: Message::Central(CentralMsg::Install {
                flow: FlowId(flow),
                next_hop: Some(NodeId(next_hop)),
                round: 1,
                size: 1.0,
            }),
        }
    }

    fn done(flow: u32) -> CtrlEffect {
        CtrlEffect::UpdateComplete {
            flow: FlowId(flow),
            version: Version(2),
        }
    }

    fn ack(c: &mut CentralController, flow: u32, node: u32) -> Vec<CtrlEffect> {
        let mut out = Vec::new();
        c.on_message(
            SimTime::ZERO,
            NodeId(node),
            Message::Central(CentralMsg::Ack {
                flow: FlowId(flow),
                node: NodeId(node),
                round: 1,
            }),
            &mut out,
        );
        out
    }

    #[test]
    fn stalled_flows_resume_in_flow_id_order_once_capacity_returns() {
        // Flow 0 moves off links (0,1) and (5,6), which have no room left;
        // flow 1 wants (0,1) and flow 2 wants (5,6), each with room for
        // one flow once flow 0 has left.
        let mut cap = BTreeMap::new();
        cap.insert((NodeId(0), NodeId(1)), 0.0);
        cap.insert((NodeId(5), NodeId(6)), 0.0);
        let mut c = CentralController::with_congestion(cap);
        let flow = |id: u32, old: &[u32], new: &[u32]| {
            FlowUpdate::new(FlowId(id), Some(path(old)), path(new), 1.0)
        };
        let mut out = Vec::new();
        // Submitted in reverse id order: both later flows stall at once.
        c.start_update(
            SimTime::ZERO,
            &[
                flow(2, &[5, 7, 6], &[5, 6]),
                flow(1, &[0, 2, 1], &[0, 1]),
                flow(0, &[0, 1, 5, 6, 9], &[0, 5, 9]),
            ],
            &mut out,
        );
        assert_eq!(out, vec![install(0, 0, 5), install(5, 0, 9)]);

        // Half of flow 0's round frees (0,1), but no retry runs before the
        // round completes.
        assert_eq!(ack(&mut c, 0, 0), vec![]);
        // The last ack completes flow 0; both stalled flows then resume in
        // FlowId order, not submission order.
        assert_eq!(
            ack(&mut c, 0, 5),
            vec![done(0), install(0, 1, 1), install(5, 2, 6)]
        );
        assert_eq!(ack(&mut c, 2, 5), vec![done(2)]);
        assert_eq!(ack(&mut c, 1, 0), vec![done(1)]);
        assert_eq!(
            c.completed,
            vec![
                (FlowId(0), Version(2)),
                (FlowId(2), Version(2)),
                (FlowId(1), Version(2))
            ]
        );
    }

    /// The stalled set by definition: a scan of every flow.
    fn scanned_stalled(c: &CentralController) -> BTreeSet<FlowId> {
        c.flows
            .iter()
            .filter(|(_, m)| !m.complete && m.in_flight.is_empty())
            .map(|(&f, _)| f)
            .collect()
    }

    /// Acks the controller's `Send`s ask for, queued for delivery.
    fn queue_acks(out: &[CtrlEffect], acks: &mut Vec<(FlowId, NodeId, u32)>) {
        for e in out {
            if let CtrlEffect::Send {
                to,
                msg: Message::Central(CentralMsg::Install { flow, round, .. }),
            } = e
            {
                acks.push((*flow, *to, *round));
            }
        }
    }

    #[test]
    fn stalled_index_matches_a_full_scan() {
        use p4update_des::propcheck::{cases, forall};
        use p4update_net::{k_shortest_paths, topologies};
        // Rounds sent to a flow that was stalled just before: the cases
        // must reach the resume path, not only the stall.
        let resumed = std::cell::Cell::new(0u32);
        forall("central_stalled_index", cases(128), |rng| {
            let n = 4 + rng.uniform_usize(5);
            let extra = 1 + rng.uniform_usize(n);
            let topo = topologies::random_connected(rng, n, extra);
            // Free capacity between none and about two flows per direction.
            let mut cap = BTreeMap::new();
            for l in topo.links() {
                cap.insert((l.a, l.b), rng.uniform_range(0.0, 2.5));
                cap.insert((l.b, l.a), rng.uniform_range(0.0, 2.5));
            }
            let mut ids: Vec<u32> = (0..16).collect();
            rng.shuffle(&mut ids);
            let mut updates = Vec::new();
            for &id in &ids[..2 + rng.uniform_usize(9)] {
                let src = NodeId(rng.uniform_usize(n) as u32);
                let dst = NodeId(rng.uniform_usize(n) as u32);
                let mut paths = k_shortest_paths(&topo, src, dst, 2);
                if paths.len() < 2 {
                    continue;
                }
                if rng.chance(0.5) {
                    paths.swap(0, 1);
                }
                let new = paths.pop().expect("two paths");
                let old = paths.pop();
                updates.push(FlowUpdate::new(
                    FlowId(id),
                    old,
                    new,
                    rng.uniform_range(0.5, 1.5),
                ));
            }
            // Some cases start a second batch part-way through the first.
            let split = rng.uniform_usize(updates.len() + 1);
            let (first, second) = updates.split_at(split);
            let mut c = CentralController::with_congestion(cap);
            let mut acks = Vec::new();
            let mut delivered = Vec::new();
            let mut out = Vec::new();
            c.start_update(SimTime::ZERO, first, &mut out);
            assert_eq!(c.stalled, scanned_stalled(&c));
            queue_acks(&out, &mut acks);
            let mut second_started = second.is_empty();
            while !acks.is_empty() || !second_started {
                let before = c.stalled.clone();
                out.clear();
                if !second_started && (acks.is_empty() || rng.chance(0.2)) {
                    c.start_update(SimTime::ZERO, second, &mut out);
                    second_started = true;
                } else {
                    // Deliver a random queued ack; now and then replay an
                    // already delivered one (duplicate or stale).
                    let (flow, node, round) = if !delivered.is_empty() && rng.chance(0.1) {
                        *rng.choose(&delivered).expect("non-empty")
                    } else {
                        let ack = acks.swap_remove(rng.uniform_usize(acks.len()));
                        delivered.push(ack);
                        ack
                    };
                    let msg = Message::Central(CentralMsg::Ack { flow, node, round });
                    c.on_message(SimTime::ZERO, node, msg, &mut out);
                }
                assert_eq!(c.stalled, scanned_stalled(&c));
                let from = acks.len();
                queue_acks(&out, &mut acks);
                let back = acks[from..].iter().filter(|(f, ..)| before.contains(f));
                resumed.set(resumed.get() + back.count() as u32);
            }
        });
        assert!(resumed.get() > 0, "no case resumed a stalled flow");
    }

    #[test]
    fn switch_logic_installs_and_acks() {
        use p4update_dataplane::Switch;
        use p4update_des::SimDuration;
        use p4update_net::TopologyBuilder;
        let mut b = TopologyBuilder::new("t");
        let v: Vec<_> = (0..3).map(|i| b.add_node(format!("n{i}"))).collect();
        b.add_link(v[0], v[1], SimDuration::from_millis(1), 10.0);
        b.add_link(v[1], v[2], SimDuration::from_millis(1), 10.0);
        let t = b.build();
        let mut sw = Switch::new(NodeId(1), &t, Box::new(CentralSwitchLogic::new()));
        let effects = sw.handle_message(
            SimTime::ZERO,
            Endpoint::Controller,
            Message::Central(CentralMsg::Install {
                flow: FlowId(0),
                next_hop: Some(NodeId(2)),
                round: 1,
                size: 1.0,
            }),
        );
        let token = match effects[0] {
            Effect::BeginInstall { token, .. } => token,
            ref o => panic!("unexpected {o:?}"),
        };
        let effects = sw.handle_installed(SimTime::ZERO, FlowId(0), token);
        assert!(matches!(
            &effects[0],
            Effect::SendController {
                msg: Message::Central(CentralMsg::Ack { node, round: 1, .. })
            } if *node == NodeId(1)
        ));
        assert_eq!(
            sw.state.uib.read(FlowId(0)).active_next_hop,
            Some(NodeId(2))
        );
    }
}
