//! # p4update-net
//!
//! Network topology substrate for the P4Update reproduction: the switch
//! graph with latency/capacity-annotated links, path algorithms (Dijkstra,
//! Yen's k-shortest), the flow/update model of the paper's §5, and all the
//! evaluation topologies (Fig. 1/Fig. 2 synthetics, fat-tree, B4, Internet2,
//! AttMpls, Chinanet).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod geo;
pub mod graph;
pub mod path;
pub mod topologies;

pub use flow::{Flow, FlowId, FlowUpdate, Version};
pub use graph::{DirectedLink, Link, LinkId, Node, NodeId, Topology, TopologyBuilder};
pub use path::{hop_distances_from, k_shortest_paths, latency_distances_from, shortest_path, Path};
