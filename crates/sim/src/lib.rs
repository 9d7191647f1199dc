//! # p4update-sim
//!
//! The experiment harness: assembles switches (with any system's update
//! logic), the controller, and the timing model of §9.1 into a
//! deterministic discrete-event world; injects faults; checks the paper's
//! three consistency properties after every event; and collects the
//! measurements every figure is built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod config;
pub mod metrics;
pub mod network;
pub mod table;

pub use checker::{check, FlowSpec, Violation};
pub use config::{
    ByzantineConfig, ControlLatency, FaultChoiceConfig, FaultConfig, InstallDelay,
    ReplicationConfig, SimConfig, TimingConfig,
};
pub use metrics::{Metrics, MetricsCounts, MetricsSink, NullMetrics, StreamingMetrics};
pub use network::{
    simulation, ByzDisposition, ByzOutcome, ControllerImpl, Event, GateStats, NetworkSim,
    PathTables, System,
};
pub use p4update_messages::ByzVector;
pub use table::SwitchTable;
