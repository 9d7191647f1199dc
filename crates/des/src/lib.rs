//! # p4update-des
//!
//! A deterministic discrete-event simulation (DES) engine, the execution
//! substrate of the P4Update reproduction.
//!
//! The paper evaluates P4Update on BMv2 software switches under Mininet; this
//! crate replaces that testbed with a simulator in which all latency sources
//! (link propagation, control-plane queueing, rule-installation delay) are
//! explicit model parameters. A run is a pure function of the world's initial
//! state and a `u64` seed, which is what lets the harness replay the paper's
//! adversarial scenarios — reordered, delayed, or lost control messages —
//! exactly.
//!
//! ## Pieces
//!
//! - [`SimTime`] / [`SimDuration`]: integer-nanosecond simulated time.
//! - [`World`] / [`Simulation`] / [`Scheduler`]: the event loop. Ties are
//!   broken FIFO by default, so same-instant events are delivered in
//!   scheduling order.
//! - [`EventQueue`] / [`QueueBackend`]: pluggable event storage — a
//!   calendar queue (O(1) amortized, the default) and the original binary
//!   heap, extracting the identical `(time, seq)` total order.
//! - [`Chooser`] / [`ChoiceKind`]: the choice-point seam. Tie-breaks (and
//!   world-defined decisions like per-message faults) route through a
//!   pluggable policy, which is how the `p4update-explore` crate drives
//!   the engine through many interleavings and replays recorded ones.
//! - [`SimRng`]: seedable RNG with the exponential / truncated-normal
//!   samplers the paper's timing model needs (§9.1).
//! - [`Samples`]: empirical CDFs, means, confidence intervals for the
//!   experiment harness.
//! - [`propcheck`]: a tiny in-tree randomized property-test driver (seeded
//!   cases, reproducible failures) used by the repository's test suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod choice;
mod engine;
pub mod propcheck;
mod queue;
mod rng;
mod stats;
mod time;

pub use choice::{ChoiceKind, Chooser, FifoChooser};
pub use engine::{RunOutcome, Scheduler, Simulation, World};
pub use queue::{CalendarQueue, EventQueue, HeapQueue, QueueBackend};
pub use rng::SimRng;
pub use stats::{Reservoir, Samples};
pub use time::{SimDuration, SimTime};
