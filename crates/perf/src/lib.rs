//! # p4update-perf
//!
//! Dependency-free performance harness. Drives gravity-model multi-flow
//! updates over four topology scales (Fig.-1-size, 64-, 512- and
//! 4096-switch synthetic fat-trees) for each system under test —
//! single-label and dual-label P4Update, ez-Segway, and the central
//! two-phase baseline — with streaming metrics sinks so memory stays
//! O(1) in packet count, and emits the `BENCH_p4update.json` baseline
//! (events/sec, peak queue depth, p50/p99 flow-completion times).
//!
//! `examples/perf.rs` is the CLI entry point; `scripts/check.sh` runs
//! its `--smoke` mode plus schema validation of the committed artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod runner;
pub mod workload;

pub use json::{strip_timing, validate_report, Json, EXPECTED_SYSTEMS, SCHEMA};
pub use runner::{ft32768_probe, run_bench, run_scale, scales, systems, LOAD_FACTOR};
pub use workload::{bench_plans, bench_workload};
