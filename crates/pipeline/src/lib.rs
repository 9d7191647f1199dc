//! # p4update-pipeline
//!
//! P4 data-plane abstractions (§2.1 of the paper), the building blocks the
//! switch model composes:
//!
//! - [`RegisterArray`]: stateful per-flow storage, the mechanism behind the
//!   UIB (Table 1).
//! - [`ExactTable`]: match-action units with control-plane-installed entries
//!   and finite capacity.
//! - [`ResubmitQueue`]: data-plane waiting via packet resubmission
//!   (Appendix B — "P4Update uses packet resubmission to check repeatedly if
//!   UIM has arrived while processing UNM").
//!
//! The abstractions are deliberately target-independent, mirroring P4's own
//! portability story; the dataplane crate instantiates them into a
//! BMv2-like software switch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod primitives;
mod register;
mod table;

pub use primitives::ResubmitQueue;
pub use register::RegisterArray;
pub use table::{ExactTable, TableError, TableHit};
