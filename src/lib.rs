//! # hj-des — a Rust reproduction of the PMAM'15 HJlib parallel DES study
//!
//! Umbrella crate re-exporting the workspace members:
//!
//! * [`hj`] — Habanero-style async/finish runtime with the paper's
//!   fine-grained trylock/release-all extension.
//! * [`circuit`] — logic-circuit substrate (gates, netlists, generators,
//!   stimuli, functional reference evaluator).
//! * [`des`] — the discrete event simulation engines (the paper's primary
//!   contribution): sequential workset, global-heap, HJ parallel, sharded,
//!   plus validation observables.
//! * [`galois`] — the Galois-style optimistic baseline runtime and engine.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

pub use circuit;
pub use des;
pub use galois;
pub use hj;
