//! # qld-harness
//!
//! Experiment harness for the reproduction of Gottlob's *Deciding Monotone Duality …
//! in Quadratic Logspace* (PODS 2013): shared workloads, the experiment tables E2–E9
//! and E12 (see `DESIGN.md` and `EXPERIMENTS.md`), and the Figure 1 generator.  The
//! serving layers (engine, transport, streaming, fleet) are measured by `perfbench/`
//! and tested by the engine and fleet suites, not by experiment tables.
//!
//! Binaries:
//!
//! * `experiments` — prints every experiment table (`--exp eN` to select, `--tsv` for
//!   machine-readable output);
//! * `figure1` — regenerates the complexity-class diagram (ASCII or `--dot`).
//!
//! The workspace-level `examples/` and `tests/` directories are attached to this crate,
//! so `cargo run -p qld-harness --example quickstart` and `cargo test -p qld-harness`
//! exercise them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figure;
pub mod hotpath;
pub mod table;
pub mod workloads;

pub use table::Table;
