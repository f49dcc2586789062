//! # pfp-bench
//!
//! The binaries that reproduce the paper's tables and figures
//! (`src/bin/repro_*.rs`).  Wall-time measurements live in the separate
//! `perfbench` package.
//!
//! This library crate only hosts the tiny bits shared by those binaries and
//! by the workspace's integration tests: a dependency-free command-line flag
//! parser, plain-text table rendering, the evaluation-counting objective
//! decorator used by the convergence tests, and the heap-tracking allocator
//! behind the bounded-memory test ([`mem`]).

pub mod cli;
pub mod counting;
pub mod mem;
pub mod table;

pub use cli::Args;
pub use counting::CountingObjective;
pub use table::render_table;
