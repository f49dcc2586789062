//! # pfp-bench
//!
//! The `repro` binary that reproduces the paper's tables and figures
//! (`repro <target>`, see [`cli`]).  Wall-time measurements live in the
//! separate `perfbench` package.
//!
//! This library crate hosts what that binary prints, one function per
//! table or figure behind [`repro::run`], so a test can call it without
//! spawning a process.  It also hosts the bits shared with the workspace's
//! integration tests: a dependency-free argument parser, plain-text table
//! rendering, the evaluation-counting objective decorator used by the
//! convergence tests, and the heap-tracking allocator behind the
//! bounded-memory test ([`mem`]).

pub mod cli;
pub mod counting;
pub mod mem;
pub mod repro;
pub mod table;

pub use cli::Args;
pub use counting::CountingObjective;
pub use table::render_table;
