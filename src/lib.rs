//! Workspace facade for the PODC 2013 LLX/SCX reproduction.
//!
//! The real implementation lives in the member crates; this crate exists
//! to own the repository-level integration tests (`tests/`) and the
//! worked examples (`examples/`). It re-exports the member crates so the
//! examples and downstream users can reach everything through one
//! dependency.

pub use linearize;
pub use llx_scx;
pub use multiset;
pub use mwcas;
pub use trees;
pub use workloads;
