//! The repo benchmark: four workloads, eight end-to-end metrics, and a
//! per-layer traced run, all measured from outside the product through its
//! public API. See `README.md` beside this crate.

pub mod gen;
pub mod harness;
pub mod json;
pub mod lab;
pub mod span;
pub mod stats;
pub mod workloads;
