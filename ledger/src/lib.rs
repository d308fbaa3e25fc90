//! # amoeba-ledger
//!
//! The layer ledger: one benchmark of Amoeba's serving and training
//! stacks that reports end-to-end metrics from untraced runs and
//! per-layer metrics from traced ones. It changes no library code: every
//! layer is timed from outside, through seams the libraries already
//! expose (see [`wrappers`] and [`train`]). `README.md` beside this crate
//! lists every metric, the layer predictions and how to read a traced
//! run.

pub mod cost;
pub mod host;
pub mod report;
pub mod train;
pub mod workloads;
pub mod wrappers;
