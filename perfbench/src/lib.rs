//! The repository's layered benchmark. See `README.md` in this directory
//! for the workloads, the metrics and which layer should move which
//! metric; `run.py` is the entry point.

pub mod crypto;
pub mod fig7;
pub mod host;
pub mod metrics;
pub mod protocol;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod workloads;
