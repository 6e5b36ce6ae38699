//! The repository's benchmark: three named workloads, each driven by a
//! single-threaded loop built from the library's public layer calls, so
//! every layer can be timed from outside by wrapping its calls.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how layers map to span names.

pub mod episode;
pub mod events;
pub mod runner;
pub mod scale;
pub mod trace;
pub mod workloads;
