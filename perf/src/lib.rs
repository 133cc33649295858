//! The FUSION simulator's benchmark (`perf`): wall time, replay
//! throughput, set-up time and memory of the real `sim` and `tables`
//! binaries on four workloads, and a separate traced run that times each
//! simulator layer on streams from the same traces. See `README.md`.

pub mod calibrate;
pub mod compare;
pub mod json;
pub mod layers;
pub mod output;
pub mod spec;
pub mod stats;
pub mod trace;
