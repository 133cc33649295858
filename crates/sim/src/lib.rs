//! The summary behind every FUSION simulation result's latency
//! statistics.
//!
//! [`Histogram`] keeps the count, sum and maximum of its samples.
//! `fusion-core` records each accelerator access's load-to-use latency in
//! one, and reports it as `SimResult::latency`.
//!
//! # Examples
//!
//! ```
//! use fusion_sim::Histogram;
//!
//! let mut h = Histogram::new();
//! h.record_n(40, 3);
//! assert_eq!(h.count(), 3);
//! assert_eq!(h.sum(), 120);
//! ```

pub mod stats;

pub use stats::Histogram;
