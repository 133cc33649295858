//! Umbrella crate for the FUSION (ISCA 2015) reproduction workspace.
//!
//! This crate only re-exports the member crates so that the top-level
//! `examples/` and `tests/` directories can exercise the whole stack through
//! one dependency. The real functionality lives in the `fusion-*` crates:
//!
//! * [`fusion_core`] — the paper's contribution: the four architectures
//!   (SCRATCH / SHARED / FUSION / FUSION-Dx) and the experiment runner.
//! * [`fusion_workloads`] — the seven benchmark applications.
//! * [`fusion_coherence`] — directory MESI and the ACC lease protocol.
//! * [`fusion_verify`] — the exhaustive protocol model checker over the
//!   pure transition functions (DESIGN.md §11).
//! * [`fusion_mem`], [`fusion_vm`], [`fusion_dma`], [`fusion_accel`],
//!   [`fusion_energy`], [`fusion_types`] — substrates.
//! * [`fusion_sim`] — the latency histogram every result carries.
//!
//! # Examples
//!
//! ```
//! use fusion_repro::core::runner::{run_system, SystemKind};
//! use fusion_repro::workloads::suite;
//!
//! let wl = suite::build_suite(suite::SuiteId::Adpcm, suite::Scale::Tiny);
//! let res = run_system(SystemKind::Fusion, &wl, &Default::default()).unwrap();
//! assert!(res.total_cycles > 0);
//! ```

pub use fusion_accel as accel;
pub use fusion_coherence as coherence;
pub use fusion_core as core;
pub use fusion_dma as dma;
pub use fusion_energy as energy;
pub use fusion_mem as mem;
pub use fusion_sim as sim;
pub use fusion_types as types;
pub use fusion_verify as verify;
pub use fusion_vm as vm;
pub use fusion_workloads as workloads;
