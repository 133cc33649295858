//! Accelerator modeling: traces, instrumented recording, the MLP-bounded
//! issue engine and the trace analyses of the paper's toolchain.
//!
//! The paper extracts fixed-function accelerators from the dynamic data
//! dependence graph of profiled functions (Section 4, following Aladdin)
//! and drives a trace-based simulation. This crate rebuilds that pipeline:
//!
//! * [`trace`] — the dynamic trace format: [`trace::MemRef`]s grouped into
//!   [`trace::Phase`]s (one accelerator invocation each) forming a
//!   [`trace::Workload`] (the offloaded sequential program);
//! * [`record`] — an instrumented address space: benchmark kernels run on
//!   real Rust buffers while every load/store and every int/fp operation is
//!   recorded (replaces gprof + binary instrumentation);
//! * [`engine`] — the datapath timing model: in-order issue, out-of-order
//!   completion, bounded by the function's memory-level parallelism
//!   ("aggressive non-blocking interface to memory");
//! * [`ooo`] — the host core's timing model (Table 2's 4-wide, 96-entry
//!   ROB, 32+32 load/store queues) used for the program's host phases;
//! * [`io`] — compact binary trace files: materialize a workload once,
//!   replay it across architectures (the paper's trace-driven workflow);
//! * [`analysis`] — the toolchain's post-processing: sharing degree (%SHR),
//!   op mixes (Table 1) and dirty blocks (Table 4), oracle-DMA window
//!   segmentation (Section 4) and FUSION-Dx producer→consumer store
//!   identification (Section 3.2).

pub mod analysis;
pub mod engine;
pub mod io;
pub mod ooo;
pub mod record;
pub mod trace;

pub use engine::{run_phase, run_phase_kind_runs, PhaseTiming};
pub use record::Recorder;
pub use trace::{
    kind_runs_of, DecodedPhase, DecodedTrace, KindRun, MemRef, OpCounts, Phase, Workload,
};
