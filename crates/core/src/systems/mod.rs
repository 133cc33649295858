//! The four architectures of the evaluation.

pub mod fusion;
pub mod scratch;
pub mod shared;

pub use fusion::FusionSystem;
pub use scratch::ScratchSystem;
pub use shared::SharedSystem;

use fusion_accel::trace::OpCounts;
use fusion_energy::{Component, EnergyLedger, EnergyModel};
use fusion_types::PicoJoules;

/// Charges a phase's datapath operations (0.5 pJ int, FP scaled) to the
/// compute component — used for Table 3's cache/compute energy ratios.
pub(crate) fn charge_compute(ledger: &mut EnergyLedger, ops: &OpCounts, em: &EnergyModel) {
    ledger.charge_n(Component::Compute, em.int_op, ops.int_ops);
    ledger.charge_n(Component::Compute, em.fp_op, ops.fp_ops);
}

/// Snapshot of the two energy totals used for per-phase accounting.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnergyMark {
    memory: f64,
    compute: f64,
}

impl EnergyMark {
    pub(crate) fn take(ledger: &EnergyLedger) -> Self {
        EnergyMark {
            memory: ledger.memory_system_total().value(),
            compute: ledger.energy(Component::Compute).value(),
        }
    }

    pub(crate) fn memory_since(&self, ledger: &EnergyLedger) -> PicoJoules {
        PicoJoules::new((ledger.memory_system_total().value() - self.memory).max(0.0))
    }

    pub(crate) fn compute_since(&self, ledger: &EnergyLedger) -> PicoJoules {
        PicoJoules::new((ledger.energy(Component::Compute).value() - self.compute).max(0.0))
    }
}
