//! The four architectures of the evaluation, as per-phase hooks under one
//! phase driver.
//!
//! The offloaded program is phase-sequential (paper §3.2): it migrates
//! between units and exactly one runs at a time. [`drive`] owns what every
//! system shares: the phase loop, the host-phase OoO replay, per-phase
//! energy and [`PhaseResult`] accounting, the watchdog and checker polls
//! and the common [`SimResult`] fields. A system supplies only what differs
//! through [`PhaseHooks`]; each is a concrete type, so every hook call is
//! statically dispatched and the per-reference closures inline as before.

mod fusion;
mod scratch;
mod shared;

use fusion_accel::ooo::{run_host_phase_indexed, OooParams};
use fusion_accel::trace::OpCounts;
use fusion_accel::{DecodedTrace, Workload};
use fusion_energy::{Component, EnergyLedger, EnergyModel};
use fusion_sim::Histogram;
use fusion_types::error::{InvariantViolation, SimError};
use fusion_types::{AxcId, Cycle, PicoJoules, SystemConfig};

use crate::host::{HostSide, TileAgent};
use crate::result::{PhaseResult, RunMetrics, SimResult};
use crate::runner::{RunControl, SystemKind};

use fusion::FusionSystem;
use scratch::ScratchSystem;
use shared::SharedSystem;

/// Runs `workload` (replaying `decoded`) on the system `kind` under the
/// watchdogs in `ctl`.
pub(crate) fn simulate(
    kind: SystemKind,
    workload: &Workload,
    decoded: &DecodedTrace,
    cfg: &SystemConfig,
    ctl: &RunControl<'_>,
) -> Result<SimResult, SimError> {
    let run = Run::new(workload, decoded, cfg);
    // The constructors take the decoded trace's analysis lock (DMA windows,
    // forwarding pairs). They are not named `new`: the lock-order lint
    // resolves calls by bare name, and `Arc::new` runs under that lock.
    match kind {
        SystemKind::Scratch => drive(ScratchSystem::for_run(&run), run, ctl),
        SystemKind::Shared => drive(SharedSystem::for_run(&run), run, ctl),
        SystemKind::Fusion => drive(FusionSystem::for_run(&run, false), run, ctl),
        SystemKind::FusionDx => drive(FusionSystem::for_run(&run, true), run, ctl),
    }
}

/// The state of one run that every system shares: its inputs, the host
/// side, the energy ledger and the accelerator-latency histogram.
struct Run<'a> {
    cfg: &'a SystemConfig,
    workload: &'a Workload,
    decoded: &'a DecodedTrace,
    host: HostSide,
    em: EnergyModel,
    ledger: EnergyLedger,
    latency: Histogram,
}

impl<'a> Run<'a> {
    fn new(workload: &'a Workload, decoded: &'a DecodedTrace, cfg: &'a SystemConfig) -> Self {
        let host = HostSide::new(cfg);
        let em = host.energy_model().clone();
        Run {
            cfg,
            workload,
            decoded,
            host,
            em,
            ledger: EnergyLedger::new(),
            latency: Histogram::new(),
        }
    }
}

/// What one architecture adds to the phase driver. Every hook runs once per
/// phase or once per run; only [`PhaseHooks::accel_phase`] touches
/// individual references.
trait PhaseHooks {
    /// The tile structure that answers host requests forwarded into the
    /// tile during host phases.
    fn agent(&mut self) -> &mut dyn TileAgent;

    /// Work before phase `idx` runs, after its compute is charged.
    fn before_phase(&mut self, _idx: usize) {}

    /// Replays accelerator phase `idx` on `axc` from `now`; returns when it
    /// ends and the cycles it spent in DMA.
    fn accel_phase(
        &mut self,
        run: &mut Run<'_>,
        idx: usize,
        axc: AxcId,
        now: Cycle,
    ) -> (Cycle, u64);

    /// Work after any phase ends, before its energy is read.
    fn after_phase(&mut self, _run: &mut Run<'_>) {}

    /// The first tile-side invariant violation, polled before the host's.
    fn checker_violation(&self) -> Option<InvariantViolation> {
        None
    }

    /// End of program at `now`: flush tile state back to the host.
    fn finish(&mut self, _run: &mut Run<'_>, _now: Cycle) {}

    /// The system's name in results ("SCRATCH", "FUSION-Dx", ...).
    fn label(&self) -> &'static str;

    /// Fills the system-specific fields of `res`.
    fn report(&self, _res: &mut SimResult) {}
}

/// The phase driver: replays every phase of `run.workload` in program
/// order, host phases here and accelerator phases through `sys`, polling
/// `ctl` and the protocol checkers at every phase boundary.
fn drive<S: PhaseHooks>(
    mut sys: S,
    mut run: Run<'_>,
    ctl: &RunControl<'_>,
) -> Result<SimResult, SimError> {
    let (workload, decoded, cfg) = (run.workload, run.decoded, run.cfg);
    let pid = workload.pid;
    let mut now = Cycle::ZERO;
    let mut phases = Vec::new();
    let mut total_dma = 0u64;

    for (idx, phase) in workload.phases.iter().enumerate() {
        let start = now;
        let mark = EnergyMark::take(&run.ledger);
        charge_compute(&mut run.ledger, &phase.ops, &run.em);
        sys.before_phase(idx);
        let mut dma_cycles = 0;
        match phase.unit.axc() {
            None => {
                let dp = decoded.phase(idx);
                let (host, ledger, agent) = (&mut run.host, &mut run.ledger, sys.agent());
                let t = run_host_phase_indexed(
                    dp.len(),
                    |j| dp.gaps[j],
                    |j| dp.kinds[j].is_write(),
                    OooParams::default(),
                    now,
                    |j, at| host.host_access(pid, dp.blocks[j], dp.kinds[j], at, ledger, agent),
                );
                now = t.end;
            }
            Some(axc) => (now, dma_cycles) = sys.accel_phase(&mut run, idx, axc, now),
        }
        sys.after_phase(&mut run);

        total_dma += dma_cycles;
        phases.push(PhaseResult {
            name: phase.name.clone(),
            is_host: phase.unit.is_host(),
            cycles: now - start,
            dma_cycles,
            memory_energy: mark.memory_since(&run.ledger),
            compute_energy: mark.compute_since(&run.ledger),
        });
        ctl.check(now.value())?;
        if cfg.checker.enabled {
            if let Some(v) = sys
                .checker_violation()
                .or_else(|| run.host.checker_violation())
            {
                return Err(v.into());
            }
        }
    }

    sys.finish(&mut run, now);
    let mut res = SimResult {
        system: sys.label(),
        workload: workload.name.clone(),
        total_cycles: now.value(),
        dma_cycles: total_dma,
        ax_tlb_lookups: run.host.ax_tlb_lookups(),
        ax_rmap_lookups: 0,
        host_forwards: run.host.host_forwards(),
        dma_blocks: 0,
        dma_transfers: 0,
        l2_accesses: run.host.l2_accesses(),
        energy: run.ledger,
        phases,
        tile: None,
        latency: run.latency,
        metrics: RunMetrics {
            refs_simulated: decoded.total_refs(),
            ..Default::default()
        },
    };
    sys.report(&mut res);
    Ok(res)
}

/// Charges a phase's datapath operations (0.5 pJ int, FP scaled) to the
/// compute component — used for Table 3's cache/compute energy ratios.
fn charge_compute(ledger: &mut EnergyLedger, ops: &OpCounts, em: &EnergyModel) {
    ledger.charge_n(Component::Compute, em.int_op, ops.int_ops);
    ledger.charge_n(Component::Compute, em.fp_op, ops.fp_ops);
}

/// Snapshot of the two energy totals used for per-phase accounting.
#[derive(Debug, Clone, Copy)]
struct EnergyMark {
    memory: f64,
    compute: f64,
}

impl EnergyMark {
    fn take(ledger: &EnergyLedger) -> Self {
        EnergyMark {
            memory: ledger.memory_system_total().value(),
            compute: ledger.energy(Component::Compute).value(),
        }
    }

    fn memory_since(&self, ledger: &EnergyLedger) -> PicoJoules {
        PicoJoules::new((ledger.memory_system_total().value() - self.memory).max(0.0))
    }

    fn compute_since(&self, ledger: &EnergyLedger) -> PicoJoules {
        PicoJoules::new((ledger.energy(Component::Compute).value() - self.compute).max(0.0))
    }
}
