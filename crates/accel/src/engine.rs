//! The accelerator issue engine: datapath timing over a memory system.

use fusion_types::Cycle;

use crate::trace::{KindRun, MemRef};

/// Timing summary of one executed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Cycle the phase started.
    pub start: Cycle,
    /// Cycle the last reference completed (and compute drained).
    pub end: Cycle,
    /// References issued.
    pub issued: u64,
    /// Cycles the issue engine was blocked waiting for an MSHR slot
    /// (outstanding == MLP).
    pub mlp_stall_cycles: u64,
}

impl PhaseTiming {
    /// Total phase duration in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// Executes a reference stream starting at `start`, issuing each reference
/// through `access` (which returns the completion time of the reference).
///
/// Model (paper Section 4): the constrained dynamic data dependence graph
/// is walked cycle-by-cycle — references issue **in program order**
/// separated by their recorded compute gaps, complete out of order, and at
/// most `mlp` references are outstanding at once. The run ends when the
/// last reference has completed.
///
/// `refs` may be a whole phase ([`crate::trace::Phase`]) or a DMA-window slice of
/// one.
///
/// # Panics
///
/// Panics if `mlp` is zero.
///
/// # Examples
///
/// ```
/// use fusion_accel::{run_phase, MemRef};
/// use fusion_types::{AccessKind, Cycle, VirtAddr};
///
/// let refs = [MemRef { addr: VirtAddr::new(0), size: 4, kind: AccessKind::Load, gap: 0 }];
/// // A memory system with a flat 10-cycle latency:
/// let t = run_phase(&refs, 2, Cycle::new(0), |_r, now| now + 10);
/// assert_eq!(t.end, Cycle::new(10));
/// ```
pub fn run_phase(
    refs: &[MemRef],
    mlp: usize,
    start: Cycle,
    mut access: impl FnMut(&MemRef, Cycle) -> Cycle,
) -> PhaseTiming {
    let mut issuer = MlpIssuer::new(mlp, start);
    for r in refs {
        let at = issuer.advance(r.gap);
        let done = access(r, at);
        issuer.complete(done);
    }
    issuer.finish(refs.len() as u64)
}

/// [`run_phase`] over a decoded phase ([`crate::trace::DecodedTrace`]),
/// driven by precomputed same-kind chunks ([`KindRun`], from
/// [`crate::trace::DecodedTrace::phase_kind_runs`]): the reference stream
/// is described by `gap_of(i)` and replayed through `access(i, now,
/// is_write)` instead of materialized `MemRef`s. The timing model is
/// identical — references still issue in program order, one per issue
/// slot — but the load/store dispatch happens once per *run* instead of
/// once per reference. `access` receives the run-constant `is_write` as
/// its third argument, so the data-dependent per-ref kind lookup (and its
/// unpredictable branch) vanishes from the hot loop; what remains
/// branches the same way for the whole chunk.
///
/// `runs` must tile `[0, len)` exactly, in order — debug-asserted.
///
/// # Panics
///
/// Panics if `mlp` is zero.
pub fn run_phase_kind_runs(
    len: usize,
    mut gap_of: impl FnMut(usize) -> u16,
    mlp: usize,
    start: Cycle,
    runs: impl IntoIterator<Item = KindRun>,
    mut access: impl FnMut(usize, Cycle, bool) -> Cycle,
) -> PhaseTiming {
    let mut issuer = MlpIssuer::new(mlp, start);
    let mut covered = 0usize;
    for run in runs {
        debug_assert_eq!(run.start, covered, "kind runs must tile the phase");
        let is_write = run.is_write;
        for i in run.start..run.end() {
            let at = issuer.advance(gap_of(i));
            let done = access(i, at, is_write);
            issuer.complete(done);
        }
        covered = run.end();
    }
    debug_assert_eq!(covered, len, "kind runs must cover every reference");
    issuer.finish(len as u64)
}

/// The issue engine's mutable core, shared by both replay entry points so
/// MemRef and kind-run replays stay bit-identical: program-order
/// issue separated by compute gaps, out-of-order completion, at most
/// `mlp` references outstanding.
struct MlpIssuer {
    now: Cycle,
    start: Cycle,
    // Exactly `mlp` slots (Table 1 caps MLP at ~6: a linear min-scan beats
    // a heap), each the completion of the last reference issued through it.
    // Seeded with `start`, no later than any issue, so unused slots never stall.
    slots: Vec<Cycle>,
    /// The slot `advance` picked for the reference being issued.
    slot: usize,
    last_completion: Cycle,
    mlp_stalls: u64,
}

impl MlpIssuer {
    fn new(mlp: usize, start: Cycle) -> MlpIssuer {
        assert!(mlp > 0, "memory-level parallelism must be at least 1");
        MlpIssuer {
            now: start,
            start,
            slots: vec![start; mlp],
            slot: 0,
            last_completion: start,
            mlp_stalls: 0,
        }
    }

    /// Applies the compute gap and waits for the earliest slot to free;
    /// returns the issue time.
    #[inline]
    fn advance(&mut self, gap: u16) -> Cycle {
        self.now += gap as u64;
        let mut slot = 0;
        for (j, &t) in self.slots.iter().enumerate() {
            if t < self.slots[slot] {
                slot = j;
            }
        }
        let t = self.slots[slot];
        if t > self.now {
            self.mlp_stalls += t - self.now;
            self.now = t;
        }
        self.slot = slot;
        self.now
    }

    /// Books the reference's completion into its slot.
    #[inline]
    fn complete(&mut self, done: Cycle) {
        debug_assert!(done >= self.now, "memory cannot complete in the past");
        self.last_completion = self.last_completion.max(done);
        self.slots[self.slot] = done;
        self.now += 1;
    }

    fn finish(self, issued: u64) -> PhaseTiming {
        PhaseTiming {
            start: self.start,
            end: self.now.max(self.last_completion),
            issued,
            mlp_stall_cycles: self.mlp_stalls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{OpCounts, Phase};
    use fusion_types::ids::ExecUnit;
    use fusion_types::{AccessKind, AxcId, VirtAddr};

    fn phase(mlp: usize, refs: Vec<MemRef>) -> Phase {
        Phase {
            name: "t".into(),
            unit: ExecUnit::Axc(AxcId::new(0)),
            refs,
            ops: OpCounts::default(),
            mlp,
            lease: 500,
        }
    }

    fn r(gap: u16) -> MemRef {
        MemRef {
            addr: VirtAddr::new(0),
            size: 4,
            kind: AccessKind::Load,
            gap,
        }
    }

    #[test]
    fn empty_phase_is_instant() {
        let p = phase(2, vec![]);
        let t = run_phase(&p.refs, p.mlp, Cycle::new(5), |_r, now| now);
        assert_eq!(t.end, Cycle::new(5));
        assert_eq!(t.issued, 0);
        assert_eq!(t.cycles(), 0);
    }

    #[test]
    fn mlp_1_serializes_references() {
        let p = phase(1, vec![r(0), r(0), r(0)]);
        let t = run_phase(&p.refs, p.mlp, Cycle::new(0), |_r, now| now + 10);
        // Each ref waits for the previous completion: issue 0 done 10,
        // issue 10 done 20, issue 20 done 30.
        assert_eq!(t.end, Cycle::new(30));
        assert!(t.mlp_stall_cycles > 0);
    }

    #[test]
    fn high_mlp_overlaps_references() {
        let p = phase(4, vec![r(0), r(0), r(0), r(0)]);
        let t = run_phase(&p.refs, p.mlp, Cycle::new(0), |_r, now| now + 10);
        // Issue at 0,1,2,3; completions 10..13.
        assert_eq!(t.end, Cycle::new(13));
        assert_eq!(t.mlp_stall_cycles, 0);
    }

    #[test]
    fn compute_gaps_delay_issue() {
        let p = phase(4, vec![r(0), r(7)]);
        let t = run_phase(&p.refs, p.mlp, Cycle::new(0), |_r, now| now + 1);
        // Second ref issues at 0 + 1 (slot) + 7 (gap) = 8, done 9.
        assert_eq!(t.end, Cycle::new(9));
    }

    #[test]
    fn variable_latency_out_of_order_completion() {
        let lat = std::cell::Cell::new(0u64);
        let p = phase(2, vec![r(0), r(0)]);
        let t = run_phase(&p.refs, p.mlp, Cycle::new(0), |_r, now| {
            // First access slow (100), second fast (1).
            let l = if lat.get() == 0 { 100 } else { 1 };
            lat.set(lat.get() + 1);
            now + l
        });
        // The engine does not wait for the slow one before issuing the fast
        // one, but the phase ends when the slow one lands.
        assert_eq!(t.end, Cycle::new(100));
    }

    #[test]
    fn issue_times_are_monotone() {
        let p = phase(3, (0..64).map(|_| r(1)).collect());
        let mut last = Cycle::ZERO;
        run_phase(&p.refs, p.mlp, Cycle::new(0), |_r, now| {
            assert!(now >= last, "issue time went backwards");
            last = now;
            now + 37
        });
    }
}
