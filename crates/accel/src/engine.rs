//! The accelerator issue engine: datapath timing over a memory system.

use fusion_types::Cycle;

use crate::trace::KindRun;

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

/// Executes a phase (or a DMA-window slice of one) starting at `start`,
/// issuing each reference through `access(i, now, is_write)`, which
/// returns the completion time of reference `i`.
///
/// Model (paper Section 4): the constrained dynamic data dependence graph
/// is walked cycle-by-cycle — references issue **in program order**
/// separated by their compute gaps `gap_of(i)`, complete out of order,
/// and at most `mlp` references are outstanding at once. The run ends
/// when the last reference has completed.
///
/// The stream is driven by same-kind chunks ([`KindRun`], found on the
/// phase's kind lane by [`crate::trace::kind_runs_of`]): references still
/// issue one per issue slot, but the load/store dispatch happens once per
/// *run* instead of once per reference. `access` receives the
/// run-constant `is_write` as its third argument, so the branch it takes
/// on the kind goes the same way for the whole chunk.
///
/// `runs` must tile `[0, len)` exactly, in order — debug-asserted.
///
/// # Panics
///
/// Panics if `mlp` is zero.
///
/// # Examples
///
/// ```
/// use fusion_accel::{kind_runs_of, run_phase_kind_runs};
/// use fusion_types::{AccessKind, Cycle};
///
/// let kinds = [AccessKind::Load];
/// // A memory system with a flat 10-cycle latency:
/// let t = run_phase_kind_runs(1, |_| 0, 2, Cycle::new(0), kind_runs_of(&kinds), |_i, now, _w| {
///     now + 10
/// });
/// assert_eq!(t.end, Cycle::new(10));
/// ```
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

/// The issue engine's mutable core: program-order issue separated by
/// compute gaps, out-of-order completion, at most `mlp` references
/// outstanding.
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

    /// `gaps.len()` loads issued with the given gaps.
    fn run_loads(
        gaps: &[u16],
        mlp: usize,
        start: Cycle,
        mut access: impl FnMut(Cycle) -> Cycle,
    ) -> PhaseTiming {
        let run = KindRun {
            start: 0,
            len: gaps.len(),
            is_write: false,
        };
        let runs = (!gaps.is_empty()).then_some(run);
        run_phase_kind_runs(
            gaps.len(),
            |i| gaps[i],
            mlp,
            start,
            runs,
            |_, now, _| access(now),
        )
    }

    #[test]
    fn empty_phase_is_instant() {
        let t = run_loads(&[], 2, Cycle::new(5), |now| now);
        assert_eq!(t.end, Cycle::new(5));
        assert_eq!(t.issued, 0);
        assert_eq!(t.cycles(), 0);
    }

    #[test]
    fn mlp_1_serializes_references() {
        let t = run_loads(&[0, 0, 0], 1, Cycle::new(0), |now| now + 10);
        // Each ref waits for the previous completion: issue 0 done 10,
        // issue 10 done 20, issue 20 done 30.
        assert_eq!(t.end, Cycle::new(30));
        assert!(t.mlp_stall_cycles > 0);
    }

    #[test]
    fn high_mlp_overlaps_references() {
        let t = run_loads(&[0, 0, 0, 0], 4, Cycle::new(0), |now| now + 10);
        // Issue at 0,1,2,3; completions 10..13.
        assert_eq!(t.end, Cycle::new(13));
        assert_eq!(t.mlp_stall_cycles, 0);
    }

    #[test]
    fn compute_gaps_delay_issue() {
        let t = run_loads(&[0, 7], 4, Cycle::new(0), |now| now + 1);
        // Second ref issues at 0 + 1 (slot) + 7 (gap) = 8, done 9.
        assert_eq!(t.end, Cycle::new(9));
    }

    #[test]
    fn variable_latency_out_of_order_completion() {
        let mut first = true;
        let t = run_loads(&[0, 0], 2, Cycle::new(0), |now| {
            // First access slow (100), second fast (1).
            now + if std::mem::take(&mut first) { 100 } else { 1 }
        });
        // The engine does not wait for the slow one before issuing the fast
        // one, but the phase ends when the slow one lands.
        assert_eq!(t.end, Cycle::new(100));
    }

    #[test]
    fn issue_times_are_monotone() {
        let mut last = Cycle::ZERO;
        run_loads(&[1; 64], 3, Cycle::new(0), |now| {
            assert!(now >= last, "issue time went backwards");
            last = now;
            now + 37
        });
    }
}
