//! Out-of-order host-core timing model.
//!
//! Host-executed phases of the offloaded program run on the Table 2 core:
//! 2 GHz, 4-wide, 96-entry ROB, 32-entry load queue, 32-entry store
//! queue. The model captures the constraints that matter for memory-bound
//! host code: bounded load/store queues, a bounded reorder window with
//! **in-order retirement** (a long-latency miss at the ROB head stalls
//! issue once the window fills), and the front-end width.

use std::collections::VecDeque;

use fusion_types::Cycle;

use crate::engine::PhaseTiming;

/// Out-of-order core parameters (defaults = Table 2's host core).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooParams {
    /// Front-end/retire width (memory refs issued per cycle at most).
    pub width: u64,
    /// Reorder-buffer entries (in-flight refs incl. completed-unretired).
    pub rob: usize,
    /// Load-queue entries (outstanding loads).
    pub load_queue: usize,
    /// Store-queue entries (outstanding stores).
    pub store_queue: usize,
}

impl Default for OooParams {
    fn default() -> Self {
        OooParams {
            width: 4,
            rob: 96,
            load_queue: 32,
            store_queue: 32,
        }
    }
}

/// Executes a host reference stream on the OOO core model. Reference `i`
/// has compute gap `gap_of(i)`, is a store iff `is_store_of(i)`, and
/// completes at the cycle `access(i, now)` returns.
///
/// References issue in program order (bounded by `width` per cycle and the
/// recorded compute gaps), complete out of order through `access`, and
/// retire strictly in order: a reference occupies its ROB entry until
/// every older reference has completed. Loads and stores additionally
/// occupy their queue entries from issue to completion.
///
/// # Panics
///
/// Panics if any of the structure sizes is zero.
///
/// # Examples
///
/// ```
/// use fusion_accel::ooo::{run_host_phase_indexed, OooParams};
/// use fusion_types::Cycle;
///
/// let t = run_host_phase_indexed(1, |_| 0, |_| false, OooParams::default(), Cycle::new(0), |_i, now| {
///     now + 3
/// });
/// assert_eq!(t.end, Cycle::new(3));
/// ```
pub fn run_host_phase_indexed(
    len: usize,
    mut gap_of: impl FnMut(usize) -> u16,
    mut is_store_of: impl FnMut(usize) -> bool,
    params: OooParams,
    start: Cycle,
    mut access: impl FnMut(usize, Cycle) -> Cycle,
) -> PhaseTiming {
    assert!(params.width > 0, "core width must be at least 1");
    assert!(params.rob > 0, "ROB must have at least one entry");
    assert!(
        params.load_queue > 0 && params.store_queue > 0,
        "load/store queues must be non-empty"
    );

    // In-flight entries in program order: completion times of refs that
    // have issued but not retired.
    let mut rob: VecDeque<(Cycle, bool)> = VecDeque::new(); // (done, is_store)
    let mut loads_in_flight = 0usize;
    let mut stores_in_flight = 0usize;
    let mut now = start;
    let mut issued_this_cycle = 0u64;
    let mut last_completion = start;
    let mut stall_cycles = 0u64;

    // Retires every entry whose completion time has passed *and* whose
    // predecessors have retired (in-order retirement from the head).
    fn retire(
        rob: &mut VecDeque<(Cycle, bool)>,
        loads: &mut usize,
        stores: &mut usize,
        now: Cycle,
    ) {
        while let Some(&(done, is_store)) = rob.front() {
            if done <= now {
                rob.pop_front();
                if is_store {
                    *stores -= 1;
                } else {
                    *loads -= 1;
                }
            } else {
                break;
            }
        }
    }

    for i in 0..len {
        let gap = gap_of(i);
        let is_store = is_store_of(i);
        if gap > 0 {
            now += gap as u64;
            issued_this_cycle = 0;
        }
        retire(&mut rob, &mut loads_in_flight, &mut stores_in_flight, now);

        // Structural hazards: wait for the blocking resource to free.
        loop {
            let rob_full = rob.len() >= params.rob;
            let lq_full = !is_store && loads_in_flight >= params.load_queue;
            let sq_full = is_store && stores_in_flight >= params.store_queue;
            if !(rob_full || lq_full || sq_full) {
                break;
            }
            // The head entry's completion gates everything (in-order
            // retirement).
            #[expect(
                clippy::expect_used,
                reason = "guarded by the rob.len() == depth check"
            )]
            let head_done = rob
                .front()
                .map(|&(d, _)| d)
                .expect("full implies non-empty");
            let wait_to = head_done.max(now + 1);
            stall_cycles += wait_to - now;
            now = wait_to;
            issued_this_cycle = 0;
            retire(&mut rob, &mut loads_in_flight, &mut stores_in_flight, now);
        }

        // Front-end width.
        if issued_this_cycle >= params.width {
            now += 1;
            issued_this_cycle = 0;
            retire(&mut rob, &mut loads_in_flight, &mut stores_in_flight, now);
        }

        let done = access(i, now);
        debug_assert!(done >= now, "memory cannot complete in the past");
        last_completion = last_completion.max(done);
        rob.push_back((done, is_store));
        if is_store {
            stores_in_flight += 1;
        } else {
            loads_in_flight += 1;
        }
        issued_this_cycle += 1;
    }

    PhaseTiming {
        start,
        end: now.max(last_completion),
        issued: len as u64,
        mlp_stall_cycles: stall_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::AccessKind;

    /// Runs `refs` (kind, gap) through the core; `access` sees each
    /// reference's kind.
    fn run(
        refs: &[(AccessKind, u16)],
        params: OooParams,
        start: Cycle,
        mut access: impl FnMut(AccessKind, Cycle) -> Cycle,
    ) -> PhaseTiming {
        run_host_phase_indexed(
            refs.len(),
            |i| refs[i].1,
            |i| refs[i].0.is_write(),
            params,
            start,
            |i, now| access(refs[i].0, now),
        )
    }

    fn loads(n: usize) -> Vec<(AccessKind, u16)> {
        vec![(AccessKind::Load, 0); n]
    }

    #[test]
    fn width_limits_issue_rate() {
        // 8 loads, zero gaps, instant memory: 4 issue at t=0, 4 at t=1.
        let t = run(&loads(8), OooParams::default(), Cycle::new(0), |_, now| now);
        assert_eq!(t.end, Cycle::new(1));
    }

    #[test]
    fn load_queue_bounds_outstanding_loads() {
        let params = OooParams {
            width: 4,
            rob: 96,
            load_queue: 2,
            store_queue: 32,
        };
        // 100-cycle loads with LQ=2: pairs serialize.
        let t = run(&loads(6), params, Cycle::new(0), |_, now| now + 100);
        assert!(
            t.end >= Cycle::new(300),
            "LQ did not serialize: end {}",
            t.end
        );
        assert!(t.mlp_stall_cycles > 0);
    }

    #[test]
    fn rob_stalls_behind_slow_head() {
        let params = OooParams {
            width: 4,
            rob: 4,
            load_queue: 32,
            store_queue: 32,
        };
        // First load is very slow; with a 4-entry ROB only 4 refs can be
        // in flight until it retires.
        let mut first = true;
        let t = run(&loads(8), params, Cycle::new(0), |_, now| {
            if std::mem::take(&mut first) {
                now + 500
            } else {
                now + 1
            }
        });
        assert!(
            t.end >= Cycle::new(500),
            "later refs must not retire past the slow head (end {})",
            t.end
        );
    }

    #[test]
    fn stores_and_loads_use_separate_queues() {
        let params = OooParams {
            width: 4,
            rob: 96,
            load_queue: 1,
            store_queue: 32,
        };
        // Alternating load/store with slow loads: stores never block.
        let refs: Vec<(AccessKind, u16)> = (0..8)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                };
                (kind, 0)
            })
            .collect();
        let t = run(&refs, params, Cycle::new(0), |kind, now| {
            if kind.is_write() {
                now + 1
            } else {
                now + 50
            }
        });
        // 4 loads serialized at ~50 each.
        assert!(t.end >= Cycle::new(150));
    }

    #[test]
    fn gaps_advance_time() {
        let refs = [(AccessKind::Load, 10), (AccessKind::Load, 10)];
        let t = run(&refs, OooParams::default(), Cycle::new(0), |_, now| now + 1);
        assert!(t.end >= Cycle::new(20));
    }

    #[test]
    fn empty_stream_is_instant() {
        let t = run(&[], OooParams::default(), Cycle::new(7), |_, now| now);
        assert_eq!(t.end, Cycle::new(7));
        assert_eq!(t.issued, 0);
    }
}
