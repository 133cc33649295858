//! Pure, side-effect-free protocol transition functions.
//!
//! Every coherence decision the timing engines make — ACC epoch grants,
//! writeback bookkeeping, host-forward release times, MESI directory
//! state changes — lives here as a pure function `state in → outcome +
//! state out`. The timing layers ([`crate::AccTile`],
//! [`crate::DirectoryMesi`]) fold these functions over their caches and
//! turn the outcomes into stats, energy and latency; the exhaustive model
//! checker (`fusion-verify`) folds the *same* functions over small
//! abstract configurations and proves the protocol invariants. Because
//! both drive one implementation, the verified machine *is* the simulated
//! machine: a protocol change that breaks an invariant fails `sim verify`
//! even if every workload trace happens to dodge the bad interleaving.
//!
//! Nothing in this module touches a cache array, a counter or a clock:
//! inputs are metadata values, outputs are new metadata values plus the
//! facts the caller needs for accounting (stall start, waits, messages).

use fusion_types::{AxcId, Cycle};

use crate::acc::L1Meta;
use crate::mesi::{AgentId, DirState, MesiReq};

// ---------------------------------------------------------------------------
// ACC (tile lease protocol)
// ---------------------------------------------------------------------------

/// How an epoch is being (re)granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrantMode {
    /// A full grant from a resident L1X line: data moves, so the grant
    /// also waits out any pending self-downgrade writeback.
    Fresh,
    /// A data-free renewal (lease-renewal extension): the L0X copy is
    /// provably current, so only the epoch is re-validated.
    Renewal,
}

/// Result of granting an epoch against one L1X line's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccGrant {
    /// Updated line metadata (GTIME, sole holder, write lock, ...).
    pub meta: L1Meta,
    /// When the epoch starts after the stall rules; `start - at_l1` is
    /// the stall the requester paid.
    pub start: Cycle,
    /// End of the granted lease (`start + lease`).
    pub lease_end: Cycle,
    /// Whether the line was an untouched prefetch before this grant
    /// (prefetch-accuracy accounting; only a [`GrantMode::Fresh`] grant
    /// claims it).
    pub was_prefetched: bool,
}

/// Grants a lease epoch on a resident L1X line: applies the two ACC stall
/// rules (Figure 4), extends GTIME, and records the write lock.
///
/// Stall rule 1: a foreign live write epoch must fully expire *and* its
/// self-downgrade writeback must land before anyone else is served.
/// Stall rule 2: a new write epoch waits for every outstanding read lease
/// (self-invalidation leases cannot be revoked); the sole holder
/// upgrading its own lease is exempt.
pub fn acc_grant(
    mut meta: L1Meta,
    axc: AxcId,
    write: bool,
    at_l1: Cycle,
    lease: u32,
    data_cycles: u64,
    mode: GrantMode,
) -> AccGrant {
    let was_prefetched = meta.prefetched;
    if mode == GrantMode::Fresh {
        meta.prefetched = false;
    }
    // Clear stale epoch state: once the clock passes GTIME no lease can
    // be live, so sole-holder tracking resets.
    if meta.gtime < at_l1 {
        meta.sole_holder = None;
    }
    let mut start = at_l1;
    match mode {
        GrantMode::Fresh => {
            if let (Some(lock_end), Some(writer)) = (meta.write_locked_until, meta.writer) {
                if writer != axc && lock_end >= at_l1 {
                    // Rule 1: live foreign write epoch — wait for expiry
                    // plus the self-downgrade writeback transfer.
                    start = start.max(lock_end + data_cycles);
                } else if writer != axc {
                    // Lock expired but the writeback may still be in flight.
                    if let Some(wb) = meta.wb_ready_at {
                        start = start.max(wb);
                    }
                }
            } else if let Some(wb) = meta.wb_ready_at {
                start = start.max(wb);
            }
            // Rule 2: write epochs wait out every outstanding lease.
            if write && meta.sole_holder != Some(axc) {
                start = start.max(meta.gtime);
            }
        }
        GrantMode::Renewal => {
            if let (Some(lock_end), Some(writer)) = (meta.write_locked_until, meta.writer) {
                if writer != axc && lock_end >= at_l1 {
                    start = start.max(lock_end + data_cycles);
                }
            }
            // Same as the Fresh arm: an ambiguous (`None`) sole-holder may
            // hide live foreign leases, so a write renewal must wait them
            // out too — otherwise an expired reader can renew straight
            // into a write epoch that overlaps another agent's lease.
            if write && meta.sole_holder != Some(axc) {
                start = start.max(meta.gtime);
            }
        }
    }
    let end = start + lease as u64;
    // A `None` sole-holder is ambiguous: "no holder" (stale clear, fresh
    // fill) or "several holders" (collision). Only claim sole ownership
    // when no previously granted lease can still be live — GTIME bounds
    // every outstanding lease end, and fresh fills carry GTIME = 0.
    // Claiming it eagerly lets a later release/writeback lower GTIME
    // below a live foreign lease, breaking the host-release rule.
    let foreign_may_hold =
        meta.sole_holder.is_none() && meta.gtime > Cycle::ZERO && meta.gtime >= at_l1;
    meta.gtime = meta.gtime.max(end);
    meta.sole_holder = match meta.sole_holder {
        None if foreign_may_hold => None,
        None => Some(axc),
        Some(a) if a == axc => Some(axc),
        Some(_) => None,
    };
    if write {
        meta.write_locked_until = Some(end);
        meta.writer = Some(axc);
        if mode == GrantMode::Fresh {
            meta.wb_ready_at = None;
        }
        meta.last_write = meta.last_write.max(start);
    }
    AccGrant {
        meta,
        start,
        lease_end: end,
        was_prefetched,
    }
}

/// Applies a dirty L0X writeback arriving at the L1X: the data becomes
/// readable at `wb_ready`, the writer's epoch is truncated at `at` (the
/// writeback doubles as a self-downgrade), and — when the writer was the
/// sole lease holder — GTIME drops to the writeback horizon so later
/// writers and host forwards need not wait out the unused epoch remainder.
pub fn acc_writeback(mut meta: L1Meta, axc: AxcId, at: Cycle, wb_ready: Cycle) -> L1Meta {
    meta.wb_ready_at = Some(match meta.wb_ready_at {
        Some(prev) => prev.max(wb_ready),
        None => wb_ready,
    });
    if meta.writer == Some(axc) {
        meta.write_locked_until = Some(at.min(match meta.write_locked_until {
            Some(t) => t,
            None => at,
        }));
    }
    meta.last_write = meta.last_write.max(wb_ready);
    if meta.sole_holder == Some(axc) {
        meta.gtime = meta.gtime.min(wb_ready);
    }
    meta
}

/// When a forwarded host MESI request may be answered from L1X state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccRelease {
    /// Earliest time the eviction notice (PUTX) and data may be released:
    /// `max(request time, GTIME, write-epoch writeback, pending wb)`.
    pub release_at: Cycle,
    /// Whether dirty data travels back (the line was dirty, a write epoch
    /// is live, or a writeback is in flight).
    pub dirty: bool,
    /// How many lease conditions the host had to wait on (stat:
    /// `host_forward_waits`).
    pub waits: u64,
}

/// Computes the GTIME-rule release point for a forwarded host request
/// (Figure 4, right): the tile answers purely from L1X metadata — the
/// L0Xs are never probed, their copies self-invalidate by `release_at`.
pub fn acc_host_release(
    meta: &L1Meta,
    line_dirty: bool,
    now: Cycle,
    data_cycles: u64,
) -> AccRelease {
    let mut dirty = line_dirty;
    let mut release = now;
    let mut waits = 0;
    if meta.gtime > now {
        release = meta.gtime;
        waits += 1;
    }
    if let Some(lock) = meta.write_locked_until {
        if lock >= now {
            // The writer's self-downgrade lands after the lock expires.
            release = release.max(lock + data_cycles);
            dirty = true;
            waits += 1;
        }
    }
    if let Some(wb) = meta.wb_ready_at {
        release = release.max(wb);
        dirty = true;
    }
    AccRelease {
        release_at: release,
        dirty,
        waits,
    }
}

/// Truncates `axc`'s write epoch at `now` (the phase-end self-downgrade:
/// epochs are sized to the invocation, so the epoch ends when the
/// invocation does — paper Section 3.2).
pub fn acc_truncate_write_epoch(mut meta: L1Meta, axc: AxcId, now: Cycle) -> L1Meta {
    if meta.writer == Some(axc) {
        meta.write_locked_until = Some(match meta.write_locked_until {
            Some(t) => t.min(now),
            None => now,
        });
    }
    meta
}

/// Early lease release at phase end: where `axc` was the sole holder, the
/// L1X can lower GTIME (and the write lock) to `now` instead of waiting
/// out the unused epoch remainder.
pub fn acc_release_lease(mut meta: L1Meta, axc: AxcId, now: Cycle) -> L1Meta {
    if meta.sole_holder == Some(axc) {
        meta.gtime = meta.gtime.min(now);
        if meta.writer == Some(axc) {
            meta.write_locked_until = meta.write_locked_until.map(|t| t.min(now));
        }
    }
    meta
}

/// FUSION-Dx write forwarding: the producer's dirty block moves straight
/// into the consumer's L0X, which inherits the epoch until `lease_end`;
/// the L1X keeps the lease horizon consistent and drops the write lock
/// (the self-downgrade data went to the consumer, not the L1X).
pub fn acc_forward(mut meta: L1Meta, producer: AxcId, consumer: AxcId, lease_end: Cycle) -> L1Meta {
    meta.gtime = meta.gtime.max(lease_end);
    // The producer's lease moves to the consumer, so sole-holder tracking
    // transfers; an ambiguous `None` (possibly live third-party leases)
    // must stay ambiguous rather than falsely crediting the consumer.
    meta.sole_holder = match meta.sole_holder {
        Some(a) if a == producer || a == consumer => Some(consumer),
        _ => None,
    };
    meta.write_locked_until = None;
    meta.writer = None;
    meta.wb_ready_at = None;
    meta
}

/// Fresh L1X metadata for a block filled from the host at `data_at`
/// (exclusive ownership, no leases, the fill is the latest write).
pub fn acc_fill_meta(data_at: Cycle, prefetched: bool) -> L1Meta {
    L1Meta {
        prefetched,
        gtime: Cycle::ZERO,
        write_locked_until: None,
        writer: None,
        wb_ready_at: None,
        sole_holder: None,
        last_write: data_at,
    }
}

// ---------------------------------------------------------------------------
// MESI (host directory)
// ---------------------------------------------------------------------------

/// What one directory request changes: the next stable state plus the
/// messages the directory must send to get there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirTransition {
    /// Next stable directory state for the block.
    pub next: DirState,
    /// Sharer mask to invalidate (GetX against a sharer list).
    pub invalidate: u32,
    /// Owner to send a Fwd-GetS/Fwd-GetX (3-hop owner intervention).
    pub forward_owner: Option<AgentId>,
}

/// The directory MESI stable-state transition function (Table 2's
/// protocol): prior state × request → next state + required messages.
pub fn dir_transition(prior: DirState, agent: AgentId, req: MesiReq) -> DirTransition {
    let mut invalidate = 0;
    let mut forward_owner = None;
    let next = match (prior, req) {
        (DirState::Idle, MesiReq::GetS) => {
            // E state optimization: sole sharer gets Exclusive.
            DirState::Owned(agent)
        }
        (DirState::Idle, MesiReq::GetX) => DirState::Owned(agent),
        (DirState::Shared(mask), MesiReq::GetS) => DirState::Shared(mask | agent.mask()),
        (DirState::Shared(mask), MesiReq::GetX) => {
            invalidate = mask & !agent.mask();
            DirState::Owned(agent)
        }
        (DirState::Owned(owner), MesiReq::GetS) => {
            if owner == agent {
                DirState::Owned(agent)
            } else {
                // 3-hop: forward to owner, owner downgrades to S and
                // supplies data; both end up sharers.
                forward_owner = Some(owner);
                DirState::Shared(owner.mask() | agent.mask())
            }
        }
        (DirState::Owned(owner), MesiReq::GetX) => {
            if owner == agent {
                DirState::Owned(agent)
            } else {
                forward_owner = Some(owner);
                DirState::Owned(agent)
            }
        }
    };
    DirTransition {
        next,
        invalidate,
        forward_owner,
    }
}

/// An eviction notice (PUTX / clean replacement hint): `agent` no longer
/// caches the block. Notices from non-holders are benign no-ops.
pub fn dir_release(prior: DirState, agent: AgentId) -> DirState {
    match prior {
        DirState::Owned(a) if a == agent => DirState::Idle,
        DirState::Shared(mask) => {
            let m = mask & !agent.mask();
            if m == 0 {
                DirState::Idle
            } else {
                DirState::Shared(m)
            }
        }
        other => other,
    }
}

/// Inclusion recall targets when the L2 evicts a victim in `state`: every
/// caching agent must drop its copy, and an exclusive owner may hold
/// dirty data (the recall writes it back).
pub fn dir_recall_targets(state: DirState) -> (Vec<AgentId>, bool) {
    match state {
        DirState::Idle => (Vec::new(), false),
        DirState::Shared(mask) => (agents_of(mask).collect(), false),
        DirState::Owned(a) => (vec![a], true),
    }
}

/// Expands a sharer bitmask into agent ids, lowest bit first. Visits
/// only the set bits: each step pops the lowest one.
pub fn agents_of(mask: u32) -> impl Iterator<Item = AgentId> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a u32 has at most 32 trailing zeros"
        )]
        let bit = rest.trailing_zeros() as u8;
        rest &= rest - 1;
        Some(AgentId(bit))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const A0: AxcId = AxcId(0);
    const A1: AxcId = AxcId(1);

    fn meta() -> L1Meta {
        acc_fill_meta(Cycle::new(0), false)
    }

    #[test]
    fn fresh_write_grant_waits_for_foreign_leases() {
        // A0 reads [10, 30]; A1's write must start at GTIME.
        let g0 = acc_grant(meta(), A0, false, Cycle::new(10), 20, 2, GrantMode::Fresh);
        assert_eq!(g0.start, Cycle::new(10));
        assert_eq!(g0.meta.gtime, Cycle::new(30));
        let g1 = acc_grant(g0.meta, A1, true, Cycle::new(15), 10, 2, GrantMode::Fresh);
        assert_eq!(g1.start, Cycle::new(30), "rule 2: wait for GTIME");
        assert_eq!(g1.meta.write_locked_until, Some(Cycle::new(40)));
        assert_eq!(g1.meta.writer, Some(A1));
    }

    #[test]
    fn fresh_read_grant_waits_for_write_epoch_and_writeback() {
        let g0 = acc_grant(meta(), A0, true, Cycle::new(0), 100, 2, GrantMode::Fresh);
        let g1 = acc_grant(g0.meta, A1, false, Cycle::new(10), 10, 2, GrantMode::Fresh);
        // Rule 1: lock end (100) + data transfer (2).
        assert_eq!(g1.start, Cycle::new(102));
    }

    #[test]
    fn sole_holder_upgrade_does_not_stall() {
        let g0 = acc_grant(meta(), A0, false, Cycle::new(0), 100, 2, GrantMode::Fresh);
        let g1 = acc_grant(g0.meta, A0, true, Cycle::new(10), 100, 2, GrantMode::Fresh);
        assert_eq!(g1.start, Cycle::new(10));
    }

    #[test]
    fn writeback_truncates_epoch_and_lowers_sole_gtime() {
        let g = acc_grant(meta(), A0, true, Cycle::new(0), 100, 2, GrantMode::Fresh);
        let m = acc_writeback(g.meta, A0, Cycle::new(20), Cycle::new(22));
        assert_eq!(m.write_locked_until, Some(Cycle::new(20)));
        assert_eq!(m.gtime, Cycle::new(22), "sole holder: GTIME drops to wb");
        assert_eq!(m.wb_ready_at, Some(Cycle::new(22)));
    }

    #[test]
    fn host_release_respects_gtime_and_live_locks() {
        let g = acc_grant(meta(), A0, true, Cycle::new(0), 100, 2, GrantMode::Fresh);
        let r = acc_host_release(&g.meta, false, Cycle::new(10), 2);
        assert_eq!(r.release_at, Cycle::new(102));
        assert!(r.dirty);
        assert_eq!(r.waits, 2);
        // After everything expired: immediate, clean.
        let r2 = acc_host_release(&meta(), false, Cycle::new(500), 2);
        assert_eq!(r2.release_at, Cycle::new(500));
        assert!(!r2.dirty);
        assert_eq!(r2.waits, 0);
    }

    #[test]
    fn dir_transition_matrix() {
        let h = AgentId::HOST_L1;
        let t = AgentId::TILE;
        // Cold GetS: E-state optimization.
        let tr = dir_transition(DirState::Idle, h, MesiReq::GetS);
        assert_eq!(tr.next, DirState::Owned(h));
        assert_eq!((tr.invalidate, tr.forward_owner), (0, None));
        // Second reader: owner intervention, both share.
        let tr = dir_transition(DirState::Owned(h), t, MesiReq::GetS);
        assert_eq!(tr.next, DirState::Shared(h.mask() | t.mask()));
        assert_eq!(tr.forward_owner, Some(h));
        // GetX against sharers: invalidate everyone else.
        let tr = dir_transition(DirState::Shared(h.mask() | t.mask()), h, MesiReq::GetX);
        assert_eq!(tr.next, DirState::Owned(h));
        assert_eq!(tr.invalidate, t.mask());
        // Same-agent upgrade: silent.
        let tr = dir_transition(DirState::Owned(t), t, MesiReq::GetX);
        assert_eq!((tr.invalidate, tr.forward_owner), (0, None));
    }

    #[test]
    fn dir_release_and_recalls() {
        let h = AgentId::HOST_L1;
        let t = AgentId::TILE;
        assert_eq!(dir_release(DirState::Owned(t), t), DirState::Idle);
        assert_eq!(dir_release(DirState::Owned(t), h), DirState::Owned(t));
        assert_eq!(
            dir_release(DirState::Shared(h.mask() | t.mask()), t),
            DirState::Shared(h.mask())
        );
        assert_eq!(dir_release(DirState::Shared(h.mask()), h), DirState::Idle);
        let (agents, dirty) = dir_recall_targets(DirState::Owned(t));
        assert_eq!((agents, dirty), (vec![t], true));
        let (agents, dirty) = dir_recall_targets(DirState::Shared(h.mask() | t.mask()));
        assert_eq!((agents, dirty), (vec![h, t], false));
    }

    #[test]
    fn agents_of_matches_the_naive_bit_scan() {
        fn naive(mask: u32) -> Vec<AgentId> {
            (0..32u8)
                .filter(|b| mask & (1 << b) != 0)
                .map(AgentId)
                .collect()
        }
        let mut masks = vec![0, 1, 1 << 31, u32::MAX];
        // splitmix64's high halves: a fixed, dense spread of masks.
        let mut rng = fusion_types::SplitMix64(0x9E37_79B9);
        masks.extend((0..1000).map(|_| u32::try_from(rng.next_u64() >> 32).unwrap()));
        for mask in masks {
            assert_eq!(
                agents_of(mask).collect::<Vec<_>>(),
                naive(mask),
                "{mask:#x}"
            );
        }
    }
}
