//! The ACC (ACcelerator Coherence) protocol: timestamp/lease-based
//! self-invalidation coherence inside the accelerator tile.
//!
//! ACC (paper Section 3.2) keeps the per-AXC L0X caches coherent with the
//! tile's shared L1X without any invalidation traffic:
//!
//! * every L0X line carries a **lease** (LTIME): the line is valid only
//!   until its lease expires against the tile-synchronized clock;
//! * the L1X tracks, per line, the **GTIME** — the latest lease granted to
//!   any L0X — and is therefore always able to answer host MESI actions
//!   without ever probing an L0X;
//! * **write epochs** lock the line at the L1X: subsequent readers/writers
//!   stall until the write lease expires *and* the self-downgrade
//!   writeback completes (Figure 4);
//! * **self-downgrade** writes back each set's dirty lines and counts the
//!   sets the paper's per-set writeback timestamps would let it skip;
//! * **write caching** (write-back L0X) is ACC's first write optimization;
//!   **write forwarding** (direct L0X→L0X transfer of producer→consumer
//!   data, Section 3.2 FUSION-Dx) is the second.
//!
//! The tile is strictly 2-hop: every protocol action is a request/response
//! between one L0X and the L1X — there are no sharer probes.

use fusion_mem::{Evicted, ReplacementPolicy, SetAssocCache};
use fusion_types::error::InvariantViolation;
use fusion_types::fault::{ProtocolFault, ProtocolFaultKind};
use fusion_types::hash::FxHashMap;
use fusion_types::{
    AccessKind, AxcId, BlockAddr, CacheGeometry, Cycle, Pid, WritePolicy, CACHE_BLOCK_BYTES,
};

use crate::checker::ProtocolChecker;
use crate::transition;

/// Per-L0X-line ACC metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L0Meta {
    /// Lease expiry (LTIME): the line self-invalidates when the tile clock
    /// passes this point.
    pub lease_end: Cycle,
    /// Whether the current lease is a write epoch.
    pub write_lease: bool,
    /// When this copy's data was obtained (used by the lease-renewal
    /// extension to prove the local data is still current).
    pub acquired: Cycle,
    /// When the full-line fill that installed this copy lands at the L0X:
    /// a hit before then merges into the fill (hit-under-miss, MSHR merge).
    /// `Cycle::ZERO` when no fill gates the copy (renewed and forwarded
    /// copies).
    pub fill_done: Cycle,
}

/// Per-L1X-line ACC metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct L1Meta {
    /// Set when the line was brought in by the prefetcher and has not yet
    /// served a demand access (prefetch-accuracy accounting).
    pub prefetched: bool,
    /// GTIME: the latest lease granted to any L0X for this line. When the
    /// tile clock passes GTIME, no L0X can hold a valid copy.
    pub gtime: Cycle,
    /// End of the active write epoch, if a writer holds the line.
    pub write_locked_until: Option<Cycle>,
    /// The write-epoch holder.
    pub writer: Option<AxcId>,
    /// When the self-downgrade writeback becomes visible at the L1X
    /// (readers arriving earlier stall until this point — Figure 4 step 6).
    pub wb_ready_at: Option<Cycle>,
    /// The single current lease holder, if exactly one AXC holds a lease
    /// (lets a sole owner renew/upgrade without waiting on its own lease).
    pub sole_holder: Option<AxcId>,
    /// Time of the most recent write to this line's data (write-epoch
    /// grant, writeback arrival or host fill) — the lease-renewal
    /// extension compares it against an L0X copy's acquisition time.
    pub last_write: Cycle,
}

/// Timing configuration of the tile's internal links and arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileTiming {
    /// L0X access latency (cycles).
    pub l0_latency: u64,
    /// L1X access latency (cycles, excluding bank conflicts).
    pub l1_latency: u64,
    /// One-way L0X–L1X link latency (cycles).
    pub link_latency: u64,
    /// Link bandwidth in bytes/cycle.
    pub link_bytes_per_cycle: u64,
}

impl TileTiming {
    /// Cycles to move a control message (8 B) one way.
    pub fn msg_cycles(&self) -> u64 {
        self.link_latency + 1
    }

    /// Cycles to move a full block one way.
    pub fn data_cycles(&self) -> u64 {
        self.link_latency + (CACHE_BLOCK_BYTES as u64).div_ceil(self.link_bytes_per_cycle)
    }

    /// Cycles until the *critical word* of a block response is usable
    /// (critical-word-first delivery: one flit after the link latency).
    pub fn critical_word_cycles(&self) -> u64 {
        self.link_latency + 1
    }
}

impl Default for TileTiming {
    fn default() -> Self {
        TileTiming {
            l0_latency: 1,
            l1_latency: 4,
            link_latency: 1,
            link_bytes_per_cycle: 8,
        }
    }
}

/// Counters accumulated by the tile; the system model converts deltas of
/// this struct into energy and traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStats {
    /// L0X data accesses (hits and the access part of fills).
    pub l0_accesses: u64,
    /// L0X lease hits.
    pub l0_hits: u64,
    /// L0X misses (cold, capacity or lease-expired).
    pub l0_misses: u64,
    /// L0X misses caused purely by lease expiry of a resident line.
    pub l0_lease_expiries: u64,
    /// L1X data-array accesses.
    pub l1_accesses: u64,
    /// L1X hits (of L0X miss requests).
    pub l1_hits: u64,
    /// L1X misses (needed a host fill).
    pub l1_misses: u64,
    /// Control messages L0X→L1X (epoch requests, renewals, wb notices).
    pub msgs_l0_to_l1: u64,
    /// Full-block data responses L1X→L0X.
    pub data_l1_to_l0: u64,
    /// Full-block writebacks L0X→L1X.
    pub wb_l0_to_l1: u64,
    /// Write-through store payloads L0X→L1X (8 B each).
    pub wt_stores: u64,
    /// Direct L0X→L0X forwarded blocks (FUSION-Dx).
    pub fwd_l0_to_l0: u64,
    /// Cycles spent stalled on write epochs / pending writebacks.
    pub stall_cycles: u64,
    /// Dirty L1X evictions (data must travel to the host L2).
    pub l1_evictions_dirty: u64,
    /// Clean L1X evictions (eviction notice only).
    pub l1_evictions_clean: u64,
    /// Dirty L0X writebacks that found the L1X line already evicted and
    /// had to continue through to the host L2.
    pub wb_through_to_l2: u64,
    /// Sets holding a dirty line at a self-downgrade sweep.
    pub downgrade_sets_scanned: u64,
    /// Sets with no dirty line at a self-downgrade sweep (the ones the
    /// paper's writeback-timestamp filter skips).
    pub downgrade_sets_filtered: u64,
    /// Host-forwarded MESI requests handled by the tile.
    pub host_forwards: u64,
    /// Blocks whose dirty data a host forward had to wait for.
    pub host_forward_waits: u64,
    /// L0X hits merged into the still-landing fill of their line (MSHR
    /// behaviour of the non-blocking interface).
    pub mshr_merges: u64,
    /// Blocks installed into the L1X by the sequential prefetcher
    /// (prefetch extension).
    pub prefetch_installs: u64,
    /// L0X misses that hit a prefetched L1X line.
    pub prefetch_hits: u64,
    /// Data-free epoch renewals granted (lease-renewal extension).
    pub lease_renewals: u64,
    /// Renewal attempts rejected because the L1X data was newer than the
    /// L0X copy (fell back to a full refetch).
    pub renewal_refetches: u64,
}

macro_rules! delta_fields {
    ($self:ident, $prev:ident, $($f:ident),+ $(,)?) => {
        TileStats { $($f: $self.$f - $prev.$f),+ }
    };
}

impl TileStats {
    /// Field-wise difference `self - prev` (per-phase accounting).
    pub fn delta(&self, prev: &TileStats) -> TileStats {
        delta_fields!(
            self,
            prev,
            l0_accesses,
            l0_hits,
            l0_misses,
            l0_lease_expiries,
            l1_accesses,
            l1_hits,
            l1_misses,
            msgs_l0_to_l1,
            data_l1_to_l0,
            wb_l0_to_l1,
            wt_stores,
            fwd_l0_to_l0,
            stall_cycles,
            l1_evictions_dirty,
            l1_evictions_clean,
            wb_through_to_l2,
            downgrade_sets_scanned,
            downgrade_sets_filtered,
            host_forwards,
            host_forward_waits,
            mshr_merges,
            prefetch_installs,
            prefetch_hits,
            lease_renewals,
            renewal_refetches,
        )
    }
}

/// Outcome of one accelerator access against the tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccAccess {
    /// Served by the L0X (valid lease).
    L0Hit {
        /// Completion time.
        done_at: Cycle,
    },
    /// Missed the L0X, served by the L1X (possibly after stalling on a
    /// write epoch or a pending writeback).
    L1Served {
        /// Completion time including stalls and the data response.
        done_at: Cycle,
    },
    /// Missed both levels: the caller must fetch the block from the host
    /// (MESI GetX — the L1X always takes exclusive ownership) and then call
    /// [`AccTile::complete_fill`] with the data-arrival time.
    FillNeeded {
        /// Time at which the L1X issues the host request (after the L0X
        /// probe, the request message and any epoch stalls).
        request_at: Cycle,
    },
}

/// An L1X line evicted toward the host; the system model must send the
/// matching eviction notice (PUTX) to the MESI directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Evicted {
    /// Owning process.
    pub pid: Pid,
    /// Evicted virtual block.
    pub block: BlockAddr,
    /// Whether data travels with the notice.
    pub dirty: bool,
    /// Earliest time the eviction notice may be released (GTIME rule: the
    /// tile relinquishes ownership only once no L0X lease can be live).
    pub release_at: Cycle,
}

/// Result of completing a host fill into the L1X.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillResult {
    /// Completion time at the requesting AXC.
    pub done_at: Cycle,
    /// L1X victim displaced by the fill, if any.
    pub evicted: Option<L1Evicted>,
}

/// Response of the tile to a forwarded host MESI request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostForward {
    /// Time at which the PUTX (eviction notice + data) is released to the
    /// host — `max(request time, GTIME, writeback completion)`.
    pub release_at: Cycle,
    /// Whether dirty data travels back.
    pub dirty: bool,
    /// Whether the tile actually cached the block (directory filtering
    /// should make this always true).
    pub was_cached: bool,
}

/// A producer→consumer write-forwarding directive (FUSION-Dx).
///
/// Identified by trace post-processing (the paper post-processes the trace
/// the same way to select the stores worth forwarding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForwardRule {
    /// The accelerator whose L0X forwards the block at self-downgrade.
    pub producer: AxcId,
    /// The accelerator whose L0X receives the block.
    pub consumer: AxcId,
    /// Lease length granted to the forwarded copy — the consumer
    /// function's epoch length ("the already requested lease lifetime").
    pub lease: u32,
    /// Forward even on a mid-phase capacity self-eviction. Set only for
    /// blocks the producer streams through once: evicting such a block
    /// means the producer is done with it, so its epoch can be handed to
    /// the consumer without stalling the producer on its own data.
    pub eager: bool,
}

/// The accelerator tile: per-AXC L0X caches + shared L1X under ACC.
#[derive(Debug, Clone)]
pub struct AccTile {
    l0x: Vec<SetAssocCache<L0Meta>>,
    l1x: SetAssocCache<L1Meta>,
    timing: TileTiming,
    write_policy: WritePolicy,
    /// FUSION-Dx forwarding rules, keyed by (pid, block); a block can have
    /// several rules with different producers (pipeline chains).
    ///
    /// Hot-map audit: probed by key in `writeback` only — never iterated —
    /// so the deterministic [`FxHashMap`] cannot affect results.
    forwards: FxHashMap<(Pid, BlockAddr), Vec<ForwardRule>>,
    /// Lease-renewal extension (off by default — not part of the paper's
    /// ACC): an expired L0X line whose data is provably current renews its
    /// epoch with a pair of control messages instead of a data transfer.
    renewal: bool,
    stats: TileStats,
    /// Opt-in runtime invariant checker (DESIGN.md §10). `None` on the
    /// trusted path: the hot loop pays one predictable branch.
    checker: Option<Box<ProtocolChecker>>,
}

impl AccTile {
    /// Builds a tile with `axcs` accelerators.
    ///
    /// # Panics
    ///
    /// Panics if `axcs` is zero.
    pub fn new(
        axcs: usize,
        l0_geometry: CacheGeometry,
        l1_geometry: CacheGeometry,
        timing: TileTiming,
        write_policy: WritePolicy,
    ) -> Self {
        assert!(axcs > 0, "tile needs at least one accelerator");
        AccTile {
            l0x: (0..axcs)
                .map(|_| SetAssocCache::new(l0_geometry, ReplacementPolicy::Lru))
                .collect(),
            l1x: SetAssocCache::new(l1_geometry, ReplacementPolicy::Lru),
            timing,
            write_policy,
            forwards: FxHashMap::default(),
            renewal: false,
            stats: TileStats::default(),
            checker: None,
        }
    }

    /// Enables the lease-renewal extension (see DESIGN.md "Extensions").
    pub fn set_lease_renewal(&mut self, enabled: bool) {
        self.renewal = enabled;
    }

    /// Enables runtime ACC invariant checking, optionally planting a
    /// deliberate protocol fault (see [`ProtocolChecker`]).
    pub fn enable_checker(&mut self, fault: Option<ProtocolFault>) {
        self.checker = Some(Box::new(ProtocolChecker::new(fault)));
    }

    /// The first ACC invariant violation the checker observed, if any.
    pub fn checker_violation(&self) -> Option<InvariantViolation> {
        self.checker.as_ref().and_then(|c| c.violation().cloned())
    }

    /// Number of accelerators in the tile.
    pub fn axc_count(&self) -> usize {
        self.l0x.len()
    }

    /// Installs the FUSION-Dx forwarding rules (trace post-processing
    /// output). An empty map disables forwarding (plain FUSION).
    pub fn set_forward_rules(&mut self, rules: FxHashMap<(Pid, BlockAddr), Vec<ForwardRule>>) {
        self.forwards = rules;
    }

    /// Current protocol counters.
    pub fn stats(&self) -> &TileStats {
        &self.stats
    }

    /// `true` if the L1X currently caches `(pid, block)`.
    pub fn l1x_caches(&self, pid: Pid, block: BlockAddr) -> bool {
        self.l1x.probe(pid, block).is_some()
    }

    /// One accelerator load/store.
    ///
    /// `lease` is the per-function lease length (Table 3's LT column).
    /// On [`AccAccess::FillNeeded`] the caller must resolve the host fill
    /// and then call [`AccTile::complete_fill`].
    pub fn axc_access(
        &mut self,
        axc: AxcId,
        pid: Pid,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        lease: u32,
    ) -> AccAccess {
        self.stats.l0_accesses += 1;
        let axi = axc.index();
        if let Some((set, way)) = self.l0x[axi].lookup_pos(pid, block) {
            let line = self.l0x[axi].line_at(set, way);
            let meta = line.meta;
            let was_dirty = line.dirty;
            if meta.lease_end >= now {
                // Valid lease. Reads always proceed; writes need a write
                // epoch (upgrade if we only hold a read lease).
                if !kind.is_write() || meta.write_lease {
                    if kind.is_write() && !was_dirty {
                        self.l0x[axi].line_at_mut(set, way).dirty = true;
                    }
                    self.stats.l0_hits += 1;
                    let mut done = now + self.timing.l0_latency;
                    // Hit-under-miss: the line was installed by a fill
                    // that is still in flight — the data is not usable
                    // before that fill lands (MSHR merge).
                    if meta.fill_done > done {
                        done = meta.fill_done;
                        self.stats.mshr_merges += 1;
                    }
                    return self.maybe_write_through(kind, done);
                }
                // Upgrade: request a write epoch from the L1X.
                self.stats.l0_misses += 1;
                return self.request_epoch(axc, pid, block, kind, now, lease);
            }
            // Lease expired. With the renewal extension, a copy whose
            // data is provably current re-acquires an epoch with control
            // messages only (no 64 B transfer in either direction).
            self.stats.l0_lease_expiries += 1;
            let acquired = meta.acquired;
            let expired_at = meta.lease_end;
            if self.renewal {
                // Renewal needs the L1X line resident, and its data no
                // newer than this copy unless the copy is the dirty owner.
                let current = self
                    .l1x
                    .probe(pid, block)
                    .is_some_and(|l| was_dirty || l.meta.last_write <= acquired);
                if current {
                    self.stats.l0_misses += 1;
                    return self.renew_epoch(axc, pid, block, kind, now, lease, was_dirty);
                }
                self.stats.renewal_refetches += 1;
            }
            self.l0x[axi].invalidate(pid, block);
            if was_dirty {
                self.writeback(axc, pid, block, expired_at.max(now), false);
            }
        }
        self.stats.l0_misses += 1;
        self.request_epoch(axc, pid, block, kind, now, lease)
    }

    /// Data-free epoch renewal (extension): the L0X copy is current, so
    /// the L1X only re-validates the epoch. Subject to the same stall
    /// rules as a normal grant, but no block moves on the link.
    #[allow(clippy::too_many_arguments)]
    fn renew_epoch(
        &mut self,
        axc: AxcId,
        pid: Pid,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        lease: u32,
        was_dirty: bool,
    ) -> AccAccess {
        self.stats.msgs_l0_to_l1 += 1;
        self.stats.lease_renewals += 1;
        let at_l1 = now + self.timing.l0_latency + self.timing.msg_cycles();
        let timing = self.timing;
        let Some(line) = self.l1x.probe_mut(pid, block) else {
            // Unreachable by construction: `axc_access` verified residency
            // immediately before electing renewal. Degrade to a full epoch
            // request and let the checker flag the inconsistency rather
            // than aborting the simulation.
            if let Some(c) = self.checker.as_deref_mut() {
                c.record(
                    "ACC",
                    "renewal-residency",
                    format!("renewal for block {block:?} found no resident L1X line"),
                );
            }
            self.stats.renewal_refetches += 1;
            return self.request_epoch(axc, pid, block, kind, now, lease);
        };
        let grant = transition::acc_grant(
            line.meta,
            axc,
            kind.is_write(),
            at_l1,
            lease,
            timing.data_cycles(),
            transition::GrantMode::Renewal,
        );
        line.meta = grant.meta;
        let (start, end) = (grant.start, grant.lease_end);
        self.stats.stall_cycles += start - at_l1;
        // Grant acknowledgement message back (no data).
        let done = start + timing.l1_latency + timing.msg_cycles() + timing.l0_latency;
        let keep_dirty =
            was_dirty || (kind.is_write() && self.write_policy == WritePolicy::WriteBack);
        // The copy's data is already local: no fill gates it.
        self.l0x[axc.index()].insert(
            pid,
            block,
            L0Meta {
                lease_end: end,
                write_lease: kind.is_write() || was_dirty,
                acquired: start,
                fill_done: Cycle::ZERO,
            },
            keep_dirty,
        );
        if self.checker.is_some() {
            self.checker_after_grant(axc, pid, block);
        }
        self.maybe_write_through(kind, done)
    }

    /// Epoch request to the L1X after an L0X miss. Grants from the L1X if
    /// the line is resident, otherwise reports `FillNeeded`.
    fn request_epoch(
        &mut self,
        axc: AxcId,
        pid: Pid,
        block: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        lease: u32,
    ) -> AccAccess {
        self.stats.msgs_l0_to_l1 += 1;
        let at_l1 = now + self.timing.l0_latency + self.timing.msg_cycles();
        if self.l1x.lookup(pid, block).is_none() {
            self.stats.l1_misses += 1;
            return AccAccess::FillNeeded { request_at: at_l1 };
        }
        self.stats.l1_hits += 1;
        let done_at = self.grant_from_l1x(axc, pid, block, kind, at_l1, lease);
        AccAccess::L1Served { done_at }
    }

    /// Grants an epoch from a resident L1X line, applying the stall rules,
    /// and installs the block in the requester's L0X.
    fn grant_from_l1x(
        &mut self,
        axc: AxcId,
        pid: Pid,
        block: BlockAddr,
        kind: AccessKind,
        at_l1: Cycle,
        lease: u32,
    ) -> Cycle {
        let timing = self.timing;
        #[expect(
            clippy::expect_used,
            reason = "both callers (request_epoch, complete_fill) establish residency first"
        )]
        let line = self
            .l1x
            .probe_mut(pid, block)
            .expect("grant_from_l1x requires a resident line");
        // The stall rules, GTIME extension and write-lock bookkeeping all
        // live in the pure transition function the model checker verifies.
        let grant = transition::acc_grant(
            line.meta,
            axc,
            kind.is_write(),
            at_l1,
            lease,
            timing.data_cycles(),
            transition::GrantMode::Fresh,
        );
        line.meta = grant.meta;
        if grant.was_prefetched {
            self.stats.prefetch_hits += 1;
        }
        let (start, end) = (grant.start, grant.lease_end);
        self.stats.stall_cycles += start - at_l1;

        // L1X data access + response. The requester consumes the critical
        // word as soon as it arrives; the rest of the line streams behind
        // it, and the L0X line's fill gate holds later hits until it lands.
        self.stats.l1_accesses += 1;
        self.stats.data_l1_to_l0 += 1;
        let done = start + timing.l1_latency + timing.critical_word_cycles();
        let line_done = start + timing.l1_latency + timing.data_cycles() + timing.l0_latency;

        self.install_l0(axc, pid, block, kind, end, start, line_done);
        let done = done + timing.l0_latency;
        if self.checker.is_some() {
            self.checker_after_grant(axc, pid, block);
        }
        match self.maybe_write_through(kind, done) {
            AccAccess::L0Hit { done_at } | AccAccess::L1Served { done_at } => done_at,
            AccAccess::FillNeeded { .. } => unreachable!("write-through never refills"),
        }
    }

    /// Installs a granted line into the requester's L0X, handling the
    /// capacity victim.
    #[allow(clippy::too_many_arguments)]
    fn install_l0(
        &mut self,
        axc: AxcId,
        pid: Pid,
        block: BlockAddr,
        kind: AccessKind,
        lease_end: Cycle,
        acquired: Cycle,
        fill_done: Cycle,
    ) {
        let dirty = kind.is_write() && self.write_policy == WritePolicy::WriteBack;
        let victim = self.l0x[axc.index()].insert(
            pid,
            block,
            L0Meta {
                lease_end,
                write_lease: kind.is_write(),
                acquired,
                fill_done,
            },
            dirty,
        );
        if let Some(v) = victim.filter(|v| v.dirty) {
            // Evicted before lease expiry: early self-downgrade.
            self.writeback(axc, v.pid, v.block, v.meta.lease_end.min(lease_end), false);
        }
    }

    /// Checker-mode validation after an epoch grant or renewal: counts the
    /// event, applies a planted fault if it fires now, then re-validates
    /// the ACC invariants for the granted line. Off the hot path — callers
    /// guard with a single `checker.is_some()` branch — and purely
    /// observational: only stat-free probes, no energy, no clocks.
    #[cold]
    fn checker_after_grant(&mut self, axc: AxcId, pid: Pid, block: BlockAddr) {
        let fired = match self.checker.as_deref_mut() {
            Some(c) => c.next_event(),
            None => return,
        };
        if let Some(kind) = fired {
            match kind {
                ProtocolFaultKind::LeaseOverrun => {
                    // Extend the granted L0 lease past the line's global
                    // epoch horizon without telling the L1X.
                    if let Some(l) = self.l0x[axc.index()].probe_mut(pid, block) {
                        l.meta.lease_end += 1_000_000;
                    }
                }
                ProtocolFaultKind::GtimeRegression => {
                    // Rewind the L1X's global lease horizon below the live
                    // L0 lease just granted.
                    if let Some(l1) = self.l1x.probe_mut(pid, block) {
                        l1.meta.gtime = Cycle::ZERO;
                    }
                }
                // MESI faults are planted in the directory, not here.
                ProtocolFaultKind::EmptySharerList | ProtocolFaultKind::WrongOwner => {}
            }
        }
        let Some(l1) = self.l1x.probe(pid, block).map(|l| l.meta) else {
            return;
        };
        let mut viol: Option<(&'static str, String)> = None;
        // Invariant: a write-locked line always names its writer — the
        // self-downgrade path depends on it.
        if l1.write_locked_until.is_some() && l1.writer.is_none() {
            viol = Some((
                "write-lock-writer",
                format!("block {block:?} is write-locked with no writer recorded"),
            ));
        }
        // Invariant (lease containment): every live L0 lease is covered by
        // its backing line's GTIME, or the L1X could answer a host forward
        // while an L0X still considers its copy valid.
        if let Some(l0) = self.l0x[axc.index()].probe(pid, block) {
            if l0.meta.lease_end > l1.gtime {
                viol = Some((
                    "lease-containment",
                    format!(
                        "block {block:?}: L0 lease_end {:?} exceeds L1X gtime {:?}",
                        l0.meta.lease_end, l1.gtime
                    ),
                ));
            }
        }
        if let Some((rule, detail)) = viol {
            if let Some(c) = self.checker.as_deref_mut() {
                c.record("ACC", rule, detail);
            }
        }
    }

    /// For write-through L0Xs every store also pushes its payload (8 B) to
    /// the L1X (Section 5.3).
    fn maybe_write_through(&mut self, kind: AccessKind, done: Cycle) -> AccAccess {
        if kind.is_write() && self.write_policy == WritePolicy::WriteThrough {
            self.stats.wt_stores += 1;
            self.stats.l1_accesses += 1;
        }
        AccAccess::L0Hit { done_at: done }
    }

    /// A dirty-line writeback from an L0X to the L1X (or through to the
    /// host when the L1X no longer caches the block). `at` is when the
    /// writeback logically occurs; the L1X becomes readable for this block
    /// at `at + data_cycles`. If `allow_forward` is set (self-downgrade at
    /// the end of the producer's invocation — the point FUSION-Dx forwards
    /// at) and a forwarding rule covers the block, the data instead moves
    /// directly into the consumer's L0X. Mid-phase capacity evictions and
    /// lease expiries never forward: the producer may still be using the
    /// block, and stealing its epoch would stall it on its own data.
    fn writeback(
        &mut self,
        axc: AxcId,
        pid: Pid,
        block: BlockAddr,
        at: Cycle,
        allow_forward: bool,
    ) {
        let rule = self
            .forwards
            .get(&(pid, block))
            .and_then(|rules| rules.iter().find(|r| r.producer == axc))
            .copied()
            .filter(|r| allow_forward || r.eager);
        if let Some(rule) = rule {
            self.forward_to_consumer(rule, pid, block, at);
            return;
        }
        self.stats.wb_l0_to_l1 += 1;
        let wb_ready = at + self.timing.data_cycles();
        match self.l1x.probe_mut(pid, block) {
            Some(line) => {
                line.dirty = true;
                self.stats.l1_accesses += 1;
                // The writeback message doubles as a lease release: the
                // writer's copy is invalid once written back, so when it
                // was the sole holder the L1X can lower GTIME to the
                // writeback horizon instead of the unused epoch remainder.
                line.meta = transition::acc_writeback(line.meta, axc, at, wb_ready);
            }
            None => {
                // Line already evicted from the L1X: the data continues to
                // the host L2 (counted separately — it rides the expensive
                // L1X–L2 link).
                self.stats.wb_through_to_l2 += 1;
            }
        }
    }

    /// FUSION-Dx: move a dirty block straight into the consumer's L0X,
    /// inheriting the already-granted lease lifetime (the L1X is not
    /// informed — it only tracks the lease epoch, not the owner).
    fn forward_to_consumer(&mut self, rule: ForwardRule, pid: Pid, block: BlockAddr, at: Cycle) {
        self.stats.fwd_l0_to_l0 += 1;
        // The forwarded copy lives for the consumer's epoch length,
        // starting when the data lands.
        let lease_end = at + self.timing.data_cycles() + rule.lease as u64;
        // Keep the L1X epoch state consistent: the consumer now holds the
        // (dirty) copy under the same epoch.
        if let Some(line) = self.l1x.probe_mut(pid, block) {
            line.meta = transition::acc_forward(line.meta, rule.producer, rule.consumer, lease_end);
        }
        // The lease starts when the data lands, so no fill gates the copy.
        let victim = self.l0x[rule.consumer.index()].insert(
            pid,
            block,
            L0Meta {
                lease_end,
                write_lease: true, // carries the dirty token
                acquired: at,
                fill_done: Cycle::ZERO,
            },
            true,
        );
        if let Some(v) = victim.filter(|v| v.dirty) {
            self.writeback(rule.consumer, v.pid, v.block, at, false);
        }
    }

    /// Completes a host fill: installs the block exclusively in the L1X,
    /// grants the epoch and fills the L0X. `data_at` is when the MESI data
    /// response reached the tile.
    pub fn complete_fill(
        &mut self,
        axc: AxcId,
        pid: Pid,
        block: BlockAddr,
        kind: AccessKind,
        data_at: Cycle,
        lease: u32,
    ) -> FillResult {
        self.stats.l1_accesses += 1;
        let fresh = transition::acc_fill_meta(data_at, false);
        let victim = self.l1x.insert(pid, block, fresh, kind.is_write());
        let evicted = victim.map(|v| self.l1_evicted(v, data_at));
        let done_at = self.grant_from_l1x(axc, pid, block, kind, data_at, lease);
        FillResult { done_at, evicted }
    }

    /// Installs a prefetched block into the L1X (prefetch extension): the
    /// line arrives exclusively like any fill but grants no L0X lease.
    /// Returns the displaced victim, if any, exactly like a demand fill.
    ///
    /// The block must not be resident: the prefetcher checks
    /// [`AccTile::l1x_caches`] before it pays for the host fill.
    pub fn prefetch_install(
        &mut self,
        pid: Pid,
        block: BlockAddr,
        data_at: Cycle,
    ) -> Option<L1Evicted> {
        debug_assert!(!self.l1x_caches(pid, block), "prefetch of a resident block");
        self.stats.prefetch_installs += 1;
        self.stats.l1_accesses += 1;
        let fresh = transition::acc_fill_meta(data_at, true);
        let victim = self.l1x.insert(pid, block, fresh, false);
        victim.map(|v| self.l1_evicted(v, data_at))
    }

    /// Counts an L1X victim toward the host and builds its eviction
    /// notice, released no earlier than `now` and the line's GTIME.
    fn l1_evicted(&mut self, v: Evicted<L1Meta>, now: Cycle) -> L1Evicted {
        if v.dirty {
            self.stats.l1_evictions_dirty += 1;
        } else {
            self.stats.l1_evictions_clean += 1;
        }
        L1Evicted {
            pid: v.pid,
            block: v.block,
            dirty: v.dirty,
            release_at: v.meta.gtime.max(now),
        }
    }

    /// Phase-end self-downgrade for `axc` (the accelerator invocation has
    /// completed, so its expected-latency epochs end now): writes back its
    /// dirty lines, truncating their write epochs, and releases every
    /// lease it still holds. One pass over the L0X reads each line's own
    /// dirty bit; the sets holding no dirty line are the ones the paper's
    /// per-set writeback timestamps filter out (Section 3.2
    /// "implementation decision"), and are counted as such.
    pub fn downgrade_all(&mut self, axc: AxcId, pid: Pid, now: Cycle) {
        let l0 = &mut self.l0x[axc.index()];
        let mut dirty_blocks = Vec::new();
        let mut live = Vec::new();
        for set in 0..l0.sets() {
            let mut any_dirty = false;
            for line in l0.iter_set_mut(BlockAddr::from_index(set as u64)) {
                any_dirty |= line.dirty;
                if line.dirty && line.pid == pid {
                    line.dirty = false;
                    line.meta.write_lease = false;
                    dirty_blocks.push(line.block);
                }
                // Early lease release: epochs are sized to the invocation
                // (Section 3.2), so when the invocation completes every
                // lease this AXC holds ends now.
                if line.meta.lease_end > now {
                    line.meta.lease_end = now;
                    line.meta.write_lease = false;
                    live.push((line.pid, line.block));
                }
            }
            if any_dirty {
                self.stats.downgrade_sets_scanned += 1;
            } else {
                self.stats.downgrade_sets_filtered += 1;
            }
        }
        for block in dirty_blocks {
            // Truncate the write epoch at `now` before writing back.
            if let Some(line) = self.l1x.probe_mut(pid, block) {
                line.meta = transition::acc_truncate_write_epoch(line.meta, axc, now);
            }
            self.writeback(axc, pid, block, now, true);
        }
        // Where this AXC was the sole holder, the L1X GTIME can be lowered
        // too: later writers and host forwards need not wait out the
        // unused remainder of the epoch.
        for (lpid, block) in live {
            if let Some(l1) = self.l1x.probe_mut(lpid, block) {
                l1.meta = transition::acc_release_lease(l1.meta, axc, now);
            }
        }
    }

    /// Handles a forwarded host MESI request for `(pid, block)` arriving at
    /// `now`: the L1X must relinquish ownership. The eviction notice (and
    /// dirty data) is released once GTIME has passed and any pending
    /// writeback has landed; the L0Xs are never probed (Figure 4, right).
    pub fn host_forward(&mut self, pid: Pid, block: BlockAddr, now: Cycle) -> HostForward {
        self.stats.host_forwards += 1;
        let Some(line) = self.l1x.probe(pid, block) else {
            return HostForward {
                release_at: now,
                dirty: false,
                was_cached: false,
            };
        };
        let rel =
            transition::acc_host_release(&line.meta, line.dirty, now, self.timing.data_cycles());
        self.stats.host_forward_waits += rel.waits;
        let mut dirty = rel.dirty;
        let release = rel.release_at;
        // Collect any still-dirty L0X data for this block (lazy writeback
        // accounting: the data would have self-downgraded by GTIME).
        for l0 in &mut self.l0x {
            if let Some(l) = l0.probe_mut(pid, block) {
                if l.dirty {
                    l.dirty = false;
                    self.stats.wb_l0_to_l1 += 1;
                    self.stats.l1_accesses += 1;
                    dirty = true;
                }
                // The copy self-invalidates at lease end (<= GTIME); no
                // message is needed.
            }
        }
        self.l1x.invalidate(pid, block);
        if dirty {
            self.stats.l1_evictions_dirty += 1;
        } else {
            self.stats.l1_evictions_clean += 1;
        }
        HostForward {
            release_at: release,
            dirty,
            was_cached: true,
        }
    }

    /// End-of-workload flush: writes back every dirty line (L0X then L1X)
    /// and returns the dirty L1X blocks that must PUTX to the host.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "AXC ids are u16 and the tile builds one L0X per id"
    )]
    pub fn flush_all(&mut self, now: Cycle) -> Vec<L1Evicted> {
        for axc in 0..self.l0x.len() {
            let mut blocks = Vec::new();
            for line in self.l0x[axc].iter_mut().filter(|l| l.dirty) {
                line.dirty = false;
                blocks.push((line.pid, line.block));
            }
            for (pid, block) in blocks {
                self.writeback(AxcId::new(axc as u16), pid, block, now, false);
            }
        }
        let mut evicted = Vec::new();
        self.l1x.flush_with(|e| evicted.push(e));
        evicted
            .into_iter()
            .map(|e| self.l1_evicted(e, now))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(axcs: usize) -> AccTile {
        AccTile::new(
            axcs,
            CacheGeometry {
                capacity_bytes: 4096,
                ways: 4,
                banks: 1,
                latency: 1,
            },
            CacheGeometry {
                capacity_bytes: 64 * 1024,
                ways: 8,
                banks: 16,
                latency: 4,
            },
            TileTiming::default(),
            WritePolicy::WriteBack,
        )
    }

    const P: Pid = Pid(1);

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    fn fill(
        t: &mut AccTile,
        axc: u16,
        block: u64,
        kind: AccessKind,
        now: u64,
        lease: u32,
    ) -> Cycle {
        match t.axc_access(AxcId::new(axc), P, b(block), kind, Cycle::new(now), lease) {
            AccAccess::FillNeeded { request_at } => {
                // Pretend the host fill took 50 cycles.
                t.complete_fill(AxcId::new(axc), P, b(block), kind, request_at + 50, lease)
                    .done_at
            }
            AccAccess::L1Served { done_at } | AccAccess::L0Hit { done_at } => done_at,
        }
    }

    #[test]
    fn clean_checker_run_is_silent_and_invisible() {
        // Same access sequence with and without the checker: identical
        // timing, identical stats, no violation.
        let mut plain = tile(2);
        let mut checked = tile(2);
        checked.enable_checker(None);
        for (axc, block, kind, now) in [
            (0u16, 1u64, AccessKind::Load, 0u64),
            (1, 1, AccessKind::Store, 40),
            (0, 2, AccessKind::Store, 300),
            (1, 2, AccessKind::Load, 900),
            (0, 1, AccessKind::Load, 1500),
        ] {
            let a = fill(&mut plain, axc, block, kind, now, 200);
            let b = fill(&mut checked, axc, block, kind, now, 200);
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), checked.stats());
        assert_eq!(checked.checker_violation(), None);
    }

    #[test]
    fn planted_lease_overrun_is_caught() {
        let mut t = tile(1);
        t.enable_checker(Some(ProtocolFault {
            at_event: 1,
            kind: ProtocolFaultKind::LeaseOverrun,
        }));
        fill(&mut t, 0, 1, AccessKind::Load, 0, 100);
        assert_eq!(t.checker_violation(), None, "fault not planted yet");
        fill(&mut t, 0, 2, AccessKind::Load, 500, 100);
        let v = t.checker_violation().expect("overrun must be flagged");
        assert_eq!(v.protocol, "ACC");
        assert_eq!(v.rule, "lease-containment");
    }

    #[test]
    fn planted_gtime_regression_is_caught() {
        let mut t = tile(1);
        t.enable_checker(Some(ProtocolFault {
            at_event: 0,
            kind: ProtocolFaultKind::GtimeRegression,
        }));
        fill(&mut t, 0, 1, AccessKind::Store, 0, 100);
        let v = t.checker_violation().expect("regression must be flagged");
        assert_eq!(v.protocol, "ACC");
        assert_eq!(v.rule, "lease-containment");
    }

    #[test]
    fn cold_miss_needs_host_fill() {
        let mut t = tile(2);
        match t.axc_access(AxcId::new(0), P, b(1), AccessKind::Load, Cycle::new(0), 100) {
            AccAccess::FillNeeded { request_at } => {
                // L0 latency (1) + msg (link 1 + 1 serialize) = 3.
                assert_eq!(request_at, Cycle::new(3));
            }
            other => panic!("expected FillNeeded, got {other:?}"),
        }
        assert_eq!(t.stats().l1_misses, 1);
        assert_eq!(t.stats().msgs_l0_to_l1, 1);
    }

    #[test]
    fn lease_hit_until_expiry() {
        let mut t = tile(1);
        fill(&mut t, 0, 1, AccessKind::Load, 0, 100);
        // Within the lease: L0 hit, no new messages.
        let msgs = t.stats().msgs_l0_to_l1;
        match t.axc_access(
            AxcId::new(0),
            P,
            b(1),
            AccessKind::Load,
            Cycle::new(80),
            100,
        ) {
            AccAccess::L0Hit { .. } => {}
            other => panic!("expected L0Hit, got {other:?}"),
        }
        assert_eq!(t.stats().msgs_l0_to_l1, msgs);
        // After expiry: self-invalidated, L1X re-grants (L1 hit, no host).
        match t.axc_access(
            AxcId::new(0),
            P,
            b(1),
            AccessKind::Load,
            Cycle::new(5000),
            100,
        ) {
            AccAccess::L1Served { .. } => {}
            other => panic!("expected L1Served, got {other:?}"),
        }
        assert_eq!(t.stats().l0_lease_expiries, 1);
        assert_eq!(t.stats().l1_hits, 1);
    }

    #[test]
    fn write_caching_keeps_dirty_data_local() {
        let mut t = tile(1);
        fill(&mut t, 0, 1, AccessKind::Store, 0, 1000);
        let wb_before = t.stats().wb_l0_to_l1;
        for now in [10, 20, 30, 40] {
            match t.axc_access(
                AxcId::new(0),
                P,
                b(1),
                AccessKind::Store,
                Cycle::new(now),
                1000,
            ) {
                AccAccess::L0Hit { .. } => {}
                other => panic!("expected write-cached L0 hit, got {other:?}"),
            }
        }
        assert_eq!(
            t.stats().wb_l0_to_l1,
            wb_before,
            "write caching: no per-store traffic"
        );
    }

    #[test]
    fn write_through_sends_every_store() {
        let mut t = AccTile::new(
            1,
            CacheGeometry {
                capacity_bytes: 4096,
                ways: 4,
                banks: 1,
                latency: 1,
            },
            CacheGeometry {
                capacity_bytes: 64 * 1024,
                ways: 8,
                banks: 16,
                latency: 4,
            },
            TileTiming::default(),
            WritePolicy::WriteThrough,
        );
        match t.axc_access(
            AxcId::new(0),
            P,
            b(1),
            AccessKind::Store,
            Cycle::new(0),
            1000,
        ) {
            AccAccess::FillNeeded { request_at } => {
                t.complete_fill(
                    AxcId::new(0),
                    P,
                    b(1),
                    AccessKind::Store,
                    request_at + 50,
                    1000,
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        for now in [100, 110, 120] {
            t.axc_access(
                AxcId::new(0),
                P,
                b(1),
                AccessKind::Store,
                Cycle::new(now),
                1000,
            );
        }
        assert_eq!(t.stats().wt_stores, 4);
    }

    #[test]
    fn reader_stalls_on_foreign_write_epoch() {
        let mut t = tile(2);
        // AXC-0 takes a write epoch [.., ~1000].
        fill(&mut t, 0, 7, AccessKind::Store, 0, 1000);
        // AXC-1 reads early: must stall until the epoch expires + wb lands.
        let done = fill(&mut t, 1, 7, AccessKind::Load, 100, 500);
        assert!(
            done.value() > 1000,
            "consumer finished at {done} before the write epoch expired"
        );
        assert!(t.stats().stall_cycles > 0);
    }

    #[test]
    fn downgrade_unblocks_consumer_early() {
        let mut t = tile(2);
        fill(&mut t, 0, 7, AccessKind::Store, 0, 10_000);
        // Producer's phase ends at 200: self-downgrade truncates the epoch.
        t.downgrade_all(AxcId::new(0), P, Cycle::new(200));
        assert_eq!(t.stats().wb_l0_to_l1, 1);
        let done = fill(&mut t, 1, 7, AccessKind::Load, 250, 500);
        assert!(
            done.value() < 1000,
            "consumer should not wait for the un-truncated epoch (done {done})"
        );
    }

    #[test]
    fn downgrade_filter_skips_clean_sets() {
        let mut t = tile(1);
        fill(&mut t, 0, 1, AccessKind::Store, 0, 1000);
        t.downgrade_all(AxcId::new(0), P, Cycle::new(100));
        let s = t.stats();
        assert_eq!(s.downgrade_sets_scanned, 1);
        assert_eq!(s.downgrade_sets_filtered, 16 - 1);
    }

    #[test]
    fn same_axc_upgrades_without_waiting() {
        let mut t = tile(1);
        fill(&mut t, 0, 3, AccessKind::Load, 0, 1000);
        // Upgrade read->write by the sole holder: no GTIME stall.
        let stalls_before = t.stats().stall_cycles;
        match t.axc_access(
            AxcId::new(0),
            P,
            b(3),
            AccessKind::Store,
            Cycle::new(50),
            1000,
        ) {
            AccAccess::L1Served { done_at } => {
                assert!(
                    done_at.value() < 200,
                    "sole-holder upgrade stalled: {done_at}"
                );
            }
            other => panic!("expected upgrade via L1X, got {other:?}"),
        }
        assert_eq!(t.stats().stall_cycles, stalls_before);
    }

    #[test]
    fn host_forward_waits_for_gtime_and_collects_dirty_data() {
        let mut t = tile(1);
        fill(&mut t, 0, 9, AccessKind::Store, 0, 1000);
        let fwd = t.host_forward(P, b(9), Cycle::new(100));
        assert!(fwd.was_cached);
        assert!(fwd.dirty);
        assert!(
            fwd.release_at.value() >= 1000,
            "PUTX released at {}",
            fwd.release_at
        );
        assert!(!t.l1x_caches(P, b(9)));
        // After expiry, no wait.
        fill(&mut t, 0, 10, AccessKind::Load, 2000, 100);
        let fwd2 = t.host_forward(P, b(10), Cycle::new(5000));
        assert_eq!(fwd2.release_at, Cycle::new(5000));
        assert!(!fwd2.dirty);
    }

    #[test]
    fn host_forward_untracked_block_is_benign() {
        let mut t = tile(1);
        let fwd = t.host_forward(P, b(77), Cycle::new(10));
        assert!(!fwd.was_cached);
        assert!(!fwd.dirty);
    }

    #[test]
    fn forwarding_rule_moves_data_between_l0xs() {
        let mut t = tile(2);
        let mut rules = FxHashMap::default();
        rules.insert(
            (P, b(5)),
            vec![ForwardRule {
                producer: AxcId::new(0),
                consumer: AxcId::new(1),
                lease: 500,
                eager: false,
            }],
        );
        t.set_forward_rules(rules);
        fill(&mut t, 0, 5, AccessKind::Store, 0, 1000);
        t.downgrade_all(AxcId::new(0), P, Cycle::new(100));
        assert_eq!(t.stats().fwd_l0_to_l0, 1);
        assert_eq!(
            t.stats().wb_l0_to_l1,
            0,
            "forwarded block skips the L1X writeback"
        );
        // Consumer hits its L0X without any L1X traffic.
        let msgs = t.stats().msgs_l0_to_l1;
        match t.axc_access(
            AxcId::new(1),
            P,
            b(5),
            AccessKind::Load,
            Cycle::new(150),
            500,
        ) {
            AccAccess::L0Hit { .. } => {}
            other => panic!("consumer should hit forwarded data, got {other:?}"),
        }
        assert_eq!(t.stats().msgs_l0_to_l1, msgs);
    }

    #[test]
    fn fill_evictions_report_release_time() {
        // L1X with 1 way and 2 sets: conflict evictions guaranteed.
        let mut t = AccTile::new(
            1,
            CacheGeometry {
                capacity_bytes: 4096,
                ways: 4,
                banks: 1,
                latency: 1,
            },
            CacheGeometry {
                capacity_bytes: 128,
                ways: 1,
                banks: 1,
                latency: 4,
            },
            TileTiming::default(),
            WritePolicy::WriteBack,
        );
        fill(&mut t, 0, 0, AccessKind::Store, 0, 1000);
        // Block 2 maps to set 0 as well: evicts block 0.
        match t.axc_access(
            AxcId::new(0),
            P,
            b(2),
            AccessKind::Load,
            Cycle::new(10),
            1000,
        ) {
            AccAccess::FillNeeded { request_at } => {
                let res = t.complete_fill(
                    AxcId::new(0),
                    P,
                    b(2),
                    AccessKind::Load,
                    request_at + 50,
                    1000,
                );
                let ev = res.evicted.expect("conflict eviction");
                assert_eq!(ev.block, b(0));
                assert!(ev.dirty);
                assert!(ev.release_at.value() >= 1000, "GTIME rule violated");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flush_writes_back_dirty_data() {
        let mut t = tile(1);
        fill(&mut t, 0, 1, AccessKind::Store, 0, 1000);
        fill(&mut t, 0, 2, AccessKind::Load, 20, 1000);
        let evicted = t.flush_all(Cycle::new(5000));
        assert_eq!(evicted.len(), 2);
        assert!(evicted.iter().any(|e| e.block == b(1) && e.dirty));
        assert!(evicted.iter().any(|e| e.block == b(2) && !e.dirty));
        assert!(!t.l1x_caches(P, b(1)) && !t.l1x_caches(P, b(2)));
    }

    #[test]
    fn stats_delta_isolates_a_phase() {
        let mut t = tile(1);
        fill(&mut t, 0, 1, AccessKind::Load, 0, 1000);
        let snapshot = *t.stats();
        fill(&mut t, 0, 2, AccessKind::Load, 10, 1000);
        let d = t.stats().delta(&snapshot);
        assert_eq!(d.l0_accesses, 1);
        assert_eq!(d.l1_misses, 1);
    }

    #[test]
    fn lease_renewal_avoids_data_transfer() {
        let mut t = tile(1);
        t.set_lease_renewal(true);
        fill(&mut t, 0, 1, AccessKind::Load, 0, 100);
        let data_before = t.stats().data_l1_to_l0;
        // Access long after expiry: the copy is clean and the L1X has not
        // seen newer data, so the epoch renews without a transfer.
        match t.axc_access(
            AxcId::new(0),
            P,
            b(1),
            AccessKind::Load,
            Cycle::new(5000),
            100,
        ) {
            AccAccess::L0Hit { done_at } => assert!(done_at.value() < 5050),
            other => panic!("expected renewed hit, got {other:?}"),
        }
        let s = t.stats();
        assert_eq!(s.lease_renewals, 1);
        assert_eq!(s.data_l1_to_l0, data_before, "renewal must not move data");
        // And the renewed lease works: a hit inside the new epoch.
        match t.axc_access(
            AxcId::new(0),
            P,
            b(1),
            AccessKind::Load,
            Cycle::new(5060),
            100,
        ) {
            AccAccess::L0Hit { .. } => {}
            other => panic!("renewed lease not honored: {other:?}"),
        }
    }

    #[test]
    fn lease_renewal_refetches_stale_data() {
        let mut t = tile(2);
        t.set_lease_renewal(true);
        // AXC-1 reads, then AXC-0 writes (newer data reaches the L1X via
        // its self-downgrade), then AXC-1 comes back after expiry: its
        // copy is stale and must be refetched with data.
        fill(&mut t, 1, 2, AccessKind::Load, 0, 50);
        fill(&mut t, 0, 2, AccessKind::Store, 200, 100);
        t.downgrade_all(AxcId::new(0), P, Cycle::new(400));
        let data_before = t.stats().data_l1_to_l0;
        match t.axc_access(
            AxcId::new(1),
            P,
            b(2),
            AccessKind::Load,
            Cycle::new(5000),
            100,
        ) {
            AccAccess::L1Served { .. } => {}
            other => panic!("stale copy must refetch: {other:?}"),
        }
        let s = t.stats();
        assert_eq!(s.renewal_refetches, 1);
        assert_eq!(s.data_l1_to_l0, data_before + 1, "refetch moves one block");
    }

    #[test]
    fn lease_renewal_disabled_by_default() {
        let mut t = tile(1);
        fill(&mut t, 0, 1, AccessKind::Load, 0, 100);
        t.axc_access(
            AxcId::new(0),
            P,
            b(1),
            AccessKind::Load,
            Cycle::new(5000),
            100,
        );
        assert_eq!(t.stats().lease_renewals, 0);
    }

    #[test]
    fn dirty_copy_always_renews() {
        // The dirty copy *is* the newest data; renewal is always sound.
        let mut t = tile(1);
        t.set_lease_renewal(true);
        fill(&mut t, 0, 3, AccessKind::Store, 0, 100);
        let wb_before = t.stats().wb_l0_to_l1;
        match t.axc_access(
            AxcId::new(0),
            P,
            b(3),
            AccessKind::Store,
            Cycle::new(5000),
            100,
        ) {
            AccAccess::L0Hit { .. } => {}
            other => panic!("dirty renewal failed: {other:?}"),
        }
        assert_eq!(t.stats().lease_renewals, 1);
        assert_eq!(
            t.stats().wb_l0_to_l1,
            wb_before,
            "renewing a dirty copy must not force a writeback"
        );
    }

    #[test]
    fn dirty_copy_without_l1x_line_refetches() {
        // Renewal re-validates the epoch at the L1X line, so a dirty copy
        // whose line has left the L1X cannot renew: it writes back through
        // to the host and refetches with data.
        let mut t = AccTile::new(
            1,
            CacheGeometry {
                capacity_bytes: 4096,
                ways: 4,
                banks: 1,
                latency: 1,
            },
            CacheGeometry {
                capacity_bytes: 128,
                ways: 1,
                banks: 1,
                latency: 4,
            },
            TileTiming::default(),
            WritePolicy::WriteBack,
        );
        t.set_lease_renewal(true);
        fill(&mut t, 0, 0, AccessKind::Store, 0, 100);
        // Block 2 maps to the same single-way L1X set: evicts block 0 from
        // the L1X while the L0X keeps its dirty copy.
        assert!(t.prefetch_install(P, b(2), Cycle::new(50)).is_some());
        assert!(!t.l1x_caches(P, b(0)));
        let data_before = t.stats().data_l1_to_l0;
        match t.axc_access(
            AxcId::new(0),
            P,
            b(0),
            AccessKind::Store,
            Cycle::new(5000),
            100,
        ) {
            AccAccess::FillNeeded { request_at } => {
                t.complete_fill(
                    AxcId::new(0),
                    P,
                    b(0),
                    AccessKind::Store,
                    request_at + 50,
                    100,
                );
            }
            other => panic!("evicted line must refetch from the host: {other:?}"),
        }
        let s = t.stats();
        assert_eq!(s.lease_renewals, 0);
        assert_eq!(s.renewal_refetches, 1);
        assert_eq!(s.wb_through_to_l2, 1, "dirty data continues to the host");
        assert_eq!(s.data_l1_to_l0, data_before + 1, "refetch moves one block");
    }

    #[test]
    fn mshr_merges_overlapping_misses_to_one_request() {
        let mut t = tile(1);
        // Prime the L1X so misses are L1-served with a known grant path.
        fill(&mut t, 0, 1, AccessKind::Load, 0, 20);
        // Expire the lease, then issue two loads to the same block in the
        // same window: the second must merge, sending no second message.
        let msgs0 = t.stats().msgs_l0_to_l1;
        let first = t.axc_access(
            AxcId::new(0),
            P,
            b(1),
            AccessKind::Load,
            Cycle::new(1000),
            100,
        );
        let done1 = match first {
            AccAccess::L1Served { done_at } => done_at,
            other => panic!("expected L1Served, got {other:?}"),
        };
        let second = t.axc_access(
            AxcId::new(0),
            P,
            b(1),
            AccessKind::Load,
            Cycle::new(1001),
            100,
        );
        match second {
            AccAccess::L0Hit { done_at } => {
                assert!(
                    done_at >= done1,
                    "merged miss cannot finish before the primary"
                )
            }
            other => panic!("expected merged completion, got {other:?}"),
        }
        assert_eq!(t.stats().mshr_merges, 1);
        assert_eq!(
            t.stats().msgs_l0_to_l1,
            msgs0 + 1,
            "merge must not send a message"
        );
    }

    #[test]
    fn prefetch_install_and_demand_hit_accounting() {
        let mut t = tile(1);
        let block = b(40);
        assert!(t.prefetch_install(P, block, Cycle::new(100)).is_none());
        assert_eq!(t.stats().prefetch_installs, 1);
        // The prefetcher skips a block the L1X already caches.
        assert!(t.l1x_caches(P, block));
        // The demand access hits the L1X (no host fill) and counts the
        // prefetch as useful exactly once.
        match t.axc_access(
            AxcId::new(0),
            P,
            block,
            AccessKind::Load,
            Cycle::new(200),
            100,
        ) {
            AccAccess::L1Served { .. } => {}
            other => panic!("prefetched line must serve from L1X: {other:?}"),
        }
        assert_eq!(t.stats().prefetch_hits, 1);
        t.downgrade_all(AxcId::new(0), P, Cycle::new(400));
        match t.axc_access(
            AxcId::new(0),
            P,
            block,
            AccessKind::Load,
            Cycle::new(5000),
            100,
        ) {
            AccAccess::L1Served { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(t.stats().prefetch_hits, 1, "hit counted once");
    }

    #[test]
    fn prefetch_install_reports_victims_with_gtime_release() {
        let mut t = AccTile::new(
            1,
            CacheGeometry {
                capacity_bytes: 4096,
                ways: 4,
                banks: 1,
                latency: 1,
            },
            CacheGeometry {
                capacity_bytes: 128,
                ways: 1,
                banks: 1,
                latency: 3,
            },
            TileTiming::default(),
            WritePolicy::WriteBack,
        );
        fill(&mut t, 0, 0, AccessKind::Store, 0, 1000);
        // Prefetch into the same (single-way) set: evicts the dirty line.
        let ev = t
            .prefetch_install(P, b(2), Cycle::new(50))
            .expect("conflict eviction");
        assert_eq!(ev.block, b(0));
        assert!(ev.dirty);
        assert!(
            ev.release_at.value() >= 1000,
            "GTIME rule on prefetch victims"
        );
    }

    #[test]
    fn renewal_works_under_write_through() {
        let mut t = AccTile::new(
            1,
            CacheGeometry {
                capacity_bytes: 4096,
                ways: 4,
                banks: 1,
                latency: 1,
            },
            CacheGeometry {
                capacity_bytes: 65536,
                ways: 8,
                banks: 16,
                latency: 3,
            },
            TileTiming::default(),
            WritePolicy::WriteThrough,
        );
        t.set_lease_renewal(true);
        match t.axc_access(AxcId::new(0), P, b(5), AccessKind::Load, Cycle::new(0), 100) {
            AccAccess::FillNeeded { request_at } => {
                t.complete_fill(
                    AxcId::new(0),
                    P,
                    b(5),
                    AccessKind::Load,
                    request_at + 40,
                    100,
                );
            }
            other => panic!("{other:?}"),
        }
        // WT lines are clean; last_write unchanged since fill: renewal ok.
        t.axc_access(
            AxcId::new(0),
            P,
            b(5),
            AccessKind::Load,
            Cycle::new(5000),
            100,
        );
        assert_eq!(t.stats().lease_renewals, 1);
    }

    #[test]
    fn gtime_is_monotone_per_line_until_release() {
        // GTIME only moves forward through grants; releases (downgrade /
        // writeback) may lower it only when the holder provably released.
        let mut t = tile(2);
        fill(&mut t, 0, 6, AccessKind::Load, 0, 100);
        fill(&mut t, 1, 6, AccessKind::Load, 50, 400);
        // Two holders: a host forward must respect the later lease.
        let fwd = t.host_forward(P, b(6), Cycle::new(80));
        assert!(
            fwd.release_at.value() >= 450,
            "release {} before the later lease end",
            fwd.release_at
        );
    }

    #[test]
    fn two_hop_invariant_no_l0_probes_on_host_forward() {
        // A host forward with a clean, lease-expired line generates zero
        // additional L0<->L1 messages: ACC answers from L1X state alone.
        let mut t = tile(2);
        fill(&mut t, 0, 4, AccessKind::Load, 0, 100);
        let msgs = t.stats().msgs_l0_to_l1;
        let wbs = t.stats().wb_l0_to_l1;
        t.host_forward(P, b(4), Cycle::new(10_000));
        assert_eq!(t.stats().msgs_l0_to_l1, msgs);
        assert_eq!(t.stats().wb_l0_to_l1, wbs);
    }

    /// Forwarding a block whose consumer copy is already dirty leaves one
    /// dirty line, not two: an eager block evicted twice in one producer
    /// phase lands on the same consumer line both times. Once the host
    /// forward has cleaned that line, the consumer's downgrade finds no
    /// dirty set.
    #[test]
    fn repeated_forward_leaves_no_phantom_dirty_set() {
        let mut t = tile(2);
        let mut rules = FxHashMap::default();
        rules.insert(
            (P, b(5)),
            vec![ForwardRule {
                producer: AxcId::new(0),
                consumer: AxcId::new(1),
                lease: 100,
                eager: true,
            }],
        );
        t.set_forward_rules(rules);
        // Accesses 100 cycles apart: every fill lands before the next one.
        let mut now = 0;
        for _ in 0..2 {
            fill(&mut t, 0, 5, AccessKind::Store, now, 1000);
            // Four more blocks of block 5's 4-way set evict it, and the
            // eviction forwards it to AXC 1.
            for k in 1..=4 {
                now += 100;
                fill(&mut t, 0, 5 + 16 * k, AccessKind::Load, now, 1000);
            }
            now += 100;
        }
        assert_eq!(t.stats().fwd_l0_to_l0, 2);
        t.host_forward(P, b(5), Cycle::new(now));
        t.downgrade_all(AxcId::new(1), P, Cycle::new(now));
        let s = t.stats();
        assert_eq!(s.downgrade_sets_scanned, 0);
        assert_eq!(s.downgrade_sets_filtered, 16);
    }
}
