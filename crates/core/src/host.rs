//! The host side shared by every system: OOO core memory path, host L1,
//! directory MESI L2, main memory and the translation structures.

use fusion_coherence::{AgentId, DirectoryMesi, MesiReq};
use fusion_energy::{Component, EnergyLedger, EnergyModel};
use fusion_mem::{MainMemory, NucaRing, ReplacementPolicy, SetAssocCache};
use fusion_types::{AccessKind, BlockAddr, Cycle, PhysAddr, Pid, SystemConfig, CACHE_BLOCK_BYTES};
use fusion_vm::{PageTable, Tlb};

/// Extra latency of a 3-hop owner intervention (directory → owner →
/// requester) beyond the plain L2 access.
const FWD_HOP_CYCLES: u64 = 12;

/// Host-L1 line metadata: whether the copy is exclusive (E/M) or shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HostMeta {
    exclusive: bool,
}

/// How a tile-side structure reacts to a forwarded host request.
///
/// Implemented by each system: FUSION consults the AX-RMAP and the ACC
/// GTIME state, SHARED invalidates its MESI L1X line, SCRATCH caches
/// nothing.
pub trait TileAgent {
    /// Handles a Fwd-GetS/GetX for physical address `pa` arriving at the
    /// tile at `now`; returns `(release_time, dirty)` — when the data/ack
    /// is available to the host and whether dirty data travels back.
    fn handle_forward(
        &mut self,
        pa: PhysAddr,
        now: Cycle,
        ledger: &mut EnergyLedger,
    ) -> (Cycle, bool);
}

/// A [`TileAgent`] that caches nothing (SCRATCH).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTile;

impl TileAgent for NoTile {
    fn handle_forward(
        &mut self,
        _pa: PhysAddr,
        now: Cycle,
        _ledger: &mut EnergyLedger,
    ) -> (Cycle, bool) {
        (now, false)
    }
}

/// Result of filling the accelerator tile from the host.
#[derive(Debug, Clone)]
pub struct TileFill {
    /// When the 64 B data response reaches the tile.
    pub data_at: Cycle,
    /// Physical address of the filled block (for the AX-RMAP). Recalls of
    /// other tile blocks by an inclusive-L2 eviction go straight to the
    /// tile agent the fill was given.
    pub pa: PhysAddr,
}

/// Host-side state machine shared by all four systems.
#[derive(Debug)]
pub struct HostSide {
    cfg: SystemConfig,
    energy: EnergyModel,
    dir: DirectoryMesi,
    host_l1: SetAssocCache<HostMeta>,
    mem: MainMemory,
    page_table: PageTable,
    host_tlb: Tlb,
    ax_tlb: Tlb,
    nuca: NucaRing,
    host_forwards: u64,
}

impl HostSide {
    /// Builds the host side for `cfg`. When the runtime protocol checker
    /// is enabled on `cfg`, the MESI directory validates its transition
    /// invariants (and applies any planted fault) from the first request.
    pub fn new(cfg: &SystemConfig) -> Self {
        let mut dir = DirectoryMesi::new(cfg.l2);
        if cfg.checker.enabled {
            dir.enable_checker(cfg.checker.mesi_fault);
        }
        HostSide {
            cfg: cfg.clone(),
            energy: EnergyModel::new(cfg),
            dir,
            host_l1: SetAssocCache::new(cfg.host_l1, ReplacementPolicy::Lru),
            mem: MainMemory::table2(),
            page_table: PageTable::new(),
            host_tlb: Tlb::new(64),
            ax_tlb: Tlb::new(32),
            nuca: NucaRing::table2(),
            host_forwards: 0,
        }
    }

    /// The energy table in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// AX-TLB lookups so far (Table 6).
    pub fn ax_tlb_lookups(&self) -> u64 {
        self.ax_tlb.lookups()
    }

    /// Host requests forwarded into the tile so far.
    pub fn host_forwards(&self) -> u64 {
        self.host_forwards
    }

    /// L2 data-array accesses so far.
    pub fn l2_accesses(&self) -> u64 {
        self.dir.l2_hits() + self.dir.l2_misses()
    }

    /// The first MESI invariant violation the runtime checker recorded,
    /// if any (always `None` on the trusted path). Polled by the phase driver
    /// at phase boundaries.
    pub fn checker_violation(&self) -> Option<fusion_types::error::InvariantViolation> {
        self.dir.checker_violation()
    }

    fn phys_block(pa: PhysAddr) -> BlockAddr {
        BlockAddr::from_index(pa.block_base().value() / CACHE_BLOCK_BYTES as u64)
    }

    const PHYS_PID: Pid = Pid(0);

    /// Serves an L2/directory request on behalf of `agent`, charging the
    /// L2 access, any memory accesses and any host-L1 interventions.
    /// Returns `(ready_time, tile_recalls)`.
    fn l2_request(
        &mut self,
        agent: AgentId,
        pa: PhysAddr,
        req: MesiReq,
        at: Cycle,
        ledger: &mut EnergyLedger,
        tile: Option<&mut dyn TileAgent>,
    ) -> (Cycle, Vec<PhysAddr>) {
        let out = self.dir.request(agent, pa, req);
        ledger.charge(Component::L2, self.energy.l2_access);
        // NUCA: the host core and the accelerator tile sit on opposite
        // sides of the 8-tile L2 ring; latency depends on the block's
        // home tile (Table 2: "8 tile NUCA, ring, avg. 20 cycles").
        let from_tile = if agent == AgentId::HOST_L1 { 0 } else { 4 };
        let mut ready = at + self.nuca.latency(Self::phys_block(pa), from_tile);
        for _ in 0..out.memory_accesses {
            let done = self.mem.access(Self::phys_block(pa), ready);
            ledger.charge(Component::Memory, self.energy.memory_access);
            ready = done;
        }
        let mut tile_recalls = Vec::new();
        let mut tile_agent = tile;
        let handle_agent = |this: &mut Self,
                            a: AgentId,
                            block_pa: PhysAddr,
                            ready: Cycle,
                            ledger: &mut EnergyLedger,
                            tile_agent: &mut Option<&mut dyn TileAgent>,
                            tile_recalls: &mut Vec<PhysAddr>|
         -> Cycle {
            match a {
                AgentId::HOST_L1 => {
                    // Intervention at the host L1: probe + possible dirty
                    // supply.
                    ledger.charge(Component::HostL1, this.energy.host_l1_access);
                    if let Some(e) = this
                        .host_l1
                        .invalidate(Self::PHYS_PID, Self::phys_block(block_pa))
                    {
                        if e.dirty {
                            ledger.charge(Component::L2, this.energy.l2_access);
                        }
                    }
                    ready + FWD_HOP_CYCLES
                }
                tile_id => {
                    this.host_forwards += 1;
                    match tile_agent.as_mut().map(|t| &mut **t) {
                        Some(t) => {
                            let (release, dirty) = t.handle_forward(block_pa, ready, ledger);
                            // PUTX notice + possible dirty data over the
                            // expensive link.
                            ledger.charge_bytes(
                                Component::LinkL1xL2Msg,
                                this.energy.link_l1x_l2_pj_per_byte,
                                this.cfg.control_message_bytes,
                            );
                            if dirty {
                                ledger.charge_bytes(
                                    Component::LinkL1xL2Data,
                                    this.energy.link_l1x_l2_pj_per_byte,
                                    CACHE_BLOCK_BYTES as u64,
                                );
                                ledger.charge(Component::L2, this.energy.l2_access);
                            }
                            this.dir.eviction_notice(tile_id, block_pa, dirty);
                            release + FWD_HOP_CYCLES
                        }
                        None => {
                            tile_recalls.push(block_pa);
                            ready
                        }
                    }
                }
            }
        };
        for &a in out.forwarded_to.iter().chain(out.invalidated.iter()) {
            ready = handle_agent(
                self,
                a,
                pa,
                ready,
                ledger,
                &mut tile_agent,
                &mut tile_recalls,
            );
        }
        for &(block, a) in &out.recalls {
            let block_pa = PhysAddr::new(block.index() * CACHE_BLOCK_BYTES as u64);
            let t = handle_agent(
                self,
                a,
                block_pa,
                ready,
                ledger,
                &mut tile_agent,
                &mut tile_recalls,
            );
            // Recalls proceed off the critical path of the requester,
            // except that the data must be ordered before reuse; we charge
            // the worst case.
            ready = ready.max(t);
        }
        (ready, tile_recalls)
    }

    /// Fills a tile block from the host: AX-TLB translation on the L1X
    /// miss path, request message, directory GetX (the L1X always takes
    /// the block exclusively) and the 64 B data response.
    pub fn tile_fill(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        now: Cycle,
        ledger: &mut EnergyLedger,
        tile: &mut dyn TileAgent,
    ) -> TileFill {
        // AX-TLB sits here — off the accelerator's L0X/L1X hit path.
        let pa = self
            .ax_tlb
            .translate(pid, vblock.base(), &mut self.page_table);
        ledger.charge(Component::Tlb, self.energy.tlb_lookup);

        ledger.charge_bytes(
            Component::LinkL1xL2Msg,
            self.energy.link_l1x_l2_pj_per_byte,
            self.cfg.control_message_bytes,
        );
        let req_at = now
            + self
                .cfg
                .link_l1x_l2
                .transfer_cycles(self.cfg.control_message_bytes);
        let (ready, _) =
            self.l2_request(AgentId::TILE, pa, MesiReq::GetX, req_at, ledger, Some(tile));
        ledger.charge_bytes(
            Component::LinkL1xL2Data,
            self.energy.link_l1x_l2_pj_per_byte,
            CACHE_BLOCK_BYTES as u64,
        );
        let data_at = ready
            + self
                .cfg
                .link_l1x_l2
                .transfer_cycles(CACHE_BLOCK_BYTES as u64);
        TileFill { data_at, pa }
    }

    /// Processes a tile eviction: PUTX notice (plus data when dirty) to
    /// the directory. Returns the evicted physical address.
    pub fn tile_eviction(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        dirty: bool,
        ledger: &mut EnergyLedger,
    ) -> Option<PhysAddr> {
        // Every tile block was filled through the page table, and pages
        // never remap, so the walk-free lookup yields the filled address.
        let pa = self.page_table.lookup(pid, vblock.base())?;
        self.tile_eviction_phys(pa, dirty, ledger);
        Some(pa)
    }

    /// Physical-address variant of [`HostSide::tile_eviction`] (used by
    /// SHARED, whose L1X is physically indexed).
    pub fn tile_eviction_phys(&mut self, pa: PhysAddr, dirty: bool, ledger: &mut EnergyLedger) {
        ledger.charge_bytes(
            Component::LinkL1xL2Msg,
            self.energy.link_l1x_l2_pj_per_byte,
            self.cfg.control_message_bytes,
        );
        if dirty {
            ledger.charge_bytes(
                Component::LinkL1xL2Data,
                self.energy.link_l1x_l2_pj_per_byte,
                CACHE_BLOCK_BYTES as u64,
            );
            ledger.charge(Component::L2, self.energy.l2_access);
        }
        self.dir.eviction_notice(AgentId::TILE, pa, dirty);
    }

    /// Raw MESI request from the tile agent (SHARED's L1X misses). Returns
    /// the ready time and any tile blocks recalled by an inclusive-L2
    /// eviction, which the caller must invalidate in its own structures.
    pub fn mesi_request_from_tile(
        &mut self,
        pa: PhysAddr,
        req: MesiReq,
        at: Cycle,
        ledger: &mut EnergyLedger,
    ) -> (Cycle, Vec<PhysAddr>) {
        self.l2_request(AgentId::TILE, pa, req, at, ledger, None)
    }

    /// One host-core memory access (host phases of the offloaded
    /// program): host TLB → host L1 → directory/L2 → possibly a forwarded
    /// request into the tile.
    pub fn host_access(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        kind: AccessKind,
        now: Cycle,
        ledger: &mut EnergyLedger,
        tile: &mut dyn TileAgent,
    ) -> Cycle {
        let pa = self
            .host_tlb
            .translate(pid, vblock.base(), &mut self.page_table);
        ledger.charge(Component::Tlb, self.energy.tlb_lookup);
        let pblock = Self::phys_block(pa);
        ledger.charge(Component::HostL1, self.energy.host_l1_access);
        let l1_done = now + self.cfg.host_l1.latency;
        if let Some(line) = self.host_l1.lookup(Self::PHYS_PID, pblock) {
            let exclusive = line.meta.exclusive;
            if !kind.is_write() || exclusive {
                if kind.is_write() {
                    line.dirty = true;
                }
                return l1_done;
            }
            // Write to a Shared copy: upgrade.
            let (ready, _) = self.l2_request(
                AgentId::HOST_L1,
                pa,
                MesiReq::GetX,
                l1_done,
                ledger,
                Some(tile),
            );
            if let Some(line) = self.host_l1.probe_mut(Self::PHYS_PID, pblock) {
                line.meta.exclusive = true;
                line.dirty = true;
            }
            return ready;
        }
        // L1 miss.
        let req = if kind.is_write() {
            MesiReq::GetX
        } else {
            MesiReq::GetS
        };
        let (ready, _) = self.l2_request(AgentId::HOST_L1, pa, req, l1_done, ledger, Some(tile));
        let exclusive = kind.is_write() || self.dir.owner(pa) == Some(AgentId::HOST_L1);
        if let Some(victim) = self.host_l1.insert(
            Self::PHYS_PID,
            pblock,
            HostMeta { exclusive },
            kind.is_write(),
        ) {
            let vpa = PhysAddr::new(victim.block.index() * CACHE_BLOCK_BYTES as u64);
            self.dir
                .eviction_notice(AgentId::HOST_L1, vpa, victim.dirty);
            if victim.dirty {
                ledger.charge(Component::L2, self.energy.l2_access);
            }
        }
        ready
    }

    /// A coherent DMA block read at the LLC (SCRATCH): the engine reads
    /// the most-up-to-date data, intervening at the host L1 if necessary,
    /// without leaving any residency behind.
    pub fn dma_read_block(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        at: Cycle,
        ledger: &mut EnergyLedger,
        tile: &mut dyn TileAgent,
    ) -> Cycle {
        let pa = self.page_table.translate(pid, vblock.base());
        let (ready, _) = self.l2_request(AgentId::TILE, pa, MesiReq::GetS, at, ledger, Some(tile));
        self.dir.eviction_notice(AgentId::TILE, pa, false);
        ready
    }

    /// A coherent DMA block write at the LLC (SCRATCH writeback).
    pub fn dma_write_block(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        at: Cycle,
        ledger: &mut EnergyLedger,
        tile: &mut dyn TileAgent,
    ) -> Cycle {
        let pa = self.page_table.translate(pid, vblock.base());
        let (ready, _) = self.l2_request(AgentId::TILE, pa, MesiReq::GetX, at, ledger, Some(tile));
        self.dir.eviction_notice(AgentId::TILE, pa, true);
        ready
    }

    /// Translates without charging (used by systems that keep their own
    /// physically-indexed structures, e.g. SHARED's L1X).
    pub fn translate_quiet(&mut self, pid: Pid, vblock: BlockAddr) -> PhysAddr {
        self.page_table.translate(pid, vblock.base())
    }

    /// Charged AX-TLB translation on the SHARED critical path.
    pub fn shared_tlb_translate(
        &mut self,
        pid: Pid,
        vblock: BlockAddr,
        ledger: &mut EnergyLedger,
    ) -> PhysAddr {
        let pa = self
            .ax_tlb
            .translate(pid, vblock.base(), &mut self.page_table);
        ledger.charge(Component::Tlb, self.energy.tlb_lookup);
        pa
    }

    /// Directory view: does the directory currently believe the tile
    /// caches `pa`?
    pub fn directory_tracks_tile(&self, pa: PhysAddr) -> bool {
        self.dir.agent_caches(AgentId::TILE, pa)
    }

    /// Directory view: does the tile own `pa` exclusively (E/M)? A GetS
    /// answered with no other sharer grants E — the requester may upgrade
    /// to M silently.
    pub fn tile_owns(&self, pa: PhysAddr) -> bool {
        self.dir.owner(pa) == Some(AgentId::TILE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (HostSide, EnergyLedger) {
        (HostSide::new(&SystemConfig::small()), EnergyLedger::new())
    }

    const P: Pid = Pid(1);

    fn vb(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn tile_fill_charges_tlb_link_l2() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        let fill = host.tile_fill(P, vb(1), Cycle::new(0), &mut ledger, &mut no_tile);
        assert!(
            fill.data_at > Cycle::new(200),
            "cold fill must reach memory"
        );
        assert_eq!(ledger.count(Component::Tlb), 1);
        assert_eq!(ledger.count(Component::L2), 1);
        assert_eq!(ledger.count(Component::Memory), 1);
        assert_eq!(ledger.count(Component::LinkL1xL2Data), 1);
        assert_eq!(host.ax_tlb_lookups(), 1);
    }

    #[test]
    fn second_fill_hits_l2() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        host.tile_fill(P, vb(1), Cycle::new(0), &mut ledger, &mut no_tile);
        host.tile_eviction(P, vb(1), true, &mut ledger);
        let before = ledger.count(Component::Memory);
        let fill = host.tile_fill(P, vb(1), Cycle::new(1000), &mut ledger, &mut no_tile);
        assert_eq!(ledger.count(Component::Memory), before, "L2 hit expected");
        assert!(fill.data_at < Cycle::new(1100));
    }

    #[test]
    fn host_access_hits_after_fill() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        let t1 = host.host_access(
            P,
            vb(5),
            AccessKind::Load,
            Cycle::new(0),
            &mut ledger,
            &mut no_tile,
        );
        let t2 = host.host_access(P, vb(5), AccessKind::Load, t1, &mut ledger, &mut no_tile);
        assert_eq!(t2 - t1, 3, "host L1 hit latency");
    }

    #[test]
    fn host_store_after_load_upgrades_silently_when_exclusive() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        // Sole reader gets E; store hits without another L2 trip.
        host.host_access(
            P,
            vb(6),
            AccessKind::Load,
            Cycle::new(0),
            &mut ledger,
            &mut no_tile,
        );
        let l2_before = ledger.count(Component::L2);
        host.host_access(
            P,
            vb(6),
            AccessKind::Store,
            Cycle::new(100),
            &mut ledger,
            &mut no_tile,
        );
        assert_eq!(
            ledger.count(Component::L2),
            l2_before,
            "E->M must be silent"
        );
    }

    #[test]
    fn dma_read_leaves_no_tile_residency() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        host.dma_read_block(P, vb(9), Cycle::new(0), &mut ledger, &mut no_tile);
        let pa = host.translate_quiet(P, vb(9));
        assert!(!host.directory_tracks_tile(pa));
    }

    #[test]
    fn host_access_forwards_into_tile() {
        struct Spy(u64);
        impl TileAgent for Spy {
            fn handle_forward(
                &mut self,
                _pa: PhysAddr,
                now: Cycle,
                _l: &mut EnergyLedger,
            ) -> (Cycle, bool) {
                self.0 += 1;
                (now + 50, true)
            }
        }
        let (mut host, mut ledger) = setup();
        let mut spy = Spy(0);
        // Tile takes the block exclusively.
        host.tile_fill(P, vb(3), Cycle::new(0), &mut ledger, &mut NoTile);
        // Host store must be forwarded to the tile.
        let done = host.host_access(
            P,
            vb(3),
            AccessKind::Store,
            Cycle::new(500),
            &mut ledger,
            &mut spy,
        );
        assert_eq!(spy.0, 1);
        assert_eq!(host.host_forwards(), 1);
        assert!(done > Cycle::new(550), "must wait for the tile release");
        // Dirty data travelled: extra L2 write charged.
        assert!(ledger.count(Component::LinkL1xL2Data) >= 2);
    }

    #[test]
    fn tile_eviction_without_translation_is_none() {
        let (mut host, mut ledger) = setup();
        // No fill ever happened for this block: nothing to evict.
        assert!(host.tile_eviction(P, vb(99), true, &mut ledger).is_none());
        assert_eq!(ledger.count(Component::LinkL1xL2Msg), 0);
    }

    #[test]
    fn dma_write_marks_l2_dirty_without_residency() {
        let (mut host, mut ledger) = setup();
        host.dma_write_block(P, vb(11), Cycle::new(0), &mut ledger, &mut NoTile);
        let pa = host.translate_quiet(P, vb(11));
        assert!(!host.directory_tracks_tile(pa));
        // A later host read hits the L2 (no second memory fetch).
        let mem_before = ledger.count(Component::Memory);
        host.host_access(
            P,
            vb(11),
            AccessKind::Load,
            Cycle::new(100),
            &mut ledger,
            &mut NoTile,
        );
        assert_eq!(ledger.count(Component::Memory), mem_before);
    }

    #[test]
    fn nuca_gives_different_latencies_per_home_tile() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        // Fill distinct blocks: home tiles differ, so round trips differ.
        let times: Vec<u64> = (0..8u64)
            .map(|i| {
                let fill =
                    host.tile_fill(P, vb(1000 + i), Cycle::new(0), &mut ledger, &mut no_tile);
                fill.data_at.value()
            })
            .collect();
        let min = times.iter().min().unwrap();
        let max = times.iter().max().unwrap();
        assert!(max > min, "NUCA ring produced uniform latencies: {times:?}");
    }

    #[test]
    fn shared_tlb_translate_counts_ax_tlb() {
        let (mut host, mut ledger) = setup();
        host.shared_tlb_translate(P, vb(1), &mut ledger);
        host.shared_tlb_translate(P, vb(1), &mut ledger);
        assert_eq!(host.ax_tlb_lookups(), 2);
        assert_eq!(ledger.count(Component::Tlb), 2);
    }

    #[test]
    fn host_l1_victims_notify_directory() {
        let (mut host, mut ledger) = setup();
        let mut no_tile = NoTile;
        // Touch more distinct blocks than one L1 set holds. Host L1 is
        // 64K/4-way = 256 sets; blocks i*256 collide in set 0.
        for i in 0..6u64 {
            host.host_access(
                P,
                vb(i * 256),
                AccessKind::Store,
                Cycle::new(i * 1000),
                &mut ledger,
                &mut no_tile,
            );
        }
        // After evictions the directory no longer tracks the oldest block,
        // so re-access misses to L2 without a host-L1 intervention.
        let before = ledger.count(Component::HostL1);
        host.host_access(
            P,
            vb(0),
            AccessKind::Load,
            Cycle::new(100_000),
            &mut ledger,
            &mut no_tile,
        );
        // Exactly one more host-L1 access (the probe) — no self-forward.
        assert_eq!(ledger.count(Component::HostL1), before + 1);
    }
}
