//! The traced run: each layer's public functions called on streams taken
//! from the workload's real traces, with a span around every call batch.
//!
//! The lower layers see streams this harness derives itself: the L0X
//! miss stream feeds the L1X and its misses the L2; the host-fill and
//! eviction stream comes from this harness's own `coherence.acc` replay
//! (a flat fill latency stands in for the host); the DMA windows come
//! from `accel.analysis`. Capturing the streams of a full replay needs
//! tracing inside the simulator, which this benchmark does not add.

use std::collections::BTreeMap;
use std::path::Path;

use fusion_accel::ooo::{run_host_phase_indexed, OooParams};
use fusion_accel::{run_phase_kind_runs, DecodedTrace, Workload};
use fusion_coherence::{
    AccAccess, AccTile, AgentId, DirectoryMesi, MesiOutcome, MesiReq, TileTiming,
};
use fusion_core::host::{HostSide, NoTile};
use fusion_core::journal::{self, JournalHeader, JournalRow, JournalWriter};
use fusion_core::{run_system_decoded, SimResult, Sweep, SweepJob, SystemKind};
use fusion_dma::{DmaController, DmaDirection};
use fusion_energy::EnergyLedger;
use fusion_mem::{ReplacementPolicy, SetAssocCache};
use fusion_types::error::SimError;
use fusion_types::{
    AccessKind, BlockAddr, CacheGeometry, Cycle, PhysAddr, SystemConfig, CACHE_BLOCK_BYTES,
};
use fusion_vm::{AxRmap, L1xPointer, PageTable, RmapOutcome, Tlb};
use fusion_workloads::{build_suite, Scale, SuiteId};

use crate::output::{result_digest, SweepRow};
use crate::trace::Tracer;

/// Flat memory latency behind the issue engine (cycles): the engine is
/// timed on its own, not the memory system behind it.
const ENGINE_MEMORY_CYCLES: u64 = 20;
/// Flat host-fill latency behind the ACC tile (cycles).
const ACC_FILL_CYCLES: u64 = 60;
/// Flat LLC latency behind the DMA controller (cycles).
const DMA_LLC_CYCLES: u64 = 20;
/// Entries of the accelerator TLB on the L1X miss path (HostSide's).
const AX_TLB_ENTRIES: usize = 32;

/// The set-up work a workload's child does before simulating: which
/// suites it builds and which oracle analyses it prewarms.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Suites, in first-use order.
    pub suites: Vec<SuiteId>,
    /// Scratchpad capacities (blocks) of the SCRATCH jobs.
    pub dma_capacities: Vec<usize>,
    /// L0X capacities (blocks) of the FUSION-Dx jobs.
    pub forward_windows: Vec<usize>,
    /// Distinct configurations of the FUSION and FUSION-Dx jobs.
    pub tiles: Vec<SystemConfig>,
}

impl Plan {
    /// The set-up `jobs` need, as the sweep's untimed stage computes it.
    pub fn of(jobs: &[SweepJob]) -> Plan {
        let mut plan = Plan {
            suites: Vec::new(),
            dma_capacities: Vec::new(),
            forward_windows: Vec::new(),
            tiles: Vec::new(),
        };
        fn add<T: PartialEq>(v: &mut Vec<T>, x: T) {
            if !v.contains(&x) {
                v.push(x);
            }
        }
        for job in jobs {
            add(&mut plan.suites, job.suite);
            match job.system {
                SystemKind::Scratch => add(
                    &mut plan.dma_capacities,
                    job.config.scratchpad.capacity_bytes / CACHE_BLOCK_BYTES,
                ),
                SystemKind::FusionDx => add(&mut plan.forward_windows, job.config.l0x.blocks()),
                SystemKind::Shared | SystemKind::Fusion => {}
            }
            if matches!(job.system, SystemKind::Fusion | SystemKind::FusionDx) {
                add(&mut plan.tiles, job.config.clone());
            }
        }
        plan
    }

    /// Builds, decodes and prewarms one suite, as the sweep does before
    /// its first job.
    fn prepare(&self, suite: SuiteId, scale: Scale) -> (Workload, DecodedTrace) {
        let wl = build_suite(suite, scale);
        let decoded = DecodedTrace::decode(&wl);
        self.prewarm(&wl, &decoded);
        (wl, decoded)
    }

    fn prewarm(&self, wl: &Workload, decoded: &DecodedTrace) -> (usize, usize) {
        let windows: usize = self
            .dma_capacities
            .iter()
            .map(|&cap| {
                decoded
                    .dma_windows(wl, cap)
                    .iter()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum();
        let pairs: usize = self
            .forward_windows
            .iter()
            .map(|&w| decoded.forward_pairs(wl, w).len())
            .sum();
        (windows, pairs)
    }

    /// Runs the whole set-up (every suite built, decoded and prewarmed,
    /// one at a time) and returns the references of each job's suite.
    pub fn set_up(&self, scale: Scale, jobs: &[SweepJob]) -> Vec<u64> {
        let refs: BTreeMap<&str, u64> = self
            .suites
            .iter()
            .map(|&suite| {
                let (wl, decoded) = self.prepare(suite, scale);
                std::hint::black_box(&decoded);
                (suite.label(), wl.total_refs())
            })
            .collect();
        jobs.iter().map(|j| refs[j.suite.label()]).collect()
    }
}

/// One event of the tile's traffic with the host, in program order.
#[derive(Debug, Clone, Copy)]
enum HostEvent {
    /// L1X miss: the tile fetches the block from the host.
    Fill { block: BlockAddr, at: Cycle },
    /// L1X eviction toward the host.
    Evict { block: BlockAddr, dirty: bool },
    /// A host-core reference of a host phase.
    Host {
        block: BlockAddr,
        write: bool,
        at: Cycle,
    },
}

/// Work counts the layer passes accumulate.
#[derive(Debug, Default)]
struct Counts {
    refs: u64,
    dma_windows: u64,
    forward_pairs: u64,
    engine_refs: u64,
    mlp_stall_cycles: u64,
    probes: [u64; 3],
    misses: [u64; 3],
    acc_accesses: u64,
    acc_hits: u64,
    acc_fills: u64,
    lease_expiries: u64,
    acc_stall_cycles: u64,
    downgrade_sets_scanned: u64,
    mshr_merges: u64,
    wt_stores: u64,
    mesi_requests: u64,
    mesi_l2_misses: u64,
    mesi_invalidations: u64,
    tlb_lookups: u64,
    tlb_misses: u64,
    rmap_ops: u64,
    rmap_synonyms: u64,
    host_requests: u64,
    host_l2_accesses: u64,
    host_ax_tlb_lookups: u64,
    dma_blocks: u64,
    dma_transfers: u64,
    sim_events: u64,
    journal_rows: u64,
    journal_bytes: u64,
}

/// What the traced run measured in process.
#[derive(Debug)]
pub struct LayerRun {
    /// Every span recorded.
    pub tracer: Tracer,
    /// Per-layer metrics by name (the ones measured in process).
    pub metrics: BTreeMap<String, f64>,
    /// Each job's result from `run_system_decoded`, in job order.
    pub results: Vec<Result<SimResult, SimError>>,
    /// Each job's `core.system` span duration (ns), in job order.
    pub job_ns: Vec<u64>,
    /// Summed duration of the set-up spans (build, decode, prewarm), ns.
    pub setup_ns: u64,
}

/// Runs every layer of `jobs`' workload under spans. `journal` is a
/// scratch file the `core.journal` pass writes.
pub fn trace_layers(
    workload: &str,
    scale: Scale,
    jobs: &[SweepJob],
    journal_path: &Path,
) -> Result<LayerRun, String> {
    let plan = Plan::of(jobs);
    let mut t = Tracer::new(workload);
    let mut c = Counts::default();
    let mut results: Vec<Option<Result<SimResult, SimError>>> = jobs.iter().map(|_| None).collect();
    let mut job_ns = vec![0u64; jobs.len()];
    let mut per_system: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut fingerprints: BTreeMap<&'static str, u64> = BTreeMap::new();

    t.span("perf.trace", |t| {
        for &suite in &plan.suites {
            t.set_trace(format!("{workload}/{}", suite.label()));
            t.span("suite", |t| {
                let wl = t.span("workloads", |_| build_suite(suite, scale));
                c.refs += wl.total_refs();
                let decoded = t.span("accel.trace", |_| DecodedTrace::decode(&wl));
                let (windows, pairs) = t.span("accel.analysis", |_| plan.prewarm(&wl, &decoded));
                c.dma_windows += windows as u64;
                c.forward_pairs += pairs as u64;
                t.span("accel.engine", |_| engine_pass(&wl, &decoded, &mut c));
                t.span("mem", |t| mem_pass(t, &plan, &wl, &decoded, &mut c));
                for cfg in &plan.tiles {
                    let events = acc_pass(t, cfg, &wl, &decoded, &mut c);
                    let pas = physical(&wl, &events);
                    mesi_pass(t, cfg, &events, &pas, &mut c);
                    vm_pass(t, &wl, &events, &pas, &mut c);
                    host_pass(t, cfg, &wl, &events, &mut c);
                }
                let link = SystemConfig::small().link_l1x_l2;
                for &cap in &plan.dma_capacities {
                    let windows = decoded.dma_windows(&wl, cap);
                    let mut dma = DmaController::new(link);
                    t.span("dma", |_| {
                        let mut now = Cycle::ZERO;
                        for w in windows.iter().flatten() {
                            let llc = |_: BlockAddr, at: Cycle| at + DMA_LLC_CYCLES;
                            now = dma.transfer(&w.dma_in, DmaDirection::In, now, llc).done_at;
                            now = dma
                                .transfer(&w.dma_out, DmaDirection::Out, now, llc)
                                .done_at;
                        }
                        c.dma_blocks += dma.blocks_in() + dma.blocks_out();
                        c.dma_transfers += dma.transfers();
                    });
                }
                t.span("core.runner", |t| {
                    for (i, job) in jobs.iter().enumerate().filter(|(_, j)| j.suite == suite) {
                        let res = t.span("core.system", |_| {
                            run_system_decoded(job.system, &wl, &decoded, &job.config)
                        });
                        // `core.system` has no child spans: it is the last
                        // span recorded.
                        job_ns[i] = t.spans().last().map_or(0, |s| s.duration_ns());
                        if let Ok(r) = &res {
                            c.sim_events += r.total_sim_events();
                            let e = per_system.entry(job.system.label()).or_default();
                            e.0 += job_ns[i];
                            e.1 += decoded.total_refs();
                        }
                        results[i] = Some(res);
                    }
                });
                fingerprints.insert(
                    suite.label(),
                    journal::fnv1a(&fusion_accel::io::encode_workload(&wl)),
                );
            });
        }
        t.set_trace(workload.to_string());
        let rows: Vec<JournalRow> = jobs
            .iter()
            .zip(&results)
            .filter_map(|(job, r)| match r {
                Some(Ok(res)) => Some(JournalRow::for_result(
                    job,
                    scale,
                    res,
                    1,
                    0,
                    fingerprints[job.suite.label()],
                )),
                _ => None,
            })
            .collect();
        let header = JournalHeader {
            scale: journal::scale_label(scale).to_string(),
            code_version: journal::code_version(),
            grid: jobs.len(),
        };
        t.span("core.journal", |_| -> Result<(), String> {
            let mut w = JournalWriter::create(journal_path, &header).map_err(|e| e.to_string())?;
            for row in &rows {
                w.append(row).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        c.journal_rows = rows.len() as u64;
        c.journal_bytes = std::fs::metadata(journal_path)
            .map_err(|e| format!("journal {}: {e}", journal_path.display()))?
            .len();
        Ok::<(), String>(())
    })?;

    let setup_ns =
        t.total_ns("workloads") + t.total_ns("accel.trace") + t.total_ns("accel.analysis");
    let metrics = layer_metrics(&t, &c, &per_system);
    Ok(LayerRun {
        tracer: t,
        metrics,
        results: results
            .into_iter()
            .map(|r| r.ok_or_else(|| "job not run".to_string()))
            .collect::<Result<_, _>>()?,
        job_ns,
        setup_ns,
    })
}

/// `run_phase_kind_runs` / `run_host_phase_indexed` over every phase,
/// with a flat-latency memory.
fn engine_pass(wl: &Workload, decoded: &DecodedTrace, c: &mut Counts) {
    let mut now = Cycle::ZERO;
    for (pi, phase) in wl.phases.iter().enumerate() {
        let dp = decoded.phase(pi);
        let timing = if phase.unit.is_host() {
            run_host_phase_indexed(
                dp.len(),
                |j| dp.gaps[j],
                |j| dp.kinds[j].is_write(),
                OooParams::default(),
                now,
                |_, at| at + ENGINE_MEMORY_CYCLES,
            )
        } else {
            run_phase_kind_runs(
                dp.len(),
                |j| dp.gaps[j],
                phase.mlp,
                now,
                decoded.phase_kind_runs(pi).iter().copied(),
                |_, at, _| at + ENGINE_MEMORY_CYCLES,
            )
        };
        c.engine_refs += timing.issued;
        c.mlp_stall_cycles += timing.mlp_stall_cycles;
        now = std::hint::black_box(timing.end);
    }
}

/// `SetAssocCache::lookup`/`insert` at each distinct L0X/L1X/L2
/// geometry: accelerator references probe their AXC's L0X, L0X misses
/// probe the L1X, L1X misses probe the L2.
fn mem_pass(t: &mut Tracer, plan: &Plan, wl: &Workload, decoded: &DecodedTrace, c: &mut Counts) {
    let mut geometries: Vec<[CacheGeometry; 3]> = Vec::new();
    for cfg in &plan.tiles {
        let g = [cfg.l0x, cfg.l1x, cfg.l2];
        if !geometries.contains(&g) {
            geometries.push(g);
        }
    }
    let axcs = wl.axc_count().max(1);
    for [g0, g1, g2] in geometries {
        // Caches are built outside the spans: only lookups and inserts
        // are timed.
        let mut l0: Vec<SetAssocCache<()>> = (0..axcs)
            .map(|_| SetAssocCache::new(g0, ReplacementPolicy::Lru))
            .collect();
        let mut l1 = SetAssocCache::new(g1, ReplacementPolicy::Lru);
        let mut l2 = SetAssocCache::new(g2, ReplacementPolicy::Lru);
        let misses0 = t.span("mem.l0x", |_| {
            let mut misses = Vec::new();
            for (pi, phase) in wl.phases.iter().enumerate() {
                let Some(axc) = phase.unit.axc() else {
                    continue;
                };
                let blocks = decoded.phase(pi).blocks;
                misses.extend(probe(&mut l0[axc.index()], wl, blocks));
                c.probes[0] += blocks.len() as u64;
            }
            misses
        });
        let misses1 = t.span("mem.l1x", |_| probe(&mut l1, wl, &misses0));
        let misses2 = t.span("mem.l2", |_| probe(&mut l2, wl, &misses1));
        c.misses[0] += misses0.len() as u64;
        c.probes[1] += misses0.len() as u64;
        c.misses[1] += misses1.len() as u64;
        c.probes[2] += misses1.len() as u64;
        c.misses[2] += misses2.len() as u64;
    }
}

/// Looks every block of `stream` up in `cache`, inserting the misses;
/// returns the blocks that missed.
fn probe(cache: &mut SetAssocCache<()>, wl: &Workload, stream: &[BlockAddr]) -> Vec<BlockAddr> {
    let mut misses = Vec::new();
    for &b in stream {
        if cache.lookup(wl.pid, b).is_none() {
            cache.insert(wl.pid, b, (), false);
            misses.push(b);
        }
    }
    misses
}

/// `AccTile::axc_access`/`complete_fill`/`downgrade_all`/`flush_all` over
/// every accelerator phase, fills served after a flat latency. Returns
/// the tile's host traffic with the host phases' references in between.
fn acc_pass(
    t: &mut Tracer,
    cfg: &SystemConfig,
    wl: &Workload,
    decoded: &DecodedTrace,
    c: &mut Counts,
) -> Vec<HostEvent> {
    let timing = TileTiming {
        l0_latency: cfg.l0x.latency,
        l1_latency: cfg.l1x.latency,
        link_latency: cfg.link_axc_l1x.latency,
        link_bytes_per_cycle: cfg.link_axc_l1x.bytes_per_cycle,
    };
    let mut tile = AccTile::new(
        wl.axc_count().max(1),
        cfg.l0x,
        cfg.l1x,
        timing,
        cfg.write_policy,
    );
    let pid = wl.pid;
    let mut events = Vec::new();
    t.span("coherence.acc", |_| {
        let mut now = Cycle::ZERO;
        for (pi, phase) in wl.phases.iter().enumerate() {
            let dp = decoded.phase(pi);
            let Some(axc) = phase.unit.axc() else {
                for j in 0..dp.len() {
                    now += dp.gaps[j] as u64 + 1;
                    let (block, write) = (dp.blocks[j], dp.kinds[j].is_write());
                    events.push(HostEvent::Host {
                        block,
                        write,
                        at: now,
                    });
                }
                continue;
            };
            for j in 0..dp.len() {
                now += dp.gaps[j] as u64 + 1;
                let (block, kind) = (dp.blocks[j], dp.kinds[j]);
                if let AccAccess::FillNeeded { request_at } =
                    tile.axc_access(axc, pid, block, kind, now, phase.lease)
                {
                    c.acc_fills += 1;
                    events.push(HostEvent::Fill {
                        block,
                        at: request_at,
                    });
                    let data_at = request_at + ACC_FILL_CYCLES;
                    let fill = tile.complete_fill(axc, pid, block, kind, data_at, phase.lease);
                    if let Some(ev) = fill.evicted {
                        events.push(HostEvent::Evict {
                            block: ev.block,
                            dirty: ev.dirty,
                        });
                    }
                }
            }
            tile.downgrade_all(axc, pid, now);
        }
        for ev in tile.flush_all(now) {
            events.push(HostEvent::Evict {
                block: ev.block,
                dirty: ev.dirty,
            });
        }
    });
    let s = tile.stats();
    c.acc_accesses += s.l0_accesses;
    c.acc_hits += s.l0_hits;
    c.lease_expiries += s.l0_lease_expiries;
    c.acc_stall_cycles += s.stall_cycles;
    c.downgrade_sets_scanned += s.downgrade_sets_scanned;
    c.mshr_merges += s.mshr_merges;
    c.wt_stores += s.wt_stores;
    events
}

/// Physical address of every event's block, translated outside the
/// timed spans.
fn physical(wl: &Workload, events: &[HostEvent]) -> Vec<PhysAddr> {
    let mut pt = PageTable::new();
    events
        .iter()
        .map(|e| match *e {
            HostEvent::Fill { block, .. }
            | HostEvent::Evict { block, .. }
            | HostEvent::Host { block, .. } => pt.translate(wl.pid, block.base()),
        })
        .collect()
}

/// `DirectoryMesi::request`/`eviction_notice` over the tile's fills and
/// evictions plus the host references. A forward or recall that reaches
/// the tile is answered with the eviction notice the host side sends.
fn mesi_pass(
    t: &mut Tracer,
    cfg: &SystemConfig,
    events: &[HostEvent],
    pas: &[PhysAddr],
    c: &mut Counts,
) {
    let mut dir = DirectoryMesi::new(cfg.l2);
    let mut notices = 0u64;
    t.span("coherence.mesi", |_| {
        let mut settle = |dir: &mut DirectoryMesi, pa: PhysAddr, out: MesiOutcome| {
            for &a in out.forwarded_to.iter().chain(&out.invalidated) {
                if a == AgentId::TILE {
                    dir.eviction_notice(a, pa, false);
                    notices += 1;
                }
            }
            for &(block, a) in &out.recalls {
                if a == AgentId::TILE {
                    let bpa = PhysAddr::new(block.index() * CACHE_BLOCK_BYTES as u64);
                    dir.eviction_notice(a, bpa, false);
                    notices += 1;
                }
            }
        };
        for (e, &pa) in events.iter().zip(pas) {
            match *e {
                HostEvent::Fill { .. } => {
                    let out = dir.request(AgentId::TILE, pa, MesiReq::GetX);
                    settle(&mut dir, pa, out);
                }
                HostEvent::Evict { dirty, .. } => dir.eviction_notice(AgentId::TILE, pa, dirty),
                HostEvent::Host { write, .. } => {
                    let req = if write { MesiReq::GetX } else { MesiReq::GetS };
                    let out = dir.request(AgentId::HOST_L1, pa, req);
                    settle(&mut dir, pa, out);
                }
            }
        }
    });
    c.mesi_requests += events.len() as u64 + notices;
    c.mesi_l2_misses += dir.l2_misses();
    c.mesi_invalidations += dir.invalidations_sent();
}

/// `Tlb::translate` at the AX-TLB on the fill stream, then
/// `AxRmap::register`/`unregister` on fills and evictions.
fn vm_pass(t: &mut Tracer, wl: &Workload, events: &[HostEvent], pas: &[PhysAddr], c: &mut Counts) {
    let mut tlb = Tlb::new(AX_TLB_ENTRIES);
    let mut pt = PageTable::new();
    let mut rmap = AxRmap::new();
    t.span("vm", |t| {
        t.span("vm.tlb", |_| {
            for e in events {
                if let HostEvent::Fill { block, .. } = *e {
                    std::hint::black_box(tlb.translate(wl.pid, block.base(), &mut pt));
                }
            }
        });
        t.span("vm.rmap", |_| {
            for (e, &pa) in events.iter().zip(pas) {
                match *e {
                    HostEvent::Fill { block, .. } => {
                        let ptr = L1xPointer {
                            pid: wl.pid,
                            vblock: block,
                        };
                        if let RmapOutcome::Synonym(_) = rmap.register(pa, ptr) {
                            rmap.replace(pa, ptr);
                        }
                        c.rmap_ops += 1;
                    }
                    HostEvent::Evict { .. } => {
                        rmap.unregister(pa);
                        c.rmap_ops += 1;
                    }
                    HostEvent::Host { .. } => {}
                }
            }
        });
    });
    c.tlb_lookups += tlb.lookups();
    c.tlb_misses += tlb.misses();
    c.rmap_synonyms += rmap.synonyms_detected();
}

/// `HostSide::tile_fill`/`tile_eviction`/`host_access` with no tile
/// behind the forwards.
fn host_pass(
    t: &mut Tracer,
    cfg: &SystemConfig,
    wl: &Workload,
    events: &[HostEvent],
    c: &mut Counts,
) {
    let mut host = HostSide::new(cfg);
    let mut ledger = EnergyLedger::new();
    let pid = wl.pid;
    t.span("core.host", |_| {
        for e in events {
            match *e {
                HostEvent::Fill { block, at } => {
                    std::hint::black_box(host.tile_fill(pid, block, at, &mut ledger, &mut NoTile));
                }
                HostEvent::Evict { block, dirty } => {
                    host.tile_eviction(pid, block, dirty, &mut ledger);
                }
                HostEvent::Host { block, write, at } => {
                    let kind = if write {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    std::hint::black_box(host.host_access(
                        pid,
                        block,
                        kind,
                        at,
                        &mut ledger,
                        &mut NoTile,
                    ));
                }
            }
        }
    });
    c.host_requests += events.len() as u64;
    c.host_l2_accesses += host.l2_accesses();
    c.host_ax_tlb_lookups += host.ax_tlb_lookups();
}

/// `numerator / denominator`, 0 for an empty denominator.
fn ratio(numerator: f64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator / denominator as f64
    }
}

fn layer_metrics(
    t: &Tracer,
    c: &Counts,
    per_system: &BTreeMap<&'static str, (u64, u64)>,
) -> BTreeMap<String, f64> {
    let ns = |name: &str| t.total_ns(name) as f64;
    let mut m: Vec<(&str, f64)> = vec![
        ("workloads.build_ms", ns("workloads") / 1e6),
        ("workloads.refs", c.refs as f64),
        ("accel.decode_ms", ns("accel.trace") / 1e6),
        ("accel.prewarm_ms", ns("accel.analysis") / 1e6),
        ("accel.dma_windows", c.dma_windows as f64),
        ("accel.forward_pairs", c.forward_pairs as f64),
        (
            "accel.issue_ns_per_ref",
            ratio(ns("accel.engine"), c.engine_refs),
        ),
        ("accel.mlp_stall_cycles", c.mlp_stall_cycles as f64),
        ("mem.l0x_ns_per_probe", ratio(ns("mem.l0x"), c.probes[0])),
        ("mem.l1x_ns_per_probe", ratio(ns("mem.l1x"), c.probes[1])),
        ("mem.l2_ns_per_probe", ratio(ns("mem.l2"), c.probes[2])),
        ("mem.l0x_miss_ratio", ratio(c.misses[0] as f64, c.probes[0])),
        ("mem.l1x_miss_ratio", ratio(c.misses[1] as f64, c.probes[1])),
        ("mem.l2_miss_ratio", ratio(c.misses[2] as f64, c.probes[2])),
        (
            "acc.ns_per_access",
            ratio(ns("coherence.acc"), c.acc_accesses),
        ),
        ("acc.l0_hit_ratio", ratio(c.acc_hits as f64, c.acc_accesses)),
        ("acc.l1_fills", c.acc_fills as f64),
        ("acc.lease_expiries", c.lease_expiries as f64),
        ("acc.stall_cycles", c.acc_stall_cycles as f64),
        (
            "acc.downgrade_sets_scanned",
            c.downgrade_sets_scanned as f64,
        ),
        ("acc.mshr_merges", c.mshr_merges as f64),
        ("acc.wt_stores", c.wt_stores as f64),
        (
            "mesi.ns_per_request",
            ratio(ns("coherence.mesi"), c.mesi_requests),
        ),
        ("mesi.l2_misses", c.mesi_l2_misses as f64),
        ("mesi.invalidations", c.mesi_invalidations as f64),
        ("vm.tlb_ns_per_lookup", ratio(ns("vm.tlb"), c.tlb_lookups)),
        (
            "vm.tlb_miss_ratio",
            ratio(c.tlb_misses as f64, c.tlb_lookups),
        ),
        ("vm.rmap_ns_per_op", ratio(ns("vm.rmap"), c.rmap_ops)),
        ("vm.rmap_synonyms", c.rmap_synonyms as f64),
        (
            "host.ns_per_request",
            ratio(ns("core.host"), c.host_requests),
        ),
        ("host.l2_accesses", c.host_l2_accesses as f64),
        ("host.ax_tlb_lookups", c.host_ax_tlb_lookups as f64),
        ("dma.ns_per_block", ratio(ns("dma"), c.dma_blocks)),
        ("dma.blocks", c.dma_blocks as f64),
        ("dma.transfers", c.dma_transfers as f64),
        ("energy.events", c.sim_events as f64),
        ("core.replay_ms", ns("core.system") / 1e6),
        (
            "journal.us_per_row",
            ratio(ns("core.journal") / 1e3, c.journal_rows),
        ),
        ("journal.bytes", c.journal_bytes as f64),
    ];
    for (system, key) in [
        ("SC", "core.replay_ns_per_ref.sc"),
        ("SH", "core.replay_ns_per_ref.sh"),
        ("FU", "core.replay_ns_per_ref.fu"),
        ("FU-Dx", "core.replay_ns_per_ref.fu-dx"),
    ] {
        let (job_ns, refs) = per_system.get(system).copied().unwrap_or_default();
        m.push((key, ratio(job_ns as f64, refs)));
    }
    m.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// The rows `tables` would print if it printed rows: the same jobs run
/// through the same library call (`Sweep`, one worker, memo on), with the
/// simulator's own per-job wall times.
pub fn in_process_rows(scale: Scale, jobs: &[SweepJob]) -> Result<Vec<SweepRow>, String> {
    Sweep::new(scale)
        .threads(1)
        .run(jobs.to_vec())
        .into_iter()
        .map(|o| {
            let res = o
                .result
                .map_err(|e| format!("{} failed: {e}", o.job.label()))?;
            Ok(SweepRow {
                suite: o.job.suite.label().to_string(),
                system: o.job.system.label().to_string(),
                config: o.job.variant.clone(),
                refs: res.metrics.refs_simulated,
                wall_ms: res.metrics.wall_nanos as f64 / 1e6,
                spliced: o.memo.mark == fusion_core::MemoMark::Hit,
                sim_events: res.metrics.sim_events,
                result_digest: Some(result_digest(&res.to_json())?),
            })
        })
        .collect()
}
