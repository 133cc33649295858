//! Robustness and rare-path coverage: inclusive-L2 recalls into the tile,
//! trace-replay equivalence, and decoder fuzzing (seeded deterministic
//! random input via `common::Rng`) — for both the trace codec and the
//! write-ahead journal codec (DESIGN.md §13).

mod common;

use common::{wal_header, Rng};
use fusion_repro::accel::io::{
    decode_workload, encode_workload, fingerprint, read_workload, write_workload,
};
use fusion_repro::accel::Workload;
use fusion_repro::core::journal::{self, JournalRow};
use fusion_repro::core::runner::{run_system, SystemKind};
use fusion_repro::core::{full_grid, SweepJob};
use fusion_repro::types::{CacheGeometry, SystemConfig};
use fusion_repro::workloads::{all_suites, build_suite, Scale, SuiteId};

/// A configuration whose L2 is barely larger than the L1X, forcing
/// inclusive-L2 evictions that recall blocks out of the accelerator tile —
/// a path ordinary runs never exercise (the 4 MB L2 swallows everything).
fn tiny_l2_config() -> SystemConfig {
    let mut cfg = SystemConfig::small();
    cfg.l2 = CacheGeometry {
        capacity_bytes: 16 * 1024,
        ways: 2,
        banks: 2,
        latency: 20,
    };
    cfg
}

#[test]
fn inclusive_l2_recalls_do_not_break_any_system() {
    for id in [SuiteId::Filter, SuiteId::Histogram] {
        let wl = build_suite(id, Scale::Tiny);
        for kind in [
            SystemKind::Scratch,
            SystemKind::Shared,
            SystemKind::Fusion,
            SystemKind::FusionDx,
        ] {
            let res = run_system(kind, &wl, &tiny_l2_config()).unwrap();
            assert!(res.total_cycles > 0, "{id}/{kind} under a tiny L2");
        }
    }
}

#[test]
fn tiny_l2_costs_more_memory_traffic() {
    let wl = build_suite(SuiteId::Histogram, Scale::Tiny);
    let big = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
    let tiny = run_system(SystemKind::Fusion, &wl, &tiny_l2_config()).unwrap();
    assert!(
        tiny.energy.count(fusion_repro::energy::Component::Memory)
            > big.energy.count(fusion_repro::energy::Component::Memory),
        "a 16 kB L2 must spill to DRAM more often"
    );
    // And the simulation still attributes every cycle.
    let sum: u64 = tiny.phases.iter().map(|p| p.cycles).sum();
    assert_eq!(sum, tiny.total_cycles);
}

#[test]
fn replayed_traces_simulate_identically() {
    // The paper's workflow: materialize the trace once, replay everywhere.
    // Replaying must give bit-identical results to the fresh build.
    for id in all_suites() {
        let wl = build_suite(id, Scale::Tiny);
        let mut file = Vec::new();
        write_workload(&wl, &mut file).unwrap();
        let replayed = read_workload(file.as_slice()).unwrap();
        assert_eq!(wl, replayed, "{id}: lossy trace roundtrip");
        let a = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
        let b = run_system(SystemKind::Fusion, &replayed, &SystemConfig::small()).unwrap();
        assert_eq!(a.total_cycles, b.total_cycles, "{id}");
        assert_eq!(a.energy, b.energy, "{id}");
    }
}

#[test]
fn prefetch_and_renewal_compose() {
    // Both extensions on together: still deterministic, still correct
    // accounting, and no slower than the plain configuration on a
    // streaming suite.
    let wl = build_suite(SuiteId::Tracking, Scale::Tiny);
    let plain = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
    let cfg = SystemConfig::small()
        .with_lease_renewal(true)
        .with_l1x_prefetch(4);
    let both = run_system(SystemKind::Fusion, &wl, &cfg).unwrap();
    assert!(both.total_cycles <= plain.total_cycles);
    let t = both.tile.unwrap();
    assert_eq!(t.l0_hits + t.l0_misses, t.l0_accesses);
}

/// The trace decoder never panics on arbitrary bytes — it returns a
/// structured error instead.
#[test]
fn decoder_never_panics_on_garbage() {
    let mut rng = Rng::new(0xF422);
    for _ in 0..256 {
        let len = rng.range_usize(0, 512);
        let bytes: Vec<u8> = (0..len).map(|_| rng.range_u8(0, 255)).collect();
        let _ = decode_workload(&bytes);
    }
}

/// Bit-flipping a valid trace never panics the decoder, and decoding
/// either fails cleanly or yields *some* structurally valid workload.
#[test]
fn decoder_survives_corruption() {
    let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
    let pristine = encode_workload(&wl);
    let mut rng = Rng::new(0xC0A7);
    for _ in 0..256 {
        let mut bytes = pristine.clone();
        let i = rng.range_usize(0, bytes.len());
        bytes[i] ^= 1 << rng.range_u8(0, 8);
        if let Ok(decoded) = decode_workload(&bytes) {
            // Whatever decoded must at least be internally consistent.
            for p in &decoded.phases {
                assert!(p.mlp >= 1);
            }
        }
    }
}

/// A replay resolves each reference's block as `ordinal_blocks[ordinal]`,
/// so the numbering carries every block: the table names each block
/// once, and ordinals are handed out densely in first-touch order.
fn assert_first_touch_numbering(wl: &Workload) {
    let table = wl.ordinal_blocks();
    let mut distinct = table.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), table.len(), "a block holds two ordinals");
    let mut issued = 0usize;
    for idx in 0..wl.phases.len() {
        for &o in wl.phase_refs(idx).ordinals {
            let o = o as usize;
            assert!(o <= issued, "ordinal {o} skips ahead of {issued}");
            issued = issued.max(o + 1);
        }
    }
    assert_eq!(issued, table.len(), "every ordinal is used");
}

/// The trace bytes of all seven suites at tiny and small scale are
/// pinned. The encoder rebuilds each block delta from the ordinal table
/// and streams the fingerprint, and the journal keys every row by that
/// fingerprint: a changed byte would leave every journal written before
/// it unresumable.
#[test]
fn trace_fingerprints_are_pinned() {
    use SuiteId::{Adpcm, Disparity, Fft, Filter, Histogram, Susan, Tracking};
    const PINNED: [(Scale, SuiteId, u64); 14] = [
        (Scale::Tiny, Fft, 0x4d8ee3211bb0d259),
        (Scale::Tiny, Disparity, 0x540c3f468425c31f),
        (Scale::Tiny, Tracking, 0x9cf4ffa5273c430b),
        (Scale::Tiny, Adpcm, 0xbabf086920b0c3e3),
        (Scale::Tiny, Susan, 0x9f8ae16f636c2454),
        (Scale::Tiny, Filter, 0x174c36ad409ee924),
        (Scale::Tiny, Histogram, 0x4755138755182d1e),
        (Scale::Small, Fft, 0xf30670e3e4c21071),
        (Scale::Small, Disparity, 0x5fc2b3fd4d9cb43d),
        (Scale::Small, Tracking, 0xf6351343c69ca597),
        (Scale::Small, Adpcm, 0xb91a0714c4c892b5),
        (Scale::Small, Susan, 0x745cf430ec451d57),
        (Scale::Small, Filter, 0xc536c2a75f937e8c),
        (Scale::Small, Histogram, 0x2844ec939689d2b6),
    ];
    for (scale, id, want) in PINNED {
        let wl = build_suite(id, scale);
        assert_eq!(fingerprint(&wl), want, "{id:?} at {scale:?}");
        let bytes = encode_workload(&wl);
        assert_eq!(
            fusion_types::hash::fnv1a(&bytes),
            want,
            "{id:?} at {scale:?}"
        );
        // Reading renumbers the blocks exactly as the recorder did.
        assert_eq!(
            decode_workload(&bytes).as_ref(),
            Ok(&wl),
            "{id:?} at {scale:?}"
        );
        assert_first_touch_numbering(&wl);
    }
}

/// FNV-1a matching the trace format's trailing checksum, so fuzzed
/// structural damage reaches the parser instead of dying at the
/// checksum gate.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len() - 8;
    let h = fusion_types::hash::fnv1a(&bytes[6..n]);
    bytes[n..].copy_from_slice(&h.to_le_bytes());
}

/// Corruption with a *valid* checksum — the adversarial case for the
/// parser's own bounds checks (length-field overflow, truncated strings,
/// bad kind bytes, out-of-range blocks). Every outcome must be a clean `Result`, never a
/// panic or a runaway allocation.
#[test]
fn decoder_survives_resealed_structural_corruption() {
    let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
    let pristine = encode_workload(&wl);
    let mut rng = Rng::new(0x5EA1);
    for _ in 0..256 {
        let mut bytes = pristine.clone();
        // Damage the payload (past magic+version, before the checksum)
        // and recompute the seal so the parser sees the damage.
        let i = rng.range_usize(6, bytes.len() - 8);
        bytes[i] ^= 1 << rng.range_u8(0, 8);
        reseal(&mut bytes);
        if let Ok(decoded) = decode_workload(&bytes) {
            for p in &decoded.phases {
                assert!(p.mlp >= 1);
            }
            assert_first_touch_numbering(&decoded);
        }
    }
    // Resealed truncation: cut the payload short and seal what remains
    // (strictly inside the payload, so the result is genuinely damaged).
    for _ in 0..64 {
        let keep = rng.range_usize(14, pristine.len() - 8);
        let mut bytes = pristine[..keep].to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        reseal(&mut bytes);
        assert!(
            decode_workload(&bytes).is_err(),
            "truncated-to-{keep} trace was accepted"
        );
    }
}

// ---- write-ahead journal codec (DESIGN.md §13), fuzzed the same way ----

/// The `SimResult` "system" string a journal row for this system label
/// must embed.
fn result_system(label: &str) -> &'static str {
    match label {
        "SC" => "SCRATCH",
        "SH" => "SHARED",
        "FU" => "FUSION",
        "FU-Dx" => "FUSION-Dx",
        other => panic!("unknown system label {other}"),
    }
}

/// A structurally valid journal row for a real grid job (constant trace
/// fingerprint `0x7e57`, matched by the resume closures below).
fn wal_row(job: &SweepJob) -> JournalRow {
    JournalRow {
        system: job.system.label().to_string(),
        suite: job.suite.label().to_string(),
        scale: "tiny".to_string(),
        variant: job.variant.clone(),
        config_hash: journal::config_fingerprint(&job.config),
        code_version: journal::code_version(),
        trace_fingerprint: 0x7e57,
        attempts: 1,
        backoff: 0,
        sim_events: 5,
        refs: 9,
        result_json: format!(
            "{{\"system\":\"{}\",\"total_cycles\":1}}",
            result_system(job.system.label())
        ),
    }
}

/// The journal reader never panics on arbitrary bytes.
#[test]
fn journal_reader_never_panics_on_garbage() {
    let mut rng = Rng::new(0x3A11);
    for _ in 0..256 {
        let len = rng.range_usize(0, 512);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.range_u8(0, 255)).collect();
        // Sprinkle newlines so the line splitter has real work to do.
        for _ in 0..len / 16 {
            let i = rng.range_usize(0, len);
            bytes[i] = b'\n';
        }
        let rec = journal::read_journal(&bytes);
        assert!(rec.rows.is_empty(), "garbage decoded to a row");
    }
}

/// Bit-flipping a valid journal never panics and never splices: every
/// surviving row is byte-identical to one of the originals.
#[test]
fn journal_survives_bit_flips_without_splicing() {
    let jobs = full_grid(&SystemConfig::small());
    let rows: Vec<JournalRow> = jobs.iter().take(4).map(wal_row).collect();
    let mut text = journal::encode_header(&wal_header(jobs.len()));
    text.push('\n');
    for r in &rows {
        text.push_str(&journal::encode_row(r));
        text.push('\n');
    }
    let pristine = text.into_bytes();
    let mut rng = Rng::new(0xF1A6);
    for _ in 0..256 {
        let mut bytes = pristine.clone();
        let i = rng.range_usize(0, bytes.len());
        bytes[i] ^= 1 << rng.range_u8(0, 8);
        let rec = journal::read_journal(&bytes);
        assert!(rec.rows.len() <= rows.len());
        for row in &rec.rows {
            assert!(
                rows.contains(row),
                "bit flip at {i} spliced a damaged row: {row:?}"
            );
        }
    }
}

/// Corruption hiding behind a *valid* seal — the adversarial case for the
/// structural checks and the resume verification. Each forgery must be
/// dropped or re-run, never panic and never splice.
#[test]
fn resealed_journal_forgeries_are_contained() {
    let jobs = full_grid(&SystemConfig::small());
    let header = journal::encode_header(&wal_header(jobs.len()));
    let mut fp = |_suite: SuiteId| 0x7e57u64;

    // A row claiming SC whose payload came from a FUSION run, resealed:
    // the structural cross-check rejects it.
    let mut splice = wal_row(&jobs[0]);
    "SC".clone_into(&mut splice.system);
    splice.result_json = "{\"system\":\"FUSION\",\"total_cycles\":1}".to_string();
    let text = format!("{header}\n{}\n", journal::encode_row(&splice));
    let rec = journal::read_journal(text.as_bytes());
    assert!(rec.rows.is_empty());
    assert!(
        rec.warnings.iter().any(|w| w.contains("does not belong")),
        "{:?}",
        rec.warnings
    );

    // A half-truncated payload, resealed: the balanced-object check
    // rejects it.
    let mut torn = wal_row(&jobs[1]);
    torn.result_json = format!(
        "{{\"system\":\"{}\",\"x\":{{",
        result_system(jobs[1].system.label())
    );
    let text = format!("{header}\n{}\n", journal::encode_row(&torn));
    let rec = journal::read_journal(text.as_bytes());
    assert!(rec.rows.is_empty());

    // A stale code version with a valid seal: decoded, but resume
    // verification re-runs the point instead of splicing it.
    let mut stale = wal_row(&jobs[2]);
    stale.code_version = "0.0.0+wal0".to_string();
    let text = format!("{header}\n{}\n", journal::encode_row(&stale));
    let rec = journal::read_journal(text.as_bytes());
    assert_eq!(rec.rows.len(), 1);
    let plan =
        journal::plan_resume(&jobs, Scale::Tiny, &rec, &journal::code_version(), &mut fp).unwrap();
    assert_eq!(plan.resumed_count(), 0);
    assert!(
        plan.warnings.iter().any(|w| w.contains("stale")),
        "{:?}",
        plan.warnings
    );

    // A key tampered toward a grid point that doesn't exist: an orphan,
    // warned about and ignored — every live job still re-runs.
    let mut orphan = wal_row(&jobs[3]);
    orphan.variant = "l0x999k".to_string();
    let text = format!("{header}\n{}\n", journal::encode_row(&orphan));
    let rec = journal::read_journal(text.as_bytes());
    let plan =
        journal::plan_resume(&jobs, Scale::Tiny, &rec, &journal::code_version(), &mut fp).unwrap();
    assert_eq!(plan.resumed_count(), 0);
    assert!(
        plan.warnings
            .iter()
            .any(|w| w.contains("match no current grid point")),
        "{:?}",
        plan.warnings
    );
}

/// Interleaved duplicate keys (two writers raced, or a splice): every
/// copy is dropped with a warning and the point re-runs — splicing either
/// copy silently would be guessing.
#[test]
fn interleaved_duplicate_keys_are_skipped_and_rerun() {
    let jobs = full_grid(&SystemConfig::small());
    let a = wal_row(&jobs[0]);
    let b = wal_row(&jobs[1]);
    let mut dup = wal_row(&jobs[0]);
    dup.sim_events = 999; // divergent duplicate — neither copy is trustworthy
    let text = format!(
        "{}\n{}\n{}\n{}\n",
        journal::encode_header(&wal_header(jobs.len())),
        journal::encode_row(&a),
        journal::encode_row(&b),
        journal::encode_row(&dup),
    );
    let rec = journal::read_journal(text.as_bytes());
    assert_eq!(rec.rows.len(), 1, "only the unduplicated row survives");
    assert_eq!(rec.rows[0], b);
    assert!(rec.warnings.iter().any(|w| w.contains("duplicate")));

    let mut fp = |_suite: SuiteId| 0x7e57u64;
    let plan =
        journal::plan_resume(&jobs, Scale::Tiny, &rec, &journal::code_version(), &mut fp).unwrap();
    assert_eq!(plan.resumed_count(), 1);
    assert!(plan.resumed[0].is_none(), "duplicated key must re-run");
    assert!(plan.resumed[1].is_some());
}

/// Tearing the journal at every byte of its tail never panics and never
/// loses the verified prefix.
#[test]
fn torn_tails_at_every_byte_keep_the_prefix() {
    let jobs = full_grid(&SystemConfig::small());
    let a = wal_row(&jobs[0]);
    let b = wal_row(&jobs[1]);
    let text = format!(
        "{}\n{}\n{}\n",
        journal::encode_header(&wal_header(jobs.len())),
        journal::encode_row(&a),
        journal::encode_row(&b),
    );
    let bytes = text.as_bytes();
    let second_row_start = text.len() - (journal::encode_row(&b).len() + 1);
    for cut in second_row_start..bytes.len() {
        let rec = journal::read_journal(&bytes[..cut]);
        assert!(rec.header.is_some(), "cut {cut} lost the header");
        assert_eq!(rec.rows[0], a, "cut {cut} lost the first row");
        if cut < bytes.len() {
            assert!(rec.rows.len() == 1 || cut == bytes.len() - 1);
        }
    }
}
