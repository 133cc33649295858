//! Table 1 band checks: the regenerated accelerator characteristics must
//! stay in the qualitative bands the paper reports. Generous tolerances —
//! these pin the *shape* of each function's behaviour, not exact numbers.

use fusion_repro::accel::analysis::{FunctionStats, OpMix};
use fusion_repro::accel::DecodedTrace;
use fusion_repro::workloads::{build_suite, Scale, SuiteId};

fn stats(id: SuiteId, f: &str) -> FunctionStats {
    let wl = build_suite(id, Scale::Small);
    DecodedTrace::decode(&wl).trace_stats(&wl)[f].clone()
}

fn mix(id: SuiteId, f: &str) -> OpMix {
    stats(id, f).op_mix()
}

fn shr(id: SuiteId, f: &str) -> f64 {
    stats(id, f).sharing_degree()
}

#[test]
fn fft_butterflies_are_memory_heavy_and_fully_shared() {
    // Paper: step3 46.3/43.2 %LD class, %SHR 50-100 across steps.
    let m = mix(SuiteId::Fft, "step4");
    assert!(m.ld_pct > 25.0, "ld {:.0}", m.ld_pct);
    assert!(m.st_pct > 15.0, "st {:.0}", m.st_pct);
    for f in ["step3", "step4", "step5"] {
        assert!(shr(SuiteId::Fft, f) > 50.0, "{f}");
    }
}

#[test]
fn adpcm_is_integer_only_and_nearly_fully_shared() {
    // Paper: coder/decoder 0 %FP, %SHR ~99.
    for f in ["coder", "decoder"] {
        let m = mix(SuiteId::Adpcm, f);
        assert_eq!(m.fp_pct, 0.0, "{f} has FP ops");
        assert!(m.int_pct > 50.0, "{f} int {:.0}", m.int_pct);
        assert!(shr(SuiteId::Adpcm, f) > 90.0, "{f} %SHR");
    }
}

#[test]
fn histogram_pipeline_sharing_ordering() {
    // Paper Table 1: histogram 100 %, equaliz. 66 %, hsl2rgb 75 %,
    // rgb2hsl 8.3 % — the converters' private input/output planes give
    // them the lowest sharing.
    let h = shr(SuiteId::Histogram, "histogram");
    let e = shr(SuiteId::Histogram, "equaliz.");
    let r = shr(SuiteId::Histogram, "rgb2hsl");
    assert!(h > 95.0, "histogram {h:.0}");
    assert!(e > 60.0, "equaliz {e:.0}");
    assert!(r < e, "rgb2hsl {r:.0} !< equaliz {e:.0}");
}

#[test]
fn fp_heavy_functions_match_table1() {
    // Paper: bright 48.9 %FP, rgb2hsl 51.8 %FP, hsl2rgb 40.8 %FP.
    assert!(mix(SuiteId::Susan, "bright").fp_pct > 40.0);
    assert!(mix(SuiteId::Histogram, "rgb2hsl").fp_pct > 40.0);
    assert!(mix(SuiteId::Histogram, "hsl2rgb").fp_pct > 30.0);
    // And the integer-dominated ones stay integer-dominated.
    assert!(mix(SuiteId::Susan, "smooth").fp_pct < 5.0);
    assert!(mix(SuiteId::Filter, "medfilt").fp_pct < 5.0);
}

#[test]
fn load_heavy_functions_match_table1() {
    // Paper: finalSAD 71.3 %LD, smooth 67.6 %LD, medfilt 49.1 %LD —
    // all load-dominated with tiny store fractions.
    for (id, f) in [
        (SuiteId::Disparity, "finalSAD"),
        (SuiteId::Susan, "smooth"),
        (SuiteId::Filter, "medfilt"),
    ] {
        let m = mix(id, f);
        assert!(
            m.ld_pct > 3.5 * m.st_pct,
            "{f}: ld {:.0}% st {:.0}%",
            m.ld_pct,
            m.st_pct
        );
    }
}

#[test]
fn susan_sharing_ordering_matches_table1() {
    // Paper: smooth 36.2 %, edges 12.3 %, corn 7.6 % — corners/edges sit
    // well below smooth.
    let s = shr(SuiteId::Susan, "smooth");
    let c = shr(SuiteId::Susan, "corn");
    assert!(c < s, "corn {c:.0} !< smooth {s:.0}");
}

#[test]
fn mlp_configuration_matches_table1() {
    // Spot-check the per-function MLP wiring against Table 1.
    let expect = [
        (SuiteId::Fft, "step1", 5),
        (SuiteId::Disparity, "finalSAD", 6),
        (SuiteId::Tracking, "calcSobel", 1),
        (SuiteId::Adpcm, "coder", 2),
        (SuiteId::Histogram, "histogram", 1),
    ];
    for (id, f, mlp) in expect {
        let wl = build_suite(id, Scale::Tiny);
        let p = wl.phases.iter().find(|p| p.name == f).unwrap();
        assert_eq!(p.mlp, mlp, "{f}");
    }
}

#[test]
fn lease_configuration_matches_table3() {
    // Spot-check the per-function lease wiring against Table 3.
    let expect = [
        (SuiteId::Fft, "step3", 200),
        (SuiteId::Fft, "step4", 700),
        (SuiteId::Adpcm, "coder", 1400),
        (SuiteId::Susan, "smooth", 1700),
        (SuiteId::Filter, "medfilt", 400),
        (SuiteId::Tracking, "imgResize", 770),
    ];
    for (id, f, lease) in expect {
        let wl = build_suite(id, Scale::Tiny);
        let p = wl.phases.iter().find(|p| p.name == f).unwrap();
        assert_eq!(p.lease, lease, "{f}");
    }
}
