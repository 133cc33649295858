//! Histogram: RGB→HSL, histogram, equalization, HSL→RGB.
//!
//! The running example of the paper's Figure 1 (an image passes through
//! conversion → histogram → equalization steps). Four accelerated
//! functions over a ~1.2 MB working set — far beyond the 64 kB L1X, which
//! is why HIST is the benchmark where FUSION *loses* energy (Lesson 4) and
//! the AX-TLB sees ~60 K lookups (Table 6).

use fusion_accel::{Recorder, Workload};
use fusion_types::ids::ExecUnit;
use fusion_types::{AxcId, Pid};

use crate::suite::Scale;

const RGB2HSL: (usize, u32) = (4, 500);
const HISTOGRAM: (usize, u32) = (1, 500);
const EQUALIZ: (usize, u32) = (1, 500);
const HSL2RGB: (usize, u32) = (3, 500);

const BINS: usize = 256;

/// Builds the Histogram workload.
#[expect(
    clippy::cast_possible_truncation,
    reason = "luminance in [0, 1] scales to a bin below BINS"
)]
pub fn build(scale: Scale) -> Workload {
    let n = scale.pick(24 * 24, 96 * 96, 192 * 176); // pixels
    let rec = Recorder::new();

    let mut r_in = rec.buffer::<f32>(n);
    let mut g_in = rec.buffer::<f32>(n);
    let mut b_in = rec.buffer::<f32>(n);
    let mut h_pl = rec.buffer::<f32>(n);
    let mut s_pl = rec.buffer::<f32>(n);
    let mut l_pl = rec.buffer::<f32>(n);
    let mut hist = rec.buffer::<u32>(BINS);
    let mut cdf = rec.buffer::<u32>(BINS);
    let mut r_out = rec.buffer::<f32>(n);
    let mut g_out = rec.buffer::<f32>(n);
    let mut b_out = rec.buffer::<f32>(n);

    // A low-contrast synthetic image (equalization must spread it).
    r_in.init_untraced(|i| 0.3 + 0.2 * ((i % 97) as f32 / 97.0));
    g_in.init_untraced(|i| 0.35 + 0.15 * ((i % 61) as f32 / 61.0));
    b_in.init_untraced(|i| 0.4 + 0.1 * ((i % 31) as f32 / 31.0));

    let mut phases = Vec::new();

    // rgb2hsl (FP heavy — Table 1: 51.8 % FP).
    for i in 0..n {
        let r = r_in.get(i);
        let g = g_in.get(i);
        let b = b_in.get(i);
        let max = r.max(g).max(b);
        let min = r.min(g).min(b);
        let l = 0.5 * (max + min);
        let (h, s) = if (max - min).abs() < 1e-6 {
            (0.0, 0.0)
        } else {
            let d = max - min;
            let s = if l > 0.5 {
                d / (2.0 - max - min)
            } else {
                d / (max + min)
            };
            let h = if max == r {
                (g - b) / d
            } else if max == g {
                2.0 + (b - r) / d
            } else {
                4.0 + (r - g) / d
            };
            (h / 6.0, s)
        };
        rec.fp_ops(18);
        rec.int_ops(3);
        h_pl.set(i, h);
        s_pl.set(i, s);
        l_pl.set(i, l);
    }
    phases.push(rec.take_phase(
        "rgb2hsl",
        ExecUnit::Axc(AxcId::new(0)),
        RGB2HSL.0,
        RGB2HSL.1,
    ));

    // histogram over the L plane (read-modify-write on the bin array; 100 %
    // of its blocks are shared with equaliz./rgb2hsl).
    for i in 0..n {
        let l = l_pl.get(i);
        rec.int_ops(3);
        let bin = ((l * (BINS - 1) as f32) as usize).min(BINS - 1);
        let c = hist.get(bin);
        hist.set(bin, c + 1);
    }
    phases.push(rec.take_phase(
        "histogram",
        ExecUnit::Axc(AxcId::new(1)),
        HISTOGRAM.0,
        HISTOGRAM.1,
    ));

    // equaliz.: CDF then remap of the L plane.
    let mut acc = 0u32;
    for bin in 0..BINS {
        acc += hist.get(bin);
        rec.int_ops(2);
        cdf.set(bin, acc);
    }
    let total = acc.max(1);
    for i in 0..n {
        let l = l_pl.get(i);
        rec.int_ops(2);
        rec.fp_ops(2);
        let bin = ((l * (BINS - 1) as f32) as usize).min(BINS - 1);
        let c = cdf.get(bin);
        l_pl.set(i, c as f32 / total as f32);
    }
    phases.push(rec.take_phase(
        "equaliz.",
        ExecUnit::Axc(AxcId::new(2)),
        EQUALIZ.0,
        EQUALIZ.1,
    ));

    // hsl2rgb.
    for i in 0..n {
        let h = h_pl.get(i);
        let s = s_pl.get(i);
        let l = l_pl.get(i);
        let q = if l < 0.5 {
            l * (1.0 + s)
        } else {
            l + s - l * s
        };
        let p = 2.0 * l - q;
        let hue = |t: f32| -> f32 {
            let t = t.rem_euclid(1.0);
            if t < 1.0 / 6.0 {
                p + (q - p) * 6.0 * t
            } else if t < 0.5 {
                q
            } else if t < 2.0 / 3.0 {
                p + (q - p) * (2.0 / 3.0 - t) * 6.0
            } else {
                p
            }
        };
        rec.fp_ops(16);
        rec.int_ops(2);
        r_out.set(i, hue(h + 1.0 / 3.0));
        g_out.set(i, hue(h));
        b_out.set(i, hue(h - 1.0 / 3.0));
    }
    phases.push(rec.take_phase(
        "hsl2rgb",
        ExecUnit::Axc(AxcId::new(3)),
        HSL2RGB.0,
        HSL2RGB.1,
    ));

    // Host digest: sample the output sparsely (Table 6: ~20 RMAP lookups).
    let mut checksum = 0.0f32;
    for i in (0..n).step_by((n / 16).max(1)) {
        rec.fp_ops(1);
        checksum += r_out.get(i);
    }
    let _ = checksum;
    phases.push(rec.take_phase("host_digest", ExecUnit::Host, 2, 500));

    // Equalization must spread the low-contrast luminance: after the CDF
    // remap the L plane should span most of [0, 1].
    debug_assert!({
        let l = l_pl.as_slice();
        let (mut lo, mut hi) = (f32::MAX, f32::MIN);
        for &v in l {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        hi - lo > 0.5
    });

    Workload {
        name: "HIST.".into(),
        pid: Pid::new(1),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_accel::DecodedTrace;

    #[test]
    fn four_functions() {
        let wl = build(Scale::Tiny);
        assert_eq!(
            wl.functions(),
            vec!["rgb2hsl", "histogram", "equaliz.", "hsl2rgb"]
        );
    }

    #[test]
    fn histogram_fully_shared() {
        // Table 1: histogram %SHR = 100 (it only touches the L plane and
        // the bin array, both shared).
        let wl = build(Scale::Tiny);
        let trace = DecodedTrace::decode(&wl);
        let stats = trace.trace_stats(&wl);
        let s = stats["histogram"].sharing_degree();
        assert!(s > 95.0, "histogram %SHR {s:.0}");
    }

    #[test]
    fn rgb2hsl_low_sharing() {
        // Table 1: rgb2hsl %SHR = 8.3 (the input planes are private).
        let wl = build(Scale::Tiny);
        let trace = DecodedTrace::decode(&wl);
        let stats = trace.trace_stats(&wl);
        let s = stats["rgb2hsl"].sharing_degree();
        let s_hist = stats["histogram"].sharing_degree();
        assert!(s < s_hist, "rgb2hsl {s:.0}% !< histogram {s_hist:.0}%");
    }

    #[test]
    fn working_set_near_paper_value() {
        let kb = DecodedTrace::decode(&build(Scale::Paper))
            .working_set()
            .kib();
        assert!(
            (900.0..1400.0).contains(&kb),
            "HIST working set {kb:.0} kB outside the paper's ~1191 kB band"
        );
    }

    #[test]
    fn conversions_are_fp_heavy() {
        let wl = build(Scale::Tiny);
        let trace = DecodedTrace::decode(&wl);
        let stats = trace.trace_stats(&wl);
        assert!(stats["rgb2hsl"].op_mix().fp_pct > 40.0);
        assert!(stats["hsl2rgb"].op_mix().fp_pct > 30.0);
    }

    #[test]
    fn equalization_spreads_contrast() {
        // The debug_assert inside build() verifies the L plane spans most
        // of [0,1] after equalization.
        let _ = build(Scale::Tiny);
    }
}
