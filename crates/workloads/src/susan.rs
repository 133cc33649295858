//! SUSAN: brightness LUT, smoothing, corner and edge detection.
//!
//! Four accelerated functions. `smooth` dominates execution (Table 1:
//! 66 % of time) with a large stencil that iterates the image pixel by
//! pixel, and `corn`/`edges` consume the smoothed image. Working set is
//! < 30 kB.

use fusion_accel::record::TracedBuf;
use fusion_accel::{Recorder, Workload};
use fusion_types::ids::ExecUnit;
use fusion_types::{AxcId, Pid};

use crate::suite::Scale;

const BRIGHT: (usize, u32) = (2, 1000);
const SMOOTH: (usize, u32) = (2, 1700);
const CORN: (usize, u32) = (2, 1200);
const EDGES: (usize, u32) = (2, 1700);

fn px(buf: &TracedBuf<i32>, w: usize, x: usize, y: usize) -> i32 {
    buf.get(y * w + x)
}

/// Builds the SUSAN workload.
#[expect(
    clippy::cast_possible_truncation,
    reason = "synthetic pixels, LUT indices and smoothed values are small, and a float-to-int cast saturates"
)]
pub fn build(scale: Scale) -> Workload {
    let w = scale.pick(16, 28, 36);
    let h = scale.pick(16, 28, 36);
    let mask = scale.pick(1, 2, 3); // smoothing radius (7x7 at Paper)
    let rec = Recorder::new();

    let mut img = rec.buffer::<i32>(w * h);
    let mut lut = rec.buffer::<i32>(512);
    let mut smooth_img = rec.buffer::<i32>(w * h);
    let mut corner_map = rec.buffer::<i32>(w * h);
    let mut edge_map = rec.buffer::<i32>(w * h);

    img.init_untraced(|i| {
        let (x, y) = (i % w, i / w);
        // A bright square on a gradient: produces corners and edges.
        if (w / 4..w / 2).contains(&x) && (h / 4..h / 2).contains(&y) {
            220
        } else {
            ((x * 3 + y * 2) % 60) as i32
        }
    });

    // bright: the exp() brightness LUT (USAN similarity table). FP heavy
    // (Table 1: 48.9 % FP).
    let thresh = 27.0f32;
    for d in 0..512i32 {
        let diff = (d - 256) as f32;
        rec.fp_ops(8); // divide, power, exp pipeline
        let v = (-(diff / thresh).powi(6)).exp();
        lut.set(d as usize, (v * 100.0) as i32);
    }
    rec.end_phase("bright", ExecUnit::Axc(AxcId::new(0)), BRIGHT.0, BRIGHT.1);

    // smooth: USAN-weighted smoothing over a (2*mask+1)^2 window.
    for y in mask..h - mask {
        for x in mask..w - mask {
            let center = px(&img, w, x, y);
            let mut num = 0i64;
            let mut den = 0i64;
            for dy in 0..=2 * mask {
                for dx in 0..=2 * mask {
                    let p = px(&img, w, x + dx - mask, y + dy - mask);
                    let wgt = lut.get((p - center + 256).clamp(0, 511) as usize) as i64;
                    rec.int_ops(7);
                    num += wgt * p as i64;
                    den += wgt;
                }
            }
            rec.int_ops(4);
            smooth_img.set(y * w + x, if den > 0 { (num / den) as i32 } else { center });
        }
    }
    rec.end_phase("smooth", ExecUnit::Axc(AxcId::new(1)), SMOOTH.0, SMOOTH.1);

    // corn: USAN corner response on the *raw* image (SUSAN's corner mode
    // does not consume the smoothed plane — its footprint is mostly its
    // private response/size maps, hence Table 1's low 7.6 % sharing).
    let mut usan_sizes = rec.buffer::<i32>(w * h);
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let c = px(&img, w, x, y);
            let mut usan = 0i32;
            for (dx, dy) in [
                (-1i32, 0i32),
                (1, 0),
                (0, -1),
                (0, 1),
                (-1, -1),
                (1, 1),
                (-1, 1),
                (1, -1),
            ] {
                // Interior pixels only (1..w-1 / 1..h-1), so the signed
                // offset never underflows; add in usize to avoid casts.
                let p = px(
                    &img,
                    w,
                    x.wrapping_add_signed(dx as isize),
                    y.wrapping_add_signed(dy as isize),
                );
                rec.int_ops(4);
                usan += lut.get((p - c + 256).clamp(0, 511) as usize);
            }
            rec.int_ops(3);
            usan_sizes.set(y * w + x, usan);
            let g = 6 * 100 / 2;
            corner_map.set(y * w + x, if usan < g { g - usan } else { 0 });
        }
    }
    rec.end_phase("corn", ExecUnit::Axc(AxcId::new(2)), CORN.0, CORN.1);

    // edges: USAN edge response (same structure, different geometry).
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let c = px(&smooth_img, w, x, y);
            let mut usan = 0i32;
            for (dx, dy) in [(-1i32, 0i32), (1, 0), (0, -1), (0, 1)] {
                let p = px(
                    &smooth_img,
                    w,
                    x.wrapping_add_signed(dx as isize),
                    y.wrapping_add_signed(dy as isize),
                );
                rec.int_ops(4);
                usan += lut.get((p - c + 256).clamp(0, 511) as usize);
            }
            rec.int_ops(3);
            let g = 3 * 100 / 4;
            edge_map.set(y * w + x, if usan < g { g - usan } else { 0 });
        }
    }
    rec.end_phase("edges", ExecUnit::Axc(AxcId::new(3)), EDGES.0, EDGES.1);

    // Host digest: count strong corners (tiny forwarded footprint —
    // Table 6 reports 6 AX-RMAP lookups for SUSAN).
    let mut corners = 0u32;
    for i in (0..w * h).step_by((w * h / 24).max(1)) {
        rec.int_ops(2);
        if corner_map.get(i) > 0 {
            corners += 1;
        }
    }
    let _ = corners;
    rec.end_phase("host_digest", ExecUnit::Host, 2, 500);

    rec.finish("SUSAN", Pid::new(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_functions() {
        let wl = build(Scale::Tiny);
        assert_eq!(wl.functions(), vec!["bright", "smooth", "corn", "edges"]);
    }

    #[test]
    fn smooth_dominates_time() {
        let wl = build(Scale::Tiny);
        let refs = |name: &str| -> usize {
            (0..wl.phases.len())
                .filter(|&i| wl.phases[i].name == name)
                .map(|i| wl.phase_refs(i).len())
                .sum()
        };
        assert!(refs("smooth") > refs("corn"));
        assert!(refs("smooth") > refs("edges"));
        assert!(refs("smooth") > refs("bright"));
    }

    #[test]
    fn bright_is_fp_heavy() {
        let wl = build(Scale::Tiny);
        let stats = wl.trace_stats();
        let mix = stats["bright"].op_mix();
        assert!(mix.fp_pct > 40.0, "fp {:.1}", mix.fp_pct);
    }

    #[test]
    fn working_set_under_30kb_at_paper_scale() {
        let ws = build(Scale::Paper).working_set();
        assert!(ws.kib() < 30.0, "ws {ws}");
    }

    #[test]
    fn corn_low_sharing_edges_low_sharing() {
        // Table 1: corn 7.6 %, edges 12.3 % — far below the smooth/bright
        // pair. Their private output maps dominate their footprints.
        let wl = build(Scale::Tiny);
        let stats = wl.trace_stats();
        let corn = stats["corn"].sharing_degree();
        let smooth = stats["smooth"].sharing_degree();
        assert!(corn < smooth, "corn {corn:.0}% !< smooth {smooth:.0}%");
    }
}
