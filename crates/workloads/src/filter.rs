//! Filter: 3x3 median filter + Sobel edge filter.
//!
//! Two accelerated functions (the paper's smallest tile). The median
//! filter iterates over every pixel's 3x3 neighbourhood — the L0X-thrashing
//! behaviour behind Lesson 4 — and the edge filter consumes its output.
//! Working set < 30 kB.

use fusion_accel::record::TracedBuf;
use fusion_accel::{Recorder, Workload};
use fusion_types::ids::ExecUnit;
use fusion_types::{AxcId, Pid};

use crate::suite::Scale;

const MEDFILT: (usize, u32) = (2, 400);
const EDGEFILT: (usize, u32) = (4, 400);

fn median9(mut v: [i32; 9], rec: &Recorder) -> i32 {
    // Sorting-network median: ~19 compare/exchange datapath ops.
    rec.int_ops(19);
    v.sort_unstable();
    v[4]
}

fn px(buf: &TracedBuf<i32>, w: usize, x: usize, y: usize) -> i32 {
    buf.get(y * w + x)
}

/// Builds the Filter workload: `medfilt` over the image in row bands, then
/// `edgefilt` over the median output, then a host digest pass.
#[expect(
    clippy::cast_possible_truncation,
    reason = "pixel coordinates and Sobel magnitudes are far below i32::MAX"
)]
pub fn build(scale: Scale) -> Workload {
    let w = scale.pick(16, 32, 48);
    let h = scale.pick(16, 32, 48);
    let bands = scale.pick(2, 4, 8);
    let rec = Recorder::new();

    let mut img = rec.buffer::<i32>(w * h);
    let mut med = rec.buffer::<i32>(w * h);
    let mut edge = rec.buffer::<i32>(w * h);

    // Deterministic "image": smooth gradient + salt noise the median must
    // remove.
    img.init_untraced(|i| {
        let (x, y) = (i % w, i / w);
        let base = (x * 2 + y * 3) as i32 % 200;
        if (x * 31 + y * 17) % 23 == 0 {
            255
        } else {
            base
        }
    });

    let mut phases = Vec::new();

    // medfilt: banded invocations over the interior.
    let band_h = h.div_ceil(bands);
    for b in 0..bands {
        let y0 = (b * band_h).max(1);
        let y1 = ((b + 1) * band_h).min(h - 1);
        for y in y0..y1 {
            for x in 1..w - 1 {
                let v = [
                    px(&img, w, x - 1, y - 1),
                    px(&img, w, x, y - 1),
                    px(&img, w, x + 1, y - 1),
                    px(&img, w, x - 1, y),
                    px(&img, w, x, y),
                    px(&img, w, x + 1, y),
                    px(&img, w, x - 1, y + 1),
                    px(&img, w, x, y + 1),
                    px(&img, w, x + 1, y + 1),
                ];
                rec.int_ops(6); // addressing
                med.set(y * w + x, median9(v, &rec));
            }
        }
        if y0 < y1 {
            phases.push(rec.take_phase(
                "medfilt",
                ExecUnit::Axc(AxcId::new(0)),
                MEDFILT.0,
                MEDFILT.1,
            ));
        }
    }

    // edgefilt: Sobel gradient magnitude over the median image (has an FP
    // component per Table 1: 23.9 % FP).
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let gx =
                px(&med, w, x + 1, y - 1) + 2 * px(&med, w, x + 1, y) + px(&med, w, x + 1, y + 1)
                    - px(&med, w, x - 1, y - 1)
                    - 2 * px(&med, w, x - 1, y)
                    - px(&med, w, x - 1, y + 1);
            let gy =
                px(&med, w, x - 1, y + 1) + 2 * px(&med, w, x, y + 1) + px(&med, w, x + 1, y + 1)
                    - px(&med, w, x - 1, y - 1)
                    - 2 * px(&med, w, x, y - 1)
                    - px(&med, w, x + 1, y - 1);
            rec.int_ops(12);
            rec.fp_ops(4); // magnitude in FP
            let mag = ((gx * gx + gy * gy) as f32).sqrt() as i32;
            edge.set(y * w + x, mag);
        }
    }
    phases.push(rec.take_phase(
        "edgefilt",
        ExecUnit::Axc(AxcId::new(1)),
        EDGEFILT.0,
        EDGEFILT.1,
    ));

    // Host digest: sample a few rows of the edge map (small forwarded
    // footprint, matching Table 6's low FILT counts).
    let mut strong = 0u32;
    for y in (1..h - 1).step_by((h / 4).max(1)) {
        for x in 1..w - 1 {
            rec.int_ops(2);
            if edge.get(y * w + x) > 100 {
                strong += 1;
            }
        }
    }
    let _ = strong;
    phases.push(rec.take_phase("host_digest", ExecUnit::Host, 2, 500));

    Workload {
        name: "FILT.".into(),
        pid: Pid::new(1),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_accel::DecodedTrace;

    #[test]
    fn two_functions() {
        let wl = build(Scale::Tiny);
        assert_eq!(wl.functions(), vec!["medfilt", "edgefilt"]);
    }

    #[test]
    fn median_removes_salt_noise() {
        let rec = Recorder::new();
        // A noisy center in a flat patch must be replaced by the median.
        let v = median9([10, 10, 10, 10, 255, 10, 10, 10, 10], &rec);
        assert_eq!(v, 10);
        let v = median9([1, 2, 3, 4, 5, 6, 7, 8, 9], &rec);
        assert_eq!(v, 5);
    }

    #[test]
    fn medfilt_dominates_references() {
        // Table 1: medfilt is ~74 % of time; its 9-point stencil dominates
        // the reference stream.
        let wl = build(Scale::Tiny);
        let med_refs: usize = wl
            .phases
            .iter()
            .filter(|p| p.name == "medfilt")
            .map(|p| p.refs.len())
            .sum();
        let edge_refs: usize = wl
            .phases
            .iter()
            .filter(|p| p.name == "edgefilt")
            .map(|p| p.refs.len())
            .sum();
        assert!(
            med_refs > edge_refs / 2,
            "med {med_refs} vs edge {edge_refs}"
        );
    }

    #[test]
    fn working_set_under_30kb_at_paper_scale() {
        let ws = DecodedTrace::decode(&build(Scale::Paper)).working_set();
        assert!(ws.kib() < 30.0, "ws {ws}");
    }

    #[test]
    fn shared_median_buffer() {
        let wl = build(Scale::Tiny);
        let trace = DecodedTrace::decode(&wl);
        let stats = trace.trace_stats(&wl);
        assert!(stats["edgefilt"].sharing_degree() > 10.0);
    }
}
