//! Disparity: SD-VBS stereo disparity pipeline (5 functions).
//!
//! For each candidate shift the pipeline pads the right image, computes a
//! per-pixel SAD, builds an integral image (2D2D), extracts windowed SADs
//! and updates the running minimum — five accelerated functions invoked
//! once per shift, with ~50 % sharing and a ~163 kB footprint at Paper
//! scale (Figure 6d).

use fusion_accel::record::TracedBuf;
use fusion_accel::{Recorder, Workload};
use fusion_types::ids::ExecUnit;
use fusion_types::{AxcId, Pid};

use crate::suite::Scale;

const PADARRAY4: (usize, u32) = (5, 500);
const SAD: (usize, u32) = (3, 500);
const TWOD2D: (usize, u32) = (4, 500);
const FINALSAD: (usize, u32) = (6, 500);
const FINDDISP: (usize, u32) = (2, 500);

fn px(buf: &TracedBuf<i32>, w: usize, x: usize, y: usize) -> i32 {
    buf.get(y * w + x)
}

/// Builds the Disparity workload.
#[expect(
    clippy::cast_possible_truncation,
    reason = "synthetic pixels are below 160 and shifts below the disparity range, so both fit i32"
)]
pub fn build(scale: Scale) -> Workload {
    let w = scale.pick(20, 48, 84);
    let h = scale.pick(16, 36, 64);
    let shifts = scale.pick(2, 4, 8);
    let win = 2usize; // half-window for the final SAD
    let rec = Recorder::new();

    let mut left = rec.buffer::<i32>(w * h);
    let mut right = rec.buffer::<i32>(w * h);
    let mut padded = rec.buffer::<i32>(w * h);
    let mut sad = rec.buffer::<i32>(w * h);
    let mut integ = rec.buffer::<i32>(w * h);
    let mut fsad = rec.buffer::<i32>(w * h);
    let mut min_sad = rec.buffer::<i32>(w * h);
    let mut disp = rec.buffer::<i32>(w * h);

    // Synthetic stereo pair: the right image is the left shifted by a
    // ground-truth disparity that varies by region.
    let truth = |x: usize, _y: usize| -> usize {
        if x < w / 2 {
            1
        } else {
            3.min(w - 1)
        }
    };
    left.init_untraced(|i| {
        let (x, y) = (i % w, i / w);
        ((x * 7 + y * 13) % 97) as i32 + ((x / 3 + y / 5) % 11) as i32 * 5
    });
    {
        // Stereo convention: the right camera sees the scene shifted left,
        // so right[x] = left[x - d]; searching shift d re-aligns them.
        let l = left.as_slice().to_vec();
        right.init_untraced(|i| {
            let (x, y) = (i % w, i / w);
            let d = truth(x, y);
            let sx = x.saturating_sub(d);
            l[y * w + sx]
        });
    }
    min_sad.init_untraced(|_| i32::MAX);

    for d in 0..shifts {
        // padarray4: shift the right image by the candidate disparity.
        for y in 0..h {
            for x in 0..w {
                rec.int_ops(4);
                let v = if x + d < w {
                    px(&right, w, x + d, y)
                } else {
                    0
                };
                padded.set(y * w + x, v);
            }
        }
        rec.end_phase(
            "padarray4",
            ExecUnit::Axc(AxcId::new(0)),
            PADARRAY4.0,
            PADARRAY4.1,
        );

        // SAD: per-pixel absolute difference.
        for i in 0..w * h {
            let a = left.get(i);
            let b = padded.get(i);
            rec.int_ops(3);
            sad.set(i, (a - b).abs());
        }
        rec.end_phase("SAD", ExecUnit::Axc(AxcId::new(1)), SAD.0, SAD.1);

        // 2D2D: integral image (row pass then column pass).
        for y in 0..h {
            let mut acc = 0i32;
            for x in 0..w {
                acc += sad.get(y * w + x);
                rec.int_ops(2);
                integ.set(y * w + x, acc);
            }
        }
        for x in 0..w {
            let mut acc = 0i32;
            for y in 0..h {
                acc += integ.get(y * w + x);
                rec.int_ops(2);
                integ.set(y * w + x, acc);
            }
        }
        rec.end_phase("2D2D", ExecUnit::Axc(AxcId::new(2)), TWOD2D.0, TWOD2D.1);

        // finalSAD: windowed SAD from the four integral-image corners
        // (load heavy: Table 1 shows 71 % loads).
        for y in win + 1..h - win {
            for x in win + 1..w - win {
                let br = px(&integ, w, x + win, y + win);
                let tl = px(&integ, w, x - win - 1, y - win - 1);
                let tr = px(&integ, w, x + win, y - win - 1);
                let bl = px(&integ, w, x - win - 1, y + win);
                rec.int_ops(5);
                fsad.set(y * w + x, br + tl - tr - bl);
            }
        }
        rec.end_phase(
            "finalSAD",
            ExecUnit::Axc(AxcId::new(3)),
            FINALSAD.0,
            FINALSAD.1,
        );

        // findDisp: running argmin over shifts (FP scoring per SD-VBS).
        for y in win + 1..h - win {
            for x in win + 1..w - win {
                let s = fsad.get(y * w + x);
                let m = min_sad.get(y * w + x);
                rec.int_ops(2);
                rec.fp_ops(2);
                if s < m {
                    min_sad.set(y * w + x, s);
                    disp.set(y * w + x, d as i32);
                }
            }
        }
        rec.end_phase(
            "findDisp.",
            ExecUnit::Axc(AxcId::new(4)),
            FINDDISP.0,
            FINDDISP.1,
        );
    }

    // Host epilogue: software consumes the disparity map and its
    // confidence (minimum SAD) plane (drives the ~500 forwarded requests
    // Table 6 reports for DISP).
    let mut histogram = [0u32; 16];
    let mut confidence = 0i64;
    for i in 0..w * h {
        let v = disp.get(i).clamp(0, 15) as usize;
        rec.int_ops(2);
        histogram[v] += 1;
        let m = min_sad.get(i);
        rec.int_ops(2);
        if m != i32::MAX {
            confidence += m as i64;
        }
    }
    let _ = confidence;
    rec.end_phase("host_consume", ExecUnit::Host, 2, 500);

    // Sanity: in the interior of the left region the recovered disparity
    // matches the ground truth when enough shifts were searched.
    debug_assert!(
        shifts < 2 || {
            let d = disp.as_slice();
            let y = h / 2;
            let x = w / 4;
            d[y * w + x] == 1
        }
    );
    let _ = histogram;

    rec.finish("DISP.", Pid::new(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_functions_invoked_per_shift() {
        let wl = build(Scale::Tiny);
        assert_eq!(
            wl.functions(),
            vec!["padarray4", "SAD", "2D2D", "finalSAD", "findDisp."]
        );
        assert_eq!(wl.phases.iter().filter(|p| p.name == "SAD").count(), 2);
    }

    #[test]
    fn disparity_recovers_ground_truth() {
        // The debug_assert in build() checks the argmin picks the true
        // shift; run at Small scale where 4 shifts cover the truth (1, 3).
        let _ = build(Scale::Small);
    }

    #[test]
    fn finalsad_is_load_heavy() {
        let wl = build(Scale::Tiny);
        let stats = wl.trace_stats();
        let mix = stats["finalSAD"].op_mix();
        assert!(
            mix.ld_pct > mix.st_pct * 2.0,
            "finalSAD ld {:.0}% st {:.0}%",
            mix.ld_pct,
            mix.st_pct
        );
    }

    #[test]
    fn footprint_near_paper_value() {
        let kb = build(Scale::Paper).working_set().kib();
        assert!(
            (100.0..240.0).contains(&kb),
            "DISP working set {kb:.0} kB outside the paper's ~163 kB band"
        );
    }

    #[test]
    fn pipeline_sharing_is_substantial() {
        let wl = build(Scale::Tiny);
        let stats = wl.trace_stats();
        for f in ["SAD", "2D2D", "finalSAD"] {
            let s = stats[f].sharing_degree();
            assert!(s > 25.0, "{f} %SHR {s:.0}");
        }
    }

    #[test]
    fn forward_pairs_exist_along_the_pipeline() {
        let wl = build(Scale::Tiny);
        let pairs = wl.forward_pairs(usize::MAX);
        assert!(
            !pairs.is_empty(),
            "disparity's pipeline must expose producer->consumer forwarding"
        );
    }
}
