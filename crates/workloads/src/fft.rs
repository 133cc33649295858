//! FFT: 6-step radix-2 pipeline (Table 1's six accelerated functions).
//!
//! The paper's FFT splits into `step1`..`step6` with high inter-step
//! sharing (the working buffer flows through every step) and the largest
//! DMA-to-working-set ratio of the suite — each butterfly stage re-streams
//! the whole array through the 4 KB scratchpad, so SCRATCH ping-pongs data
//! through the host L2.

use fusion_accel::{Recorder, Workload};
use fusion_types::ids::ExecUnit;
use fusion_types::{AxcId, Pid};

use crate::suite::Scale;

/// A complex sample: the fixed-function datapath moves one complex
/// operand per 8-byte memory access.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Complex {
    re: f32,
    im: f32,
}

// Per-function (MLP, lease) from Tables 1 and 3.
const STEP1: (usize, u32) = (5, 500);
const STEP2: (usize, u32) = (4, 700);
const STEP3: (usize, u32) = (4, 200);
const STEP4: (usize, u32) = (3, 700);
const STEP5: (usize, u32) = (3, 700);
const STEP6: (usize, u32) = (4, 500);

/// Builds the FFT workload: bit-reverse, twiddle generation, three groups
/// of butterfly stages, and magnitude extraction, followed by a host phase
/// that scans the low bins of the spectrum (the Figure 1 pattern: the last
/// consumer runs in software).
#[expect(
    clippy::cast_possible_truncation,
    reason = "FFT sizes are far below 2^32"
)]
pub fn build(scale: Scale) -> Workload {
    let n = scale.pick(64, 512, 1024);
    // The application invokes the FFT pipeline repeatedly on the same
    // buffers (MachSuite-style batching; Table 1 notes the functions are
    // "invoked repeatedly, possibly from different sites"). Repetition is
    // what drives the paper's 165x DMA-to-working-set ratio: SCRATCH
    // re-stages everything every round while a retained L1X does not.
    let rounds = scale.pick(2, 4, 8);
    let stages = n.trailing_zeros() as usize;
    let rec = Recorder::new();

    let mut input = rec.buffer::<Complex>(n);
    let mut work = rec.buffer::<Complex>(n);
    let mut tw = rec.buffer::<Complex>(n / 2);
    let mut out_mag = rec.buffer::<f32>(n);

    // Deterministic input: two tones plus a ramp (host-side setup is not
    // part of the accelerator trace).
    input.init_untraced(|i| {
        let t = i as f32 / n as f32;
        let re = (2.0 * std::f32::consts::PI * 5.0 * t).sin()
            + 0.5 * (2.0 * std::f32::consts::PI * 17.0 * t).sin()
            + 0.1 * t;
        Complex { re, im: 0.0 }
    });

    let mut phases = Vec::new();

    for _round in 0..rounds {
        // step1: bit-reverse permutation into the working buffer.
        for i in 0..n {
            let j = (i as u32).reverse_bits() >> (32 - stages);
            rec.int_ops(6); // reverse + index arithmetic
            let v = input.get(i);
            work.set(j as usize, v);
        }
        phases.push(rec.take_phase("step1", ExecUnit::Axc(AxcId::new(0)), STEP1.0, STEP1.1));

        // step2: twiddle factor table.
        for k in 0..n / 2 {
            let ang = -2.0 * std::f32::consts::PI * k as f32 / n as f32;
            rec.fp_ops(10); // angle + sin/cos CORDIC-style datapath
            rec.int_ops(2);
            tw.set(
                k,
                Complex {
                    re: ang.cos(),
                    im: ang.sin(),
                },
            );
        }
        phases.push(rec.take_phase("step2", ExecUnit::Axc(AxcId::new(1)), STEP2.0, STEP2.1));

        // Butterfly stages, split across three accelerated functions
        // (step3/step4/step5) — each *stage* is one invocation, so the
        // functions are invoked repeatedly from different program points.
        let third = stages.div_ceil(3);
        for s in 0..stages {
            let len = 1usize << (s + 1);
            let half = len / 2;
            let stride = n / len;
            for k in (0..n).step_by(len) {
                for j in 0..half {
                    let w = tw.get(j * stride);
                    let a = work.get(k + j);
                    let b = work.get(k + j + half);
                    let (wr, wi) = (w.re, w.im);
                    let (ar, ai) = (a.re, a.im);
                    let (br, bi) = (b.re, b.im);
                    rec.fp_ops(2); // fused complex multiply-add datapath macro-ops
                    rec.int_ops(1); // index arithmetic
                    let tr = br * wr - bi * wi;
                    let ti = br * wi + bi * wr;
                    work.set(
                        k + j,
                        Complex {
                            re: ar + tr,
                            im: ai + ti,
                        },
                    );
                    work.set(
                        k + j + half,
                        Complex {
                            re: ar - tr,
                            im: ai - ti,
                        },
                    );
                }
            }
            let (name, axc, p) = if s < third {
                ("step3", 2, STEP3)
            } else if s < 2 * third {
                ("step4", 3, STEP4)
            } else {
                ("step5", 4, STEP5)
            };
            phases.push(rec.take_phase(name, ExecUnit::Axc(AxcId::new(axc)), p.0, p.1));
        }

        // step6: magnitude + normalization.
        for i in 0..n {
            let v = work.get(i);
            let (re, im) = (v.re, v.im);
            rec.fp_ops(6); // squares, add, sqrt, scale
            rec.int_ops(1);
            out_mag.set(i, (re * re + im * im).sqrt() / n as f32);
        }
        phases.push(rec.take_phase("step6", ExecUnit::Axc(AxcId::new(5)), STEP6.0, STEP6.1));
    }

    // Host epilogue: software scans the low bins for the dominant tone
    // (small digest — the paper observes <50 forwarded requests for FFT).
    let scan = (n / 4).min(512);
    let mut peak = 0.0f32;
    for i in 0..scan {
        let m = out_mag.get(i);
        rec.int_ops(2);
        if m > peak {
            peak = m;
        }
    }
    phases.push(rec.take_phase("host_scan", ExecUnit::Host, 2, 500));

    // Correctness guard: the dominant bin of the synthetic two-tone input
    // must be bin 5 (checked at build time, untraced).
    debug_assert!({
        let mags = out_mag.as_slice();
        let argmax = (1..scan).fold(1, |best, i| if mags[i] > mags[best] { i } else { best });
        argmax == 5
    });

    Workload {
        name: "FFT".into(),
        pid: Pid::new(1),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_accel::DecodedTrace;

    #[test]
    fn six_functions_plus_host() {
        let wl = build(Scale::Tiny);
        assert_eq!(
            wl.functions(),
            vec!["step1", "step2", "step3", "step4", "step5", "step6"]
        );
        assert!(wl.phases.iter().any(|p| p.unit.is_host()));
    }

    #[test]
    fn butterfly_stages_repeat_functions() {
        let wl = build(Scale::Tiny); // 64 points = 6 stages
        let step3_invocations = wl.phases.iter().filter(|p| p.name == "step3").count();
        // 2 stages per round x 2 rounds at Tiny scale.
        assert_eq!(step3_invocations, 4);
    }

    #[test]
    fn fft_magnitude_matches_naive_dft() {
        // Re-run the same two-tone signal through a naive DFT and compare
        // the dominant bin: validates the instrumented kernel computes a
        // real FFT, not just addresses.
        let n = 64usize;
        let signal: Vec<f32> = (0..n)
            .map(|i| {
                let t = i as f32 / n as f32;
                (2.0 * std::f32::consts::PI * 5.0 * t).sin()
                    + 0.5 * (2.0 * std::f32::consts::PI * 17.0 * t).sin()
                    + 0.1 * t
            })
            .collect();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a magnitude near 1 fits f32"
        )]
        let dft_mag = |k: usize| {
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for (i, &x) in signal.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64;
                re += x as f64 * ang.cos();
                im += x as f64 * ang.sin();
            }
            ((re * re + im * im).sqrt() / n as f64) as f32
        };
        assert!(dft_mag(5) > dft_mag(4) && dft_mag(5) > dft_mag(6));
        // The traced build asserts (via debug_assert) that its own argmax
        // is also bin 5.
        let _ = build(Scale::Tiny);
    }

    #[test]
    fn high_sharing_between_steps() {
        let wl = build(Scale::Tiny);
        let trace = DecodedTrace::decode(&wl);
        let stats = trace.trace_stats(&wl);
        // The working buffer flows through steps 1 and 3-6.
        for f in ["step1", "step3", "step4", "step5", "step6"] {
            let shr = stats[f].sharing_degree();
            assert!(shr > 40.0, "{f} sharing degree {shr:.1}% too low");
        }
    }

    #[test]
    fn working_set_scales_with_input() {
        let tiny = DecodedTrace::decode(&build(Scale::Tiny)).working_set();
        let small = DecodedTrace::decode(&build(Scale::Small)).working_set();
        assert!(small.value() > 4 * tiny.value());
    }

    #[test]
    fn op_mix_is_load_store_heavy() {
        let wl = build(Scale::Tiny);
        let trace = DecodedTrace::decode(&wl);
        let stats = trace.trace_stats(&wl);
        let mix = stats["step3"].op_mix();
        // Table 1: butterflies are ~45% LD, ~18% ST.
        assert!(mix.ld_pct > 30.0, "ld {:.1}", mix.ld_pct);
        assert!(mix.st_pct > 10.0, "st {:.1}", mix.st_pct);
    }
}
