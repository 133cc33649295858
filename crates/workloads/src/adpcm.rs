//! ADPCM: IMA ADPCM coder + decoder (MachSuite).
//!
//! Two accelerated functions with ~99 % sharing (Table 1): the decoder
//! consumes the coder's output stream and reconstructs the samples
//! in place, so both functions touch the same buffers. Working set is
//! < 30 kB — the suite where SCRATCH's spatial locality wins and SHARED's
//! higher per-access cost loses (Lesson 1).

use fusion_accel::{Recorder, Workload};
use fusion_types::ids::ExecUnit;
use fusion_types::{AxcId, Pid};

use crate::suite::Scale;

const CODER: (usize, u32) = (2, 1400);
const DECODER: (usize, u32) = (2, 1400);

/// IMA ADPCM step-size table (ROM inside the fixed-function datapath — the
/// paper's accelerators bake constant tables into hardware, so lookups are
/// not memory traffic).
const STEP_TABLE: [i32; 89] = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45, 50, 55, 60, 66,
    73, 80, 88, 97, 107, 118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
    494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272,
    2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493,
    10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
];

/// IMA ADPCM index adjustment table.
const INDEX_TABLE: [i32; 16] = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8];

fn clamp_index(i: i32) -> i32 {
    i.clamp(0, 88)
}

fn clamp_sample(s: i32) -> i32 {
    s.clamp(-32768, 32767)
}

/// Encodes one sample against the predictor state; returns the 4-bit code.
fn encode_sample(sample: i32, pred: &mut i32, index: &mut i32) -> u8 {
    let step = STEP_TABLE[*index as usize];
    let mut diff = sample - *pred;
    let mut code = 0u8;
    if diff < 0 {
        code |= 8;
        diff = -diff;
    }
    let mut temp = step;
    if diff >= temp {
        code |= 4;
        diff -= temp;
    }
    temp >>= 1;
    if diff >= temp {
        code |= 2;
        diff -= temp;
    }
    temp >>= 1;
    if diff >= temp {
        code |= 1;
    }
    decode_step(code, pred, index);
    code
}

/// Applies one 4-bit code to the predictor state (shared by both sides).
fn decode_step(code: u8, pred: &mut i32, index: &mut i32) {
    let step = STEP_TABLE[*index as usize];
    let mut diff = step >> 3;
    if code & 4 != 0 {
        diff += step;
    }
    if code & 2 != 0 {
        diff += step >> 1;
    }
    if code & 1 != 0 {
        diff += step >> 2;
    }
    if code & 8 != 0 {
        *pred = clamp_sample(*pred - diff);
    } else {
        *pred = clamp_sample(*pred + diff);
    }
    *index = clamp_index(*index + INDEX_TABLE[code as usize]);
}

/// Builds the ADPCM workload: chunked coder invocations, chunked decoder
/// invocations reconstructing in place, and a host verification pass.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the synthetic wave peaks at 11000 and decoded samples are clamped to the i16 range"
)]
pub fn build(scale: Scale) -> Workload {
    let n = scale.pick(512, 2048, 6144); // samples
    let chunks = scale.pick(2, 4, 4);
    let chunk = n / chunks;
    let rec = Recorder::new();

    let mut pcm = rec.buffer::<i16>(n);
    let mut code_buf = rec.buffer::<u8>(n / 2);

    pcm.init_untraced(|i| {
        let t = i as f32 * 0.02;
        ((t.sin() * 8000.0) + (3.0 * t).sin() * 3000.0) as i16
    });
    let original: Vec<i16> = pcm.as_slice().to_vec();

    let mut phases = Vec::new();

    // Coder: chunked invocations (the function is re-entered per buffer
    // window, as in the MachSuite harness).
    let mut pred = 0i32;
    let mut index = 0i32;
    for c in 0..chunks {
        for i in (c * chunk..(c + 1) * chunk).step_by(2) {
            let s0 = pcm.get(i) as i32;
            let s1 = pcm.get(i + 1) as i32;
            // Predictor, quantizer, step/index updates, clamps and packing
            // for two samples (~36 integer ops each in IMA ADPCM).
            rec.int_ops(72);
            let c0 = encode_sample(s0, &mut pred, &mut index);
            let c1 = encode_sample(s1, &mut pred, &mut index);
            code_buf.set(i / 2, c0 | (c1 << 4));
        }
        phases.push(rec.take_phase("coder", ExecUnit::Axc(AxcId::new(0)), CODER.0, CODER.1));
    }

    // Decoder: reconstructs the samples in place (99 % sharing with the
    // coder's buffers).
    let mut pred = 0i32;
    let mut index = 0i32;
    for c in 0..chunks {
        for i in (c * chunk..(c + 1) * chunk).step_by(2) {
            let packed = code_buf.get(i / 2);
            // Two decode_step applications plus unpacking (~28 ops each).
            rec.int_ops(56);
            let mut s0 = pred;
            decode_step(packed & 0xf, &mut s0, &mut index);
            pred = s0;
            let mut s1 = pred;
            decode_step(packed >> 4, &mut s1, &mut index);
            pred = s1;
            pcm.set(i, s0 as i16);
            pcm.set(i + 1, s1 as i16);
        }
        phases.push(rec.take_phase(
            "decoder",
            ExecUnit::Axc(AxcId::new(1)),
            DECODER.0,
            DECODER.1,
        ));
    }

    // Host verification: software compares reconstruction error over the
    // whole stream (drives forwarded requests into the tile).
    let mut err_acc = 0i64;
    for (i, &orig) in original.iter().enumerate() {
        let v = pcm.get(i) as i64;
        rec.int_ops(3);
        err_acc += (v - orig as i64).abs();
    }
    phases.push(rec.take_phase("host_verify", ExecUnit::Host, 2, 500));

    // Quality guard: mean reconstruction error stays small for the smooth
    // synthetic signal.
    debug_assert!(
        (err_acc as f64 / n as f64) < 700.0,
        "ADPCM reconstruction error too high: {}",
        err_acc as f64 / n as f64
    );

    Workload {
        name: "ADPCM".into(),
        pid: Pid::new(1),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_accel::DecodedTrace;

    #[test]
    fn coder_and_decoder_only() {
        let wl = build(Scale::Tiny);
        assert_eq!(wl.functions(), vec!["coder", "decoder"]);
    }

    #[test]
    fn reconstruction_is_close() {
        // decode(encode(x)) tracks x for a smooth signal.
        let mut pred = 0i32;
        let mut index = 0i32;
        let mut dpred = 0i32;
        let mut dindex = 0i32;
        let mut max_err = 0i32;
        for i in 0..256 {
            #[expect(clippy::cast_possible_truncation, reason = "the wave peaks at 5000")]
            let s = ((i as f32 * 0.05).sin() * 5000.0) as i32;
            let code = encode_sample(s, &mut pred, &mut index);
            let mut out = dpred;
            decode_step(code, &mut out, &mut dindex);
            dpred = out;
            max_err = max_err.max((out - s).abs());
        }
        assert!(max_err < 2500, "max reconstruction error {max_err}");
    }

    #[test]
    fn sharing_is_near_total() {
        let wl = build(Scale::Tiny);
        let trace = DecodedTrace::decode(&wl);
        let stats = trace.trace_stats(&wl);
        // Table 1: coder 99.0 %, decoder 98.9 %.
        assert!(stats["coder"].sharing_degree() > 90.0);
        assert!(stats["decoder"].sharing_degree() > 90.0);
    }

    #[test]
    fn working_set_under_30kb_at_paper_scale() {
        let ws = DecodedTrace::decode(&build(Scale::Paper)).working_set();
        assert!(
            ws.kib() < 30.0,
            "ADPCM working set {} exceeds the paper's 30 kB band",
            ws
        );
    }

    #[test]
    fn integer_only_datapath() {
        let wl = build(Scale::Tiny);
        let trace = DecodedTrace::decode(&wl);
        let stats = trace.trace_stats(&wl);
        let mix = stats["coder"].op_mix();
        assert_eq!(mix.fp_pct, 0.0);
        assert!(mix.int_pct > 20.0);
    }

    #[test]
    fn chunked_invocations() {
        let wl = build(Scale::Tiny);
        assert_eq!(wl.phases.iter().filter(|p| p.name == "coder").count(), 2);
        assert_eq!(wl.phases.iter().filter(|p| p.name == "decoder").count(), 2);
    }
}
