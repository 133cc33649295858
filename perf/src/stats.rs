//! Order statistics of a run's samples.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so the spreads this benchmark
//! prints are the ones an outside check computes from the same samples.

/// Median, quartiles and sample count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let [q1, _, q3] = quartiles(samples)?;
        Some(Summary {
            n: samples.len(),
            q1,
            median: median(samples)?,
            q3,
        })
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, as `statistics.quantiles(samples, n=4)`
/// computes them. A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..4usize) {
                let j = (i * m / 4).clamp(1, ld - 1);
                // Signed: the clamp can put `j * 4` past `i * m`, and
                // Python then extrapolates from the end pair.
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}
