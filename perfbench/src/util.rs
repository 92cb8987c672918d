//! Small helpers shared by the workloads: the seeded generator, order
//! statistics, the peak-RSS reader and the flat JSON records the
//! processes of one run exchange.

use std::path::Path;

/// SplitMix64: a tiny, well-mixed generator, so every input a workload
/// draws is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 100]` of a non-empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn vm_hwm_mib(status: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(status).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A numeric field of a flat JSON line (0 when absent).
pub fn field(line: &str, k: &str) -> f64 {
    monolith3d::json_raw_field(line, k)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Named metric values of one run, in name order.
#[derive(Debug, Default)]
pub struct Metrics(pub std::collections::BTreeMap<String, f64>);

impl Metrics {
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.0.insert(k.to_string(), v);
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.num(k, v as f64)
    }

    /// One flat JSON object, `{"name":value,...}`: the record a pass
    /// process hands back.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", finite(*v)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// JSON has no NaN or infinity; a measurement that produced one is
/// reported as 0 rather than breaking the record.
pub fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
