//! Measurement helpers shared by the workloads: the per-phase sample
//! recorder, order statistics, and the one-line JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Everything one phase of timed rounds recorded: per-op latency and work,
/// the summed timed spans, failures, and (traced rounds only) the layer
/// call timings keyed by span name.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Latency of every op, microseconds.
    pub lat_us: Vec<f64>,
    /// Multiply-adds behind each op (`nnz × k`, or the operator's nnz for
    /// a solve); parallel to `lat_us`.
    pub work: Vec<f64>,
    /// Sum of the timed spans (checks and input preparation excluded).
    pub busy_s: f64,
    pub failed: u64,
    /// First few failure descriptions, for the diagnostic line.
    pub failures: Vec<String>,
    /// Traced layer-call durations in nanoseconds, by span name.
    pub spans: BTreeMap<&'static str, Vec<f64>>,
    /// `(ops, busy_s)` at the end of each round.
    rounds: Vec<(usize, f64)>,
}

impl Recorder {
    pub fn op(&mut self, latency: Duration, work: f64) {
        self.lat_us.push(latency.as_secs_f64() * 1e6);
        self.work.push(work);
    }

    pub fn span(&mut self, name: &'static str, d: Duration) {
        self.span_ns(name, d.as_secs_f64() * 1e9);
    }

    pub fn span_ns(&mut self, name: &'static str, ns: f64) {
        self.spans.entry(name).or_default().push(ns);
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn ops(&self) -> usize {
        self.lat_us.len()
    }

    /// Samples of one span (empty if never recorded).
    pub fn get(&self, name: &str) -> &[f64] {
        self.spans.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Summed nanoseconds of one span.
    pub fn total(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    /// Close a round at the current op count.
    pub fn end_round(&mut self) {
        self.rounds.push((self.ops(), self.busy_s));
    }

    /// The `q` quantile of latency over the `k` windows with the lowest
    /// `q` quantile, pooled: a tail over `k` windows' worth of samples
    /// that, like a best window, leaves out the spells in which the
    /// machine was slow.
    pub fn pooled_quantile(&self, windows: &[WindowStats], k: usize, q: f64) -> f64 {
        let mut best: Vec<(f64, &[f64])> = windows
            .iter()
            .map(|w| {
                let lat = &self.lat_us[w.ops.clone()];
                (quantile(lat, q), lat)
            })
            .collect();
        best.sort_by(|a, b| a.0.total_cmp(&b.0));
        let lat: Vec<f64> = best
            .iter()
            .take(k)
            .flat_map(|(_, l)| l.iter().copied())
            .collect();
        quantile(&lat, q)
    }

    /// Host-time figures of each window of `rounds` consecutive rounds:
    /// throughput, median latency, and median latency per multiply-add. A trailing partial window is left out;
    /// with no full window, every op forms one.
    pub fn window_stats(&self, rounds: usize) -> Vec<WindowStats> {
        let mut ends: Vec<(usize, f64)> = self
            .rounds
            .iter()
            .copied()
            .skip(rounds - 1)
            .step_by(rounds)
            .collect();
        if ends.is_empty() {
            ends.push((self.ops(), self.busy_s));
        }
        let mut start = (0, 0.0);
        ends.iter()
            .map(|&(hi, busy)| {
                let (lo, busy_lo) = std::mem::replace(&mut start, (hi, busy));
                let lat = &self.lat_us[lo..hi];
                let per_work: Vec<f64> = lat
                    .iter()
                    .zip(&self.work[lo..hi])
                    .filter(|(_, w)| **w > 0.0)
                    .map(|(l, w)| l * 1e3 / w)
                    .collect();
                WindowStats {
                    ops: lo..hi,
                    ops_per_s: ratio((hi - lo) as f64, busy - busy_lo),
                    p50_us: median(lat),
                    ns_per_work_p50: median(&per_work),
                }
            })
            .collect()
    }
}

/// Host-time figures of one window of rounds.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Indices of the window's ops in the recorder.
    pub ops: std::ops::Range<usize>,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub ns_per_work_p50: f64,
}

/// Linear-interpolated quantile `q ∈ [0, 1]` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// A simulated-time sum rounded to whole simulated picoseconds (1e-9 ms).
/// An engine adds its batches' sim ms in hash-map drain order, which
/// differs between processes, so its raw sums differ in the last bits; the
/// rounding keeps the sums a seed fixes exactly repeatable.
pub fn sim_ms_exact(ms: f64) -> f64 {
    (ms * 1e9).round() / 1e9
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pearson correlation of two equal-length series (0 if degenerate).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    if x.len() < 2 {
        return 0.0;
    }
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    ratio(sxy, (sxx * syy).sqrt())
}

/// Relative error as the repository's differential oracle measures it.
pub fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(got.abs()).max(1.0)
}

/// Index of the first element that is not bitwise equal, if any.
pub fn first_bit_mismatch(got: &[f64], want: &[f64]) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
}

/// Index of the first element outside `tol` relative error, if any.
pub fn first_tol_mismatch(got: &[f64], want: &[f64], tol: f64) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| rel_err(*g, *w) > tol)
}

/// JSON string literal (the benchmark's strings are plain ASCII).
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit Rust's shortest round-trip form gives.
///
/// # Panics
/// Panics on a non-finite value: a NaN or infinity here is a bug in the
/// benchmark, never a measurement.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// JSON array of numbers.
pub fn json_list(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|v| json_num(*v)).collect();
    format!("[{}]", items.join(", "))
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Flat JSON object from pre-rendered values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// SplitMix64: the benchmark's only randomness, so one seed fixes every
/// input and the op sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A derived stream, decorrelated from this one by `tag`.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
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

    /// `n` values uniform in `[lo, hi)`.
    pub fn vec(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| lo + (hi - lo) * self.unit()).collect()
    }
}

/// Exact per-round counts for weighted categories (largest remainder), so
/// every round holds the same multiset and only the order varies by seed.
pub fn stratified(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (exact[a].fract(), exact[b].fract());
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// Expand category counts into a shuffled sequence of category indices.
pub fn shuffled_multiset(counts: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
        .collect();
    rng.shuffle(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn windows_cover_whole_rounds() {
        let mut rec = Recorder::default();
        // Five one-op rounds; windows of two rounds drop the fifth.
        for lat in [10.0, 20.0, 2.0, 4.0, 30.0] {
            rec.op(Duration::from_secs_f64(lat * 1e-6), 1.0);
            rec.busy_s += lat * 1e-6;
            rec.end_round();
        }
        let w = rec.window_stats(2);
        assert_eq!(
            w.iter().map(|w| w.ops.clone()).collect::<Vec<_>>(),
            vec![0..2, 2..4]
        );
        assert!((w[1].p50_us - 3.0).abs() < 1e-9);
        assert!((w[1].ops_per_s - 2.0 / 6e-6).abs() < 1e-3);
        // The best window alone, then both windows pooled.
        assert!((rec.pooled_quantile(&w, 1, 1.0) - 4.0).abs() < 1e-9);
        assert!((rec.pooled_quantile(&w, 2, 1.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn stratified_counts_sum_exactly() {
        let c = stratified(&[0.84, 0.10, 0.05, 0.01], 1024);
        assert_eq!(c.iter().sum::<usize>(), 1024);
        assert_eq!(c, vec![860, 103, 51, 10]);
    }

    #[test]
    fn pearson_of_a_line_is_one() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 4.0, 6.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_numbers_round_trip() {
        assert_eq!(json_num(0.1), "0.1");
        assert_eq!(json_num(3.0), "3");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
