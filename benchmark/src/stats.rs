//! Order statistics and the class-balanced summaries every workload
//! reports.
//!
//! A workload is a stream of operations of a few *classes* (a kernel, a
//! query type, a storage call). Classes differ in cost by orders of
//! magnitude, so pooled percentiles would describe only the commonest
//! class. Every summary here is taken per class first and combined with
//! equal weight (geometric mean) afterwards.

use std::collections::BTreeMap;

/// Median of `xs` (mean of the two middle values for even lengths).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a class of `n` samples can support: the highest
/// one, capped at p99, that still has ten samples beyond it, and never
/// below the median. With 1000+ samples this is p99; with fewer than 20
/// it is the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter()
        .map(|x| x.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / xs.len() as f64)
        .exp()
}

/// Latency samples in milliseconds, grouped by operation class.
#[derive(Default, Clone)]
pub struct Classes {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

/// Per-class digest printed in the human-readable part of a run.
pub struct ClassRow {
    pub class: &'static str,
    pub n: usize,
    pub p50_ms: f64,
    pub tail_q: f64,
    pub tail_ms: f64,
}

impl Classes {
    pub fn push(&mut self, class: &'static str, ms: f64) {
        self.samples.entry(class).or_default().push(ms);
    }

    pub fn extend(&mut self, other: Classes) {
        for (class, mut v) in other.samples {
            self.samples.entry(class).or_default().append(&mut v);
        }
    }

    pub fn total(&self) -> usize {
        self.samples.values().map(Vec::len).sum()
    }

    pub fn p50(&self, class: &str) -> f64 {
        self.samples.get(class).map_or(0.0, |v| median(v))
    }

    pub fn rows(&self) -> Vec<ClassRow> {
        self.samples
            .iter()
            .map(|(&class, v)| {
                let mut sorted = v.clone();
                sorted.sort_by(f64::total_cmp);
                let tail_q = tail_quantile(sorted.len());
                ClassRow {
                    class,
                    n: sorted.len(),
                    p50_ms: quantile_sorted(&sorted, 0.5),
                    tail_q,
                    tail_ms: quantile_sorted(&sorted, tail_q),
                }
            })
            .collect()
    }

    /// `latency_ms_p50`: geometric mean over classes of the class median.
    pub fn p50_geomean(&self) -> f64 {
        geomean(&self.rows().iter().map(|r| r.p50_ms).collect::<Vec<_>>())
    }

    /// `latency_ms_tail`: geometric mean over classes of the class's
    /// [`tail_quantile`].
    pub fn tail_geomean(&self) -> f64 {
        geomean(&self.rows().iter().map(|r| r.tail_ms).collect::<Vec<_>>())
    }

    /// Operations per second of the *standard pass* — `weights[class]`
    /// operations of each class — priced at the class medians. Used by
    /// the workloads that run one operation at a time, where a plain
    /// count over elapsed time would depend on which class the clock ran
    /// out in.
    pub fn pass_ops_per_s(&self, weights: &[(&'static str, usize)]) -> f64 {
        let ops: usize = weights.iter().map(|(_, w)| w).sum();
        let ms: f64 = weights.iter().map(|(c, w)| *w as f64 * self.p50(c)).sum();
        if ms > 0.0 {
            ops as f64 * 1e3 / ms
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_tail_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(100_000), 0.99);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn pass_rate_uses_class_medians() {
        let mut c = Classes::default();
        for ms in [10.0, 10.0, 1000.0] {
            c.push("a", ms);
        }
        c.push("b", 30.0);
        // 2 × 10 ms + 1 × 30 ms = 50 ms for 3 ops
        assert!((c.pass_ops_per_s(&[("a", 2), ("b", 1)]) - 60.0).abs() < 1e-9);
    }
}
