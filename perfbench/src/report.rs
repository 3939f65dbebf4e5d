//! Sample statistics, output digests and the result line every run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `xs` (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Samples the tail leaves beyond it: ten, or a tenth of the sample when
/// that is fewer, so a short sample's tail is near its 90th percentile
/// (and a single sample is its own tail).
pub fn tail_beyond(n: usize) -> usize {
    TAIL_BEYOND.min(n.div_ceil(10)).min(n.saturating_sub(1))
}

/// Most samples a tail leaves beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest order statistic with
/// [`tail_beyond`] samples beyond it, as `(value, percentile, samples)`.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 1 - tail_beyond(n);
    (v[k], 100.0 * (k + 1) as f64 / n as f64, n)
}

/// Per-item times over rounds: every round repeats the same work, split
/// into the same timed items, and an item's time is its median over the
/// first `rounds` rounds. `None` when fewer rounds ran or the rounds split
/// their work into different items.
pub fn item_medians(rounds_of_items: &[Vec<f64>], rounds: usize) -> Option<Vec<f64>> {
    let counted = rounds_of_items.get(..rounds.max(1))?;
    let items = counted[0].len();
    if counted.iter().any(|r| r.len() != items) {
        return None;
    }
    Some(
        (0..items)
            .map(|i| median(&counted.iter().map(|r| r[i]).collect::<Vec<_>>()))
            .collect(),
    )
}

/// Times repeated set-ups spread evenly over the measured window. The
/// machine the baseline was measured on alternates between fast and slow
/// phases lasting seconds; set-ups taken back to back would all land in one
/// phase, while spread ones sample the run's mix.
pub struct SetupSampler {
    every_s: f64,
    repeats: usize,
    times: Vec<f64>,
}

impl SetupSampler {
    pub fn new(seconds: f64, repeats: usize) -> Self {
        SetupSampler {
            every_s: seconds / repeats.max(1) as f64,
            repeats,
            times: Vec::new(),
        }
    }

    /// Runs and times one set-up.
    pub fn sample<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = std::time::Instant::now();
        let r = f();
        self.times.push(t.elapsed().as_secs_f64());
        r
    }

    /// Whether the next set-up is due `elapsed_s` into the measured window.
    pub fn due(&self, elapsed_s: f64) -> bool {
        self.times.len() < self.repeats && elapsed_s >= self.times.len() as f64 * self.every_s
    }

    /// Median set-up time.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// FNV-1a 64 over `bytes`, the digest discipline of the frozen-report tests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    eea_bench::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// What one run prints: the result line the contract fixes, preceded by a
/// detail line with the workload's own named quantities.
#[derive(Debug, Default)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Workload-specific values (JSON fragments), printed before the result.
    pub detail: BTreeMap<&'static str, String>,
    /// Output-check failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl RunReport {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn detail(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.detail.insert(key, value.to_string());
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.errors.push(what.into());
        }
    }

    pub fn detail_line(&self) -> String {
        let errors: Vec<String> = self.errors.iter().map(|e| format!("{e:?}")).collect();
        let mut fields: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        fields.push(format!("\"check_failures\": [{}]", errors.join(", ")));
        format!("{{\"detail\": {{{}}}}}", fields.join(", "))
    }

    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity; a non-finite value prints as null
            // and the run is already marked incorrect by `finish`.
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }

    /// Marks the run correct unless a check failed or a metric is not finite.
    pub fn finish(mut self) -> Self {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| format!("metric {n} is not finite"))
            .collect();
        self.errors.extend(bad);
        self.correct = self.errors.is_empty();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p, n) = tail(&xs);
        assert_eq!((v, n), (90.0, 100));
        assert!((p - 90.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        let xs: Vec<f64> = (1..=257).map(f64::from).collect();
        assert_eq!(xs.iter().filter(|&&x| x > tail(&xs).0).count(), 10);
    }

    #[test]
    fn short_samples_keep_a_tenth_beyond() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 18.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).0, 2.0);
        assert_eq!(tail(&[5.0]).0, 5.0);
    }

    #[test]
    fn item_medians_take_each_item_over_the_counted_rounds() {
        let rounds = vec![
            vec![3.0, 1.0],
            vec![2.0, 4.0],
            vec![0.5, 0.5],
            vec![9.0, 9.0],
        ];
        assert_eq!(item_medians(&rounds, 2), Some(vec![2.5, 2.5]));
        assert_eq!(item_medians(&rounds, 3), Some(vec![2.0, 1.0]));
        assert_eq!(item_medians(&rounds, 5), None);
        assert_eq!(item_medians(&[vec![1.0], vec![1.0, 2.0]], 2), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_marked_incorrect_on_check_failure() {
        let mut r = RunReport::default();
        r.metric("setup_s", 0.5, "s");
        r.check(false, "digest mismatch");
        let r = r.finish();
        assert!(r.result_line().starts_with("{\"correct\": false"));
        assert!(r.detail_line().contains("digest mismatch"));
    }
}
