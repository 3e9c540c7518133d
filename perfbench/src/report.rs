//! Metric registry, order statistics, the result line, and the host
//! probes (calibration loop, peak resident memory) every run reports.

use std::collections::BTreeMap;
use std::time::Instant;

/// Unit and name of one reported metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("campaigns_per_s", "1/s"),
    def("campaign_s.p50", "s"),
    def("campaign_s.p90", "s"),
    def("first_trace_s.p50", "s"),
    def("hypervolume", "1"),
    def("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reports 0 (no wire on an in-process workload, no
/// cache where the workload runs without one).
pub const PER_LAYER: &[MetricDef] = &[
    def("markov.analyses", "count"),
    def("markov.build_us.p50", "us"),
    def("markov.solve_us.p50", "us"),
    def("markov.analyze_us.k1", "us"),
    def("markov.analyze_us.k2", "us"),
    def("markov.analyze_us.k3", "us"),
    def("markov.analyze_us.k4", "us"),
    def("markov.degraded", "count"),
    def("tdse.library_s.p50", "s"),
    def("tdse.candidates", "count"),
    def("tdse.candidates_per_s", "1/s"),
    def("tdse.pareto_filter_us", "us"),
    def("tdse.pareto_kept_ratio", "ratio"),
    def("cache.analysis_hits", "count"),
    def("cache.analysis_misses", "count"),
    def("cache.analysis_hit_ratio", "ratio"),
    def("cache.fitness_hits", "count"),
    def("cache.fitness_misses", "count"),
    def("cache.fitness_hit_ratio", "ratio"),
    def("cache.evictions", "count"),
    def("eval.count", "count"),
    def("eval.us_per_eval", "us"),
    def("encoding.decode_us.p50", "us"),
    def("sched.schedule_us.p50", "us"),
    def("sched.qos_us.p50", "us"),
    def("moea.nsga2.sort_ms", "ms"),
    def("moea.nsga2.truncate_ms", "ms"),
    def("moea.nsga2.dist_ms", "ms"),
    def("moea.spea2.sort_ms", "ms"),
    def("moea.spea2.truncate_ms", "ms"),
    def("moea.spea2.dist_ms", "ms"),
    def("moea.front_size", "count"),
    def("plan.fc_s.p50", "s"),
    def("plan.pf_s.p50", "s"),
    def("plan.proposed_s.p50", "s"),
    def("plan.pf-spea2_s.p50", "s"),
    def("campaign.residual_ms", "ms"),
    def("exec.batches", "count"),
    def("exec.batch_us.p50", "us"),
    def("exec.gate_wait_ms.p50", "ms"),
    def("resilience.checkpoint_bytes", "bytes"),
    def("resilience.checkpoint_save_us", "us"),
    def("resilience.checkpoint_load_us", "us"),
    def("serve.submit_ack_ms.p50", "ms"),
    def("serve.trace_lines", "count"),
    def("serve.bytes_streamed", "bytes"),
    def("layer.wall_ms", "ms"),
    def("layer.markov_ms", "ms"),
    def("layer.tdse_ms", "ms"),
    def("layer.cache_ms", "ms"),
    def("layer.eval_ms", "ms"),
    def("layer.select_ms", "ms"),
    def("host.calib_ms", "ms"),
    def("trace.overhead_pct", "%"),
];

/// The metrics one run reports, keyed by registry name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a metric. Panics on a name outside both registries or on a
    /// second write: each metric is measured in exactly one place.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unregistered metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.values.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// Sets a metric the workload does not exercise to 0, unless set.
    pub fn default_zero(&mut self, registry: &[MetricDef]) {
        for d in registry {
            self.values.entry(d.name).or_insert(0.0);
        }
    }

    /// Drops every metric outside `registry` (set-up time is measured on
    /// every run but reported only by untraced ones).
    pub fn keep_only(&mut self, registry: &[MetricDef]) {
        self.values
            .retain(|name, _| registry.iter().any(|d| d.name == *name));
    }

    /// The value of a set metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line: exactly the registry's
    /// metrics, in registry order, each with its unit.
    ///
    /// # Panics
    ///
    /// If a registry metric is missing or a metric outside it was set.
    pub fn json(&self, registry: &[MetricDef]) -> String {
        assert_eq!(
            self.values.len(),
            registry.len(),
            "metrics set {:?} differ from the registry",
            self.values.keys().collect::<Vec<_>>()
        );
        let body: Vec<String> = registry
            .iter()
            .map(|d| {
                let v = self
                    .values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v, d.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`): the smallest
/// sample with at least a `q` share of the samples at or below it.
///
/// # Panics
///
/// On an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median of a possibly empty sample, 0 when empty.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Samples strictly beyond the nearest-rank `q` quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// The 90th percentile, only when at least ten samples lie beyond it
/// (so at least 100 samples); a tail read off fewer points is noise.
pub fn tail_p90(samples: &[f64]) -> Option<f64> {
    (samples_beyond(samples.len(), 0.9) >= 10).then(|| quantile(samples, 0.9))
}

/// Campaigns a run must complete so that its p90 has ten samples
/// beyond it.
pub const MIN_CAMPAIGNS: usize = 100;

/// A fixed loop using no program code: integer mixing, an ordered map
/// with string keys churned through the allocator, and a dense
/// floating-point elimination. Its time tracks the host's speed for the
/// kinds of work the program does, so a moved figure can be told apart
/// from a slower or busier host.
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for i in 0..4_000_000u64 {
        acc = acc.wrapping_add(next().wrapping_mul(i | 1));
    }
    let mut map = BTreeMap::new();
    for i in 0..150_000u64 {
        let key = format!("state-{}", next() % 20_000);
        if i % 3 == 0 {
            map.remove(&key);
        } else {
            map.insert(key, i as f64);
        }
    }
    acc = acc.wrapping_add(map.len() as u64);
    let n = 48;
    for _ in 0..40 {
        let mut a: Vec<f64> = (0..n * n)
            .map(|_| (next() % 1000) as f64 / 1000.0 + 1.0)
            .collect();
        for i in 0..n {
            a[i * n + i] += n as f64;
        }
        for k in 0..n {
            for i in k + 1..n {
                let f = a[i * n + k] / a[k * n + k];
                for j in k..n {
                    a[i * n + j] -= f * a[k * n + j];
                }
            }
        }
        acc = acc.wrapping_add(a[n * n - 1].to_bits());
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MB, 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: derives independent, reproducible streams from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a fold of a sequence of words (digest of digests).
pub fn fold_digests(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tail_percentile_with_fewer_than_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_p90(&samples), None, "99 samples leave 9 beyond p90");
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_p90(&samples), Some(90.0));
        assert_eq!(samples_beyond(100, 0.9), 10);
        for n in 1..400 {
            let samples: Vec<f64> = (0..n).map(f64::from).collect();
            if let Some(p90) = tail_p90(&samples) {
                let beyond = samples.iter().filter(|&&x| x > p90).count();
                assert!(beyond >= 10, "n={n}: only {beyond} samples beyond p90");
            }
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn every_metric_is_printed_exactly_once_with_its_unit() {
        for registry in [END_TO_END, PER_LAYER] {
            let mut m = Metrics::default();
            for d in registry {
                m.set(d.name, 1.5);
            }
            let json = m.json(registry);
            for d in registry {
                let key = format!(
                    "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                    d.name, d.unit
                );
                assert_eq!(json.matches(&key).count(), 1, "{} in {json}", d.name);
                assert_eq!(json.matches(&format!("\"{}\"", d.name)).count(), 1);
            }
        }
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            names.len(),
            "a metric name is registered twice"
        );
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn a_metric_cannot_be_set_twice() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        m.set("setup_s", 2.0);
    }

    #[test]
    fn registries_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("string")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = section(key);
            let expected: Vec<(String, String)> = registry
                .iter()
                .map(|d| (d.name.to_owned(), d.unit.to_owned()))
                .collect();
            assert_eq!(listed, expected, "{key} in BENCHMARK.json");
        }
    }
}
