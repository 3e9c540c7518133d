//! What one completed campaign leaves behind, and the metrics folded
//! from a run's campaigns.

use crate::report::{median_or_zero, tail_p90, Metrics};
use crate::trace::{gaps_ms, TraceLine, TraceSums};

/// One completed campaign as its requester saw it.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Wire name of the plan (`fc`, `pf`, `proposed`, `pf-spea2`).
    pub plan: &'static str,
    /// Request to front (s).
    pub wall_s: f64,
    /// Request to the first trace line (s).
    pub first_trace_s: f64,
    pub lines: Vec<TraceLine>,
    pub evaluations: usize,
    pub digest: u64,
    pub front_size: usize,
}

impl Campaign {
    fn is_spea2(&self) -> bool {
        self.plan == "pf-spea2"
    }
}

/// The end-to-end figures of a run's timed campaigns. `campaign_s.p90`
/// is left unset when fewer than ten samples lie beyond it.
pub fn record_end_to_end(m: &mut Metrics, campaigns: &[Campaign], timed_wall_s: f64) {
    let walls: Vec<f64> = campaigns.iter().map(|c| c.wall_s).collect();
    let firsts: Vec<f64> = campaigns.iter().map(|c| c.first_trace_s).collect();
    m.set("campaigns_per_s", campaigns.len() as f64 / timed_wall_s);
    m.set("campaign_s.p50", median_or_zero(&walls));
    if let Some(p90) = tail_p90(&walls) {
        m.set("campaign_s.p90", p90);
    }
    m.set("first_trace_s.p50", median_or_zero(&firsts));
}

/// Per-layer figures read off the campaigns' trace lines: evaluation and
/// selection (moea) work, exec batches and the waits between them, and
/// the wall per plan.
pub fn record_trace_layers(m: &mut Metrics, campaigns: &[Campaign]) {
    let sums: Vec<TraceSums> = campaigns.iter().map(|c| TraceSums::of(&c.lines)).collect();
    let evaluations: u64 = sums.iter().map(|s| s.evaluations).sum();
    let eval_us: u64 = sums.iter().map(|s| s.eval_us).sum();
    m.set("eval.count", evaluations as f64);
    m.set(
        "eval.us_per_eval",
        if evaluations > 0 {
            eval_us as f64 / evaluations as f64
        } else {
            0.0
        },
    );
    for (spea2, prefix) in [(false, "nsga2"), (true, "spea2")] {
        let of: Vec<&TraceSums> = campaigns
            .iter()
            .zip(&sums)
            .filter(|(c, _)| c.is_spea2() == spea2)
            .map(|(_, s)| s)
            .collect();
        let mean_ms = |f: fn(&TraceSums) -> u64| {
            if of.is_empty() {
                0.0
            } else {
                of.iter().map(|s| f(s) as f64).sum::<f64>() / of.len() as f64 / 1e3
            }
        };
        let (sort, truncate, dist) = match prefix {
            "nsga2" => (
                "moea.nsga2.sort_ms",
                "moea.nsga2.truncate_ms",
                "moea.nsga2.dist_ms",
            ),
            _ => (
                "moea.spea2.sort_ms",
                "moea.spea2.truncate_ms",
                "moea.spea2.dist_ms",
            ),
        };
        m.set(sort, mean_ms(|s| s.sort_us));
        m.set(truncate, mean_ms(|s| s.truncate_us));
        m.set(dist, mean_ms(|s| s.dist_us));
    }
    let sizes: Vec<f64> = campaigns.iter().map(|c| c.front_size as f64).collect();
    m.set(
        "moea.front_size",
        sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
    );
    let batch_us: Vec<f64> = campaigns
        .iter()
        .flat_map(|c| c.lines.iter().map(|l| l.eval_us as f64))
        .collect();
    let gaps: Vec<f64> = campaigns.iter().flat_map(|c| gaps_ms(&c.lines)).collect();
    m.set("exec.batches", batch_us.len() as f64);
    m.set("exec.batch_us.p50", median_or_zero(&batch_us));
    m.set("exec.gate_wait_ms.p50", median_or_zero(&gaps));
    for (plan, name) in [
        ("fc", "plan.fc_s.p50"),
        ("pf", "plan.pf_s.p50"),
        ("proposed", "plan.proposed_s.p50"),
        ("pf-spea2", "plan.pf-spea2_s.p50"),
    ] {
        let walls: Vec<f64> = campaigns
            .iter()
            .filter(|c| c.plan == plan)
            .map(|c| c.wall_s)
            .collect();
        m.set(name, median_or_zero(&walls));
    }
}

/// Evaluation and selection time of a run's campaigns (s).
pub fn eval_select_s(campaigns: &[Campaign]) -> (f64, f64) {
    campaigns.iter().fold((0.0, 0.0), |(e, s), c| {
        let sums = TraceSums::of(&c.lines);
        (
            e + sums.eval_us as f64 / 1e6,
            s + sums.selection_us as f64 / 1e6,
        )
    })
}
