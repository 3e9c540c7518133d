//! End-to-end benchmark of the CL(R)Early workspace, measured layer by
//! layer.
//!
//! ```text
//! perfbench --workload <tdse-cold|search|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up (several times,
//! reporting the median), runs whole rounds of operations for at least
//! `--seconds` (and at least 100 campaigns when untraced, so the p90 has
//! ten samples beyond it), checks the outputs against independent
//! oracles, and prints one JSON result line last. Untraced runs report
//! the end-to-end metrics; traced runs (`--trace 1`) report the
//! per-layer metrics and print each workload's layer table.

mod campaigns;
mod layers;
mod oracle;
mod report;
mod search;
mod serve_mix;
mod tdse_cold;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{calibration_ms, result_line, Metrics, END_TO_END, MIN_CAMPAIGNS, PER_LAYER};

/// Problem sizes: the benchmark's own, or a seconds-long scale for the
/// benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Campaigns every untraced run completes at least.
    pub min_campaigns: usize,
    /// Times the set-up is repeated (the median is reported).
    pub setup_reps: usize,
    /// Where servers and checkpoints keep their files.
    pub state_dir: PathBuf,
}

impl RunConfig {
    /// Whether the timed phase may end after the round just completed:
    /// `--seconds` have passed and, when untraced, the campaign floor is
    /// met (untraced runs report a p90 and need the samples for it).
    pub fn phase_done(&self, elapsed_s: f64, campaigns: usize) -> bool {
        elapsed_s >= self.seconds && (self.trace || campaigns >= self.min_campaigns)
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

pub const WORKLOADS: [&str; 3] = ["tdse-cold", "search", "serve-mix"];

pub fn run_workload(name: &str, cfg: &RunConfig) -> Outcome {
    match name {
        "tdse-cold" => tdse_cold::run(cfg),
        "search" => search::run(cfg),
        "serve-mix" => serve_mix::run(cfg),
        other => panic!("unknown workload {other}"),
    }
}

/// Scratch state for one run, inside the build directory of the
/// checkout.
fn state_dir(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target
        .join("perfbench-state")
        .join(format!("{workload}-{}", std::process::id()))
}

fn parse_args() -> Result<(String, RunConfig), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let cfg = RunConfig {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale: Scale::Full,
        min_campaigns: MIN_CAMPAIGNS,
        setup_reps: 3,
        state_dir: state_dir(&workload),
    };
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let calib_start = calibration_ms();
    let mut outcome = run_workload(&workload, &cfg);
    let calib_end = calibration_ms();
    let _ = std::fs::remove_dir_all(&cfg.state_dir);
    eprintln!("host.calib_ms start={calib_start:.3} end={calib_end:.3}");
    let registry = if cfg.trace {
        outcome
            .metrics
            .set("host.calib_ms", (calib_start + calib_end) / 2.0);
        outcome.metrics.default_zero(PER_LAYER);
        outcome.metrics.keep_only(PER_LAYER);
        PER_LAYER
    } else {
        END_TO_END
    };
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics.json(registry)
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool, workload: &str) -> RunConfig {
        RunConfig {
            seed: 7,
            seconds: 0.0,
            trace,
            scale: Scale::Tiny,
            min_campaigns: 4,
            setup_reps: 1,
            state_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("target")
                .join(format!(
                    "perfbench-test-{workload}-{trace}-{}",
                    std::process::id()
                )),
        }
    }

    /// A seconds-long scale of each workload runs to its end, passes its
    /// oracles, and reports every metric of its registry (the p90 only
    /// where a hundred campaigns back it).
    #[test]
    fn each_workload_runs_to_its_end_at_a_tiny_scale() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let cfg = tiny(trace, workload);
                let mut outcome = run_workload(workload, &cfg);
                assert!(
                    outcome.correct,
                    "{workload} trace={trace} failed its oracles"
                );
                assert_eq!(outcome.failed, 0, "{workload}");
                assert!(outcome.attempted >= 3, "{workload}: at least one round");
                if trace {
                    outcome.metrics.set("host.calib_ms", 1.0);
                    outcome.metrics.default_zero(PER_LAYER);
                    outcome.metrics.keep_only(PER_LAYER);
                    let json = outcome.metrics.json(PER_LAYER);
                    assert!(json.contains("\"layer.wall_ms\""));
                } else {
                    for d in END_TO_END {
                        let present = outcome.metrics.get(d.name).is_some();
                        let expected = d.name != "campaign_s.p90" || outcome.attempted >= 100;
                        assert_eq!(present, expected, "{workload}: {}", d.name);
                        if present {
                            assert!(
                                outcome.metrics.get(d.name).unwrap() > 0.0,
                                "{workload}: {}",
                                d.name
                            );
                        }
                    }
                }
                let _ = std::fs::remove_dir_all(&cfg.state_dir);
            }
        }
    }

    /// The timed work is fixed by the seed: two runs with one seed do the
    /// same operations and reach the same fronts, another seed does not.
    #[test]
    fn the_same_seed_repeats_the_work() {
        let hv = |seed| {
            let cfg = RunConfig {
                seed,
                ..tiny(false, "repeat")
            };
            let outcome = run_workload("search", &cfg);
            assert!(outcome.correct);
            (
                outcome.attempted,
                outcome.metrics.get("hypervolume").unwrap().to_bits(),
            )
        };
        assert_eq!(hv(3), hv(3));
        assert_ne!(hv(3).1, hv(4).1);
    }
}
