//! `tdse-cold`: every operation is a never-seen synthetic application,
//! analysed from scratch (no cache, one thread) under the next of four
//! reliability scenarios, then searched by a small proposed campaign.
//! Markov analysis and the tDSE library build do almost all the work.

use std::time::Instant;

use clre::methodology::{ClrEarly, StageBudget};
use clre::scenario::Scenario;
use clre::CampaignPlan;
use clre_model::{Platform, TaskGraph};
use clre_serve::server::front_digest;

use crate::campaigns::{eval_select_s, record_end_to_end, record_trace_layers, Campaign};
use crate::layers::tdse_self_s;
use crate::layers::{
    record_checkpoint_probe, record_eval_probe, record_library_probes, CheckpointProbe, EvalProbe,
    LayerTable, MarkovProbe, TdseProbe,
};
use crate::oracle;
use crate::report::{fold_digests, median, mix, peak_rss_mb, Metrics};
use crate::trace::watched;
use crate::{Outcome, RunConfig, Scale};

/// The scenario rotation; one round is one operation under each.
/// `transient` comes twice: with four equal clusters of operation times
/// the median would sit on the gap between two of them and jump between
/// their edges from run to run.
pub const ROUND: usize = 5;

pub fn scenario(index: u64) -> Scenario {
    match index % ROUND as u64 {
        0 | 4 => Scenario::Transient,
        1 => Scenario::PermanentAging {
            mission_time_hours: clre::scenario::DEFAULT_MISSION_HOURS,
        },
        2 => Scenario::CheckpointModes,
        _ => Scenario::FpgaMitigation,
    }
}

struct Sizes {
    /// Tasks per application: `base + (draw mod spread)`.
    tasks_base: usize,
    tasks_spread: u64,
    population: usize,
    generations: usize,
    mc_samples: usize,
    mc_runs: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            tasks_base: 18,
            tasks_spread: 5,
            population: 16,
            generations: 6,
            mc_samples: 8,
            mc_runs: 20_000,
        },
        Scale::Tiny => Sizes {
            tasks_base: 4,
            tasks_spread: 2,
            population: 8,
            generations: 2,
            mc_samples: 2,
            mc_runs: 2_000,
        },
    }
}

/// Operation `index`'s inputs: its application and GA seed follow from
/// `--seed` alone.
fn inputs(seed: u64, index: u64, sz: &Sizes) -> (Scenario, Platform, TaskGraph, StageBudget) {
    let scenario = scenario(index);
    let draw = mix(seed, index);
    let tasks = sz.tasks_base + (draw >> 40) as usize % sz.tasks_spread as usize;
    let (platform, graph) = clre::apps::synthetic_app(tasks, draw).expect("synthetic app builds");
    let budget = StageBudget::new(sz.population, sz.generations).with_seed(mix(seed ^ 0x6A, index));
    (scenario, platform, graph, budget)
}

/// What one operation produced.
struct Op {
    campaign: Campaign,
    candidates: usize,
    library_digest: u64,
    hypervolume: Option<f64>,
    /// Front, evaluation-count and box checks of this operation.
    error: Option<String>,
    probes: Option<(MarkovProbe, TdseProbe)>,
}

fn run_op(seed: u64, index: u64, sz: &Sizes, trace: bool) -> Op {
    let (scenario, platform, graph, budget) = inputs(seed, index, sz);
    let started = Instant::now();
    let dse = ClrEarly::with_scenario(&graph, &platform, &scenario).expect("tDSE succeeds");
    let (dse, watch) = watched(dse, started);
    let front = dse
        .run(&CampaignPlan::proposed(), &budget)
        .expect("campaign completes");
    let wall_s = started.elapsed().as_secs_f64();

    let (lines, first_trace_s) = watch.finish(wall_s);
    let objectives = front.objectives();
    let mut error = None;
    if !oracle::mutually_non_dominated(&objectives) {
        error = Some(format!("op {index}: front is not mutually non-dominated"));
    }
    let expected = 2 * budget.population * (budget.generations + 1);
    if front.evaluations != expected {
        error = Some(format!(
            "op {index}: {} evaluations, expected {expected}",
            front.evaluations
        ));
    }
    let bounds = oracle::objective_box(
        &graph,
        &platform,
        dse.library(),
        &scenario.system_objectives(),
    );
    let hypervolume = oracle::normalised_hypervolume(&objectives, &bounds);
    if hypervolume.is_none() {
        error = Some(format!(
            "op {index}: a front point lies outside the library's box"
        ));
    }
    let probes = trace.then(|| {
        let config = scenario.tdse_config().expect("built-in scenario");
        let mut markov = MarkovProbe::default();
        markov.replay(&graph, &platform, &config);
        (markov, TdseProbe::replay(&graph, &platform, &config))
    });
    Op {
        campaign: Campaign {
            plan: "proposed",
            wall_s,
            first_trace_s,
            lines,
            evaluations: front.evaluations,
            digest: front_digest(&front),
            front_size: front.front().len(),
        },
        candidates: dse.tdse_health().candidates_evaluated,
        library_digest: dse.library().content_digest(),
        hypervolume,
        error,
        probes,
    }
}

/// The library-level oracles on the first round's applications, rebuilt
/// outside the timed phase: the rebuilt library must be the one the
/// timed operation used, agree with the closed form on every
/// single-interval candidate, keep exactly the non-dominated candidates
/// per group, and match Monte-Carlo fault injection on a sample.
fn library_oracles(seed: u64, sz: &Sizes, ops: &[Op]) -> Result<String, String> {
    let mut closed_form = 0;
    let mut monte_carlo = 0;
    for (index, op) in ops.iter().enumerate().take(ROUND) {
        let (scenario, platform, graph, _) = inputs(seed, index as u64, sz);
        let config = scenario.tdse_config().expect("built-in scenario");
        let dse = ClrEarly::with_scenario(&graph, &platform, &scenario).expect("tDSE succeeds");
        let library = dse.library();
        if library.content_digest() != op.library_digest {
            return Err(format!(
                "op {index}: rebuilt library differs from the timed one"
            ));
        }
        closed_form += oracle::check_closed_form(&graph, &platform, library, &config)?;
        oracle::check_pareto_sets(&graph, &platform, library, &config.objectives)?;
        if scenario == Scenario::Transient {
            monte_carlo += oracle::check_monte_carlo(
                &graph,
                &platform,
                library,
                &config,
                mix(seed, 1 << 50),
                sz.mc_samples,
                sz.mc_runs,
            )?;
        }
    }
    Ok(format!(
        "closed_form={closed_form} monte_carlo={monte_carlo}"
    ))
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let sz = sizes(cfg.scale);
    let mut m = Metrics::default();

    // Set-up: one untimed warm-up operation (always transient, so the
    // figure does not depend on the rotation), repeated; median reported.
    let mut setups = Vec::new();
    for rep in 0..cfg.setup_reps {
        let started = Instant::now();
        let op = run_op(cfg.seed, (1 << 40) + (ROUND * rep) as u64, &sz, false);
        std::hint::black_box(op.campaign.digest);
        setups.push(started.elapsed().as_secs_f64());
    }
    m.set("setup_s", median(&setups));

    // Timed phase: whole rounds until both the time and the campaign
    // floor are met.
    let mut ops: Vec<Op> = Vec::new();
    let phase = Instant::now();
    loop {
        for _ in 0..ROUND {
            ops.push(run_op(cfg.seed, ops.len() as u64, &sz, cfg.trace));
        }
        if cfg.phase_done(phase.elapsed().as_secs_f64(), ops.len()) {
            break;
        }
    }
    let timed_wall_s = phase.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let mut errors: Vec<String> = ops.iter().filter_map(|op| op.error.clone()).collect();
    for (round, chunk) in ops.chunks(ROUND).enumerate() {
        println!(
            "work tdse-cold round={round} candidates={} evaluations={} digest={:016x}",
            chunk.iter().map(|op| op.candidates).sum::<usize>(),
            chunk
                .iter()
                .map(|op| op.campaign.evaluations)
                .sum::<usize>(),
            fold_digests(chunk.iter().map(|op| op.campaign.digest)),
        );
    }
    match library_oracles(cfg.seed, &sz, &ops) {
        Ok(summary) => println!("oracle tdse-cold {summary}"),
        Err(e) => errors.push(e),
    }
    // The hypervolume of the first operations only, which every run
    // completes, so it does not depend on the host's speed.
    let hv: Vec<f64> = ops
        .iter()
        .take(cfg.min_campaigns)
        .filter_map(|op| op.hypervolume)
        .collect();
    let campaigns: Vec<Campaign> = ops.iter().map(|op| op.campaign.clone()).collect();

    if cfg.trace {
        let mut markov = MarkovProbe::default();
        let mut tdse = Vec::new();
        let (eval_s, select_s) = eval_select_s(&campaigns);
        let mut table = LayerTable {
            ops: ops.len(),
            wall_s: campaigns.iter().map(|c| c.wall_s).sum(),
            eval_s,
            select_s,
            ..LayerTable::default()
        };
        for op in &mut ops {
            let (mk, td) = op.probes.take().expect("traced operations carry probes");
            if td.content_digest != op.library_digest || td.candidates != op.candidates {
                errors.push("library replay differs from the timed build".to_owned());
            }
            markov.merge(mk);
            tdse.push(td);
        }
        table.markov_s = markov.analyze_s;
        table.tdse_s = tdse_self_s(&markov, &tdse);
        record_library_probes(&mut m, &markov, &tdse);
        record_trace_layers(&mut m, &campaigns);

        let (_, platform, graph, budget) = inputs(cfg.seed, 0, &sz);
        let dse = ClrEarly::new(&graph, &platform).expect("tDSE succeeds");
        let mut eval = EvalProbe::default();
        eval.replay(
            &graph,
            &platform,
            dse.library(),
            256,
            mix(cfg.seed, 1 << 51),
        );
        record_eval_probe(&mut m, &eval);
        let checkpoint = CheckpointProbe::measure(
            &dse,
            &CampaignPlan::proposed(),
            &budget,
            &cfg.state_dir.join("checkpoint-probe"),
        );
        record_checkpoint_probe(&mut m, &checkpoint);

        // Tracing overhead: the last two rounds again, right after them,
        // without the probes; the median ratio of the paired walls.
        let last = ops.len().saturating_sub(2 * ROUND);
        let untraced: Vec<f64> = (last..ops.len())
            .map(|i| run_op(cfg.seed, i as u64, &sz, false).campaign.wall_s)
            .collect();
        let ratios: Vec<f64> = campaigns[last..]
            .iter()
            .zip(&untraced)
            .map(|(c, u)| c.wall_s / u)
            .collect();
        let overhead = 100.0 * (median(&ratios) - 1.0);
        let untraced_ms = 1e3 * untraced.iter().sum::<f64>() / untraced.len() as f64;
        table.print("tdse-cold", untraced_ms, overhead);
        table.record(&mut m);
        m.set("trace.overhead_pct", overhead);
    } else {
        record_end_to_end(&mut m, &campaigns, timed_wall_s);
        m.set(
            "hypervolume",
            hv.iter().sum::<f64>() / hv.len().max(1) as f64,
        );
        m.set("peak_rss_mb", rss);
    }
    for e in &errors {
        eprintln!("tdse-cold: {e}");
    }
    Outcome {
        correct: errors.is_empty(),
        attempted: ops.len() as u64,
        failed: 0,
        metrics: m,
    }
}
