//! `search`: one ~60-task application whose library is built in set-up;
//! every operation is a fixed-budget campaign with a fresh GA seed,
//! alternating `proposed` (two NSGA-II stages) and `pf-spea2`. System
//! evaluation and selection do all the timed work.

use std::time::Instant;

use clre::methodology::{ClrEarly, StageBudget};
use clre::tdse::TdseConfig;
use clre::{CampaignPlan, FrontResult};
use clre_model::qos::ObjectiveSet;
use clre_model::{Platform, TaskGraph};
use clre_moea::hypervolume::hypervolume_matrix;
use clre_moea::ObjectiveMatrix;
use clre_serve::server::front_digest;

use crate::campaigns::{eval_select_s, record_end_to_end, record_trace_layers, Campaign};
use crate::layers::{
    record_checkpoint_probe, record_eval_probe, record_library_probes, CheckpointProbe, EvalProbe,
    LayerTable, MarkovProbe, TdseProbe,
};
use crate::oracle;
use crate::report::{fold_digests, median, mix, peak_rss_mb, Metrics};
use crate::trace::watched;
use crate::{Outcome, RunConfig, Scale};

struct Sizes {
    tasks: usize,
    population: usize,
    generations: usize,
    sim_iterations: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            tasks: 60,
            population: 120,
            generations: 20,
            sim_iterations: 20_000,
        },
        Scale::Tiny => Sizes {
            tasks: 8,
            population: 12,
            generations: 3,
            sim_iterations: 2_000,
        },
    }
}

/// Operations per round: `pf-spea2`, `proposed`, `pf-spea2`. With the
/// two plans one to one, the median would sit on the gap between their
/// two clusters of times and jump between their edges from run to run.
const ROUND: usize = 3;

/// Operation `index`: its plan follows the round, its GA seed is fresh.
fn op_inputs(seed: u64, index: u64, sz: &Sizes) -> (&'static str, CampaignPlan, StageBudget) {
    let budget = StageBudget::new(sz.population, sz.generations).with_seed(mix(seed ^ 0x5E, index));
    if index % ROUND as u64 == 1 {
        ("proposed", CampaignPlan::proposed(), budget)
    } else {
        ("pf-spea2", CampaignPlan::pf_spea2(), budget)
    }
}

fn application(seed: u64, sz: &Sizes) -> (Platform, TaskGraph) {
    clre::apps::synthetic_app(sz.tasks, mix(seed, 1 << 41)).expect("synthetic app builds")
}

/// Checks one operation's front: mutually non-dominated, evaluation
/// count fixed by the budget, inside the library's box, and its 2-D
/// hypervolume equal by the benchmark's own sweep and the program's.
fn check_front(
    front: &FrontResult,
    stages: usize,
    budget: &StageBudget,
    bounds: &[(f64, f64)],
) -> Result<f64, String> {
    let objectives = front.objectives();
    if !oracle::mutually_non_dominated(&objectives) {
        return Err("front is not mutually non-dominated".to_owned());
    }
    let expected = stages * budget.population * (budget.generations + 1);
    if front.evaluations != expected {
        return Err(format!(
            "{} evaluations, expected {expected}",
            front.evaluations
        ));
    }
    let unit = oracle::normalise(&objectives, bounds)
        .ok_or("a front point lies outside the library's box")?;
    let program = hypervolume_matrix(&ObjectiveMatrix::from_rows(&unit), &[1.0, 1.0]);
    let sweep = oracle::hypervolume_2d_sweep(&unit, [1.0, 1.0]);
    if (program - sweep).abs() > 1e-12 * sweep.abs().max(1e-300) {
        return Err(format!("hypervolume {program} vs sweep {sweep}"));
    }
    Ok(sweep)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let sz = sizes(cfg.scale);
    let mut m = Metrics::default();
    let (platform, graph) = application(cfg.seed, &sz);

    // Set-up: the library build plus one untimed warm-up campaign,
    // repeated; median reported, the last orchestrator kept.
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..cfg.setup_reps {
        let started = Instant::now();
        let dse = ClrEarly::new(&graph, &platform).expect("tDSE succeeds");
        let (_, plan, budget) = op_inputs(cfg.seed, (1 << 40) + (ROUND * rep) as u64 + 1, &sz);
        std::hint::black_box(
            dse.run(&plan, &budget)
                .expect("warm-up completes")
                .evaluations,
        );
        setups.push(started.elapsed().as_secs_f64());
        kept = Some(dse);
    }
    m.set("setup_s", median(&setups));
    let mut dse = kept.expect("at least one set-up");
    let bounds =
        oracle::objective_box(&graph, &platform, dse.library(), &ObjectiveSet::system_bi());

    let mut campaigns: Vec<Campaign> = Vec::new();
    let mut hypervolumes = Vec::new();
    let mut sampled: Vec<FrontResult> = Vec::new();
    let mut errors = Vec::new();
    let phase = Instant::now();
    loop {
        for _ in 0..ROUND {
            let index = campaigns.len() as u64;
            let (name, plan, budget) = op_inputs(cfg.seed, index, &sz);
            let started = Instant::now();
            let (watching, watch) = watched(dse, started);
            dse = watching;
            let front = dse.run(&plan, &budget).expect("campaign completes");
            let wall_s = started.elapsed().as_secs_f64();
            let (lines, first_trace_s) = watch.finish(wall_s);
            match check_front(&front, plan.stages.len(), &budget, &bounds) {
                Ok(hv) if campaigns.len() < cfg.min_campaigns => hypervolumes.push(hv),
                Ok(_) => {}
                Err(e) => errors.push(format!("op {index}: {e}")),
            }
            campaigns.push(Campaign {
                plan: name,
                wall_s,
                first_trace_s,
                lines,
                evaluations: front.evaluations,
                digest: front_digest(&front),
                front_size: front.front().len(),
            });
            if sampled.len() < 2 {
                sampled.push(front);
            }
        }
        if cfg.phase_done(phase.elapsed().as_secs_f64(), campaigns.len()) {
            break;
        }
    }
    let timed_wall_s = phase.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    for (round, chunk) in campaigns.chunks(ROUND).enumerate() {
        println!(
            "work search round={round} evaluations={} front_points={} digest={:016x}",
            chunk.iter().map(|c| c.evaluations).sum::<usize>(),
            chunk.iter().map(|c| c.front_size).sum::<usize>(),
            fold_digests(chunk.iter().map(|c| c.digest)),
        );
    }
    // A sampled point of each of the first two fronts against the
    // application Monte-Carlo simulator.
    let config = TdseConfig::default();
    for (k, front) in sampled.iter().enumerate() {
        let point = &front.front()
            [(mix(cfg.seed, 1 << 52 | k as u64) % front.front().len() as u64) as usize];
        if let Err(e) = oracle::check_app_simulation(
            &graph,
            &platform,
            dse.library(),
            &config,
            point,
            sz.sim_iterations,
            mix(cfg.seed, 1 << 53 | k as u64),
        ) {
            errors.push(format!("op {k}: {e}"));
        }
    }
    println!(
        "oracle search fronts={} simulated_points={}",
        campaigns.len(),
        sampled.len()
    );

    if cfg.trace {
        let mut markov = MarkovProbe::default();
        markov.replay(&graph, &platform, &config);
        let tdse = TdseProbe::replay(&graph, &platform, &config);
        if tdse.content_digest != dse.library().content_digest() {
            errors.push("library replay differs from the set-up build".to_owned());
        }
        record_library_probes(&mut m, &markov, &[tdse]);
        record_trace_layers(&mut m, &campaigns);
        let mut eval = EvalProbe::default();
        eval.replay(
            &graph,
            &platform,
            dse.library(),
            256,
            mix(cfg.seed, 1 << 51),
        );
        record_eval_probe(&mut m, &eval);
        let (_, plan, budget) = op_inputs(cfg.seed, 0, &sz);
        let checkpoint = CheckpointProbe::measure(
            &dse,
            &plan,
            &budget,
            &cfg.state_dir.join("checkpoint-probe"),
        );
        record_checkpoint_probe(&mut m, &checkpoint);

        // The library was built in set-up: no markov or tdse time per
        // operation.
        let (eval_s, select_s) = eval_select_s(&campaigns);
        let table = LayerTable {
            ops: campaigns.len(),
            wall_s: campaigns.iter().map(|c| c.wall_s).sum(),
            eval_s,
            select_s,
            ..LayerTable::default()
        };
        // Tracing overhead: the last two rounds again, right after them;
        // the median ratio of the paired walls.
        let last = campaigns.len().saturating_sub(2 * ROUND);
        let untraced: Vec<f64> = (last..campaigns.len())
            .map(|index| {
                let (_, plan, budget) = op_inputs(cfg.seed, index as u64, &sz);
                let started = Instant::now();
                std::hint::black_box(
                    dse.run(&plan, &budget)
                        .expect("campaign completes")
                        .evaluations,
                );
                started.elapsed().as_secs_f64()
            })
            .collect();
        let ratios: Vec<f64> = campaigns[last..]
            .iter()
            .zip(&untraced)
            .map(|(c, u)| c.wall_s / u)
            .collect();
        let overhead = 100.0 * (median(&ratios) - 1.0);
        let untraced_ms = 1e3 * untraced.iter().sum::<f64>() / untraced.len() as f64;
        table.print("search", untraced_ms, overhead);
        table.record(&mut m);
        m.set("trace.overhead_pct", overhead);
    } else {
        record_end_to_end(&mut m, &campaigns, timed_wall_s);
        m.set(
            "hypervolume",
            hypervolumes.iter().sum::<f64>() / hypervolumes.len().max(1) as f64,
        );
        m.set("peak_rss_mb", rss);
    }
    for e in &errors {
        eprintln!("search: {e}");
    }
    Outcome {
        correct: errors.is_empty(),
        attempted: campaigns.len() as u64,
        failed: 0,
        metrics: m,
    }
}
