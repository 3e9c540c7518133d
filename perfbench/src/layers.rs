//! The traced run's layer probes. Each replays, from outside and through
//! public calls only, the work one layer did inside an operation, and
//! times it; the per-layer table folds the probes into self times.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use clre::encoding::{ChoiceMode, Codec};
use clre::methodology::{ClrEarly, StageBudget};
use clre::resilience::{Checkpoint, RunOutcome, RunSupervisor, SupervisorConfig};
use clre::tdse::{
    build_library_with_health, candidates_for_type_with_health, chain_spec, DvfsPolicy, TdseConfig,
    TdseHealth,
};
use clre::EvalCache;
use clre::{CampaignPlan, ImplLibrary};
use clre_markov::clr::{analyze_robust_spec, functional_chain_spec, timing_chain_spec};
use clre_markov::ClrChainSpec;
use clre_model::platform::PeKind;
use clre_model::{Platform, TaskGraph, TaskTypeId};
use clre_sched::{list_schedule, QosEvaluator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median_or_zero, Metrics};

/// Chain build and solve times of every candidate one library analyses.
#[derive(Debug, Default)]
pub struct MarkovProbe {
    pub analyses: usize,
    pub degraded: usize,
    /// Both chains built, per candidate (µs).
    pub build_us: Vec<f64>,
    /// The robust analysis minus its chain builds, per candidate (µs).
    pub solve_us: Vec<f64>,
    /// The robust analysis per candidate, by checkpoint-interval count.
    pub analyze_us_by_k: [Vec<f64>; 5],
    /// Total robust-analysis time (s): the markov layer's share of a
    /// library build.
    pub analyze_s: f64,
    /// Total time deriving each candidate's chain specification (s): the
    /// tdse layer's own share of the sweep.
    pub spec_s: f64,
}

/// Every candidate specification a library build analyses, in the
/// build's order (the enumeration of `candidates_for_type_with_health`),
/// and the total time spent deriving them (s).
fn candidate_specs(
    graph: &TaskGraph,
    platform: &Platform,
    config: &TdseConfig,
) -> (Vec<ClrChainSpec>, f64) {
    let mut specs = Vec::new();
    let mut spec_s = 0.0;
    for task_type in graph.task_types() {
        for imp in task_type.impls() {
            let Some(pe_type) = platform.pe_type(imp.pe_type()) else {
                continue;
            };
            let modes = match config.dvfs_policy {
                DvfsPolicy::All => pe_type.dvfs_modes(),
                DvfsPolicy::NominalOnly => &pe_type.dvfs_modes()[..1],
            };
            for mode in modes {
                for clr in &config.clr_catalog {
                    if clr.hw.requires_reconfigurable()
                        && pe_type.kind() != PeKind::ReconfigurableRegion
                    {
                        continue;
                    }
                    let t0 = Instant::now();
                    specs.push(chain_spec(
                        imp,
                        pe_type,
                        mode,
                        clr,
                        &config.profile,
                        config.implicit_masking_override,
                        config.reliability_model,
                    ));
                    spec_s += t0.elapsed().as_secs_f64();
                }
            }
        }
    }
    (specs, spec_s)
}

impl MarkovProbe {
    /// Folds another probe's samples and totals into this one.
    pub fn merge(&mut self, other: MarkovProbe) {
        self.analyses += other.analyses;
        self.degraded += other.degraded;
        self.build_us.extend(other.build_us);
        self.solve_us.extend(other.solve_us);
        for (all, more) in self.analyze_us_by_k.iter_mut().zip(other.analyze_us_by_k) {
            all.extend(more);
        }
        self.analyze_s += other.analyze_s;
        self.spec_s += other.spec_s;
    }

    /// Replays the candidates of a library build, timing the chain
    /// construction and the robust analysis of each.
    pub fn replay(&mut self, graph: &TaskGraph, platform: &Platform, config: &TdseConfig) {
        let (specs, spec_s) = candidate_specs(graph, platform, config);
        self.spec_s += spec_s;
        for spec in &specs {
            let t0 = Instant::now();
            let built = timing_chain_spec(spec).and(functional_chain_spec(spec));
            let build = t0.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(built.is_ok());
            let t1 = Instant::now();
            let analysis = analyze_robust_spec(spec);
            let analyze = t1.elapsed().as_secs_f64() * 1e6;
            self.analyses += 1;
            self.degraded += usize::from(analysis.is_ok_and(|a| a.degraded));
            self.build_us.push(build);
            self.solve_us.push((analyze - build).max(0.0));
            let k = (spec.params.intervals as usize).min(4);
            self.analyze_us_by_k[k].push(analyze);
            self.analyze_s += analyze / 1e6;
        }
    }
}

/// One library build split into its per-type candidate sweeps and the
/// Pareto filter.
#[derive(Debug, Default, Clone, Copy)]
pub struct TdseProbe {
    pub library_s: f64,
    pub pareto_filter_us: f64,
    pub candidates: usize,
    pub kept: usize,
    pub content_digest: u64,
}

impl TdseProbe {
    pub fn replay(graph: &TaskGraph, platform: &Platform, config: &TdseConfig) -> TdseProbe {
        let mut health = TdseHealth::default();
        let t0 = Instant::now();
        let all: Vec<_> = (0..graph.task_types().len())
            .map(|ty| {
                candidates_for_type_with_health(
                    graph,
                    platform,
                    TaskTypeId::new(ty as u32),
                    config,
                    &mut health,
                )
                .expect("candidates evaluate")
            })
            .collect();
        let t1 = Instant::now();
        let library =
            ImplLibrary::from_candidates(all, platform.pe_types().len(), &config.objectives)
                .expect("library assembles");
        let filter = t1.elapsed();
        let library_s = t0.elapsed().as_secs_f64();
        let kept = (0..library.type_count())
            .map(|ty| library.pareto_count(TaskTypeId::new(ty as u32)))
            .sum();
        TdseProbe {
            library_s,
            pareto_filter_us: filter.as_secs_f64() * 1e6,
            candidates: health.candidates_evaluated,
            kept,
            content_digest: library.content_digest(),
        }
    }
}

/// Decode, schedule and QoS times over a seeded sample of genomes.
#[derive(Debug, Default)]
pub struct EvalProbe {
    pub decode_us: Vec<f64>,
    pub schedule_us: Vec<f64>,
    pub qos_us: Vec<f64>,
}

impl EvalProbe {
    pub fn replay(
        &mut self,
        graph: &TaskGraph,
        platform: &Platform,
        library: &ImplLibrary,
        samples: usize,
        seed: u64,
    ) {
        let codec = Codec::new(graph, platform, library, ChoiceMode::Full).expect("codec builds");
        let evaluator = QosEvaluator::new(platform);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..samples {
            let genome = codec.random_genome(&mut rng);
            let t0 = Instant::now();
            let mapping = codec.try_decode(&genome).expect("sampled genome decodes");
            let t1 = Instant::now();
            let schedule = list_schedule(graph, platform, &mapping).expect("schedules");
            let t2 = Instant::now();
            let metrics = evaluator.evaluate(graph, &mapping).expect("evaluates");
            let t3 = Instant::now();
            std::hint::black_box((schedule.makespan(), metrics.makespan));
            self.decode_us.push((t1 - t0).as_secs_f64() * 1e6);
            let schedule_us = (t2 - t1).as_secs_f64() * 1e6;
            self.schedule_us.push(schedule_us);
            // `evaluate` schedules again, then derives the metrics.
            self.qos_us
                .push(((t3 - t2).as_secs_f64() * 1e6 - schedule_us).max(0.0));
        }
    }
}

/// Size, load and save time of a checkpoint the supervised campaign
/// runner writes: the campaign is interrupted half-way through its last
/// stage, which leaves the checkpoint on disk.
#[derive(Debug, Default, Clone, Copy)]
pub struct CheckpointProbe {
    pub bytes: f64,
    pub save_us: f64,
    pub load_us: f64,
}

impl CheckpointProbe {
    pub fn measure(
        dse: &ClrEarly<'_>,
        plan: &CampaignPlan,
        budget: &StageBudget,
        dir: &Path,
    ) -> CheckpointProbe {
        std::fs::create_dir_all(dir).expect("state directory");
        let path = dir.join("probe.ckpt");
        let stage = u32::try_from(plan.stages.len() - 1).expect("few stages");
        let supervisor = RunSupervisor::new(SupervisorConfig::new(&path))
            .with_interrupt_at(stage, (budget.generations / 2).max(1));
        match dse.run_supervised(plan, budget, &supervisor) {
            Ok(RunOutcome::Interrupted { .. }) => {}
            other => panic!("probe campaign was not interrupted: {other:?}"),
        }
        let bytes = std::fs::metadata(&path).expect("checkpoint written").len() as f64;
        let mut load = Vec::new();
        let mut save = Vec::new();
        let copy = dir.join("probe-copy.ckpt");
        for _ in 0..7 {
            let t0 = Instant::now();
            let cp = Checkpoint::load(&path).expect("checkpoint loads");
            load.push(t0.elapsed().as_secs_f64() * 1e6);
            let t1 = Instant::now();
            cp.save(&copy).expect("checkpoint saves");
            save.push(t1.elapsed().as_secs_f64() * 1e6);
        }
        let _ = std::fs::remove_dir_all(dir);
        CheckpointProbe {
            bytes,
            save_us: median_or_zero(&save),
            load_us: median_or_zero(&load),
        }
    }
}

/// Time of a library build answered entirely from a warm analysis cache
/// (s, median of three): what a request on an application whose
/// analyses are already cached spends in the cache layer.
pub fn warm_library_build_s(graph: &TaskGraph, platform: &Platform, config: &TdseConfig) -> f64 {
    let cache = EvalCache::shared();
    let config = config.clone().with_eval_cache(Arc::clone(&cache));
    build_library_with_health(graph, platform, &config).expect("library builds");
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(
                build_library_with_health(graph, platform, &config).expect("library builds"),
            );
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median_or_zero(&times)
}

/// Time to insert one cold library's analyses into a fresh cache bound
/// to a sidecar journal, as the server's shared cache is (s): the cache
/// layer's own share of a cold build, journal writes included.
pub fn cold_insert_s(
    graph: &TaskGraph,
    platform: &Platform,
    config: &TdseConfig,
    dir: &Path,
) -> f64 {
    let (specs, _) = candidate_specs(graph, platform, config);
    let analysed: Vec<_> = specs
        .into_iter()
        .map(|spec| (spec, analyze_robust_spec(&spec).expect("analysable")))
        .collect();
    std::fs::create_dir_all(dir).expect("state directory");
    let path = dir.join("journal.cache");
    let _ = std::fs::remove_file(&path);
    let cache = EvalCache::new();
    cache.bind_sidecar(&path).expect("sidecar binds");
    let t0 = Instant::now();
    for (spec, analysis) in &analysed {
        cache.insert_analysis_spec(spec, *analysis);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);
    elapsed
}

/// Self time of the tdse layer in probed library builds (s): the
/// candidate specifications and the Pareto filters. The chain analyses
/// between them are the markov layer's.
pub fn tdse_self_s(markov: &MarkovProbe, tdse: &[TdseProbe]) -> f64 {
    markov.spec_s + tdse.iter().map(|p| p.pareto_filter_us / 1e6).sum::<f64>()
}

/// Sums of self time per layer over a workload's operations (seconds).
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTable {
    pub ops: usize,
    pub wall_s: f64,
    pub markov_s: f64,
    pub tdse_s: f64,
    pub eval_s: f64,
    pub select_s: f64,
    pub checkpoint_s: f64,
    /// Library builds answered from a warm analysis cache, and a cold
    /// build's inserts into it.
    pub cache_s: f64,
}

impl LayerTable {
    pub fn residual_s(&self) -> f64 {
        self.wall_s
            - self.markov_s
            - self.tdse_s
            - self.cache_s
            - self.eval_s
            - self.select_s
            - self.checkpoint_s
    }

    /// Prints the per-layer table: mean self time per operation, its
    /// share of the traced wall, the residual, and the untraced wall of
    /// the same operations for comparison.
    pub fn print(&self, workload: &str, untraced_wall_ms: f64, overhead_pct: f64) {
        let per_op = |s: f64| s * 1e3 / self.ops.max(1) as f64;
        let share = |s: f64| 100.0 * s / self.wall_s.max(f64::MIN_POSITIVE);
        println!(
            "layers {workload}: {} operations, mean self time per operation",
            self.ops
        );
        let rows = [
            ("markov", self.markov_s),
            ("tdse", self.tdse_s),
            ("cache (lookups, inserts)", self.cache_s),
            ("eval (encoding+sched)", self.eval_s),
            ("selection (moea)", self.select_s),
            ("checkpoint (resilience)", self.checkpoint_s),
        ];
        for (name, s) in rows {
            println!("  {name:<26} {:>10.3} ms {:>6.1}%", per_op(s), share(s));
        }
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        println!(
            "  {:<26} {:>10.3} ms {:>6.1}%",
            "sum of layers",
            per_op(sum),
            share(sum)
        );
        println!(
            "  {:<26} {:>10.3} ms {:>6.1}%",
            "residual (campaign)",
            per_op(self.residual_s()),
            share(self.residual_s())
        );
        println!("  {:<26} {:>10.3} ms", "traced wall", per_op(self.wall_s));
        println!("  {:<26} {:>10.3} ms", "untraced wall", untraced_wall_ms);
        println!("  {:<26} {:>10.2} %", "tracing overhead", overhead_pct);
    }

    /// The table's per-operation figures as per-layer metrics.
    pub fn record(&self, m: &mut Metrics) {
        let per_op = |s: f64| s * 1e3 / self.ops.max(1) as f64;
        m.set("layer.wall_ms", per_op(self.wall_s));
        m.set("layer.markov_ms", per_op(self.markov_s));
        m.set("layer.tdse_ms", per_op(self.tdse_s));
        m.set("layer.cache_ms", per_op(self.cache_s));
        m.set("layer.eval_ms", per_op(self.eval_s));
        m.set("layer.select_ms", per_op(self.select_s));
        m.set("campaign.residual_ms", per_op(self.residual_s()));
    }
}

/// Records the markov and tdse probes as per-layer metrics.
pub fn record_library_probes(m: &mut Metrics, markov: &MarkovProbe, tdse: &[TdseProbe]) {
    m.set("markov.analyses", markov.analyses as f64);
    m.set("markov.build_us.p50", median_or_zero(&markov.build_us));
    m.set("markov.solve_us.p50", median_or_zero(&markov.solve_us));
    let by_k = [
        "markov.analyze_us.k1",
        "markov.analyze_us.k2",
        "markov.analyze_us.k3",
        "markov.analyze_us.k4",
    ];
    for (k, name) in by_k.iter().enumerate() {
        m.set(name, median_or_zero(&markov.analyze_us_by_k[k + 1]));
    }
    m.set("markov.degraded", markov.degraded as f64);
    let library: Vec<f64> = tdse.iter().map(|p| p.library_s).collect();
    let filter: Vec<f64> = tdse.iter().map(|p| p.pareto_filter_us).collect();
    let candidates: usize = tdse.iter().map(|p| p.candidates).sum();
    let kept: usize = tdse.iter().map(|p| p.kept).sum();
    let total_s: f64 = library.iter().sum();
    m.set("tdse.library_s.p50", median_or_zero(&library));
    m.set("tdse.candidates", candidates as f64);
    m.set(
        "tdse.candidates_per_s",
        if total_s > 0.0 {
            candidates as f64 / total_s
        } else {
            0.0
        },
    );
    m.set("tdse.pareto_filter_us", median_or_zero(&filter));
    m.set(
        "tdse.pareto_kept_ratio",
        if candidates > 0 {
            kept as f64 / candidates as f64
        } else {
            0.0
        },
    );
}

/// Records the encoding/sched probe.
pub fn record_eval_probe(m: &mut Metrics, probe: &EvalProbe) {
    m.set("encoding.decode_us.p50", median_or_zero(&probe.decode_us));
    m.set("sched.schedule_us.p50", median_or_zero(&probe.schedule_us));
    m.set("sched.qos_us.p50", median_or_zero(&probe.qos_us));
}

/// Records the checkpoint probe.
pub fn record_checkpoint_probe(m: &mut Metrics, probe: &CheckpointProbe) {
    m.set("resilience.checkpoint_bytes", probe.bytes);
    m.set("resilience.checkpoint_save_us", probe.save_us);
    m.set("resilience.checkpoint_load_us", probe.load_us);
}
