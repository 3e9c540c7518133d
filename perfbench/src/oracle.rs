//! Independent oracles: each recomputes a program output by a route that
//! shares no code with the path under test.

use clre::tdse::{chain_params, chain_spec, TdseConfig};
use clre::{FrontPoint, ImplLibrary};
use clre_markov::closed_form;
use clre_model::qos::{Objective, ObjectiveSet};
use clre_model::{PeTypeId, Platform, TaskGraph, TaskTypeId};
use clre_moea::hypervolume::hypervolume_matrix;
use clre_moea::ObjectiveMatrix;
use clre_sim::{AppSimulator, TaskSimulator};

/// Whether `a` Pareto-dominates `b` (minimisation).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// Plain O(n²) check that no point of `points` dominates another.
pub fn mutually_non_dominated(points: &[Vec<f64>]) -> bool {
    points.iter().enumerate().all(|(i, p)| {
        points
            .iter()
            .enumerate()
            .all(|(j, q)| i == j || !dominates(q, p))
    })
}

/// Exact 2-D hypervolume of a minimisation front by a plain sweep:
/// sort by the first objective, keep the running minimum of the second.
pub fn hypervolume_2d_sweep(points: &[Vec<f64>], reference: [f64; 2]) -> f64 {
    let mut inside: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p[0], p[1]))
        .filter(|&(x, y)| x < reference[0] && y < reference[1])
        .collect();
    inside.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut volume = 0.0;
    let mut floor = reference[1];
    for (x, y) in inside {
        if y < floor {
            volume += (reference[0] - x) * (floor - y);
            floor = y;
        }
    }
    volume
}

/// Per-objective box `[lo, hi]` an application's fronts must lie in,
/// derived from its library alone (never from the fronts), so the
/// normalised hypervolume of one front does not depend on the others.
///
/// * makespan: `[0, 1.1 · Σ_t max_c AvgExT]` — a list schedule without
///   interconnect delay never idles every PE at once, so it never
///   exceeds the serial sum of its tasks;
/// * error probability: `[0, 1.1 · worst]` (capped at 1), `worst` the
///   criticality-weighted series error of every task's least reliable
///   candidate;
/// * −MTTF: `[−1.1 · best, 0]`, `best` bounding the system MTTF by the
///   most durable candidate of its least durable task.
pub fn objective_box(
    graph: &TaskGraph,
    platform: &Platform,
    library: &ImplLibrary,
    objectives: &ObjectiveSet,
) -> Vec<(f64, f64)> {
    let n = graph.task_count() as f64;
    let zeta = graph.normalized_criticalities();
    let per_task = |f: &dyn Fn(&clre::CandidateImpl) -> f64| -> Vec<f64> {
        graph
            .tasks()
            .iter()
            .map(|t| {
                library
                    .candidates(t.task_type())
                    .iter()
                    .map(f)
                    .fold(f64::MIN, f64::max)
            })
            .collect()
    };
    objectives
        .objectives()
        .iter()
        .map(|objective| match objective {
            Objective::Makespan => {
                let serial: f64 = per_task(&|c| c.metrics.avg_exec_time).iter().sum();
                (0.0, 1.1 * serial)
            }
            Objective::ErrorProbability => {
                let log_ok: f64 = per_task(&|c| c.metrics.error_prob)
                    .iter()
                    .zip(&zeta)
                    .map(|(&p, &z)| z * n * (1.0 - p).max(f64::MIN_POSITIVE).ln())
                    .sum();
                let worst = 1.0 - log_ok.exp();
                (0.0, (1.1 * worst).clamp(f64::MIN_POSITIVE, 1.0))
            }
            Objective::Mttf => {
                let best = per_task(&|c| {
                    let beta = platform
                        .pe_type(c.pe_type)
                        .expect("candidate PE type on the platform")
                        .weibull_beta();
                    graph.period() * c.metrics.eta * clre_num::gamma(1.0 + 1.0 / beta)
                        / c.metrics.avg_exec_time
                })
                .into_iter()
                .fold(f64::MAX, f64::min);
                (-1.1 * best, 0.0)
            }
            other => panic!("no library bound for system objective {other:?}"),
        })
        .collect()
}

/// Maps a front into the unit box; `None` if a point leaves the box
/// (which would mean the bound above is wrong).
pub fn normalise(points: &[Vec<f64>], bounds: &[(f64, f64)]) -> Option<Vec<Vec<f64>>> {
    points
        .iter()
        .map(|p| {
            p.iter()
                .zip(bounds)
                .map(|(&x, &(lo, hi))| {
                    let v = (x - lo) / (hi - lo);
                    (0.0..=1.0).contains(&v).then_some(v)
                })
                .collect()
        })
        .collect()
}

/// Normalised hypervolume of a front against the unit reference point.
pub fn normalised_hypervolume(points: &[Vec<f64>], bounds: &[(f64, f64)]) -> Option<f64> {
    let unit = normalise(points, bounds)?;
    Some(hypervolume_matrix(
        &ObjectiveMatrix::from_rows(&unit),
        &vec![1.0; bounds.len()],
    ))
}

/// Relative agreement with an absolute floor.
fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()) + 1e-300
}

/// Every single-interval candidate of `library` against the closed-form
/// solution of its chain; returns the number checked, or the first
/// disagreement.
pub fn check_closed_form(
    graph: &TaskGraph,
    platform: &Platform,
    library: &ImplLibrary,
    config: &TdseConfig,
) -> Result<usize, String> {
    let mut checked = 0;
    for ty in 0..graph.task_types().len() {
        let ty = TaskTypeId::new(ty as u32);
        let task_type = graph.task_type(ty).expect("type in range");
        for c in library.candidates(ty) {
            let imp = &task_type.impls()[c.impl_id.index()];
            let pe_type = platform.pe_type(c.pe_type).expect("PE type present");
            let mode = &pe_type.dvfs_modes()[c.dvfs.index()];
            let spec = chain_spec(
                imp,
                pe_type,
                mode,
                &c.clr,
                &config.profile,
                config.implicit_masking_override,
                config.reliability_model,
            );
            if spec.params.intervals != 1 {
                continue;
            }
            let exact = closed_form::analyze_spec(&spec).map_err(|e| format!("{}: {e}", c.clr))?;
            if !close(exact.avg_exec_time, c.metrics.avg_exec_time, 1e-9)
                || !close(exact.error_prob, c.metrics.error_prob, 1e-9)
            {
                return Err(format!(
                    "{}: closed form ({}, {}) vs library ({}, {})",
                    c.clr,
                    exact.avg_exec_time,
                    exact.error_prob,
                    c.metrics.avg_exec_time,
                    c.metrics.error_prob
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Each (task type, PE type) Pareto choice set must be non-dominated,
/// and every dropped candidate of the group dominated by a kept one.
pub fn check_pareto_sets(
    graph: &TaskGraph,
    platform: &Platform,
    library: &ImplLibrary,
    objectives: &ObjectiveSet,
) -> Result<(), String> {
    for ty in 0..graph.task_types().len() {
        let ty = TaskTypeId::new(ty as u32);
        let cands = library.candidates(ty);
        for pe_ty in 0..platform.pe_types().len() {
            let pe_ty = PeTypeId::new(pe_ty as u32);
            let vector = |i: usize| cands[i].metrics.objective_vector(objectives);
            let kept: Vec<Vec<f64>> = library
                .pareto_choices(ty, pe_ty)
                .iter()
                .map(|&i| vector(i))
                .collect();
            if !mutually_non_dominated(&kept) {
                return Err(format!("type {ty:?} on {pe_ty:?}: Pareto set is dominated"));
            }
            let pareto = library.pareto_choices(ty, pe_ty);
            for &i in library.full_choices(ty, pe_ty) {
                if !pareto.contains(&i) && !kept.iter().any(|k| dominates(k, &vector(i))) {
                    return Err(format!(
                        "type {ty:?} on {pe_ty:?}: dropped candidate {i} is not dominated"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// A seeded sample of transient candidates against Monte-Carlo fault
/// injection: error rate within 4σ (σ floored at 1e-4, plus 2e-4 for the
/// simulator's discretisation) and mean time within 4 standard errors.
pub fn check_monte_carlo(
    graph: &TaskGraph,
    platform: &Platform,
    library: &ImplLibrary,
    config: &TdseConfig,
    seed: u64,
    samples: usize,
    runs: usize,
) -> Result<usize, String> {
    let all: Vec<(TaskTypeId, usize)> = (0..graph.task_types().len())
        .flat_map(|ty| {
            let ty = TaskTypeId::new(ty as u32);
            (0..library.candidates(ty).len()).map(move |i| (ty, i))
        })
        .collect();
    for k in 0..samples {
        let (ty, i) = all[(crate::report::mix(seed, k as u64) % all.len() as u64) as usize];
        let c = library.candidate(ty, i);
        let imp = &graph.task_type(ty).expect("type").impls()[c.impl_id.index()];
        let pe_type = platform.pe_type(c.pe_type).expect("PE type present");
        let mode = &pe_type.dvfs_modes()[c.dvfs.index()];
        let params = chain_params(
            imp,
            pe_type,
            mode,
            &c.clr,
            &config.profile,
            config.implicit_masking_override,
        );
        let sim =
            TaskSimulator::new(params).run(runs, crate::report::mix(seed, 1 << 20 | k as u64));
        let p = c.metrics.error_prob;
        let sigma = (p * (1.0 - p) / runs as f64).sqrt().max(1e-4);
        if (sim.error_rate - p).abs() > 4.0 * sigma + 2e-4 {
            return Err(format!(
                "{}: simulated error {} vs analytic {p}",
                c.clr, sim.error_rate
            ));
        }
        let se = sim.time_std / (runs as f64).sqrt();
        let t = c.metrics.avg_exec_time;
        if (sim.mean_time - t).abs() > 4.0 * se + 1e-9 * t {
            return Err(format!(
                "{}: simulated time {} vs analytic {t}",
                c.clr, sim.mean_time
            ));
        }
    }
    Ok(samples)
}

/// One front point replayed by the application Monte-Carlo simulator:
/// the sampled mean makespan is at least the analytic one (Jensen), and
/// the sampled error rate lies within 4σ of the analytic probability.
pub fn check_app_simulation(
    graph: &TaskGraph,
    platform: &Platform,
    library: &ImplLibrary,
    config: &TdseConfig,
    point: &FrontPoint,
    iterations: usize,
    seed: u64,
) -> Result<(), String> {
    let codec =
        clre::encoding::Codec::new(graph, platform, library, clre::encoding::ChoiceMode::Full)
            .map_err(|e| e.to_string())?;
    let mapping = codec.try_decode(&point.genome).map_err(|e| e.to_string())?;
    let mut params = vec![None; graph.task_count()];
    for gene in &point.genome {
        let ty = graph.tasks()[gene.task.index()].task_type();
        let c = library.candidate(ty, gene.choice as usize);
        let imp = &graph.task_type(ty).expect("type").impls()[c.impl_id.index()];
        let pe_type = platform.pe_type(c.pe_type).expect("PE type present");
        let mode = &pe_type.dvfs_modes()[c.dvfs.index()];
        params[gene.task.index()] = Some(chain_params(
            imp,
            pe_type,
            mode,
            &c.clr,
            &config.profile,
            config.implicit_masking_override,
        ));
    }
    let params = params
        .into_iter()
        .map(|p| p.expect("every task has a gene"))
        .collect();
    let sim = AppSimulator::new(graph, platform, &mapping, params).run(iterations, seed);
    let analytic = point.metrics.makespan;
    // The makespan is bounded by its observed range, so half of that
    // range bounds its standard deviation.
    let slack = 4.0 * 0.5 * (sim.max_makespan - analytic).max(0.0) / (iterations as f64).sqrt();
    if sim.mean_makespan < analytic * (1.0 - 1e-12) - slack {
        return Err(format!(
            "simulated mean makespan {} below analytic {analytic}",
            sim.mean_makespan
        ));
    }
    let p = point.metrics.error_prob;
    let sigma = (p * (1.0 - p) / iterations as f64).sqrt().max(1e-4);
    if (sim.error_rate - p).abs() > 4.0 * sigma + 2e-4 {
        return Err(format!(
            "simulated error rate {} vs analytic {p}",
            sim.error_rate
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clre_moea::hypervolume::hypervolume_2d;

    #[test]
    fn sweep_matches_hand_worked_fronts() {
        // Boxes: (4-1)(4-3) + (4-2)(3-2) + (4-3)(2-1) = 3 + 2 + 1.
        let front = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
        assert_eq!(hypervolume_2d_sweep(&front, [4.0, 4.0]), 6.0);
        // A dominated point and one outside the reference add nothing.
        let mut noisy = front.clone();
        noisy.push(vec![2.5, 2.5]);
        noisy.push(vec![5.0, 0.5]);
        assert_eq!(hypervolume_2d_sweep(&noisy, [4.0, 4.0]), 6.0);
        // A single point is its box.
        assert_eq!(hypervolume_2d_sweep(&[vec![0.5, 0.25]], [1.0, 1.0]), 0.375);
        assert_eq!(hypervolume_2d_sweep(&[], [1.0, 1.0]), 0.0);
        for f in [&front, &noisy] {
            assert_eq!(
                hypervolume_2d_sweep(f, [4.0, 4.0]),
                hypervolume_2d(f, &[4.0, 4.0])
            );
        }
    }

    #[test]
    fn dominance_matches_hand_worked_fronts() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(
            !dominates(&[1.0, 2.0], &[1.0, 2.0]),
            "equal points do not dominate"
        );
        assert!(!dominates(&[1.0, 4.0], &[2.0, 3.0]));
        assert!(mutually_non_dominated(&[
            vec![1.0, 3.0],
            vec![2.0, 2.0],
            vec![3.0, 1.0]
        ]));
        assert!(!mutually_non_dominated(&[
            vec![1.0, 3.0],
            vec![2.0, 2.0],
            vec![2.0, 3.0]
        ]));
        assert!(mutually_non_dominated(&[vec![1.0, 1.0], vec![1.0, 1.0]]));
    }

    #[test]
    fn normalisation_rejects_points_outside_the_box() {
        let bounds = [(0.0, 2.0), (0.0, 4.0)];
        assert_eq!(
            normalise(&[vec![1.0, 1.0]], &bounds),
            Some(vec![vec![0.5, 0.25]])
        );
        assert_eq!(normalise(&[vec![3.0, 1.0]], &bounds), None);
        assert_eq!(
            normalised_hypervolume(&[vec![1.0, 1.0]], &bounds),
            Some(0.375)
        );
    }
}
