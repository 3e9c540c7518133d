//! `serve-mix`: an in-process `clre-serve` server with a worker budget of
//! one, driven by two closed-loop clients (two tenants, one connection
//! each). Each client submits a seeded sequence of rounds mixing
//! campaigns on a warmed application pool (L1 hits, fresh GA seeds),
//! never-seen applications (cold builds, L1 inserts) and exact repeats
//! of its own earlier requests (L2 fitness hits), over the plans `fc`,
//! `pf` and `proposed` under `transient` and `chkmodes`.
//!
//! The clients share no application, so each one's cache traffic is
//! fixed by its own history: the work is the same however the two
//! interleave. The cache is unbounded, so nothing a client looks up again
//! is evicted.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use clre::methodology::{ClrEarly, StageBudget};
use clre::scenario::Scenario;
use clre_serve::client::{Event, ServeClient, Submission};
use clre_serve::server::{build_app, front_digest, ServeConfig, Server};
use clre_serve::wire::{plan_from_arg, AppSpec, SubmitRequest};

use crate::campaigns::{eval_select_s, record_end_to_end, record_trace_layers, Campaign};
use crate::layers::{cold_insert_s, tdse_self_s, warm_library_build_s};
use crate::layers::{
    record_checkpoint_probe, record_eval_probe, record_library_probes, CheckpointProbe, EvalProbe,
    LayerTable, MarkovProbe, TdseProbe,
};
use crate::oracle;
use crate::report::{fold_digests, median, median_or_zero, mix, peak_rss_mb, Metrics};
use crate::trace::TraceLine;
use crate::{Outcome, RunConfig, Scale};

const CLIENTS: usize = 2;

/// Rounds every client completes before the peak resident memory is
/// read: a fixed amount of work, so the figure does not grow with the
/// rounds a fast host fits into the run (the unbounded cache grows by one
/// never-seen library per client and round).
const RSS_ROUNDS: usize = 4;

struct Sizes {
    tasks: usize,
    population: usize,
    generations: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            tasks: 20,
            population: 16,
            generations: 8,
        },
        Scale::Tiny => Sizes {
            tasks: 5,
            population: 6,
            generations: 2,
        },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Pool,
    Cold,
    Repeat,
}

#[derive(Debug, Clone)]
struct Request {
    kind: Kind,
    plan: &'static str,
    submit: SubmitRequest,
}

fn request(
    tenant: &str,
    app: AppSpec,
    plan: &'static str,
    scenario: Scenario,
    seed: u64,
    sz: &Sizes,
) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_owned(),
        app,
        budget: StageBudget::new(sz.population, sz.generations).with_seed(seed),
        plan: plan_from_arg(plan).expect("built-in plan"),
        scenario,
    }
}

/// The client's two pool applications: one searched under `transient`,
/// one under `chkmodes`.
fn pool(seed: u64, client: usize, sz: &Sizes) -> [(AppSpec, Scenario); 2] {
    let app = |k: u64| AppSpec::Synthetic {
        tasks: sz.tasks,
        seed: mix(seed, (2 << 40) | (2 * client as u64 + k)),
    };
    [
        (app(0), Scenario::Transient),
        (app(1), Scenario::CheckpointModes),
    ]
}

/// Round `round` of a client: seven requests, every seed fixed by
/// `--seed`, the client and the round. The never-seen application is
/// searched under `transient`, whose catalog is the smaller one, so the
/// shared cache grows by the same, modest amount every round.
fn round_requests(seed: u64, client: usize, round: usize, sz: &Sizes) -> Vec<Request> {
    let tenant = format!("t{client}");
    let [(a, ta), (b, tb)] = pool(seed, client, sz);
    let ga = |slot: u64| {
        mix(
            seed ^ 0x5E77,
            ((client as u64) << 48) | ((round as u64) << 8) | slot,
        )
    };
    let cold = AppSpec::Synthetic {
        tasks: sz.tasks,
        seed: mix(seed, (3 << 40) | ((client as u64) << 32) | round as u64),
    };
    let pool_req = |app: &AppSpec, plan, scenario, slot| Request {
        kind: Kind::Pool,
        plan,
        submit: request(&tenant, app.clone(), plan, scenario, ga(slot), sz),
    };
    let r0 = pool_req(&a, "fc", ta, 0);
    let r3 = Request {
        kind: Kind::Cold,
        plan: "pf",
        submit: request(&tenant, cold, "pf", Scenario::Transient, ga(3), sz),
    };
    let repeat = |r: &Request| Request {
        kind: Kind::Repeat,
        ..r.clone()
    };
    vec![
        r0.clone(),
        pool_req(&b, "pf", tb, 1),
        repeat(&r0),
        r3.clone(),
        pool_req(&a, "proposed", ta, 4),
        pool_req(&b, "proposed", tb, 5),
        repeat(&r3),
    ]
}

/// One request as its client saw it.
#[derive(Debug, Clone)]
struct Served {
    request: Request,
    client: usize,
    round: usize,
    campaign: Campaign,
    ack_ms: f64,
    bytes: usize,
}

/// Submits one request and tails it to its end on `client`.
fn drive(client: &mut ServeClient, req: &Request) -> Result<(Campaign, f64, usize), String> {
    let t0 = Instant::now();
    match client.submit(&req.submit).map_err(|e| e.to_string())? {
        Submission::Accepted { .. } => {}
        Submission::Rejected { reason, detail } => {
            return Err(format!("rejected: {reason} {detail}"))
        }
    }
    let ack_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut lines = Vec::new();
    let mut bytes = 0;
    loop {
        match client.next_event().map_err(|e| e.to_string())? {
            Event::Trace(line) => {
                let at_s = t0.elapsed().as_secs_f64();
                bytes += line.len();
                if let Some(rec) = TraceLine::parse(&line, at_s) {
                    lines.push(rec);
                }
            }
            Event::Done(summary) => {
                let wall_s = t0.elapsed().as_secs_f64();
                bytes += summary.encode().len();
                let campaign = Campaign {
                    plan: req.plan,
                    wall_s,
                    first_trace_s: lines.first().map_or(wall_s, |l| l.at_s),
                    lines,
                    evaluations: summary.evaluations,
                    digest: summary.digest,
                    front_size: summary.points,
                };
                return Ok((campaign, ack_ms, bytes));
            }
            other => return Err(format!("campaign did not complete: {other:?}")),
        }
    }
}

struct Running {
    addr: String,
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: JoinHandle<()>,
}

impl Running {
    fn start(root: &Path) -> Running {
        let _ = std::fs::remove_dir_all(root);
        let server = Server::bind("127.0.0.1:0", ServeConfig::new(root).with_workers(1))
            .expect("server binds a local port");
        let addr = server.local_addr().expect("local address").to_string();
        let stop = server.stop_flag();
        let thread = std::thread::spawn(move || server.run());
        Running { addr, stop, thread }
    }

    fn stats(&self) -> String {
        let mut client = ServeClient::connect(&self.addr).expect("stats connection");
        client.stats().expect("stats")
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("server thread");
    }
}

/// Warms each client's pool libraries through the server, both clients
/// at once.
fn warm_up(addr: &str, seed: u64, sz: &Sizes) -> Result<(), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || -> Result<(), String> {
                    let mut conn = ServeClient::connect(addr).map_err(|e| e.to_string())?;
                    for (k, (app, scenario)) in pool(seed, client, sz).into_iter().enumerate() {
                        let req = Request {
                            kind: Kind::Pool,
                            plan: "fc",
                            submit: request(
                                &format!("t{client}"),
                                app,
                                "fc",
                                scenario,
                                mix(seed ^ 0xA7, (client * 2 + k) as u64),
                                sz,
                            ),
                        };
                        drive(&mut conn, &req)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up client"))
    })
}

fn stat(stats: &str, key: &str) -> f64 {
    stats
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        .unwrap_or(0.0)
}

const CACHE_KEYS: [&str; 6] = [
    "analysis_hits",
    "analysis_misses",
    "analysis_evictions",
    "fitness_hits",
    "fitness_misses",
    "fitness_evictions",
];

fn cache_counts(stats: &str) -> [f64; 6] {
    CACHE_KEYS.map(|k| stat(stats, &format!("cache.paper.{k}")))
}

/// Runs every distinct served request again in-process, serially and
/// without a cache, and compares digests; returns the number checked and
/// the normalised hypervolume of the first round's fronts. The requests
/// are grouped by application and scenario (one library build each) and
/// the groups split over two threads.
fn verify(served: &[Served]) -> Result<(usize, Vec<f64>), String> {
    let mut groups: BTreeMap<(String, String), Vec<&Served>> = BTreeMap::new();
    for s in served {
        let key = (
            s.request.submit.app.encode(),
            s.request.submit.scenario.name(),
        );
        groups.entry(key).or_default().push(s);
    }
    let groups: Vec<Vec<&Served>> = groups.into_values().collect();
    std::thread::scope(|scope| {
        let halves: Vec<_> = (0..2)
            .map(|half| {
                let groups = &groups;
                scope.spawn(move || {
                    groups
                        .iter()
                        .skip(half)
                        .step_by(2)
                        .map(|group| verify_group(group))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut checked = 0;
        let mut hypervolumes = Vec::new();
        for half in halves {
            for (n, hv) in half.join().expect("verification thread")? {
                checked += n;
                hypervolumes.extend(hv);
            }
        }
        Ok((checked, hypervolumes))
    })
}

/// Verifies the requests of one application and scenario.
fn verify_group(group: &[&Served]) -> Result<(usize, Vec<f64>), String> {
    let first = &group[0].request.submit;
    let (platform, graph) = build_app(&first.app)?;
    let dse =
        ClrEarly::with_scenario(&graph, &platform, &first.scenario).map_err(|e| e.to_string())?;
    let bounds = oracle::objective_box(
        &graph,
        &platform,
        dse.library(),
        &first.scenario.system_objectives(),
    );
    let mut hypervolumes = Vec::new();
    let mut done: BTreeMap<String, u64> = BTreeMap::new();
    for s in group {
        let key = format!("{} {}", s.request.plan, s.request.submit.budget.seed);
        let digest = match done.get(&key) {
            Some(&d) => d,
            None => {
                let front = dse
                    .run(&s.request.submit.plan, &s.request.submit.budget)
                    .map_err(|e| e.to_string())?;
                if s.round == 0 {
                    hypervolumes.push(
                        oracle::normalised_hypervolume(&front.objectives(), &bounds)
                            .ok_or("a front point lies outside the library's box")?,
                    );
                }
                let d = front_digest(&front);
                done.insert(key, d);
                d
            }
        };
        if digest != s.campaign.digest {
            return Err(format!(
                "{}: served digest {:016x}, in-process {digest:016x}",
                s.request.submit.encode(),
                s.campaign.digest
            ));
        }
    }
    Ok((group.len(), hypervolumes))
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let sz = sizes(cfg.scale);
    let mut m = Metrics::default();
    let root = cfg.state_dir.join("serve");

    // Set-up: start the server and warm both clients' pools, repeated;
    // median reported, the last server kept.
    let mut setups = Vec::new();
    let mut running = None;
    for rep in 0..cfg.setup_reps {
        if let Some(previous) = running.take() {
            Running::stop(previous);
        }
        let started = Instant::now();
        let server = Running::start(&root.join(format!("rep{rep}")));
        warm_up(&server.addr, cfg.seed, &sz).expect("warm-up completes");
        setups.push(started.elapsed().as_secs_f64());
        running = Some(server);
    }
    m.set("setup_s", median(&setups));
    let server = running.expect("at least one set-up");
    let warm = cache_counts(&server.stats());

    // Timed phase: each client runs whole rounds until both the time
    // and the campaign floor are met.
    let finished = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let at_rss_rounds = AtomicUsize::new(0);
    let rss_at_rounds = Mutex::new(None);
    let barrier = Barrier::new(CLIENTS);
    let phase = Instant::now();
    let mut served: Vec<Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (addr, finished, failed, barrier, sz) =
                    (&server.addr, &finished, &failed, &barrier, &sz);
                let (at_rss_rounds, rss_at_rounds) = (&at_rss_rounds, &rss_at_rounds);
                scope.spawn(move || {
                    let mut conn = ServeClient::connect(addr).expect("client connects");
                    let mut out = Vec::new();
                    barrier.wait();
                    let mut round = 0;
                    loop {
                        for req in round_requests(cfg.seed, client, round, sz) {
                            match drive(&mut conn, &req) {
                                Ok((campaign, ack_ms, bytes)) => {
                                    finished.fetch_add(1, Ordering::SeqCst);
                                    out.push(Served {
                                        request: req,
                                        client,
                                        round,
                                        campaign,
                                        ack_ms,
                                        bytes,
                                    });
                                }
                                Err(e) => {
                                    eprintln!("serve-mix: client {client}: {e}");
                                    failed.fetch_add(1, Ordering::SeqCst);
                                    conn = ServeClient::connect(addr).expect("client reconnects");
                                }
                            }
                        }
                        round += 1;
                        if round == RSS_ROUNDS
                            && at_rss_rounds.fetch_add(1, Ordering::SeqCst) + 1 == CLIENTS
                        {
                            *rss_at_rounds.lock().expect("rss slot") = Some(peak_rss_mb());
                        }
                        let elapsed = phase.elapsed().as_secs_f64();
                        if cfg.phase_done(elapsed, finished.load(Ordering::SeqCst)) {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let timed_wall_s = phase.elapsed().as_secs_f64();
    let rss = rss_at_rounds
        .into_inner()
        .expect("rss slot")
        .unwrap_or_else(peak_rss_mb);
    let end = cache_counts(&server.stats());
    server.stop();
    served.sort_by_key(|s| (s.client, s.round));

    let rounds: Vec<usize> = (0..CLIENTS)
        .map(|c| {
            served
                .iter()
                .filter(|s| s.client == c)
                .map(|s| s.round + 1)
                .max()
                .unwrap_or(0)
        })
        .collect();
    for s in served.chunk_by(|a, b| (a.client, a.round) == (b.client, b.round)) {
        println!(
            "work serve-mix client={} round={} evaluations={} front_points={} digest={:016x}",
            s[0].client,
            s[0].round,
            s.iter().map(|x| x.campaign.evaluations).sum::<usize>(),
            s.iter().map(|x| x.campaign.front_size).sum::<usize>(),
            fold_digests(s.iter().map(|x| x.campaign.digest)),
        );
    }
    let delta: Vec<f64> = end.iter().zip(&warm).map(|(e, w)| e - w).collect();
    println!(
        "work serve-mix cache warm {} after rounds={rounds:?} {}",
        CACHE_KEYS
            .iter()
            .zip(&warm)
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" "),
        CACHE_KEYS
            .iter()
            .zip(&delta)
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" "),
    );

    let mut errors = Vec::new();
    let hypervolumes = match verify(&served) {
        Ok((checked, hv)) => {
            println!("oracle serve-mix digests_checked={checked}");
            hv
        }
        Err(e) => {
            errors.push(e);
            Vec::new()
        }
    };
    let campaigns: Vec<Campaign> = served.iter().map(|s| s.campaign.clone()).collect();

    if cfg.trace {
        let ratio = |h: f64, miss: f64| if h + miss > 0.0 { h / (h + miss) } else { 0.0 };
        m.set("cache.analysis_hits", delta[0]);
        m.set("cache.analysis_misses", delta[1]);
        m.set("cache.analysis_hit_ratio", ratio(delta[0], delta[1]));
        m.set("cache.fitness_hits", delta[3]);
        m.set("cache.fitness_misses", delta[4]);
        m.set("cache.fitness_hit_ratio", ratio(delta[3], delta[4]));
        m.set("cache.evictions", delta[2] + delta[5]);
        record_trace_layers(&mut m, &campaigns);
        let acks: Vec<f64> = served.iter().map(|s| s.ack_ms).collect();
        m.set("serve.submit_ack_ms.p50", median_or_zero(&acks));
        m.set(
            "serve.trace_lines",
            campaigns.iter().map(|c| c.lines.len()).sum::<usize>() as f64,
        );
        m.set(
            "serve.bytes_streamed",
            served.iter().map(|s| s.bytes).sum::<usize>() as f64,
        );

        // Library probes on the first round's cold applications.
        let mut markov = MarkovProbe::default();
        let mut tdse = Vec::new();
        for s in served
            .iter()
            .filter(|s| s.round == 0 && s.request.kind == Kind::Cold)
        {
            let (platform, graph) = build_app(&s.request.submit.app).expect("app builds");
            let config = s
                .request
                .submit
                .scenario
                .tdse_config()
                .expect("built-in scenario");
            markov.replay(&graph, &platform, &config);
            tdse.push(TdseProbe::replay(&graph, &platform, &config));
        }
        record_library_probes(&mut m, &markov, &tdse);
        let [(app, scenario), _] = pool(cfg.seed, 0, &sz);
        let (platform, graph) = build_app(&app).expect("app builds");
        let dse = ClrEarly::with_scenario(&graph, &platform, &scenario).expect("tDSE succeeds");
        let mut eval = EvalProbe::default();
        eval.replay(
            &graph,
            &platform,
            dse.library(),
            256,
            mix(cfg.seed, 1 << 51),
        );
        record_eval_probe(&mut m, &eval);
        let budget = StageBudget::new(sz.population, sz.generations).with_seed(1);
        let plan = plan_from_arg("proposed").expect("built-in plan");
        let checkpoint = CheckpointProbe::measure(
            &dse,
            &plan,
            &budget,
            &cfg.state_dir.join("checkpoint-probe"),
        );
        record_checkpoint_probe(&mut m, &checkpoint);

        // Cold requests build their library from scratch; the probes
        // give the mean markov and tdse cost of one such build. The
        // server checkpoints once per generation line.
        let cold = served
            .iter()
            .filter(|s| s.request.kind == Kind::Cold)
            .count() as f64;
        let builds = tdse.len().max(1) as f64;
        let markov_s = markov.analyze_s / builds;
        let tdse_s = tdse_self_s(&markov, &tdse) / builds;
        let (eval_s, select_s) = eval_select_s(&campaigns);
        let lines = campaigns.iter().map(|c| c.lines.len()).sum::<usize>() as f64;
        // Every request but a cold one rebuilds its library from the warm
        // cache.
        let mut warm_s = BTreeMap::new();
        for (app, scenario) in pool(cfg.seed, 0, &sz) {
            let (platform, graph) = build_app(&app).expect("app builds");
            let config = scenario.tdse_config().expect("built-in scenario");
            warm_s.insert(
                scenario.name(),
                warm_library_build_s(&graph, &platform, &config),
            );
        }
        // Cold requests insert (and journal) their library's analyses.
        let mut insert_s = Vec::new();
        for s in served
            .iter()
            .filter(|s| s.round == 0 && s.request.kind == Kind::Cold)
        {
            let (platform, graph) = build_app(&s.request.submit.app).expect("app builds");
            let config = s
                .request
                .submit
                .scenario
                .tdse_config()
                .expect("built-in scenario");
            insert_s.push(cold_insert_s(
                &graph,
                &platform,
                &config,
                &cfg.state_dir.join("journal-probe"),
            ));
        }
        let insert_s = insert_s.iter().sum::<f64>() / insert_s.len().max(1) as f64;
        let cache_s: f64 = served
            .iter()
            .map(|s| match s.request.kind {
                Kind::Cold => insert_s,
                _ => warm_s[&s.request.submit.scenario.name()],
            })
            .sum();
        let table = LayerTable {
            ops: campaigns.len(),
            wall_s: campaigns.iter().map(|c| c.wall_s).sum(),
            markov_s: cold * markov_s,
            tdse_s: cold * tdse_s,
            eval_s,
            select_s,
            checkpoint_s: lines * checkpoint.save_us / 1e6,
            cache_s,
        };
        // The traced run's timed phase is the untraced one: every probe
        // runs after it, and the client reads the same stream either way.
        table.print(
            "serve-mix",
            table.wall_s * 1e3 / table.ops.max(1) as f64,
            0.0,
        );
        table.record(&mut m);
        m.set("trace.overhead_pct", 0.0);
    } else {
        record_end_to_end(&mut m, &campaigns, timed_wall_s);
        m.set(
            "hypervolume",
            hypervolumes.iter().sum::<f64>() / hypervolumes.len().max(1) as f64,
        );
        m.set("peak_rss_mb", rss);
    }
    let _ = std::fs::remove_dir_all(&root);
    for e in &errors {
        eprintln!("serve-mix: {e}");
    }
    Outcome {
        correct: errors.is_empty(),
        attempted: (served.len() + failed.load(Ordering::SeqCst)) as u64,
        failed: failed.load(Ordering::SeqCst) as u64,
        metrics: m,
    }
}
