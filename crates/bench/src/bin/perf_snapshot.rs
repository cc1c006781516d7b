//! Records the performance baseline consumed by future PRs: engine
//! throughput (tasks simulated per second on the 30-site trace workload),
//! the WAN flow simulator's churn micro-benchmark ([`tetrium_bench::churn`]),
//! the scheduling-instance latency of the recurring dashboard stream with
//! the template plan cache off vs on (DESIGN.md §11), and, when a prior
//! `all_figures` run left `target/experiments/harness_wallclock.json`
//! behind, the harness wall-clock. Writes `benchmarks/perf_baseline.json`
//! (committed to the repo).
//!
//! Usage: `cargo run --release --bin perf_snapshot` (run `all_figures`
//! first to include the harness wall-clock).
//!
//! `--check` compares the measured median against the committed baseline
//! instead of overwriting it, and exits non-zero when the engine (with the
//! no-op obs sink — `record_obs` stays false here) regressed by more than
//! the tolerance. CI runs this to enforce the obs-off overhead contract
//! (DESIGN.md §8).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tetrium::cluster::ec2_thirty_instances;
use tetrium::core::{PlanCacheMode, TetriumConfig};
use tetrium::{run_workload, SchedulerKind};
use tetrium_bench::churn::run_flowsim_churn;
use tetrium_sim::EngineConfig;
use tetrium_workload::ingest::{
    parse_trace_str, scenario_from_trace, trace_from_jobs, validate, TraceProfile, ValidatorConfig,
};
use tetrium_workload::{recurring_dashboard_jobs, trace_like_jobs, RecurringParams, TraceParams};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    // The perf gate must never time auditor overhead: refuse to measure a
    // build carrying the `audit` feature (DESIGN.md §10).
    assert!(
        !tetrium_sim::audit_enabled() || !check,
        "perf_snapshot --check refuses to run with the `audit` feature \
         enabled; rebuild without it"
    );
    let cluster = ec2_thirty_instances();
    let params = TraceParams {
        median_input_gb: 10.0,
        mean_interarrival_secs: 30.0,
        mean_task_secs: 5.0,
        tasks_per_gb: 4.0,
        max_tasks: 150,
        ..TraceParams::default()
    };
    let mut rng = StdRng::seed_from_u64(30);
    let jobs = trace_like_jobs(&cluster, 8, &params, &mut rng);
    let total_tasks: usize = jobs.iter().map(|j| j.total_tasks()).sum();

    // Median of several full runs: robust to one-off scheduling noise.
    let mut secs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            run_workload(
                cluster.clone(),
                jobs.clone(),
                SchedulerKind::Tetrium,
                EngineConfig::trace_like(30),
            )
            .expect("completes");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.total_cmp(b));
    let median = secs[secs.len() / 2];
    let tasks_per_sec = total_tasks as f64 / median;
    println!(
        "engine_throughput: {total_tasks} tasks in {median:.3} s -> {tasks_per_sec:.0} tasks/s"
    );

    let (churn_events, churn_median) = flowsim_churn_median();
    let churn_events_per_sec = churn_events as f64 / churn_median;
    println!(
        "flowsim_churn: {churn_events} events in {churn_median:.3} s -> {churn_events_per_sec:.0} events/s"
    );

    let resilience_median = resilience_sweep_median();
    println!("resilience_sweep: 6 clean/degraded runs in {resilience_median:.3} s");

    let (sched_cold, sched_cached) = sched_latency_medians();
    let sched_speedup = sched_cold / sched_cached.max(1e-12);
    println!(
        "sched_latency: cold {:.1} us vs cached {:.1} us per planning instance -> {sched_speedup:.1}x",
        sched_cold * 1e6,
        sched_cached * 1e6
    );

    let (serve_jobs, serve_median) = serve_throughput_median();
    let serve_jobs_per_sec = serve_jobs as f64 / serve_median;
    println!(
        "serve_throughput: {serve_jobs} jobs in {serve_median:.3} s -> {serve_jobs_per_sec:.1} jobs/s"
    );

    let (solver_sparse, solver_dense) = solver_time_medians();
    let solver_speedup = solver_dense / solver_sparse.max(1e-12);
    println!(
        "solver_time: sparse {:.2} ms vs dense {:.2} ms per 100-site map LP -> {solver_speedup:.1}x",
        solver_sparse * 1e3,
        solver_dense * 1e3
    );

    let (ingest_rows, ingest_median) = trace_ingest_median();
    let ingest_rows_per_sec = ingest_rows as f64 / ingest_median;
    println!(
        "trace_ingest: {ingest_rows} rows in {ingest_median:.3} s -> {ingest_rows_per_sec:.0} rows/s"
    );

    if check {
        check_against_baseline(
            median,
            churn_median,
            resilience_median,
            serve_median,
            ingest_median,
            sched_speedup,
            solver_speedup,
        );
        return;
    }

    let mut snapshot = serde_json::json!({
        "engine_throughput": {
            "workload": "trace-30-sites",
            "jobs": jobs.len(),
            "tasks": total_tasks,
            "median_run_secs": median,
            "tasks_per_sec": tasks_per_sec,
        },
        "flowsim_churn": {
            "workload": "churn-30-sites",
            "events": churn_events,
            "median_run_secs": churn_median,
            "events_per_sec": churn_events_per_sec,
        },
        "resilience_sweep": {
            "workload": "drop-30-sites",
            "runs": 6,
            "median_run_secs": resilience_median,
        },
        "sched_latency": {
            "workload": "recurring-dashboard-30-sites",
            "instances": 40,
            "cold_median_secs": sched_cold,
            "cached_median_secs": sched_cached,
            "speedup": sched_speedup,
        },
        "serve_throughput": {
            "workload": "serve-trace-30-sites",
            "shards": 2,
            "jobs": serve_jobs,
            "median_run_secs": serve_median,
            "jobs_per_sec": serve_jobs_per_sec,
        },
        "solver_time": {
            "workload": "map-lp-100-sites",
            "sparse_median_secs": solver_sparse,
            "dense_median_secs": solver_dense,
            "speedup": solver_speedup,
        },
        "trace_ingest": {
            "workload": "trace-file-30-sites",
            "rows": ingest_rows,
            "median_run_secs": ingest_median,
            "rows_per_sec": ingest_rows_per_sec,
        },
    });
    match std::fs::read_to_string("target/experiments/harness_wallclock.json") {
        Ok(body) => match serde_json::from_str::<serde_json::Value>(&body) {
            Ok(wallclock) => snapshot["all_figures"] = wallclock,
            Err(e) => eprintln!("warning: unreadable harness_wallclock.json: {e}"),
        },
        Err(_) => eprintln!(
            "note: no target/experiments/harness_wallclock.json; run all_figures first \
             to include the harness wall-clock"
        ),
    }

    std::fs::create_dir_all("benchmarks").expect("create benchmarks/");
    let path = "benchmarks/perf_baseline.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&snapshot).expect("serializable"),
    )
    .expect("write baseline");
    println!("baseline written to {path}");
}

/// Median wall time of the `FlowSim` churn workload, plus the per-run
/// event count.
fn flowsim_churn_median() -> (usize, f64) {
    let events = run_flowsim_churn(30, 2_000, 7);
    let mut secs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            run_flowsim_churn(30, 2_000, 7);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.total_cmp(b));
    (events, secs[secs.len() / 2])
}

/// Median wall time of the mid-run-dynamics resilience sweep (the same
/// core `tests/resilience.rs` and the `resilience` figure run): three
/// schedulers × {clean, degraded} on the 30-site trace workload. Guards
/// the dynamics event path's overhead in the engine hot loop.
fn resilience_sweep_median() -> f64 {
    use tetrium_bench::figs::resilience::{half_drop_at_biggest_site, sweep};
    let cluster = ec2_thirty_instances();
    let params = TraceParams {
        median_input_gb: 10.0,
        mean_interarrival_secs: 30.0,
        mean_task_secs: 5.0,
        tasks_per_gb: 4.0,
        max_tasks: 150,
        ..TraceParams::default()
    };
    let mut rng = StdRng::seed_from_u64(31);
    let jobs = trace_like_jobs(&cluster, 6, &params, &mut rng);
    let timeline = half_drop_at_biggest_site(&cluster, 60.0);
    let mut secs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            sweep(1, &cluster, &jobs, &timeline, 31);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.total_cmp(b));
    secs[secs.len() / 2]
}

/// Median wall-clock seconds of one *solving* scheduling instance on the
/// recurring dashboard stream, with the template plan cache off vs on
/// (`--plan-cache full`). A solving instance is one whose `PlannerRecord`
/// shows template-cache activity (any of the `tmpl_*` counters — the
/// scheduler counts cold solves symmetrically in every mode); instances
/// that plan nothing or merely replay a per-stage cached plan are the same
/// cheap bookkeeping in both modes and would drown the signal. Returns
/// `(cold, cached)` — each the median of three runs' per-instance medians.
/// The ratio guards the tentpole of DESIGN.md §11: recurring instances
/// should hit the template cache and skip the LP solve entirely.
fn sched_latency_medians() -> (f64, f64) {
    let cluster = ec2_thirty_instances();
    let one_run = |mode: PlanCacheMode| -> f64 {
        // Same seed for both modes: identical job stream, so the two
        // medians time the same planning work modulo the cache. The phase
        // step matches the stream's own period (120 s of an 86400 s day);
        // the default 0.02 would mean half-hour gaps between instances.
        let params = RecurringParams {
            phase_step: 1.0 / 720.0,
            ..RecurringParams::default()
        };
        let mut rng = StdRng::seed_from_u64(42);
        let jobs = recurring_dashboard_jobs(&cluster, 40, &params, &mut rng);
        let cfg = TetriumConfig {
            plan_cache: mode,
            ..TetriumConfig::default()
        };
        let report = run_workload(
            cluster.clone(),
            jobs,
            SchedulerKind::TetriumWith(cfg),
            EngineConfig {
                record_obs: true,
                ..EngineConfig::default()
            },
        )
        .expect("completes");
        let obs = report.obs.expect("record_obs captures a report");
        // The Tetrium scheduler emits exactly one PlannerRecord per
        // scheduling instance, so the two streams are index-aligned.
        assert_eq!(obs.sched.len(), obs.planner.len(), "records misaligned");
        let mut w: Vec<f64> = obs
            .sched
            .iter()
            .zip(&obs.planner)
            .inspect(|(s, p)| assert_eq!(s.at, p.at, "records misaligned"))
            .filter(|(_, p)| p.tmpl_exact + p.tmpl_patched + p.tmpl_miss > 0)
            .map(|(s, _)| s.wall_secs)
            .collect();
        assert!(!w.is_empty(), "no planning instances recorded");
        w.sort_by(|a, b| a.total_cmp(b));
        w[w.len() / 2]
    };
    let median3 = |mode: PlanCacheMode| -> f64 {
        let mut m: Vec<f64> = (0..3).map(|_| one_run(mode)).collect();
        m.sort_by(|a, b| a.total_cmp(b));
        m[1]
    };
    (median3(PlanCacheMode::Off), median3(PlanCacheMode::Full))
}

/// Median wall time of a full service run through the `tetrium-serve`
/// front end: build a runtime, start a 2-shard service, stream the 30-site
/// trace workload through `submit`, and `join` (which drains the backlog).
/// Times the whole submit→simulate→merge path, so it guards both the
/// vendored async machinery and the engine's resumable driving mode.
/// Returns `(jobs, median_secs)`.
fn serve_throughput_median() -> (usize, f64) {
    let cluster = ec2_thirty_instances();
    let params = TraceParams {
        median_input_gb: 10.0,
        mean_interarrival_secs: 30.0,
        mean_task_secs: 5.0,
        tasks_per_gb: 4.0,
        max_tasks: 150,
        ..TraceParams::default()
    };
    let mut rng = StdRng::seed_from_u64(33);
    let jobs = trace_like_jobs(&cluster, 8, &params, &mut rng);
    let n_jobs = jobs.len();
    let cfg = tetrium_serve::ServeConfig {
        shards: 2,
        engine: EngineConfig::trace_like(33),
        ..tetrium_serve::ServeConfig::default()
    };
    let mut secs: Vec<f64> = (0..5)
        .map(|_| {
            let rt = tokio::runtime::Builder::new_multi_thread()
                .worker_threads(4)
                .enable_all()
                .build()
                .expect("build runtime");
            let jobs = jobs.clone();
            let cluster = cluster.clone();
            let cfg = cfg.clone();
            let t0 = Instant::now();
            rt.block_on(async move {
                let svc = tetrium_serve::TetriumService::start(&cluster, &cfg);
                for job in jobs {
                    svc.submit(job).await.expect("submit accepted");
                }
                let report = svc.join().await.expect("service run completes");
                assert_eq!(report.total_jobs(), n_jobs, "service dropped jobs");
            });
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.total_cmp(b));
    (n_jobs, secs[secs.len() / 2])
}

/// Compares measured medians against the committed baseline without
/// rewriting it. Fails (exit 1) when any measured time exceeds its baseline
/// by more than the tolerance — 2% by default, overridable through
/// `TETRIUM_PERF_TOLERANCE` (a ratio, e.g. `0.10`) for noisy CI machines.
/// Median per-instance solve latency of the sparse revised simplex vs the
/// dense tableau oracle on the 100-site map-placement LP
/// ([`tetrium_bench::map_like_lp`]). Guards the
/// tentpole of DESIGN.md §13: the sparse substrate must hold a ≥5x
/// per-instance advantage at 100 sites and beyond.
fn solver_time_medians() -> (f64, f64) {
    let lp = tetrium_bench::map_like_lp(100);
    let time = |runs: usize, f: &dyn Fn()| -> f64 {
        let mut secs: Vec<f64> = (0..runs)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(|a, b| a.total_cmp(b));
        secs[secs.len() / 2]
    };
    let sparse = time(9, &|| {
        lp.solve().expect("sparse solve succeeds");
    });
    let dense = time(3, &|| {
        lp.solve_dense().expect("dense solve succeeds");
    });
    (sparse, dense)
}

/// Median wall time of the full trace-ingestion path — parse the on-disk
/// JSON rendering, run the complete validation gate (drift included,
/// against the trace's own profile), and convert to a scenario — on a
/// 60-job trace over 30 sites. Guards the ingestion gate's overhead: the
/// gate runs on every `run --trace` before the engine sees a single job.
/// Returns `(rows, median_secs)`.
fn trace_ingest_median() -> (usize, f64) {
    let cluster = ec2_thirty_instances();
    let params = TraceParams {
        median_input_gb: 10.0,
        mean_interarrival_secs: 30.0,
        mean_task_secs: 5.0,
        tasks_per_gb: 4.0,
        max_tasks: 150,
        ..TraceParams::default()
    };
    let mut rng = StdRng::seed_from_u64(35);
    let jobs = trace_like_jobs(&cluster, 60, &params, &mut rng);
    let n_jobs = jobs.len();
    let body = trace_from_jobs(&jobs, cluster.len(), "perf-snapshot").to_json();
    let rows = parse_trace_str(&body)
        .expect("exported trace parses")
        .rows
        .len();
    let mut secs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let trace = parse_trace_str(&body).expect("exported trace parses");
            let cfg = ValidatorConfig {
                profile: TraceProfile::from_trace(&trace),
                ..ValidatorConfig::default()
            };
            validate(&trace, &cfg).expect("exported trace passes the gate");
            let scenario =
                scenario_from_trace(&trace, cluster.clone(), &cfg).expect("trace converts");
            assert_eq!(scenario.jobs.len(), n_jobs, "ingestion dropped jobs");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.total_cmp(b));
    (rows, secs[secs.len() / 2])
}

fn check_against_baseline(
    median: f64,
    churn_median: f64,
    resilience_median: f64,
    serve_median: f64,
    ingest_median: f64,
    sched_speedup: f64,
    solver_speedup: f64,
) {
    let path = "benchmarks/perf_baseline.json";
    let body =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--check requires {path}: {e}"));
    let baseline: serde_json::Value = serde_json::from_str(&body).expect("valid baseline JSON");
    let tolerance = std::env::var("TETRIUM_PERF_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.02);
    let mut failed = false;
    for (name, measured) in [
        ("engine_throughput", median),
        ("flowsim_churn", churn_median),
        ("resilience_sweep", resilience_median),
        ("serve_throughput", serve_median),
        ("trace_ingest", ingest_median),
    ] {
        let Some(base) = baseline[name]["median_run_secs"].as_f64() else {
            println!("perf check: no {name}.median_run_secs in baseline, skipping");
            continue;
        };
        let ratio = measured / base;
        println!(
            "perf check [{name}]: measured {measured:.4} s vs baseline {base:.4} s \
             (ratio {ratio:.3}, tolerance {:.0}%)",
            tolerance * 100.0
        );
        if ratio > 1.0 + tolerance {
            eprintln!("FAIL: {name} regressed beyond tolerance");
            failed = true;
        }
    }
    // The plan-cache speedup is a ratio of two medians measured back to
    // back on the same machine, so it resists absolute-speed noise; the
    // floor sits below the recorded baseline ratio to absorb what little
    // noise remains.
    let floor = 8.0;
    println!("perf check [sched_latency]: cached speedup {sched_speedup:.1}x (floor {floor:.0}x)");
    if sched_speedup < floor {
        eprintln!("FAIL: plan-cache scheduling speedup fell below {floor:.0}x");
        failed = true;
    }
    // Same reasoning: the sparse/dense ratio is measured back to back, so
    // the floor guards the ISSUE 8 acceptance bar (≥5x at 100 sites)
    // directly rather than an absolute latency.
    let solver_floor = 5.0;
    println!(
        "perf check [solver_time]: sparse/dense speedup {solver_speedup:.1}x \
         (floor {solver_floor:.0}x)"
    );
    if solver_speedup < solver_floor {
        eprintln!("FAIL: sparse solver speedup over dense fell below {solver_floor:.0}x");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK: within tolerance");
}
