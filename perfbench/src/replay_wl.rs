//! The `trace_replay` workload: the real-trace path. A 120-job
//! `tetrium-trace/v1` JSON file is parsed, validated and converted, then
//! streamed by one submitter into an open 2-shard `tetrium-serve` service
//! on a 2-worker runtime, while the main thread subscribes to lifecycle
//! events.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::cluster::{ec2_thirty_instances, Cluster};
use tetrium::jobs::Job;
use tetrium::sim::EngineConfig;
use tetrium::workload::ingest::{
    parse_trace_str, scenario_from_trace, trace_from_jobs, validate, TraceProfile, ValidatorConfig,
};
use tetrium::workload::{trace_like_jobs, TraceParams};
use tetrium_serve::{JobEvent, ServeConfig, ServeReport, TetriumService};
use tokio::sync::broadcast::error::RecvError;

use crate::calib::Calibration;
use crate::clock::{self, Stamp};
use crate::engine_wl::trace_params;
use crate::out::{peak_rss_mb, Outcome};
use crate::spans::SpanLog;
use crate::stats::{med, median, tail};
use crate::{CAL_PASSES, MIN_REPS};

/// Jobs in the replayed trace.
pub const JOBS: usize = 120;
/// Engine shards of the service.
pub const SHARDS: usize = 2;
/// Runtime worker threads (one per shard).
pub const WORKERS: usize = 2;

/// Generator seed of the replayed trace's jobs.
pub const TRACE_JOBS_SEED: u64 = 36;

/// Generator parameters of the replayed trace: the `trace30` shapes with
/// fewer, larger tasks (about 10k tasks in a 336 KB file).
pub fn replay_params() -> TraceParams {
    TraceParams {
        tasks_per_gb: 1.5,
        max_tasks: 100,
        ..trace_params()
    }
}

/// The trace file, rendered as the JSON a user would hand in.
pub fn trace_body(cluster: &Cluster) -> String {
    let mut rng = StdRng::seed_from_u64(TRACE_JOBS_SEED);
    let jobs = trace_like_jobs(cluster, JOBS, &replay_params(), &mut rng);
    trace_from_jobs(&jobs, cluster.len(), "perfbench-trace-replay").to_json()
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        engine: EngineConfig::trace_like(seed),
        ..ServeConfig::default()
    }
}

/// What the subscriber and the submitter saw during one service run.
#[derive(Debug, Default)]
struct Seen {
    submitted: BTreeMap<usize, Stamp>,
    admitted: BTreeMap<usize, Stamp>,
    finished: BTreeMap<usize, usize>,
    shard_wan: BTreeMap<usize, f64>,
    shard_done: Vec<Stamp>,
    lagged: u64,
}

impl Seen {
    fn observe(&mut self, ev: Result<JobEvent, RecvError>) {
        let now = clock::now();
        match ev {
            Ok(JobEvent::Admitted { job, .. }) => {
                self.admitted.entry(job.0).or_insert(now);
            }
            Ok(JobEvent::Finished {
                shard, job, wan_gb, ..
            }) => {
                *self.finished.entry(job.0).or_insert(0) += 1;
                *self.shard_wan.entry(shard).or_insert(0.0) += wan_gb;
            }
            Ok(JobEvent::ShardDone { .. }) => self.shard_done.push(now),
            Ok(JobEvent::Task { .. } | JobEvent::Idle { .. }) | Err(RecvError::Closed) => {}
            Err(RecvError::Lagged(n)) => self.lagged += n,
        }
    }

    /// Host seconds from each job's `submit` call to its `Admitted` event.
    fn admit_secs(&self) -> Vec<f64> {
        self.admitted
            .iter()
            .filter_map(|(job, &a)| self.submitted.get(job).map(|&s| clock::secs_between(s, a)))
            .collect()
    }
}

/// One repetition's numbers.
#[derive(Debug, Default)]
struct Rep {
    setup_s: f64,
    parse_s: f64,
    validate_s: f64,
    convert_s: f64,
    serve_s: f64,
    rows: usize,
    bytes: usize,
    jobs: usize,
    tasks: usize,
    admit_s: Vec<f64>,
    avg_response: f64,
    wan_gb: f64,
    shard_jobs: Vec<usize>,
    finish_spread_s: f64,
    lagged: u64,
}

fn enter(log: &mut Option<SpanLog>, name: &'static str) -> Option<usize> {
    log.as_mut().map(|l| l.enter(name))
}

fn exit(log: &mut Option<SpanLog>, id: Option<usize>) {
    if let (Some(l), Some(id)) = (log.as_mut(), id) {
        l.exit(id);
    }
}

/// One repetition: set up, ingest, serve, check. Failed jobs are counted
/// into `out`.
fn rep(seed: u64, out: &mut Outcome, log: &mut Option<SpanLog>) -> Option<Rep> {
    let root = enter(log, "rep");
    let setup = enter(log, "setup");
    let t0 = clock::now();
    let cluster = ec2_thirty_instances();
    let body = trace_body(&cluster);
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(WORKERS)
        .enable_all()
        .build();
    let mut r = Rep {
        setup_s: clock::secs_since(t0),
        bytes: body.len(),
        ..Rep::default()
    };
    exit(log, setup);
    let rt = match rt {
        Ok(rt) => rt,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("cannot build the runtime: {e}"));
            exit(log, root);
            return None;
        }
    };

    let span = enter(log, "workload.parse");
    let t = clock::now();
    let trace = parse_trace_str(&body);
    r.parse_s = clock::secs_since(t);
    exit(log, span);
    let span = enter(log, "workload.validate");
    let t = clock::now();
    let checked = trace.map_err(|e| e.to_string()).and_then(|trace| {
        let cfg = ValidatorConfig {
            profile: TraceProfile::from_trace(&trace),
            ..ValidatorConfig::default()
        };
        validate(&trace, &cfg)
            .map(|()| (trace, cfg))
            .map_err(|report| format!("trace rejected:\n{report}"))
    });
    r.validate_s = clock::secs_since(t);
    exit(log, span);
    let span = enter(log, "workload.convert");
    let t = clock::now();
    let scenario = checked.and_then(|(trace, cfg)| {
        r.rows = trace.rows.len();
        scenario_from_trace(&trace, cluster.clone(), &cfg).map_err(|e| e.to_string())
    });
    r.convert_s = clock::secs_since(t);
    exit(log, span);
    let jobs = match scenario {
        Ok(s) => s.jobs,
        Err(e) => {
            out.attempted += JOBS as u64;
            out.failed += JOBS as u64;
            out.notes.push(format!("FAILED: ingest: {e}"));
            exit(log, root);
            return None;
        }
    };
    r.jobs = jobs.len();
    r.tasks = jobs.iter().map(Job::total_tasks).sum();
    out.attempted += jobs.len() as u64;

    let t_serve = clock::now();
    let cfg = serve_config(seed);
    let (seen, report) = rt.block_on(stream(&cluster, &cfg, jobs, log));
    r.serve_s = clock::secs_since(t_serve);
    let check = enter(log, "check");
    check_run(&seen, report.as_ref(), r.jobs, out);
    exit(log, check);
    exit(log, root);
    drop(rt);

    let report = report.ok()?;
    r.admit_s = seen.admit_secs();
    r.avg_response = report.avg_response();
    r.wan_gb = report.total_wan_gb();
    r.shard_jobs = report.shards.iter().map(|s| s.report.jobs.len()).collect();
    r.finish_spread_s = match (seen.shard_done.first(), seen.shard_done.last()) {
        (Some(&a), Some(&b)) => clock::secs_between(a, b),
        _ => 0.0,
    };
    r.lagged = seen.lagged;
    Some(r)
}

/// Starts the service, submits every job while draining events, then joins
/// while the subscriber keeps receiving until the event channel closes.
async fn stream(
    cluster: &Cluster,
    cfg: &ServeConfig,
    jobs: Vec<Job>,
    log: &mut Option<SpanLog>,
) -> (Seen, Result<ServeReport, String>) {
    let mut seen = Seen::default();
    let span = enter(log, "serve.start");
    let svc = TetriumService::start(cluster, cfg);
    let mut rx = svc.subscribe();
    exit(log, span);
    for job in jobs {
        let id = job.id.0;
        let span = enter(log, "serve.submit");
        seen.submitted.insert(id, clock::now());
        let res = svc.submit(job).await;
        exit(log, span);
        if let Err(e) = res {
            return (seen, Err(format!("submit of job {id} failed: {e}")));
        }
        while let Some(ev) = try_event(&mut rx) {
            seen.observe(ev);
        }
    }
    let span = enter(log, "serve.join");
    let join = tokio::spawn(svc.join());
    loop {
        match rx.recv().await {
            Err(RecvError::Closed) => break,
            ev => seen.observe(ev),
        }
    }
    let report = match join.await {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(format!("service run failed: {e}")),
        Err(e) => Err(format!("join task lost: {e:?}")),
    };
    exit(log, span);
    (seen, report)
}

fn try_event(
    rx: &mut tokio::sync::broadcast::Receiver<JobEvent>,
) -> Option<Result<JobEvent, RecvError>> {
    use tokio::sync::broadcast::error::TryRecvError;
    match rx.try_recv() {
        Ok(ev) => Some(Ok(ev)),
        Err(TryRecvError::Lagged(n)) => Some(Err(RecvError::Lagged(n))),
        Err(TryRecvError::Empty | TryRecvError::Closed) => None,
    }
}

/// Output checks: exactly one `Finished` event per job, and per-shard WAN
/// from those events equal to each shard's report, which sum to the
/// service total. A job failing a check is a failed operation.
fn check_run(seen: &Seen, report: Result<&ServeReport, &String>, jobs: usize, out: &mut Outcome) {
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            out.failed += jobs as u64;
            out.notes.push(format!("FAILED: {e}"));
            return;
        }
    };
    let bad_jobs = (0..jobs)
        .filter(|j| seen.finished.get(j) != Some(&1) || !seen.admitted.contains_key(j))
        .count();
    if bad_jobs > 0 {
        out.failed += bad_jobs as u64;
        out.notes.push(format!(
            "FAILED: {bad_jobs} jobs without exactly one Admitted and one Finished event \
             ({} events lagged)",
            seen.lagged
        ));
    }
    if report.total_jobs() != jobs {
        out.fail(format!(
            "report holds {} of {jobs} jobs",
            report.total_jobs()
        ));
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    for s in &report.shards {
        let from_events = seen.shard_wan.get(&s.shard).copied().unwrap_or(0.0);
        if !close(from_events, s.report.total_wan_gb) {
            out.fail(format!(
                "shard {}: jobs moved {from_events} GB but the shard reports {} GB",
                s.shard, s.report.total_wan_gb
            ));
        }
    }
    let summed: f64 = report.shards.iter().map(|s| s.report.total_wan_gb).sum();
    if !close(summed, report.total_wan_gb()) {
        out.fail(format!(
            "shard WAN sums to {summed} GB, service total is {} GB",
            report.total_wan_gb()
        ));
    }
}

/// Runs `trace_replay` for `seconds` and reports every metric. Repetition 0
/// is a warm-up: its outputs are checked, its times are not used.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    cal: &mut Calibration,
) -> (Outcome, Option<SpanLog>) {
    let mut out = Outcome {
        op: "jobs served",
        ..Outcome::default()
    };
    let mut log = traced.then(SpanLog::new);
    let mut reps: Vec<Rep> = Vec::new();
    let mut plain_runs: Vec<f64> = Vec::new();
    let mut traced_runs: Vec<f64> = Vec::new();
    let start = clock::now();
    let mut i = 0u32;
    loop {
        // Traced mode alternates traced and untraced repetitions so the
        // tracing overhead is measured on the same host state.
        let tracing = traced && i.is_multiple_of(2);
        let mut rep_log = if tracing { log.take() } else { None };
        if let Some(l) = rep_log.as_mut() {
            l.set_run(i);
        }
        cal.sample(CAL_PASSES);
        let t = clock::now();
        let r = rep(seed, &mut out, &mut rep_log);
        let wall = clock::secs_since(t);
        if tracing {
            log = rep_log;
        }
        if i > 0 {
            if tracing {
                traced_runs.push(wall);
            } else {
                plain_runs.push(wall);
            }
            if let (Some(r), false) = (r, tracing) {
                reps.push(r);
            }
        }
        i += 1;
        let enough = reps.len() >= MIN_REPS && (!traced || traced_runs.len() >= MIN_REPS);
        if enough && clock::secs_since(start) >= seconds {
            break;
        }
        if i as usize > 4 * MIN_REPS && reps.is_empty() {
            break; // Every repetition fails: stop early, the outcome says why.
        }
    }
    report(&mut out, &reps, log.as_ref(), &plain_runs, &traced_runs);
    (out, log)
}

fn report(
    out: &mut Outcome,
    reps: &[Rep],
    log: Option<&SpanLog>,
    plain_runs: &[f64],
    traced_runs: &[f64],
) {
    let Some(first) = reps.first() else {
        out.notes.push("no measured repetition".into());
        return;
    };
    let min = |f: fn(&Rep) -> f64| reps.iter().map(f).fold(f64::INFINITY, f64::min);
    out.push("setup_s", "s", med(reps.iter().map(|r| r.setup_s)));
    // Ingest is deterministic single-threaded work: each phase at its
    // fastest repetition. Serving is timed as the fastest whole run.
    let ingest_s = min(|r| r.parse_s) + min(|r| r.validate_s) + min(|r| r.convert_s);
    let serve_s = min(|r| r.serve_s);
    out.push(
        "tasks_per_s",
        "1/s",
        first.tasks as f64 / (ingest_s + serve_s),
    );
    out.push("ingest_rows_per_s", "1/s", first.rows as f64 / ingest_s);
    out.push("serve_jobs_per_s", "1/s", first.jobs as f64 / serve_s);
    // Admission latency depends on how the burst of submissions splits into
    // epochs, a race; it is reported as the median over repetitions.
    out.push(
        "serve.admit_p50_ms",
        "ms",
        med(reps.iter().filter_map(|r| median(&r.admit_s))) * 1e3,
    );
    let tails: Vec<_> = reps.iter().filter_map(|r| tail(&r.admit_s)).collect();
    if let Some(t) = tails.first() {
        out.push(
            "serve.admit_tail_ms",
            "ms",
            med(tails.iter().map(|t| t.value)) * 1e3,
        );
        out.notes.push(format!(
            "serve.admit_tail_ms is the median over repetitions of p{:.2} of {} jobs",
            t.pct, t.samples
        ));
    }
    out.push(
        "sim_avg_response_s",
        "s",
        med(reps.iter().map(|r| r.avg_response)),
    );
    out.push("sim_wan_gb", "GB", med(reps.iter().map(|r| r.wan_gb)));
    match peak_rss_mb() {
        Ok(mb) => out.push("peak_rss_mb", "MB", mb),
        Err(e) => out.fail(e),
    }
    out.push("serve_median_s", "s", med(reps.iter().map(|r| r.serve_s)));
    out.push("reps", "count", reps.len() as f64);
    out.push("sim.tasks", "count", first.tasks as f64);

    out.push("workload.trace_bytes", "count", first.bytes as f64);
    out.push("workload.rows", "count", first.rows as f64);
    let max = first.shard_jobs.iter().copied().max().unwrap_or(0);
    let mean = first.jobs as f64 / first.shard_jobs.len().max(1) as f64;
    out.push("serve.shard_imbalance", "ratio", max as f64 / mean);
    out.push(
        "serve.shard_finish_spread_s",
        "s",
        med(reps.iter().map(|r| r.finish_spread_s)),
    );
    out.push(
        "serve.events_lagged",
        "count",
        reps.iter().map(|r| r.lagged).sum::<u64>() as f64,
    );
    let Some(log) = log else { return };
    out.push("workload.parse_s", "s", log.median_self("workload.parse"));
    out.push(
        "workload.validate_s",
        "s",
        log.median_self("workload.validate"),
    );
    out.push(
        "workload.convert_s",
        "s",
        log.median_self("workload.convert"),
    );
    out.push("serve.start_s", "s", log.median_self("serve.start"));
    out.push(
        "serve.submit_blocked_s",
        "s",
        log.median_self("serve.submit"),
    );
    out.push("serve.join_s", "s", log.median_self("serve.join"));
    out.push("trace.coverage", "ratio", log.coverage());
    out.push(
        "trace.overhead_s",
        "s",
        med(traced_runs.iter().copied()) - med(plain_runs.iter().copied()),
    );
}
