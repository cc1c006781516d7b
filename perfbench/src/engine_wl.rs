//! The engine workloads, `trace30` and `recurring30`: one
//! `Engine::new(..).run()` per repetition on a single thread, with the
//! benchmark's [`TimedScheduler`] around a `TetriumScheduler`.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::cluster::{ec2_thirty_instances, Cluster};
use tetrium::core::{PlanCacheMode, TetriumConfig, TetriumScheduler};
use tetrium::jobs::Job;
use tetrium::sim::{Engine, EngineConfig, RunReport};
use tetrium::workload::{recurring_dashboard_jobs, trace_like_jobs, RecurringParams, TraceParams};

use crate::calib::Calibration;
use crate::clock::{self, Stamp};
use crate::digest::run_digest;
use crate::out::{peak_rss_mb, Outcome};
use crate::spans::SpanLog;
use crate::stats::{med, median, stepwise_min, tail};
use crate::timed::{lock, CacheTotals, Probe, SharedProbe, TimedScheduler};
use crate::{CAL_PASSES, DEFAULT_SEED, MIN_REPS};

/// Which engine workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineWorkload {
    /// 48 production-trace-like jobs, default Tetrium, obs off.
    Trace30,
    /// 40 instances of the recurring dashboard, full plan cache, obs on.
    Recurring30,
}

/// Everything one repetition needs, generated from the seed.
pub struct Input {
    /// The 30-site EC2 preset.
    pub cluster: Cluster,
    /// The jobs.
    pub jobs: Vec<Job>,
    /// Scheduler configuration.
    pub tetrium: TetriumConfig,
    /// Engine configuration.
    pub engine: EngineConfig,
}

/// Generator seed of the `trace30` job set.
pub const TRACE30_JOBS_SEED: u64 = 30;
/// Generator seed of the `recurring30` job set.
pub const RECURRING30_JOBS_SEED: u64 = 42;

/// Generator parameters of the trace-like jobs (also used by `trace_replay`).
pub fn trace_params() -> TraceParams {
    TraceParams {
        median_input_gb: 10.0,
        mean_interarrival_secs: 30.0,
        mean_task_secs: 5.0,
        tasks_per_gb: 4.0,
        max_tasks: 150,
        ..TraceParams::default()
    }
}

impl EngineWorkload {
    /// Digest of the simulated outcome for [`DEFAULT_SEED`], recorded from
    /// unchanged code.
    pub fn reference_digest(self) -> u64 {
        match self {
            EngineWorkload::Trace30 => 0xede7_74f7_e10c_33d3,
            EngineWorkload::Recurring30 => 0xbc8b_643e_ccf5_d042,
        }
    }

    /// The inputs for `seed`: a fixed job set (drawn from the workload's
    /// own generator seed) under an engine whose noise model — task
    /// duration variance, stragglers, estimation error — is seeded by `seed`.
    pub fn input(self, seed: u64) -> Input {
        let cluster = ec2_thirty_instances();
        match self {
            EngineWorkload::Trace30 => {
                let mut rng = StdRng::seed_from_u64(TRACE30_JOBS_SEED);
                let jobs = trace_like_jobs(&cluster, 48, &trace_params(), &mut rng);
                Input {
                    cluster,
                    jobs,
                    tetrium: TetriumConfig::default(),
                    engine: EngineConfig::trace_like(seed),
                }
            }
            EngineWorkload::Recurring30 => {
                // One instance every 120 s of a day that advances 120 s per
                // instance: the stream the template plan cache is built for.
                let params = RecurringParams {
                    phase_step: 1.0 / 720.0,
                    ..RecurringParams::default()
                };
                let mut rng = StdRng::seed_from_u64(RECURRING30_JOBS_SEED);
                let jobs = recurring_dashboard_jobs(&cluster, 40, &params, &mut rng);
                Input {
                    cluster,
                    jobs,
                    tetrium: TetriumConfig {
                        plan_cache: PlanCacheMode::Full,
                        ..TetriumConfig::default()
                    },
                    engine: EngineConfig {
                        record_obs: true,
                        seed,
                        ..EngineConfig::default()
                    },
                }
            }
        }
    }
}

/// How a repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// As the workload defines it, untraced.
    Plain,
    /// With spans and plan-cache counters.
    Traced,
    /// Untraced, obs recording forced off (for `obs.overhead_s`).
    ObsOff,
    /// Untimed, obs recording forced on, to read the planner records.
    Count,
}

/// What one repetition leaves behind.
struct Rep {
    variant: Variant,
    setup_s: f64,
    run_start: Stamp,
    run_end: Stamp,
    tasks: usize,
    sim: SimOut,
    probe: Probe,
}

/// What a repetition's `RunReport` says.
struct SimOut {
    digest: u64,
    avg_response: f64,
    wan_gb: f64,
    sched_invocations: usize,
    task_attempts: usize,
    copies_launched: usize,
    obs: Option<ObsCounts>,
}

impl SimOut {
    fn of(report: &RunReport, tasks: usize) -> Self {
        Self {
            digest: run_digest(report),
            avg_response: report.avg_response(),
            wan_gb: report.total_wan_gb,
            sched_invocations: report.sched_invocations,
            task_attempts: tasks + report.task_failures + report.copies_launched,
            copies_launched: report.copies_launched,
            obs: obs_counts(report),
        }
    }
}

impl Rep {
    /// Host seconds of `Engine::run`.
    fn run_s(&self) -> f64 {
        clock::secs_between(self.run_start, self.run_end)
    }

    /// `Engine::run` cut at the end of every `schedule()` call: each segment
    /// is the engine work since the previous call plus the call itself.
    fn segments(&self) -> Vec<f64> {
        let ends = self.probe.calls.iter().map(|c| c.end);
        let mut prev = self.run_start;
        let mut out = Vec::with_capacity(self.probe.calls.len() + 1);
        for t in ends.chain(std::iter::once(self.run_end)) {
            out.push(clock::secs_between(prev, t));
            prev = t;
        }
        out
    }

    fn call_secs(&self) -> Vec<f64> {
        self.probe.calls.iter().map(|c| c.secs()).collect()
    }
}

/// Counts read from a run's observability record.
#[derive(Debug, Clone, Copy, Default)]
struct ObsCounts {
    stage_cache_reused: usize,
    lp_planned: usize,
    local_planned: usize,
    warm_pivots: usize,
    link_samples: usize,
    active_pairs: usize,
    task_events: usize,
    sched_records: usize,
}

fn obs_counts(report: &RunReport) -> Option<ObsCounts> {
    let obs = report.obs.as_ref()?;
    let sum = |f: fn(&tetrium::obs::PlannerRecord) -> usize| obs.planner.iter().map(f).sum();
    Some(ObsCounts {
        stage_cache_reused: sum(|p| p.cache_reused),
        lp_planned: sum(|p| p.lp_planned),
        local_planned: sum(|p| p.local_planned),
        warm_pivots: sum(|p| p.warm_pivots),
        link_samples: obs.link_timeline.len(),
        active_pairs: obs.active_pairs(),
        task_events: obs.task_events.len(),
        sched_records: obs.sched.len(),
    })
}

fn enter(probe: &SharedProbe, name: &'static str) -> Option<usize> {
    lock(probe).spans.as_mut().map(|l| l.enter(name))
}

fn exit(probe: &SharedProbe, id: Option<usize>) {
    if let (Some(id), Some(log)) = (id, lock(probe).spans.as_mut()) {
        log.exit(id);
    }
}

/// One repetition. Returns the span log (if any) back to the caller.
fn rep(
    wl: EngineWorkload,
    seed: u64,
    variant: Variant,
    run: u32,
    mut log: Option<SpanLog>,
) -> (Result<Rep, String>, Option<SpanLog>) {
    if let Some(l) = log.as_mut() {
        l.set_run(run);
    }
    let probe: SharedProbe = Arc::new(Mutex::new(Probe {
        spans: if variant == Variant::Traced {
            log.take()
        } else {
            None
        },
        ..Probe::default()
    }));
    let root = enter(&probe, "rep");
    let setup = enter(&probe, "setup");
    let t0 = clock::now();
    let mut input = wl.input(seed);
    match variant {
        Variant::ObsOff => input.engine.record_obs = false,
        Variant::Count => input.engine.record_obs = true,
        Variant::Plain | Variant::Traced => {}
    }
    let tasks: usize = input.jobs.iter().map(Job::total_tasks).sum();
    let sched = TimedScheduler::new(TetriumScheduler::new(input.tetrium), probe.clone());
    let engine = Engine::new(input.cluster, input.jobs, Box::new(sched), input.engine);
    let setup_s = clock::secs_since(t0);
    exit(&probe, setup);
    let sim = enter(&probe, "sim.run");
    let run_start = clock::now();
    let result = engine.run();
    let run_end = clock::now();
    exit(&probe, sim);
    let check = enter(&probe, "check");
    let sim = result.map(|report| SimOut::of(&report, tasks));
    exit(&probe, check);
    exit(&probe, root);
    let mut probe = match Arc::try_unwrap(probe) {
        Ok(m) => m
            .into_inner()
            .expect("probe lock poisoned by an earlier panic"),
        Err(_) => return (Err("scheduler outlived its engine".into()), log),
    };
    let log = probe.spans.take().or(log);
    let rep = sim
        .map(|sim| Rep {
            variant,
            setup_s,
            run_start,
            run_end,
            tasks,
            sim,
            probe,
        })
        .map_err(|e| format!("engine run failed: {e}"));
    (rep, log)
}

/// Runs `wl` for `seconds` and reports every metric. Repetition 0 is a
/// warm-up: its outputs are checked, its times are not used.
pub fn run(
    wl: EngineWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    cal: &mut Calibration,
) -> (Outcome, Option<SpanLog>) {
    let mut out = Outcome {
        op: "simulation runs",
        ..Outcome::default()
    };
    let cycle: &[Variant] = match (traced, wl) {
        (false, _) => &[Variant::Plain],
        (true, EngineWorkload::Trace30) => &[Variant::Traced, Variant::Plain],
        (true, EngineWorkload::Recurring30) => &[Variant::Traced, Variant::Plain, Variant::ObsOff],
    };
    let mut reference = (seed == DEFAULT_SEED).then(|| wl.reference_digest());
    let mut log = traced.then(SpanLog::new);
    let mut reps: Vec<Rep> = Vec::new();
    let start = clock::now();
    let mut i = 0usize;
    loop {
        let variant = if i == 0 {
            cycle[0]
        } else {
            cycle[(i - 1) % cycle.len()]
        };
        let done = i > 0 && (i - 1) % cycle.len() == cycle.len() - 1;
        cal.sample(CAL_PASSES);
        let (res, back) = rep(wl, seed, variant, i as u32, log.take());
        log = back;
        out.attempted += 1;
        match res {
            Ok(r) => {
                check_digest(&mut out, &mut reference, r.sim.digest, i);
                if i > 0 {
                    reps.push(r);
                }
            }
            Err(e) => out.fail(format!("repetition {i}: {e}")),
        }
        i += 1;
        let measured = reps.iter().filter(|r| r.variant == Variant::Plain).count();
        if done && measured >= MIN_REPS && clock::secs_since(start) >= seconds {
            break;
        }
        if i > 2 * MIN_REPS * cycle.len() && reps.is_empty() {
            break; // Every repetition fails: stop early, the outcome says why.
        }
    }
    if traced {
        let (res, back) = rep(wl, seed, Variant::Count, i as u32, log.take());
        log = back;
        out.attempted += 1;
        match res {
            Ok(r) => {
                check_digest(&mut out, &mut reference, r.sim.digest, i);
                reps.push(r);
            }
            Err(e) => out.fail(format!("counting repetition: {e}")),
        }
    }
    report(wl, &mut out, &reps, log.as_ref());
    (out, log)
}

/// Compares a repetition's digest with the reference (recorded for the
/// default seed, otherwise the first repetition's).
fn check_digest(out: &mut Outcome, reference: &mut Option<u64>, digest: u64, i: usize) {
    match *reference {
        Some(r) if r != digest => out.fail(format!(
            "repetition {i}: outcome digest {digest:016x} differs from reference {r:016x}"
        )),
        Some(_) => {}
        None => *reference = Some(digest),
    }
}

/// `Engine::run` host seconds of a variant's repetitions, each segment
/// between `schedule()` calls taken at its fastest repetition. Falls back
/// to the median run (and fails the outcome) if the repetitions did not
/// make the same calls.
fn robust_run_s(out: &mut Outcome, reps: &[&Rep]) -> f64 {
    let segs: Vec<Vec<f64>> = reps.iter().map(|r| r.segments()).collect();
    match stepwise_min(&segs) {
        Some(m) => m.iter().sum(),
        None => {
            out.fail("repetitions of one seed made different schedule() calls".into());
            med(reps.iter().map(|r| r.run_s()))
        }
    }
}

fn report(wl: EngineWorkload, out: &mut Outcome, reps: &[Rep], log: Option<&SpanLog>) {
    let of = |v: Variant| reps.iter().filter(|r| r.variant == v).collect::<Vec<_>>();
    let plain = of(Variant::Plain);
    let Some(first) = plain.first() else {
        out.notes.push("no measured repetition".into());
        return;
    };
    out.push("setup_s", "s", med(plain.iter().map(|r| r.setup_s)));
    let run_s = robust_run_s(out, &plain);
    out.push("tasks_per_s", "1/s", first.tasks as f64 / run_s);
    // Each planning instance at its fastest repetition (the simulation is
    // deterministic, so call k is the same decision in every repetition).
    let calls: Vec<Vec<f64>> = plain.iter().map(|r| r.call_secs()).collect();
    let planning: Vec<f64> = stepwise_min(&calls)
        .unwrap_or_else(|| first.call_secs())
        .into_iter()
        .zip(&first.probe.calls)
        .filter(|(_, c)| c.assigned > 0)
        .map(|(secs, _)| secs)
        .collect();
    if let (Some(p50), Some(t)) = (median(&planning), tail(&planning)) {
        out.push("core.decision_p50_ms", "ms", p50 * 1e3);
        out.push("core.decision_tail_ms", "ms", t.value * 1e3);
        out.notes.push(format!(
            "core.decision_tail_ms is p{:.2} of {} planning instances",
            t.pct, t.samples
        ));
    }
    out.push("sim_avg_response_s", "s", first.sim.avg_response);
    out.push("sim_wan_gb", "GB", first.sim.wan_gb);
    match peak_rss_mb() {
        Ok(mb) => out.push("peak_rss_mb", "MB", mb),
        Err(e) => out.fail(e),
    }
    out.push("run_median_s", "s", med(plain.iter().map(|r| r.run_s())));
    out.push("reps", "count", plain.len() as f64);

    // Per-layer numbers: counts from any repetition (they repeat exactly),
    // times from the traced repetitions.
    let n_calls = first.probe.calls.len();
    let n_planning = first.probe.planning_calls();
    out.push("core.calls", "count", n_calls as f64);
    out.push("core.planning_calls", "count", n_planning as f64);
    out.push(
        "core.empty_call_ratio",
        "ratio",
        (n_calls - n_planning) as f64 / n_calls.max(1) as f64,
    );
    out.push("sim.tasks", "count", first.tasks as f64);
    out.push(
        "sim.sched_invocations",
        "count",
        first.sim.sched_invocations as f64,
    );
    out.push("sim.task_attempts", "count", first.sim.task_attempts as f64);
    out.push(
        "sim.copies_launched",
        "count",
        first.sim.copies_launched as f64,
    );
    let Some(log) = log else { return };
    if let Some(t) = of(Variant::Traced).first() {
        let c: CacheTotals = t.probe.cache;
        out.push("core.cache.exact", "count", c.exact as f64);
        out.push("core.cache.patched", "count", c.patched as f64);
        out.push("core.cache.warm", "count", c.warm as f64);
        out.push("core.cache.miss", "count", c.miss as f64);
        out.push("core.cache.hit_ratio", "ratio", c.hit_ratio());
    }
    if let Some(c) = of(Variant::Count).first().and_then(|r| r.sim.obs) {
        out.push(
            "core.stage_cache_reused",
            "count",
            c.stage_cache_reused as f64,
        );
        out.push("lp.stages_planned", "count", c.lp_planned as f64);
        out.push("lp.local_fallback", "count", c.local_planned as f64);
        out.push("lp.warm_pivots", "count", c.warm_pivots as f64);
        out.push("net.link_samples", "count", c.link_samples as f64);
        out.push("net.active_pairs", "count", c.active_pairs as f64);
        if wl == EngineWorkload::Recurring30 {
            out.push("obs.task_events", "count", c.task_events as f64);
            out.push("obs.sched_records", "count", c.sched_records as f64);
        }
    }
    out.push("core.busy_s", "s", log.median_self("core.schedule"));
    out.push("sim.self_s", "s", log.median_self("sim.run"));
    out.push("trace.coverage", "ratio", log.coverage());
    let traced_run_s = robust_run_s(out, &of(Variant::Traced));
    out.push("trace.overhead_s", "s", traced_run_s - run_s);
    if wl == EngineWorkload::Recurring30 {
        let off = robust_run_s(out, &of(Variant::ObsOff));
        out.push("obs.overhead_s", "s", run_s - off);
    }
}
