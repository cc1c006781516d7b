//! End-to-end and per-layer benchmark of the Tetrium reproduction.
//!
//! Three workloads drive the program only through its public APIs:
//! `Engine::new(..).run()` with a benchmark-side scheduler wrapper
//! (`trace30`, `recurring30`), and the trace ingest functions plus the
//! `tetrium-serve` front end (`trace_replay`). See `README.md`.

pub mod calib;
pub mod clock;
pub mod digest;
pub mod engine_wl;
pub mod out;
pub mod replay_wl;
pub mod spans;
pub mod stats;
pub mod timed;

use calib::Calibration;
use engine_wl::EngineWorkload;
use out::Outcome;
use spans::SpanLog;

/// Seed whose simulated outcomes are pinned by a recorded digest.
pub const DEFAULT_SEED: u64 = 1;

/// Fewest measured repetitions of each kind in a run, whatever `--seconds`
/// says: the robust estimators need several repetitions to choose from.
pub const MIN_REPS: usize = 3;

/// Workload names, as in `BENCHMARK.json`.
pub const WORKLOADS: &[&str] = &["trace30", "recurring30", "trace_replay"];

/// End-to-end metrics (`--trace 0`): name and unit, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit, as in `BENCHMARK.json`.
/// A workload that does not exercise a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.busy_s", "s"),
    ("core.decision_p50_ms", "ms"),
    ("core.decision_tail_ms", "ms"),
    ("core.calls", "count"),
    ("core.planning_calls", "count"),
    ("core.empty_call_ratio", "ratio"),
    ("core.cache.exact", "count"),
    ("core.cache.patched", "count"),
    ("core.cache.warm", "count"),
    ("core.cache.miss", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.stage_cache_reused", "count"),
    ("lp.stages_planned", "count"),
    ("lp.local_fallback", "count"),
    ("lp.warm_pivots", "count"),
    ("sim.self_s", "s"),
    ("sim.sched_invocations", "count"),
    ("sim.task_attempts", "count"),
    ("sim.copies_launched", "count"),
    ("net.link_samples", "count"),
    ("net.active_pairs", "count"),
    ("obs.overhead_s", "s"),
    ("obs.task_events", "count"),
    ("obs.sched_records", "count"),
    ("workload.parse_s", "s"),
    ("workload.validate_s", "s"),
    ("workload.convert_s", "s"),
    ("workload.trace_bytes", "count"),
    ("workload.rows", "count"),
    ("serve.start_s", "s"),
    ("serve.submit_blocked_s", "s"),
    ("serve.admit_p50_ms", "ms"),
    ("serve.admit_tail_ms", "ms"),
    ("serve.shard_imbalance", "ratio"),
    ("serve.shard_finish_spread_s", "s"),
    ("serve.join_s", "s"),
    ("serve.events_lagged", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// End-to-end host times normalized by the run's calibration: name, name
/// of the unscaled value, and whether the metric is a rate (per second)
/// rather than a time.
const NORMALIZED: &[(&str, &str, bool)] = &[
    ("setup_s", "setup_s_raw", false),
    ("tasks_per_s", "tasks_per_s_raw", true),
];

/// Passes of the calibration kernel before each repetition.
pub const CAL_PASSES: usize = 4;

/// Runs workload `name` for `seconds`, traced or not.
///
/// # Errors
///
/// An unknown workload name.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Outcome, Option<SpanLog>), String> {
    let mut cal = Calibration::new();
    let (mut out, log) = match name {
        "trace30" => engine_wl::run(EngineWorkload::Trace30, seed, seconds, traced, &mut cal),
        "recurring30" => {
            engine_wl::run(EngineWorkload::Recurring30, seed, seconds, traced, &mut cal)
        }
        "trace_replay" => replay_wl::run(seed, seconds, traced, &mut cal),
        _ => {
            return Err(format!(
                "unknown workload {name:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    let factor = cal.time_factor();
    for &(metric, raw, rate) in NORMALIZED {
        out.scale(metric, raw, if rate { 1.0 / factor } else { factor });
    }
    out.push("calibration_fastest_ms", "ms", cal.fastest() * 1e3);
    out.push("calibration_median_ms", "ms", cal.median() * 1e3);
    Ok((out, log))
}
