//! The scheduler wrapper must not change what it wraps: a run through
//! `TimedScheduler`, traced or not, gives the same outcome digest as the
//! bare `TetriumScheduler`.

use std::sync::{Arc, Mutex};

use perfbench::digest::run_digest;
use perfbench::engine_wl::trace_params;
use perfbench::spans::SpanLog;
use perfbench::timed::{lock, Probe, TimedScheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::cluster::ec2_thirty_instances;
use tetrium::core::TetriumScheduler;
use tetrium::jobs::Job;
use tetrium::sim::{Engine, EngineConfig, Scheduler};

fn digest_with(sched: Box<dyn Scheduler>) -> u64 {
    let cluster = ec2_thirty_instances();
    let mut rng = StdRng::seed_from_u64(30);
    let jobs: Vec<Job> = tetrium::workload::trace_like_jobs(&cluster, 4, &trace_params(), &mut rng);
    let report = Engine::new(cluster, jobs, sched, EngineConfig::trace_like(7))
        .run()
        .expect("run completes");
    run_digest(&report)
}

#[test]
fn wrapped_and_bare_runs_have_the_same_digest() {
    let bare = digest_with(Box::new(TetriumScheduler::standard()));
    for traced in [false, true] {
        let probe = Arc::new(Mutex::new(Probe {
            spans: traced.then(SpanLog::new),
            ..Probe::default()
        }));
        let wrapped = TimedScheduler::new(TetriumScheduler::standard(), probe.clone());
        assert_eq!(
            digest_with(Box::new(wrapped)),
            bare,
            "wrapper (traced: {traced}) changed the outcome"
        );
        let p = lock(&probe);
        assert!(!p.calls.is_empty(), "every call is recorded");
        assert!(p.planning_calls() > 0);
        let spans = p.spans.as_ref().map_or(0, |l| l.spans().len());
        assert_eq!(spans, if traced { p.calls.len() } else { 0 });
    }
}
