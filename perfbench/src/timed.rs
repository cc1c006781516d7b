//! A `Scheduler` wrapper that times each call into a `TetriumScheduler`
//! from outside.
//!
//! Untraced, it reads the clock twice per `schedule()` call and keeps the
//! duration with the number of tasks the call assigned. Traced, it also
//! records a `core.schedule` span and the plan-cache counters of the call.

use std::sync::{Arc, Mutex};

use tetrium::core::TetriumScheduler;
use tetrium::obs::Obs;
use tetrium::sim::{Scheduler, Snapshot, StagePlan};

use crate::clock::{self, Stamp};
use crate::spans::SpanLog;

/// One `schedule()` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// Host clock on entry.
    pub start: Stamp,
    /// Host clock on return.
    pub end: Stamp,
    /// Task assignments the call returned.
    pub assigned: usize,
}

impl Call {
    /// Host seconds inside the call.
    pub fn secs(&self) -> f64 {
        clock::secs_between(self.start, self.end)
    }
}

/// Plan-cache lookups summed over calls, by tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTotals {
    /// Exact template hits.
    pub exact: usize,
    /// Patched template hits.
    pub patched: usize,
    /// Warm-started solves.
    pub warm: usize,
    /// Misses (cold solves).
    pub miss: usize,
}

impl CacheTotals {
    /// All lookups.
    pub fn lookups(&self) -> usize {
        self.exact + self.patched + self.warm + self.miss
    }

    /// Hits (exact, patched or warm) over lookups; 0 without lookups.
    pub fn hit_ratio(&self) -> f64 {
        match self.lookups() {
            0 => 0.0,
            n => (self.exact + self.patched + self.warm) as f64 / n as f64,
        }
    }
}

/// What the wrapper records, shared with the benchmark loop.
#[derive(Debug, Default)]
pub struct Probe {
    /// Every call, in order.
    pub calls: Vec<Call>,
    /// Plan-cache counters (traced mode only).
    pub cache: CacheTotals,
    /// Span log (traced mode only).
    pub spans: Option<SpanLog>,
}

impl Probe {
    /// How many calls assigned at least one task: the planning instances
    /// of the paper's Fig 7.
    pub fn planning_calls(&self) -> usize {
        self.calls.iter().filter(|c| c.assigned > 0).count()
    }
}

/// Shared handle to a [`Probe`].
pub type SharedProbe = Arc<Mutex<Probe>>;

/// Locks the probe; the benchmark is its only writer, so a poisoned lock
/// means an earlier panic already failed the run.
pub fn lock(probe: &SharedProbe) -> std::sync::MutexGuard<'_, Probe> {
    probe
        .lock()
        .expect("probe lock poisoned by an earlier panic")
}

/// The wrapper the engine drives instead of the bare scheduler.
pub struct TimedScheduler {
    inner: TetriumScheduler,
    probe: SharedProbe,
}

impl TimedScheduler {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: TetriumScheduler, probe: SharedProbe) -> Self {
        Self { inner, probe }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, snapshot: &Snapshot) -> Vec<StagePlan> {
        let t0 = clock::now();
        let plans = self.inner.schedule(snapshot);
        let t1 = clock::now();
        let assigned = plans.iter().map(|p| p.assignments.len()).sum();
        let mut probe = lock(&self.probe);
        probe.calls.push(Call {
            start: t0,
            end: t1,
            assigned,
        });
        if let Some(log) = probe.spans.as_mut() {
            log.record("core.schedule", t0, t1);
            let s = self.inner.last_template_stats();
            probe.cache.exact += s.exact;
            probe.cache.patched += s.patched;
            probe.cache.warm += s.warm;
            probe.cache.miss += s.miss;
        }
        plans
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.inner.attach_obs(obs);
    }
}
