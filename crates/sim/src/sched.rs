//! The scheduler interface: snapshots in, task assignments out.

use tetrium_cluster::SiteId;
use tetrium_jobs::{JobId, StageKind};

/// Point-in-time view of one site's capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteState {
    /// Current total slots (after any capacity drops).
    pub slots: usize,
    /// Slots not currently occupied by a task.
    pub free_slots: usize,
    /// Current uplink bandwidth in GB/s.
    pub up_gbps: f64,
    /// Current downlink bandwidth in GB/s.
    pub down_gbps: f64,
}

/// Lifecycle phase of a task as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPhase {
    /// Not yet launched; the scheduler may (re-)assign it.
    Unlaunched,
    /// Occupying a slot (fetching or computing); cannot be moved.
    Running,
    /// Finished.
    Done,
}

/// One task of a runnable stage.
#[derive(Debug, Clone)]
pub struct TaskSnapshot {
    /// Index within the stage.
    pub index: usize,
    /// Current phase.
    pub phase: TaskPhase,
    /// For map tasks: the site holding this task's input partition.
    pub input_site: Option<SiteId>,
    /// Input volume of this task in GB (partition size for map tasks, total
    /// shuffle share for reduce tasks).
    pub input_gb: f64,
    /// This task's share of the stage input (uniform unless key-skewed).
    pub share: f64,
    /// Where the task is running (`Running`: its original attempt's site)
    /// or ran (`Done`: the site of the attempt that finished it, which is a
    /// speculative copy's when the copy won).
    pub running_site: Option<SiteId>,
}

/// A runnable stage and its tasks.
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    /// Stage index within the job.
    pub stage_index: usize,
    /// Communication pattern.
    pub kind: StageKind,
    /// Estimated mean task compute time in seconds (the scheduler's belief,
    /// which may deviate from the true mean by the configured estimation
    /// error).
    pub est_task_secs: f64,
    /// Number of tasks in the stage.
    pub num_tasks: usize,
    /// Realized input distribution of the stage (GB per site): external input
    /// for roots, materialized parent outputs otherwise.
    pub input_gb: Vec<f64>,
    /// Task states, indexed by task index.
    pub tasks: Vec<TaskSnapshot>,
}

impl StageSnapshot {
    /// Tasks the scheduler may still place.
    pub fn unlaunched(&self) -> impl Iterator<Item = &TaskSnapshot> {
        self.tasks
            .iter()
            .filter(|t| t.phase == TaskPhase::Unlaunched)
    }

    /// Number of unlaunched tasks.
    pub fn unlaunched_count(&self) -> usize {
        self.unlaunched().count()
    }
}

/// Lightweight description of one stage of a job's DAG, available for every
/// stage (not just runnable ones) so schedulers can reason about downstream
/// work (e.g. reverse planning in §3.4).
#[derive(Debug, Clone)]
pub struct StageMeta {
    /// Communication pattern.
    pub kind: StageKind,
    /// Parent stage indices.
    pub deps: Vec<usize>,
    /// Number of tasks.
    pub num_tasks: usize,
    /// Nominal mean task seconds from the job description (pre-activation
    /// stages have no refined estimate yet).
    pub task_secs: f64,
    /// Output/input volume ratio.
    pub output_ratio: f64,
    /// Whether the stage already finished.
    pub done: bool,
}

/// A job with at least one unfinished stage.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id.
    pub id: JobId,
    /// Arrival time in seconds.
    pub arrival: f64,
    /// Total stages in the job's DAG.
    pub total_stages: usize,
    /// Stages not yet complete (`G_j` in §4.1).
    pub remaining_stages: usize,
    /// DAG summary of every stage, indexed by stage index.
    pub stages: Vec<StageMeta>,
    /// Stages that are currently runnable (parents finished, tasks left).
    pub runnable: Vec<StageSnapshot>,
}

impl JobSnapshot {
    /// Remaining tasks across runnable stages (the `f_i` proxy used for
    /// fairness in §4.4): unlaunched plus running.
    pub fn remaining_runnable_tasks(&self) -> usize {
        self.runnable
            .iter()
            .map(|s| {
                s.tasks
                    .iter()
                    .filter(|t| t.phase != TaskPhase::Done)
                    .count()
            })
            .sum()
    }
}

/// Point-in-time view of the whole system handed to the scheduler.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Simulation time of this scheduling instance.
    pub now: f64,
    /// Per-site capacities and free slots, indexed by site id.
    pub sites: Vec<SiteState>,
    /// Unfinished jobs, in arrival order.
    pub jobs: Vec<JobSnapshot>,
}

impl Snapshot {
    /// Total free slots across sites.
    pub fn total_free_slots(&self) -> usize {
        self.sites.iter().map(|s| s.free_slots).sum()
    }

    /// Total slots across sites.
    pub fn total_slots(&self) -> usize {
        self.sites.iter().map(|s| s.slots).sum()
    }

    /// Uplink capacities as a dense vector (GB/s).
    pub fn up_vec(&self) -> Vec<f64> {
        self.sites.iter().map(|s| s.up_gbps).collect()
    }

    /// Downlink capacities as a dense vector (GB/s).
    pub fn down_vec(&self) -> Vec<f64> {
        self.sites.iter().map(|s| s.down_gbps).collect()
    }

    /// Slot counts as a dense vector.
    pub fn slots_vec(&self) -> Vec<usize> {
        self.sites.iter().map(|s| s.slots).collect()
    }
}

/// Assignment of one unlaunched task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskAssignment {
    /// Task index within the stage.
    pub task: usize,
    /// Site the task should run at.
    pub site: SiteId,
    /// Launch priority: at each site, free slots go to the assigned task
    /// with the smallest priority value. Priorities are global across jobs,
    /// which is how job-level ordering (e.g. SRPT) reaches the dispatcher.
    pub priority: i64,
}

/// Placement decisions for one runnable stage.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// Target job.
    pub job: JobId,
    /// Stage index within the job.
    pub stage: usize,
    /// Assignments for (a subset of) the stage's unlaunched tasks.
    /// Unassigned tasks stay unlaunched until a later scheduling instance.
    pub assignments: Vec<TaskAssignment>,
}

/// A pluggable cluster scheduler.
///
/// Implementations receive a [`Snapshot`] at every scheduling instance and
/// return placements for unlaunched tasks. Assignments overwrite earlier
/// assignments of still-unlaunched tasks, which is what lets schedulers
/// re-plan queued work as conditions change (the paper's per-instance
/// re-evaluation).
///
/// `Send` is a supertrait so a boxed scheduler (and the engine holding it)
/// can move to a worker thread; schedulers are still driven from one
/// thread at a time and need no internal synchronization.
pub trait Scheduler: Send {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Produces placements for the current instant.
    fn schedule(&mut self, snapshot: &Snapshot) -> Vec<StagePlan>;

    /// Hands the scheduler an observability sink to emit planner-internal
    /// records into (e.g. Tetrium's per-instance LP/cache breakdown). The
    /// engine calls this once at construction; the default implementation
    /// drops the handle, which is correct for schedulers with nothing
    /// internal to report.
    fn attach_obs(&mut self, _obs: tetrium_obs::Obs) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(i: usize, phase: TaskPhase) -> TaskSnapshot {
        TaskSnapshot {
            index: i,
            phase,
            input_site: Some(SiteId(0)),
            input_gb: 1.0,
            share: 0.5,
            running_site: None,
        }
    }

    #[test]
    fn stage_unlaunched_filtering() {
        let s = StageSnapshot {
            stage_index: 0,
            kind: StageKind::Map,
            est_task_secs: 1.0,
            num_tasks: 2,
            input_gb: vec![2.0],
            tasks: vec![task(0, TaskPhase::Unlaunched), task(1, TaskPhase::Running)],
        };
        assert_eq!(s.unlaunched_count(), 1);
    }

    #[test]
    fn snapshot_helpers() {
        let snap = Snapshot {
            now: 0.0,
            sites: vec![
                SiteState {
                    slots: 4,
                    free_slots: 2,
                    up_gbps: 1.0,
                    down_gbps: 2.0,
                },
                SiteState {
                    slots: 8,
                    free_slots: 8,
                    up_gbps: 3.0,
                    down_gbps: 4.0,
                },
            ],
            jobs: vec![],
        };
        assert_eq!(snap.total_free_slots(), 10);
        assert_eq!(snap.total_slots(), 12);
        assert_eq!(snap.up_vec(), vec![1.0, 3.0]);
        assert_eq!(snap.down_vec(), vec![2.0, 4.0]);
        assert_eq!(snap.slots_vec(), vec![4, 8]);
    }

    #[test]
    fn remaining_tasks_counts_running_and_unlaunched() {
        let j = JobSnapshot {
            id: JobId(0),
            arrival: 0.0,
            total_stages: 2,
            remaining_stages: 2,
            stages: Vec::new(),
            runnable: vec![StageSnapshot {
                stage_index: 0,
                kind: StageKind::Map,
                est_task_secs: 1.0,
                num_tasks: 3,
                input_gb: vec![1.0],
                tasks: vec![
                    task(0, TaskPhase::Unlaunched),
                    task(1, TaskPhase::Running),
                    task(2, TaskPhase::Done),
                ],
            }],
        };
        assert_eq!(j.remaining_runnable_tasks(), 2);
    }
}
