//! The bounded job scheduler: a fixed worker pool draining a
//! priority/FIFO queue with admission control.
//!
//! The queue has a hard capacity; a submit that finds it full is
//! rejected immediately with [`ServiceError::QueueFull`] instead of
//! buffering unbounded work (the closed-loop bench driver leans on this
//! to measure saturation).  Within the queue, higher `priority` runs
//! first and ties break FIFO by submission order.
//!
//! Cancellation and deadlines share one mechanism: each job carries an
//! atomic cancel flag, and the worker hands the BSP engine a stop hook
//! (`cancelled || past deadline`) that is polled at superstep
//! boundaries.  A cut run comes back as a [`StoredCheckpoint`] and the
//! job lands in `Cancelled`/`TimedOut`/`Interrupted` with the checkpoint
//! attached — a follow-up `resume` submission continues it exactly.
//! Worker threads wrap engine calls in `catch_unwind`, so a panicking
//! program marks its job `Failed` and the pool stays healthy.

use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::engine::{execute, ExecVerdict};
use crate::error::ServiceError;
use crate::job::{
    Algorithm, JobGraph, JobId, JobOutput, JobSpec, JobState, StoredCheckpoint, StoredFrame,
};
use crate::rank;
use crate::stats::{LatencyBook, LatencySummary};

/// Scheduler sizing.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Queue capacity; submits beyond it are rejected (`queue_full`).
    pub queue_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            queue_capacity: 64,
        }
    }
}

/// What `status`/`list` report about a job.
#[derive(Clone, Debug)]
pub struct JobSnapshot {
    /// Job id.
    pub id: JobId,
    /// Kernel name (`cc`/`bfs`/`pagerank`).
    pub algorithm: &'static str,
    /// Engine name (`bsp`/`graphct`/`incremental`).
    pub engine: &'static str,
    /// Target graph's registry name.
    pub graph: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Scheduling priority.
    pub priority: u8,
    /// Time spent queued (ms); final once running.
    pub queued_ms: u64,
    /// Time spent running (ms); final once terminal.
    pub running_ms: u64,
    /// Supersteps executed (meaningful once terminal).
    pub supersteps: u64,
    /// The snapshot epoch the job computes against (0 for static
    /// graphs); constant across deadline cuts and resumes.
    pub epoch: u64,
    /// Whether a resumable checkpoint is attached.
    pub has_checkpoint: bool,
    /// Failure message, if the job failed.
    pub error: Option<String>,
}

struct JobRecord {
    spec: JobSpec,
    graph: JobGraph,
    state: JobState,
    cancel: Arc<AtomicBool>,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
    supersteps: u64,
    output: Option<JobOutput>,
    error: Option<String>,
    checkpoint: Option<StoredCheckpoint>,
    resume_from: Option<StoredCheckpoint>,
    /// The warmed [`StoredFrame`] travelling with the job: set at
    /// submit time for a resume, taken by the worker when the run
    /// starts, and re-attached when an interrupted run hands it back.
    frame: Option<StoredFrame>,
    /// Per-superstep trace, set when the run ends (empty series when
    /// the `trace` feature is off).
    trace: Option<xmt_trace::JobTrace>,
}

impl JobRecord {
    /// Let go of the epoch snapshot once nothing can run on it again: the
    /// job is terminal and holds no checkpoint a `resume` could continue
    /// from.  The record stays (status, output, epoch number); only the
    /// graph memory it pinned goes.
    fn release_graph(&mut self) {
        if self.checkpoint.is_none() {
            self.graph.csr = None;
        }
    }

    fn snapshot(&self, id: JobId) -> JobSnapshot {
        let queued_ms = self
            .started
            .unwrap_or_else(Instant::now)
            .duration_since(self.submitted)
            .as_millis() as u64;
        let running_ms = match self.started {
            None => 0,
            Some(started) => self
                .finished
                .unwrap_or_else(Instant::now)
                .duration_since(started)
                .as_millis() as u64,
        };
        JobSnapshot {
            id,
            algorithm: self.spec.algorithm.name(),
            engine: self.spec.engine.name(),
            graph: self.spec.graph.clone(),
            state: self.state,
            priority: self.spec.priority,
            queued_ms,
            running_ms,
            supersteps: self.supersteps,
            epoch: self.graph.epoch,
            has_checkpoint: self.checkpoint.is_some(),
            error: self.error.clone(),
        }
    }
}

/// Heap entry: max priority first, then FIFO by submission sequence.
struct QueueEntry {
    priority: u8,
    seq: u64,
    id: JobId,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: higher priority wins, then *lower*
        // sequence (earlier submit).
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct Queue {
    heap: BinaryHeap<QueueEntry>,
    /// Heap entries whose job was cancelled while queued.  The entries
    /// stay in the heap (a `BinaryHeap` cannot remove by key) and
    /// workers discard them on pop, but they must not count toward the
    /// live queue depth: admission control would otherwise reject
    /// submits against dead entries, and `stats()` would overcount.
    stale: usize,
    shutdown: bool,
}

impl Queue {
    /// Entries that represent jobs which will actually run.
    fn live_depth(&self) -> usize {
        self.heap.len().saturating_sub(self.stale)
    }
}

// The scheduler's lock hierarchy, outermost first: admission takes the
// queue lock then registers under the jobs lock; completion updates a
// job record then records its latency series (`crate::rank`).
struct Shared {
    queue: Mutex<Queue>,
    cond: Condvar,
    jobs: Mutex<HashMap<JobId, JobRecord>>,
    /// Signalled (broadcast) on every job state transition, so waiters
    /// in [`Scheduler::wait_job`] wake immediately instead of polling.
    jobs_cond: Condvar,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    latency: LatencyBook,
    config: SchedulerConfig,
}

/// Aggregate scheduler counters for the `stats` request.
#[derive(Clone, Debug)]
pub struct SchedulerStats {
    /// Configured worker count.
    pub workers: usize,
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Jobs accepted since startup.
    pub submitted: u64,
    /// Jobs rejected by admission control since startup.
    pub rejected: u64,
    /// `(state name, count)` over all tracked jobs, sorted by name.
    pub jobs_by_state: Vec<(&'static str, u64)>,
    /// Per-`algorithm/engine` completion latency series.
    pub latencies: Vec<LatencySummary>,
}

/// A fixed pool of workers over a bounded priority queue.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Start `config.workers` worker threads (at least one).
    pub fn new(config: SchedulerConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::ranked(rank::QUEUE, Queue::default()),
            cond: Condvar::new(),
            jobs: Mutex::ranked(rank::JOBS, HashMap::new()),
            jobs_cond: Condvar::new(),
            next_id: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            latency: LatencyBook::default(),
            config,
        });
        #[expect(
            clippy::expect_used,
            reason = "spawn fails only on OS resource exhaustion; no scheduler to degrade yet"
        )]
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Admit a job: bounded-queue admission control, then enqueue.
    /// `graph` is the handle resolved at admission (a plain `Arc<Csr>`
    /// converts to an epoch-0 static handle); for dynamic graphs it pins
    /// the epoch snapshot the job computes against.  `resume_from`
    /// continues an interrupted run from its checkpoint; `resume_frame`
    /// optionally rides along with the interrupted run's warmed
    /// superstep frame (skipping the continuation's warm-up allocations
    /// — results are identical with or without it).
    pub fn submit(
        &self,
        spec: JobSpec,
        graph: impl Into<JobGraph>,
        resume_from: Option<StoredCheckpoint>,
        resume_frame: Option<StoredFrame>,
    ) -> Result<JobId, ServiceError> {
        let graph = graph.into();
        // The one spec field whose valid range depends on the admitted
        // graph.  Unchecked, an out-of-range source answers
        // all-unreachable on bsp and trips an assert on graphct.
        let n = graph.num_vertices;
        if spec.algorithm == Algorithm::Bfs && spec.source >= n {
            return Err(ServiceError::InvalidConfig {
                field: "source",
                reason: format!(
                    "vertex {} is outside graph `{}` of {n} vertices",
                    spec.source, spec.graph
                ),
            });
        }
        let id = {
            let mut queue = self.shared.queue.lock();
            if queue.shutdown {
                return Err(ServiceError::ShuttingDown);
            }
            if queue.live_depth() >= self.shared.config.queue_capacity {
                // Relaxed: monotonic stats counter, read only by stats().
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::QueueFull {
                    capacity: self.shared.config.queue_capacity,
                });
            }
            // Relaxed (both): id/seq allocation needs only the RMW's
            // atomicity for uniqueness; the values travel to workers via
            // the jobs/queue locks.
            let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
            let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed); // Relaxed: as above
            let priority = spec.priority;
            // Record before the entry is visible to workers, so a pop
            // always finds its job.
            self.shared.jobs.lock().insert(
                id,
                JobRecord {
                    spec,
                    graph,
                    state: JobState::Queued,
                    cancel: Arc::new(AtomicBool::new(false)),
                    submitted: Instant::now(),
                    started: None,
                    finished: None,
                    supersteps: 0,
                    output: None,
                    error: None,
                    checkpoint: None,
                    resume_from,
                    frame: resume_frame,
                    trace: None,
                },
            );
            queue.heap.push(QueueEntry { priority, seq, id });
            // Count inside the queue lock so `stats()` (which reads the
            // depth under the same lock) never observes a queue deeper
            // than the submitted total.
            // Relaxed: the queue lock provides the ordering; the counter
            // itself is a monotonic stat.
            self.shared.submitted.fetch_add(1, Ordering::Relaxed);
            id
        };
        self.shared.cond.notify_one();
        Ok(id)
    }

    /// Request cancellation.  A queued job is cancelled on the spot; a
    /// running job gets its flag set and is cut at the next superstep
    /// boundary.  Cancelling a terminal job is a `wrong_state` error.
    pub fn cancel(&self, id: JobId) -> Result<JobState, ServiceError> {
        // Queue lock before jobs lock — the order `submit` established.
        // Cancelling a queued job must mark its heap entry stale under
        // the same critical section that flips the state, or a stats
        // reader between the two would see the depth and the state
        // disagree.
        let mut queue = self.shared.queue.lock();
        let mut jobs = self.shared.jobs.lock();
        let rec = jobs.get_mut(&id).ok_or(ServiceError::JobNotFound { id })?;
        let result = match rec.state {
            JobState::Queued => {
                // The heap entry stays; workers discard it on pop and
                // balance the stale count then.
                // Relaxed: single monotonic flag, polled at superstep
                // boundaries; the jobs lock orders the state change.
                rec.cancel.store(true, Ordering::Relaxed);
                rec.state = JobState::Cancelled;
                rec.finished = Some(Instant::now());
                rec.release_graph();
                queue.stale += 1;
                Ok(JobState::Cancelled)
            }
            JobState::Running => {
                // Relaxed: single monotonic flag; a slightly late read by
                // the worker only delays the cut by one superstep.
                rec.cancel.store(true, Ordering::Relaxed);
                Ok(JobState::Running)
            }
            other => Err(ServiceError::WrongState {
                id,
                state: other.name().to_string(),
            }),
        };
        drop(jobs);
        drop(queue);
        if matches!(result, Ok(JobState::Cancelled)) {
            self.shared.jobs_cond.notify_all();
        }
        result
    }

    /// A job's current snapshot.
    pub fn status(&self, id: JobId) -> Result<JobSnapshot, ServiceError> {
        let jobs = self.shared.jobs.lock();
        jobs.get(&id)
            .map(|rec| rec.snapshot(id))
            .ok_or(ServiceError::JobNotFound { id })
    }

    /// Snapshots of every tracked job, sorted by id.
    pub fn list(&self) -> Vec<JobSnapshot> {
        let jobs = self.shared.jobs.lock();
        let mut out: Vec<JobSnapshot> = jobs.iter().map(|(id, rec)| rec.snapshot(*id)).collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// A completed job's output (cloned).  Non-terminal jobs are
    /// `wrong_state`; failed jobs surface their stored error.
    pub fn output(&self, id: JobId) -> Result<(JobOutput, u64), ServiceError> {
        let jobs = self.shared.jobs.lock();
        let rec = jobs.get(&id).ok_or(ServiceError::JobNotFound { id })?;
        match rec.state {
            JobState::Completed => Ok((
                #[expect(clippy::expect_used, reason = "run_one sets both under one lock")]
                rec.output.clone().expect("completed job has output"),
                rec.supersteps,
            )),
            JobState::Failed => Err(ServiceError::Internal {
                message: rec
                    .error
                    .clone()
                    .unwrap_or_else(|| "job failed".to_string()),
            }),
            other => Err(ServiceError::WrongState {
                id,
                state: other.name().to_string(),
            }),
        }
    }

    /// Take an interrupted job's checkpoint (and warmed frame, when the
    /// run left one) for resumption.  Move semantics: both transfer to
    /// the new job, so a stale double-resume gets `no_checkpoint`
    /// instead of forking the run.  The returned [`JobGraph`] is the
    /// *original* epoch handle — a resume continues against the exact
    /// snapshot the interrupted run saw, regardless of update batches
    /// that landed in between.
    pub fn take_checkpoint(
        &self,
        id: JobId,
    ) -> Result<(JobSpec, JobGraph, StoredCheckpoint, Option<StoredFrame>), ServiceError> {
        let mut jobs = self.shared.jobs.lock();
        let rec = jobs.get_mut(&id).ok_or(ServiceError::JobNotFound { id })?;
        match rec.state {
            JobState::Cancelled | JobState::TimedOut | JobState::Interrupted => {
                let cp = rec
                    .checkpoint
                    .take()
                    .ok_or(ServiceError::NoCheckpoint { id })?;
                let graph = rec.graph.clone();
                rec.release_graph();
                Ok((rec.spec.clone(), graph, cp, rec.frame.take()))
            }
            other => Err(ServiceError::WrongState {
                id,
                state: other.name().to_string(),
            }),
        }
    }

    /// Block until `pred` holds for the job's snapshot or `wait`
    /// elapses.  Returns the final snapshot plus `true` when the wait
    /// timed out with the predicate still false.  Wakes on job state
    /// transitions via a condvar — no sleep-polling — so the latency
    /// from transition to return is a wakeup, not a poll interval.
    pub fn wait_job(
        &self,
        id: JobId,
        wait: Duration,
        pred: impl Fn(&JobSnapshot) -> bool,
    ) -> Result<(JobSnapshot, bool), ServiceError> {
        let deadline = Instant::now() + wait;
        let mut jobs = self.shared.jobs.lock();
        loop {
            let snap = jobs
                .get(&id)
                .map(|rec| rec.snapshot(id))
                .ok_or(ServiceError::JobNotFound { id })?;
            if pred(&snap) {
                return Ok((snap, false));
            }
            // The compat condvar has no deadline wait; recompute the
            // remaining budget each pass so spurious wakeups cannot
            // extend the total wait.
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok((snap, true));
            }
            self.shared.jobs_cond.wait_for(&mut jobs, remaining);
        }
    }

    /// [`wait_job`](Self::wait_job) specialised to terminal states.
    pub fn wait_terminal(
        &self,
        id: JobId,
        wait: Duration,
    ) -> Result<(JobSnapshot, bool), ServiceError> {
        self.wait_job(id, wait, |snap| snap.state.is_terminal())
    }

    /// A terminal job's per-superstep trace (cloned).  The series is
    /// empty when the `trace` feature is off or the engine produced no
    /// superstep records; non-terminal jobs are `wrong_state`.
    pub fn trace(&self, id: JobId) -> Result<xmt_trace::JobTrace, ServiceError> {
        let jobs = self.shared.jobs.lock();
        let rec = jobs.get(&id).ok_or(ServiceError::JobNotFound { id })?;
        if !rec.state.is_terminal() {
            return Err(ServiceError::WrongState {
                id,
                state: rec.state.name().to_string(),
            });
        }
        Ok(rec.trace.clone().unwrap_or_else(|| xmt_trace::JobTrace {
            label: format!("{}/{}", rec.spec.algorithm.name(), rec.spec.engine.name()),
            supersteps: Vec::new(),
        }))
    }

    /// Aggregate counters and latency summaries.
    pub fn stats(&self) -> SchedulerStats {
        let queue_depth = self.shared.queue.lock().live_depth();
        let mut by_state: HashMap<&'static str, u64> = HashMap::new();
        {
            let jobs = self.shared.jobs.lock();
            for rec in jobs.values() {
                *by_state.entry(rec.state.name()).or_insert(0) += 1;
            }
        }
        let mut jobs_by_state: Vec<(&'static str, u64)> = by_state.into_iter().collect();
        jobs_by_state.sort_by_key(|(name, _)| *name);
        SchedulerStats {
            workers: self.shared.config.workers.max(1),
            queue_capacity: self.shared.config.queue_capacity,
            queue_depth,
            submitted: self.shared.submitted.load(Ordering::Relaxed), // Relaxed: stats snapshot
            rejected: self.shared.rejected.load(Ordering::Relaxed),   // Relaxed: stats snapshot
            jobs_by_state,
            latencies: self.shared.latency.summaries(),
        }
    }

    /// Stop accepting work, cancel queued jobs, and join the workers.
    /// Running jobs are flagged and finish at their next superstep
    /// boundary with a checkpoint.
    pub fn shutdown(&self) {
        {
            // Queue before jobs — the established nesting order.  Each
            // queued job cancelled here leaves a stale heap entry, so
            // the counts must move together under the queue lock.
            let mut queue = self.shared.queue.lock();
            queue.shutdown = true;
            let mut jobs = self.shared.jobs.lock();
            for rec in jobs.values_mut() {
                match rec.state {
                    JobState::Queued => {
                        // Relaxed: monotonic flag; jobs lock orders state.
                        rec.cancel.store(true, Ordering::Relaxed);
                        rec.state = JobState::Cancelled;
                        rec.finished = Some(Instant::now());
                        queue.stale += 1;
                    }
                    // Relaxed: monotonic flag, polled at superstep bounds.
                    JobState::Running => rec.cancel.store(true, Ordering::Relaxed),
                    _ => {}
                }
            }
        }
        self.shared.cond.notify_all();
        self.shared.jobs_cond.notify_all();
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let entry = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(e) = queue.heap.pop() {
                    break e;
                }
                if queue.shutdown {
                    return;
                }
                shared.cond.wait(&mut queue);
            }
        };
        if !run_one(shared, entry.id) {
            // The popped entry was stale (its job was cancelled while
            // queued, or evicted).  Balance the stale count bumped at
            // cancel time.
            let mut queue = shared.queue.lock();
            queue.stale = queue.stale.saturating_sub(1);
        }
    }
}

/// Run the job behind a popped queue entry.  Returns `false` when the
/// entry was stale — the job was no longer `Queued` (cancelled while it
/// waited) or no longer tracked — so the caller can settle the queue's
/// stale-entry count.
fn run_one(shared: &Shared, id: JobId) -> bool {
    // Claim the job; skip entries whose job was cancelled while queued.
    let (spec, graph, precomputed, cancel, resume_from, resume_frame, deadline) = {
        let mut jobs = shared.jobs.lock();
        let rec = match jobs.get_mut(&id) {
            Some(rec) => rec,
            None => return false,
        };
        if rec.state != JobState::Queued {
            return false;
        }
        rec.state = JobState::Running;
        rec.started = Some(Instant::now());
        let deadline = rec
            .spec
            .deadline_ms
            .map(|ms| rec.submitted + Duration::from_millis(ms));
        (
            rec.spec.clone(),
            rec.graph.csr.clone(),
            rec.graph.precomputed.take(),
            Arc::clone(&rec.cancel),
            rec.resume_from.take(),
            rec.frame.take(),
            deadline,
        )
    };
    // The claim above flipped Queued -> Running; wake status waiters.
    shared.jobs_cond.notify_all();

    let stop = {
        let cancel = Arc::clone(&cancel);
        // Relaxed: the flag is monotonic and only gates an early cut; a
        // stale read costs at most one extra superstep.
        move || cancel.load(Ordering::Relaxed) || deadline.is_some_and(|d| Instant::now() >= d)
    };
    // One sink per run: resumed jobs get a fresh sink whose records
    // continue the checkpoint's absolute superstep numbering.
    let mut sink = xmt_trace::TraceSink::new();
    let outcome = match (precomputed, &graph) {
        // Incremental-engine jobs carry their answer from admission
        // (captured atomically with the epoch); nothing to run.
        (Some(output), _) => Ok(Ok(ExecVerdict::Completed {
            output,
            supersteps: 0,
        })),
        (None, Some(graph)) => catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            tests::inject_fault(&spec);
            execute(&spec, graph, resume_from, resume_frame, &stop, &mut sink)
        })),
        (None, None) => Ok(Err(ServiceError::Internal {
            message: "job admitted with neither a graph snapshot nor an answer".to_string(),
        })),
    };

    let mut jobs = shared.jobs.lock();
    let rec = match jobs.get_mut(&id) {
        Some(rec) => rec,
        None => return true,
    };
    rec.trace = Some(xmt_trace::JobTrace {
        label: format!("{}/{}", spec.algorithm.name(), spec.engine.name()),
        // finish() only drains the sink's already-collected superstep
        // records into a Vec; attaching the trace must be atomic with
        // the state transition below.
        supersteps: sink.finish(),
    });
    let now = Instant::now();
    rec.finished = Some(now);
    match outcome {
        Ok(Ok(ExecVerdict::Completed { output, supersteps })) => {
            rec.state = JobState::Completed;
            rec.supersteps = supersteps;
            rec.output = Some(output);
            let us = now.duration_since(rec.submitted).as_micros() as u64;
            shared.latency.record(
                &format!("{}/{}", spec.algorithm.name(), spec.engine.name()),
                us,
            );
        }
        Ok(Ok(ExecVerdict::Interrupted {
            checkpoint,
            frame,
            supersteps,
        })) => {
            rec.supersteps = supersteps;
            rec.checkpoint = Some(checkpoint);
            rec.frame = Some(frame);
            // Why did the run stop?  Cancel flag and deadline map to
            // their own states; otherwise the superstep budget cut it.
            // Relaxed: post-run classification; the flag only ever goes
            // false -> true, so a stale read misclassifies toward the
            // benign `Interrupted` state.
            rec.state = if cancel.load(Ordering::Relaxed) {
                if deadline.is_some_and(|d| now >= d) {
                    JobState::TimedOut
                } else {
                    JobState::Cancelled
                }
            } else if deadline.is_some_and(|d| now >= d) {
                JobState::TimedOut
            } else {
                JobState::Interrupted
            };
        }
        Ok(Err(err)) => {
            rec.state = JobState::Failed;
            rec.error = Some(err.to_string());
        }
        Err(panic) => {
            rec.state = JobState::Failed;
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "vertex program panicked".to_string());
            rec.error = Some(format!("panic: {message}"));
        }
    }
    rec.release_graph();
    drop(jobs);
    // Terminal transition: wake anyone blocked in wait_job.
    shared.jobs_cond.notify_all();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Engine;
    use xmt_bsp::{ActiveSetStrategy, BspConfig};
    use xmt_graph::builder::build_undirected;
    use xmt_graph::gen::structured::path;
    use xmt_graph::Csr;

    fn spec(graph: &str) -> JobSpec {
        // Worklist active sets keep each of the path's many supersteps
        // O(frontier); the raised superstep cap lets the job finish.
        let config = BspConfig {
            active_set: ActiveSetStrategy::Worklist,
            max_supersteps: 1_000_000,
            ..BspConfig::default()
        };
        JobSpec {
            algorithm: Algorithm::Cc,
            engine: Engine::Bsp,
            graph: graph.to_string(),
            source: 0,
            damping: 0.85,
            tolerance: 1e-7,
            intersect: xmt_graph::IntersectStrategy::Auto,
            config,
            priority: 0,
            deadline_ms: None,
        }
    }

    /// Graph name that makes [`inject_fault`] fail the job.
    const FAULTY: &str = "fault: panic inside a pool loop";

    /// Test-only fault injection, called by `run_one` where the engine
    /// runs: a panic raised inside a parallel loop on the global pool,
    /// by whichever worker claims the chosen index.
    pub(super) fn inject_fault(spec: &JobSpec) {
        if spec.graph == FAULTY {
            xmt_par::parallel_for(0, 1 << 12, |i| {
                if i == 4000 {
                    panic!("injected job failure");
                }
            });
        }
    }

    fn long_path() -> Arc<Csr> {
        // CC on a path needs one superstep per hop of label distance, so
        // a long path keeps a worker busy for a while (every superstep
        // pays a pool round-trip) yet checkpoints instantly at any
        // boundary.
        Arc::new(build_undirected(&path(16_000)))
    }

    fn short_path() -> Arc<Csr> {
        // For the tests that run a path to completion: 1 000 supersteps
        // cannot fit inside a 1 ms deadline on any host, so the run is
        // still cut mid-way, and the resumed rest takes 0.2 s of a debug
        // build where 16 000 vertices took thirty.
        Arc::new(build_undirected(&path(1_000)))
    }

    #[test]
    fn queue_full_rejects_with_typed_error() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 2,
        });
        let g = long_path();
        // Saturate: the worker takes one job, two more sit in the queue.
        let mut admitted = Vec::new();
        let mut rejected = 0;
        for _ in 0..16 {
            match sched.submit(spec("p"), Arc::clone(&g), None, None) {
                Ok(id) => admitted.push(id),
                Err(ServiceError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected > 0, "admission control never kicked in");
        assert!(admitted.len() >= 2, "queue admitted too few");
        assert_eq!(sched.stats().rejected, rejected);
        for id in &admitted {
            let _ = sched.cancel(*id);
        }
        sched.shutdown();
    }

    #[test]
    fn bfs_source_outside_the_graph_is_rejected_on_every_engine() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let g = Arc::new(build_undirected(&path(10)));
        for engine in [Engine::Bsp, Engine::GraphCt] {
            let bfs_from = |source| JobSpec {
                algorithm: Algorithm::Bfs,
                engine,
                source,
                ..spec("p")
            };
            for source in [10, u64::MAX] {
                match sched.submit(bfs_from(source), Arc::clone(&g), None, None) {
                    Err(ServiceError::InvalidConfig { field, reason }) => {
                        assert_eq!(field, "source", "{engine:?}");
                        assert!(reason.contains("10 vertices"), "{engine:?}: {reason}");
                    }
                    other => panic!("{engine:?}/{source}: expected invalid_config, got {other:?}"),
                }
            }
            // The last vertex is a valid source.
            let id = sched
                .submit(bfs_from(9), Arc::clone(&g), None, None)
                .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            assert_eq!(wait_terminal(&sched, id).state, JobState::Completed);
        }
        // An incremental admission carries the vertex count, not a CSR;
        // the check reads the count.
        let graphless = JobGraph {
            csr: None,
            num_vertices: 10,
            epoch: 1,
            precomputed: Some(JobOutput::Triangles(0)),
        };
        let bfs_from_10 = JobSpec {
            algorithm: Algorithm::Bfs,
            engine: Engine::Incremental,
            source: 10,
            ..spec("p")
        };
        assert!(matches!(
            sched.submit(bfs_from_10, graphless, None, None),
            Err(ServiceError::InvalidConfig {
                field: "source",
                ..
            })
        ));
        // Rejected before queueing: not a queue-capacity rejection, and
        // the field only constrains BFS.
        assert_eq!(sched.stats().rejected, 0);
        let cc = JobSpec {
            source: 99,
            ..spec("p")
        };
        assert!(sched.submit(cc, Arc::clone(&g), None, None).is_ok());
        sched.shutdown();
    }

    #[test]
    fn deadline_cuts_a_run_into_a_resumable_checkpoint() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let g = short_path();
        let mut s = spec("p");
        s.deadline_ms = Some(1);
        let id = sched.submit(s, Arc::clone(&g), None, None).unwrap();
        let snap = wait_terminal(&sched, id);
        assert_eq!(snap.state, JobState::TimedOut);
        assert!(snap.has_checkpoint, "timed-out job kept no checkpoint");
        assert!(snap.supersteps >= 1);

        // Resume to completion (without the old deadline, which would
        // just cut the continuation again).
        let (mut orig_spec, orig_graph, cp, frame) = sched.take_checkpoint(id).unwrap();
        orig_spec.deadline_ms = None;
        assert!(frame.is_some(), "interrupted bsp run kept no frame");
        let resumed = sched
            .submit(orig_spec, orig_graph, Some(cp), frame)
            .unwrap();
        let snap = wait_terminal(&sched, resumed);
        assert_eq!(snap.state, JobState::Completed, "err={:?}", snap.error);
        let (output, _) = sched.output(resumed).unwrap();
        let JobOutput::Labels(labels) = output else {
            panic!("cc job returned non-label output");
        };
        assert!(labels.iter().all(|&l| l == 0), "path has one component");
        // The checkpoint moved: a second resume is refused.
        assert_eq!(
            sched.take_checkpoint(id).unwrap_err(),
            ServiceError::NoCheckpoint { id }
        );
        sched.shutdown();
    }

    #[test]
    fn cancel_mid_run_leaves_the_pool_healthy() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let g = long_path();
        let id = sched.submit(spec("p"), Arc::clone(&g), None, None).unwrap();
        // Let it start, then cancel mid-run.  The condvar wait wakes on
        // the Queued -> Running transition — no spin.
        let (snap, timed_out) = sched
            .wait_job(id, Duration::from_secs(60), |s| s.state != JobState::Queued)
            .unwrap();
        assert!(!timed_out, "job never left the queue");
        assert_ne!(snap.state, JobState::Queued);
        let _ = sched.cancel(id);
        let snap = wait_terminal(&sched, id);
        assert_eq!(snap.state, JobState::Cancelled);
        assert!(snap.has_checkpoint);

        // The same worker still serves new jobs.
        let small = Arc::new(build_undirected(&path(64)));
        let id2 = sched.submit(spec("small"), small, None, None).unwrap();
        let snap = wait_terminal(&sched, id2);
        assert_eq!(snap.state, JobState::Completed);
        sched.shutdown();
    }

    #[test]
    fn a_panicking_job_fails_typed_and_the_next_job_completes() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let small = Arc::new(build_undirected(&path(64)));
        let id = sched
            .submit(spec(FAULTY), Arc::clone(&small), None, None)
            .unwrap();
        let snap = wait_terminal(&sched, id);
        assert_eq!(snap.state, JobState::Failed);
        match sched.output(id) {
            Err(err @ ServiceError::Internal { .. }) => {
                assert_eq!(err.code(), "internal");
                assert!(err.to_string().contains("panic:"), "{err}");
            }
            other => panic!("expected an internal error, got {other:?}"),
        }

        // The same worker, and the same global pool, serve the next job.
        let id2 = sched.submit(spec("small"), small, None, None).unwrap();
        let snap = wait_terminal(&sched, id2);
        assert_eq!(snap.state, JobState::Completed);
        sched.shutdown();
    }

    #[test]
    fn priorities_run_before_fifo_ties() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 16,
        });
        let g = long_path();
        // Occupy the worker so the queue orders the rest.
        let blocker = sched.submit(spec("p"), Arc::clone(&g), None, None).unwrap();
        let small = Arc::new(build_undirected(&path(32)));
        let lo = sched
            .submit(spec("lo"), Arc::clone(&small), None, None)
            .unwrap();
        let mut hi_spec = spec("hi");
        hi_spec.priority = 9;
        let hi = sched
            .submit(hi_spec, Arc::clone(&small), None, None)
            .unwrap();
        let _ = sched.cancel(blocker);
        let hi_snap = wait_terminal(&sched, hi);
        let lo_snap = sched.status(lo).unwrap();
        // When `hi` finished, `lo` must not have finished before it
        // started: the high-priority job was picked first.
        assert_eq!(hi_snap.state, JobState::Completed);
        assert!(
            lo_snap.state == JobState::Queued
                || lo_snap.state == JobState::Running
                || lo_snap.state == JobState::Completed
        );
        let lo_snap = wait_terminal(&sched, lo);
        assert_eq!(lo_snap.state, JobState::Completed);
        sched.shutdown();
    }

    fn wait_terminal(sched: &Scheduler, id: JobId) -> JobSnapshot {
        let (snap, timed_out) = sched.wait_terminal(id, Duration::from_secs(60)).unwrap();
        assert!(!timed_out, "job {id} never finished");
        snap
    }

    #[test]
    fn finished_jobs_release_their_epoch_snapshots() {
        use crate::registry::GraphRegistry;
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let reg = GraphRegistry::new(0);
        reg.register_dynamic("d", build_undirected(&path(12)))
            .unwrap();
        // One job per epoch: every admission after a batch builds a new
        // snapshot, and a job that kept its handle would pin it.
        let mut ids = Vec::new();
        for v in 2..8u64 {
            reg.update("d", &[(0, v)], &[]).unwrap();
            let jg = reg.admit("d", Algorithm::Cc, Engine::Bsp).unwrap();
            let id = sched.submit(spec("d"), jg, None, None).unwrap();
            assert_eq!(wait_terminal(&sched, id).state, JobState::Completed);
            ids.push(id);
        }
        // The gauge is refreshed by the next touch of the graph; only the
        // registry's cached current epoch is still alive.
        reg.update_trace("d").unwrap();
        assert_eq!(reg.stats().snapshot_epochs_live, 1);
        // The records still answer, epoch included.
        for (i, id) in ids.into_iter().enumerate() {
            assert_eq!(sched.status(id).unwrap().epoch, i as u64 + 1);
            assert!(sched.output(id).is_ok());
        }
        sched.shutdown();
    }

    #[test]
    fn the_three_lock_nestings_follow_the_rank_table() {
        // Every `lock()` checks its rank against what the thread holds
        // (debug builds), so driving each nesting through its public
        // path is the check that `crate::rank` agrees with the code.
        use crate::registry::GraphRegistry;
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let reg = GraphRegistry::new(0);
        reg.register_dynamic("d", build_undirected(&path(12)))
            .unwrap();
        // state → inner: the batch is re-costed under the graph's lock.
        reg.update("d", &[(0, 5)], &[]).unwrap();
        // queue → jobs: admission registers the job under the queue lock.
        let jg = reg.admit("d", Algorithm::Cc, Engine::Bsp).unwrap();
        let id = sched.submit(spec("d"), jg, None, None).unwrap();
        // jobs → series: completion records the latency under the jobs lock.
        assert_eq!(wait_terminal(&sched, id).state, JobState::Completed);
        assert_eq!(sched.stats().latencies[0].completed, 1);
        // The same pair again on the way out (`shutdown`).
        sched.shutdown();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order: acquiring rank 30 while holding [40]")]
    fn taking_the_queue_under_the_jobs_lock_panics() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let _jobs = sched.shared.jobs.lock();
        let _queue = sched.shared.queue.lock();
    }

    #[test]
    fn precomputed_jobs_complete_without_executing() {
        // Incremental-engine jobs arrive with their answer attached; the
        // worker must return it verbatim, run zero supersteps, and keep
        // the admission epoch visible in the snapshot.
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let mut s = spec("dyn");
        s.algorithm = Algorithm::Triangles;
        s.engine = Engine::Incremental;
        let jg = JobGraph {
            csr: None,
            num_vertices: 8,
            epoch: 3,
            precomputed: Some(JobOutput::Triangles(7)),
        };
        let id = sched.submit(s, jg, None, None).unwrap();
        let snap = wait_terminal(&sched, id);
        assert_eq!(snap.state, JobState::Completed, "err={:?}", snap.error);
        assert_eq!(snap.supersteps, 0);
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.engine, "incremental");
        let (output, supersteps) = sched.output(id).unwrap();
        assert_eq!(output, JobOutput::Triangles(7));
        assert_eq!(supersteps, 0);
        sched.shutdown();
    }

    #[test]
    fn cancelled_queued_jobs_free_their_queue_slots() {
        // One worker pinned on a long job; the queue then fills to
        // capacity.  Cancelling every queued job must restore the live
        // depth to zero and re-open admission, even though the heap
        // still physically holds the dead entries.
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 3,
        });
        let g = long_path();
        let blocker = sched.submit(spec("p"), Arc::clone(&g), None, None).unwrap();
        let (_, timed_out) = sched
            .wait_job(blocker, Duration::from_secs(60), |s| {
                s.state != JobState::Queued
            })
            .unwrap();
        assert!(!timed_out);

        let queued: Vec<JobId> = (0..3)
            .map(|_| sched.submit(spec("p"), Arc::clone(&g), None, None).unwrap())
            .collect();
        assert!(matches!(
            sched.submit(spec("p"), Arc::clone(&g), None, None),
            Err(ServiceError::QueueFull { .. })
        ));
        for id in &queued {
            assert_eq!(sched.cancel(*id).unwrap(), JobState::Cancelled);
        }
        // The heap still holds 3 dead entries, but none of them count.
        assert_eq!(sched.stats().queue_depth, 0);
        // ... and admission control sees the free slots again.
        let small = Arc::new(build_undirected(&path(64)));
        let id = sched.submit(spec("small"), small, None, None).unwrap();
        let _ = sched.cancel(blocker);
        let snap = wait_terminal(&sched, id);
        assert_eq!(snap.state, JobState::Completed);
        // The workers drained the stale entries and settled the count.
        let (_, _) = sched
            .wait_terminal(blocker, Duration::from_secs(60))
            .unwrap();
        assert_eq!(sched.stats().queue_depth, 0);
        sched.shutdown();
    }

    #[test]
    fn queued_cancel_wakes_waiters_promptly() {
        // A cancelled queued job transitions with no worker involved;
        // only the condvar broadcast can wake the waiter.  Grant a 10 s
        // budget and require a wake orders of magnitude sooner than the
        // old 2 ms-poll worst case would suggest if notification broke.
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let g = long_path();
        let blocker = sched.submit(spec("p"), Arc::clone(&g), None, None).unwrap();
        let queued = sched.submit(spec("p"), Arc::clone(&g), None, None).unwrap();

        let waiter = {
            let started = Instant::now();
            std::thread::scope(|scope| {
                let handle = scope.spawn(|| {
                    let (snap, timed_out) = sched
                        .wait_terminal(queued, Duration::from_secs(10))
                        .unwrap();
                    (snap, timed_out, started.elapsed())
                });
                // Give the waiter time to block, then cancel.
                std::thread::sleep(Duration::from_millis(50));
                sched.cancel(queued).unwrap();
                handle.join().unwrap()
            })
        };
        let (snap, timed_out, waited) = waiter;
        assert!(!timed_out);
        assert_eq!(snap.state, JobState::Cancelled);
        assert!(
            waited < Duration::from_secs(5),
            "condvar wake took {waited:?}; notification is broken"
        );
        let _ = sched.cancel(blocker);
        sched.shutdown();
    }

    #[test]
    fn wait_job_times_out_with_predicate_unmet() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let g = long_path();
        let blocker = sched.submit(spec("p"), Arc::clone(&g), None, None).unwrap();
        let queued = sched.submit(spec("p"), Arc::clone(&g), None, None).unwrap();
        // Nothing will run `queued` while the blocker holds the only
        // worker, so a short wait must report a timeout, not an error.
        let (snap, timed_out) = sched
            .wait_terminal(queued, Duration::from_millis(20))
            .unwrap();
        assert!(timed_out);
        assert_eq!(snap.state, JobState::Queued);
        let _ = sched.cancel(queued);
        let _ = sched.cancel(blocker);
        sched.shutdown();
    }

    #[cfg(feature = "trace")]
    #[test]
    fn trace_survives_deadline_checkpoint_resume_contiguously() {
        // Deadline cut -> checkpoint -> resume must yield two traces
        // whose absolute superstep numbers join with no gap or overlap.
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let g = short_path();
        let mut s = spec("p");
        s.deadline_ms = Some(1);
        let id = sched.submit(s, Arc::clone(&g), None, None).unwrap();
        let snap = wait_terminal(&sched, id);
        assert_eq!(snap.state, JobState::TimedOut);
        let first = sched.trace(id).unwrap();
        assert_eq!(first.label, "cc/bsp");
        assert!(!first.supersteps.is_empty(), "cut run recorded no trace");
        assert_eq!(first.supersteps[0].superstep, 0);

        let (mut orig_spec, orig_graph, cp, frame) = sched.take_checkpoint(id).unwrap();
        orig_spec.deadline_ms = None;
        assert!(frame.is_some(), "interrupted bsp run kept no frame");
        let resumed = sched
            .submit(orig_spec, orig_graph, Some(cp), frame)
            .unwrap();
        let snap = wait_terminal(&sched, resumed);
        assert_eq!(snap.state, JobState::Completed, "err={:?}", snap.error);
        let second = sched.trace(resumed).unwrap();
        assert!(!second.supersteps.is_empty());

        // Contiguity across the resume cut: the second trace picks up
        // at exactly the next absolute superstep.
        let cut = first.supersteps.last().unwrap().superstep;
        assert_eq!(second.supersteps[0].superstep, cut + 1);
        let all: Vec<u64> = first
            .supersteps
            .iter()
            .chain(&second.supersteps)
            .map(|t| t.superstep)
            .collect();
        let expect: Vec<u64> = (0..all.len() as u64).collect();
        assert_eq!(all, expect, "combined series is not contiguous");
        sched.shutdown();
    }

    #[test]
    fn trace_of_nonterminal_job_is_wrong_state() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let g = long_path();
        let blocker = sched.submit(spec("p"), Arc::clone(&g), None, None).unwrap();
        let queued = sched.submit(spec("p"), Arc::clone(&g), None, None).unwrap();
        assert!(matches!(
            sched.trace(queued),
            Err(ServiceError::WrongState { .. })
        ));
        assert!(matches!(
            sched.trace(9999),
            Err(ServiceError::JobNotFound { .. })
        ));
        let _ = sched.cancel(queued);
        let _ = sched.cancel(blocker);
        sched.shutdown();
    }
}
