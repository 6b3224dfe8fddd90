//! The bounded job scheduler: a fixed worker pool draining a
//! priority/FIFO queue with admission control.
//!
//! Everything the scheduler tracks — the queue, the job table, the
//! counters and the latency series — is one `State` behind one mutex,
//! so every operation is a single critical section that nests no other
//! lock, and `stats()` reads a consistent snapshot by construction.  Two
//! condvars share that mutex: one wakes a worker when a job is queued,
//! the other broadcasts every job state transition to
//! [`Scheduler::wait_job`].
//!
//! The queue has a hard capacity; a submit that finds it full is
//! rejected immediately with [`ServiceError::QueueFull`] instead of
//! buffering unbounded work (the closed-loop bench driver leans on this
//! to measure saturation).  Within the queue, higher `priority` runs
//! first and ties break FIFO: job ids are handed out in submission
//! order.  The queue is an ordered set, so cancelling a queued job takes
//! its entry out on the spot.
//!
//! Cancellation and deadlines share one mechanism: each job carries an
//! atomic cancel flag, and the worker hands the BSP engine a stop hook
//! (`cancelled || past deadline`) that is polled at superstep
//! boundaries.  A cut run comes back as a [`StoredCheckpoint`] and the
//! job lands in `Cancelled`/`TimedOut`/`Interrupted` with the checkpoint
//! attached — [`Scheduler::resume`] continues it exactly.
//! Worker threads wrap engine calls in `catch_unwind`, so a panicking
//! program marks its job `Failed` and the pool stays healthy.
//!
//! Each worker owns one [`FrameSlot`]: the superstep frame of the last
//! BSP job it ran, which its next job of the same program and vertex
//! count reuses if it was already queued.  A worker that finds the queue
//! empty drops its frame, so only busy workers hold one.  Jobs carry no
//! frames, so a cut job that is never resumed pins nothing but its
//! checkpoint.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use xmt_graph::Csr;

use crate::engine::{execute, ExecVerdict, FrameSlot};
use crate::error::ServiceError;
use crate::job::{
    Algorithm, Engine, JobGraph, JobId, JobOutput, JobSpec, JobState, StoredCheckpoint,
};
use crate::stats::{LatencyHistogram, LatencySummary};

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
    /// Kernel name (`cc`/`bfs`/`pagerank`/`triangles`).
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

    /// The `wrong_state` error for an operation the job's state rules out.
    fn wrong_state(&self, id: JobId) -> ServiceError {
        ServiceError::WrongState {
            id,
            state: self.state.name().to_string(),
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

/// A series label (`cc/bsp`): the name of a trace and of a latency
/// series.
fn label(algorithm: Algorithm, engine: Engine) -> String {
    format!("{}/{}", algorithm.name(), engine.name())
}

/// A job a worker has claimed (`Queued → Running`), with what its run
/// takes out of the record.
struct Claim {
    id: JobId,
    spec: JobSpec,
    graph: Option<Arc<Csr>>,
    precomputed: Option<JobOutput>,
    cancel: Arc<AtomicBool>,
    resume_from: Option<StoredCheckpoint>,
    deadline: Option<Instant>,
}

/// Everything the scheduler tracks, under its one lock.
#[derive(Default)]
struct State {
    /// Queued jobs, highest priority first, then FIFO by id.  Every id
    /// in it has a `Queued` record in `jobs`.
    queue: BTreeSet<(Reverse<u8>, JobId)>,
    jobs: HashMap<JobId, JobRecord>,
    /// Jobs accepted since startup, which is also the last id handed out.
    submitted: u64,
    /// Jobs rejected by admission control since startup.
    rejected: u64,
    /// Completion latency per `[algorithm][engine]`, by discriminant.
    latency: [[LatencyHistogram; Engine::ALL.len()]; Algorithm::ALL.len()],
    shutdown: bool,
}

impl State {
    /// A tracked job's record.
    fn record(&self, id: JobId) -> Result<&JobRecord, ServiceError> {
        self.jobs.get(&id).ok_or(ServiceError::JobNotFound { id })
    }

    /// Admission control: no new jobs once shut down or while the queue
    /// is full.
    fn admit(&mut self, capacity: usize) -> Result<(), ServiceError> {
        if self.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        if self.queue.len() >= capacity {
            self.rejected += 1;
            return Err(ServiceError::QueueFull { capacity });
        }
        Ok(())
    }

    /// Register an admitted job and queue it.  The caller wakes a worker
    /// once it has released the lock.
    fn enqueue(
        &mut self,
        spec: JobSpec,
        graph: JobGraph,
        resume_from: Option<StoredCheckpoint>,
    ) -> JobId {
        self.submitted += 1;
        let id = self.submitted;
        self.queue.insert((Reverse(spec.priority), id));
        self.jobs.insert(
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
                trace: None,
            },
        );
        id
    }

    /// Cancel a queued job on the spot: its entry leaves the queue, it
    /// turns `Cancelled`, and it lets go of its snapshot.  No worker ever
    /// sees it, so its cancel flag is left alone.
    fn cancel_queued(&mut self, id: JobId) {
        if let Some(rec) = self.jobs.get_mut(&id) {
            self.queue.remove(&(Reverse(rec.spec.priority), id));
            rec.state = JobState::Cancelled;
            rec.finished = Some(Instant::now());
            rec.release_graph();
        }
    }

    /// Pop the next queued job and claim it for a worker.
    fn claim_next(&mut self) -> Option<Claim> {
        let (_, id) = self.queue.pop_first()?;
        let rec = self.jobs.get_mut(&id)?;
        rec.state = JobState::Running;
        rec.started = Some(Instant::now());
        Some(Claim {
            id,
            spec: rec.spec.clone(),
            graph: rec.graph.csr.clone(),
            precomputed: rec.graph.precomputed.take(),
            cancel: Arc::clone(&rec.cancel),
            resume_from: rec.resume_from.take(),
            deadline: rec
                .spec
                .deadline_ms
                .map(|ms| rec.submitted + Duration::from_millis(ms)),
        })
    }

    /// The non-empty latency series, sorted by label.
    fn latencies(&self) -> Vec<LatencySummary> {
        let mut out: Vec<LatencySummary> = Algorithm::ALL
            .iter()
            .flat_map(|&algorithm| Engine::ALL.map(|engine| (algorithm, engine)))
            .filter_map(|(algorithm, engine)| {
                let h = &self.latency[algorithm as usize][engine as usize];
                (h.count() > 0).then(|| h.summary(label(algorithm, engine)))
            })
            .collect();
        out.sort_by(|a, b| a.label.cmp(&b.label));
        out
    }
}

struct Shared {
    state: Mutex<State>,
    /// Wakes a worker when a job is queued or the scheduler shuts down.
    work: Condvar,
    /// Signalled (broadcast) on every job state transition, so waiters
    /// in [`Scheduler::wait_job`] wake immediately instead of polling.
    transition: Condvar,
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
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            transition: Condvar::new(),
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
    /// the epoch snapshot the job computes against.
    pub fn submit(&self, spec: JobSpec, graph: impl Into<JobGraph>) -> Result<JobId, ServiceError> {
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
        let mut state = self.shared.state.lock();
        state.admit(self.shared.config.queue_capacity)?;
        let id = state.enqueue(spec, graph, None);
        drop(state);
        self.shared.work.notify_one();
        Ok(id)
    }

    /// Continue an interrupted job from its checkpoint as a new job with
    /// `deadline_ms`; returns the new id and the superstep it starts at.
    /// The job is checked before admission, so a resume that can never
    /// succeed gets `job_not_found`, `wrong_state` or `no_checkpoint`,
    /// never a `queue_full` worth retrying.  The checkpoint moves to the
    /// new job only once it is admitted: a `queue_full` or
    /// `shutting_down` rejection leaves it in place for a retry, and a
    /// stale double-resume gets `no_checkpoint` instead of forking the
    /// run.  The new job computes against the *original* epoch handle,
    /// whatever update batches landed since.
    pub fn resume(
        &self,
        id: JobId,
        deadline_ms: Option<u64>,
    ) -> Result<(JobId, u64), ServiceError> {
        let mut state = self.shared.state.lock();
        let rec = state.record(id)?;
        if !matches!(
            rec.state,
            JobState::Cancelled | JobState::TimedOut | JobState::Interrupted
        ) {
            return Err(rec.wrong_state(id));
        }
        let from_superstep = rec
            .checkpoint
            .as_ref()
            .ok_or(ServiceError::NoCheckpoint { id })?
            .superstep;
        let spec = JobSpec {
            deadline_ms,
            ..rec.spec.clone()
        };
        let graph = rec.graph.clone();
        state.admit(self.shared.config.queue_capacity)?;
        let resume_from = state.jobs.get_mut(&id).and_then(|rec| {
            let checkpoint = rec.checkpoint.take();
            rec.release_graph();
            checkpoint
        });
        let new_id = state.enqueue(spec, graph, resume_from);
        drop(state);
        self.shared.work.notify_one();
        Ok((new_id, from_superstep))
    }

    /// Request cancellation.  A queued job is cancelled on the spot; a
    /// running job gets its flag set and is cut at the next superstep
    /// boundary.  Cancelling a terminal job is a `wrong_state` error.
    pub fn cancel(&self, id: JobId) -> Result<JobState, ServiceError> {
        let mut state = self.shared.state.lock();
        let rec = state.record(id)?;
        match rec.state {
            JobState::Queued => state.cancel_queued(id),
            JobState::Running => {
                // Relaxed: single monotonic flag; a slightly late read by
                // the worker only delays the cut by one superstep.
                rec.cancel.store(true, Ordering::Relaxed);
                return Ok(JobState::Running);
            }
            _ => return Err(rec.wrong_state(id)),
        }
        drop(state);
        self.shared.transition.notify_all();
        Ok(JobState::Cancelled)
    }

    /// A job's current snapshot.
    pub fn status(&self, id: JobId) -> Result<JobSnapshot, ServiceError> {
        let state = self.shared.state.lock();
        state.record(id).map(|rec| rec.snapshot(id))
    }

    /// Snapshots of every tracked job, sorted by id.
    pub fn list(&self) -> Vec<JobSnapshot> {
        let state = self.shared.state.lock();
        let mut out: Vec<_> = state
            .jobs
            .iter()
            .map(|(&id, rec)| rec.snapshot(id))
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// A completed job's output (cloned).  Non-terminal jobs are
    /// `wrong_state`; failed jobs surface their stored error.
    pub fn output(&self, id: JobId) -> Result<(JobOutput, u64), ServiceError> {
        let state = self.shared.state.lock();
        let rec = state.record(id)?;
        match rec.state {
            JobState::Completed => Ok((
                #[expect(clippy::expect_used, reason = "run sets both under one lock")]
                rec.output.clone().expect("completed job has output"),
                rec.supersteps,
            )),
            JobState::Failed => Err(ServiceError::Internal {
                message: rec
                    .error
                    .clone()
                    .unwrap_or_else(|| "job failed".to_string()),
            }),
            _ => Err(rec.wrong_state(id)),
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
        let mut state = self.shared.state.lock();
        loop {
            let snap = state.record(id)?.snapshot(id);
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
            self.shared.transition.wait_for(&mut state, remaining);
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
        let state = self.shared.state.lock();
        let rec = state.record(id)?;
        if !rec.state.is_terminal() {
            return Err(rec.wrong_state(id));
        }
        Ok(rec.trace.clone().unwrap_or_else(|| xmt_trace::JobTrace {
            label: label(rec.spec.algorithm, rec.spec.engine),
            supersteps: Vec::new(),
        }))
    }

    /// Aggregate counters and latency summaries.
    pub fn stats(&self) -> SchedulerStats {
        let state = self.shared.state.lock();
        let mut jobs_by_state: BTreeMap<&'static str, u64> = BTreeMap::new();
        for rec in state.jobs.values() {
            *jobs_by_state.entry(rec.state.name()).or_default() += 1;
        }
        SchedulerStats {
            workers: self.shared.config.workers.max(1),
            queue_capacity: self.shared.config.queue_capacity,
            queue_depth: state.queue.len(),
            submitted: state.submitted,
            rejected: state.rejected,
            jobs_by_state: jobs_by_state.into_iter().collect(),
            latencies: state.latencies(),
        }
    }

    /// Stop accepting work, cancel queued jobs, and join the workers.
    /// Running jobs are flagged and finish at their next superstep
    /// boundary with a checkpoint.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            while let Some((_, id)) = state.queue.pop_first() {
                state.cancel_queued(id);
            }
            for rec in state.jobs.values() {
                if rec.state == JobState::Running {
                    // Relaxed: monotonic flag, polled at superstep bounds.
                    rec.cancel.store(true, Ordering::Relaxed);
                }
            }
        }
        self.shared.work.notify_all();
        self.shared.transition.notify_all();
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
    let mut slot: FrameSlot = None;
    while let Some(claim) = next_job(shared, &mut slot) {
        // The claim flipped Queued -> Running; wake status waiters.
        shared.transition.notify_all();
        run(shared, claim, &mut slot);
    }
}

/// The next queued job, claimed, or `None` once the scheduler shuts
/// down.  A worker that finds the queue empty lets go of its frame before
/// it waits, so an idle worker holds no frame: a frame carries over only
/// to a job that was already queued when the previous one finished.
fn next_job(shared: &Shared, slot: &mut FrameSlot) -> Option<Claim> {
    let mut state = shared.state.lock();
    loop {
        if let Some(claim) = state.claim_next() {
            return Some(claim);
        }
        if slot.is_some() {
            // Free the frame outside the lock, then look again.
            drop(state);
            *slot = None;
            state = shared.state.lock();
            continue;
        }
        if state.shutdown {
            return None;
        }
        shared.work.wait(&mut state);
    }
}

/// Run a claimed job and record how it ended.  A BSP job borrows the
/// worker's frame `slot`.
fn run(shared: &Shared, claim: Claim, slot: &mut FrameSlot) {
    let (spec, deadline) = (&claim.spec, claim.deadline);
    let stop = {
        let cancel = Arc::clone(&claim.cancel);
        #[cfg(test)]
        let (spec, polls) = (
            spec.clone(),
            claim.resume_from.is_none().then(Default::default),
        );
        move || {
            #[cfg(test)]
            tests::inject_fault(&spec, polls.as_ref(), &cancel);
            // Relaxed: the flag is monotonic and only gates an early cut; a
            // stale read costs at most one extra superstep.
            cancel.load(Ordering::Relaxed) || deadline.is_some_and(|d| Instant::now() >= d)
        }
    };
    // One sink per run: resumed jobs get a fresh sink whose records
    // continue the checkpoint's absolute superstep numbering.
    let mut sink = xmt_trace::TraceSink::new();
    let outcome = match (claim.precomputed, &claim.graph) {
        // Incremental-engine jobs carry their answer from admission
        // (captured atomically with the epoch); nothing to run.
        (Some(output), _) => Ok(Ok(ExecVerdict::Completed {
            output,
            supersteps: 0,
        })),
        (None, Some(graph)) => catch_unwind(AssertUnwindSafe(|| {
            execute(spec, graph, claim.resume_from, Some(slot), &stop, &mut sink)
        })),
        (None, None) => Ok(Err(ServiceError::Internal {
            message: "job admitted with neither a graph snapshot nor an answer".to_string(),
        })),
    };
    let trace = xmt_trace::JobTrace {
        label: label(spec.algorithm, spec.engine),
        supersteps: sink.finish(),
    };
    let now = Instant::now();

    let mut guard = shared.state.lock();
    let state = &mut *guard;
    let Some(rec) = state.jobs.get_mut(&claim.id) else {
        return;
    };
    rec.trace = Some(trace);
    rec.finished = Some(now);
    match outcome {
        Ok(Ok(ExecVerdict::Completed { output, supersteps })) => {
            rec.state = JobState::Completed;
            rec.supersteps = supersteps;
            rec.output = Some(output);
            let us = now.duration_since(rec.submitted).as_micros() as u64;
            state.latency[spec.algorithm as usize][spec.engine as usize].record_us(us);
        }
        Ok(Ok(ExecVerdict::Interrupted {
            checkpoint,
            supersteps,
        })) => {
            rec.supersteps = supersteps;
            rec.checkpoint = Some(checkpoint);
            // Why did the run stop?  A passed deadline wins, then the
            // cancel flag; otherwise the superstep budget cut it.
            // Relaxed: post-run classification; the flag only ever goes
            // false -> true, so a stale read misclassifies toward the
            // benign `Interrupted` state.
            let cancelled = claim.cancel.load(Ordering::Relaxed);
            rec.state = if deadline.is_some_and(|d| now >= d) {
                JobState::TimedOut
            } else if cancelled {
                JobState::Cancelled
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
    drop(guard);
    // Terminal transition: wake anyone blocked in wait_job.
    shared.transition.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Engine;
    use std::sync::atomic::AtomicU64;
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
            intersect: xmt_graph::IntersectStrategy::Hash,
            config,
            priority: 0,
            deadline_ms: None,
        }
    }

    /// Graph name that makes [`inject_fault`] fail the job.
    const FAULTY: &str = "fault: panic inside a pool loop";

    /// Graph-name prefix that makes [`inject_fault`] cancel a fresh run
    /// at the superstep boundary the rest of the name numbers.
    const CANCEL_AT: &str = "cancel at boundary ";

    /// Test-only fault injection, called from `run`'s stop hook, so it
    /// fires at a superstep boundary while the run holds the worker's
    /// frame: a panic raised inside a parallel loop on the global pool,
    /// by whichever worker claims the chosen index, or a cancel request
    /// at a chosen boundary.  `polls` counts a fresh run's polls, one per
    /// boundary from boundary 1 on; a resumed run passes `None`.
    pub(super) fn inject_fault(spec: &JobSpec, polls: Option<&AtomicU64>, cancel: &AtomicBool) {
        if spec.graph == FAULTY {
            xmt_par::parallel_for(0, 1 << 12, |i| {
                if i == 4000 {
                    panic!("injected job failure");
                }
            });
        }
        // Relaxed: the run's own thread alone polls the counter, and the
        // flag is as monotonic as a cancel request's.
        let boundary = polls.map(|p| p.fetch_add(1, Ordering::Relaxed) + 1);
        let cancel_at = spec
            .graph
            .strip_prefix(CANCEL_AT)
            .and_then(|b| b.parse().ok());
        if boundary.is_some() && boundary == cancel_at {
            cancel.store(true, Ordering::Relaxed);
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
            match sched.submit(spec("p"), Arc::clone(&g)) {
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
                match sched.submit(bfs_from(source), Arc::clone(&g)) {
                    Err(ServiceError::InvalidConfig { field, reason }) => {
                        assert_eq!(field, "source", "{engine:?}");
                        assert!(reason.contains("10 vertices"), "{engine:?}: {reason}");
                    }
                    other => panic!("{engine:?}/{source}: expected invalid_config, got {other:?}"),
                }
            }
            // The last vertex is a valid source.
            let id = sched
                .submit(bfs_from(9), Arc::clone(&g))
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
            sched.submit(bfs_from_10, graphless),
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
        assert!(sched.submit(cc, Arc::clone(&g)).is_ok());
        sched.shutdown();
    }

    fn labels(sched: &Scheduler, id: JobId) -> Vec<u64> {
        let snap = wait_terminal(sched, id);
        assert_eq!(snap.state, JobState::Completed, "err={:?}", snap.error);
        match sched.output(id).unwrap() {
            (JobOutput::Labels(labels), _) => labels,
            (other, _) => panic!("cc job returned {other:?}"),
        }
    }

    #[test]
    fn a_worker_frame_crosses_jobs_of_any_shape_without_changing_results() {
        // One worker, so every job below runs on the same frame slot.
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let g = short_path();
        let reference = xmt_graph::validate::reference_components(&g);
        let cut = sched
            .submit(
                JobSpec {
                    deadline_ms: Some(1),
                    ..spec("p")
                },
                Arc::clone(&g),
            )
            .unwrap();
        assert_eq!(wait_terminal(&sched, cut).state, JobState::TimedOut);
        // An idle worker drops its frame, so the jobs below queue behind
        // a busy one and run back to back once it is cancelled.
        let blocker = sched.submit(spec("long"), long_path()).unwrap();
        let (_, timed_out) = sched
            .wait_job(blocker, Duration::from_secs(60), |s| {
                s.state != JobState::Queued
            })
            .unwrap();
        assert!(!timed_out, "the blocker never started");
        // The blocker leaves a CC frame for 16 000 vertices; a BFS on 64
        // mismatches both its types and its size.
        let small = Arc::new(build_undirected(&path(64)));
        let bfs = JobSpec {
            algorithm: Algorithm::Bfs,
            ..spec("small")
        };
        let bfs = sched.submit(bfs, Arc::clone(&small)).unwrap();
        // Panics mid-run, with the worker's frame taken out of the slot.
        let faulty = sched.submit(spec(FAULTY), Arc::clone(&small)).unwrap();
        let (resumed, _) = sched.resume(cut, None).unwrap();
        // Back to back on one shape: the second job runs on the first's
        // frame.
        let first = sched.submit(spec("p"), Arc::clone(&g)).unwrap();
        let second = sched.submit(spec("p"), Arc::clone(&g)).unwrap();
        sched.cancel(blocker).unwrap();

        assert_eq!(wait_terminal(&sched, bfs).state, JobState::Completed);
        assert_eq!(wait_terminal(&sched, faulty).state, JobState::Failed);
        assert_eq!(labels(&sched, resumed), reference);
        let first = labels(&sched, first);
        assert_eq!(labels(&sched, second), first);
        assert_eq!(first, reference);
        sched.shutdown();
    }

    #[test]
    fn a_worker_that_finds_the_queue_empty_drops_its_frame() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        sched.shutdown();
        let warm = || -> FrameSlot { Some((64, Box::new(()))) };
        // A queued job is handed out and the frame kept for it.
        let mut slot = warm();
        let small = Arc::new(build_undirected(&path(4)));
        let id = sched
            .shared
            .state
            .lock()
            .enqueue(spec("small"), small.into(), None);
        assert_eq!(next_job(&sched.shared, &mut slot).map(|c| c.id), Some(id));
        assert!(
            slot.is_some(),
            "a worker with queued work dropped its frame"
        );
        // An empty queue: the frame goes before the worker would wait.
        assert!(next_job(&sched.shared, &mut slot).is_none());
        assert!(slot.is_none(), "an idle worker kept its frame");
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
        let id = sched.submit(s, Arc::clone(&g)).unwrap();
        let snap = wait_terminal(&sched, id);
        assert_eq!(snap.state, JobState::TimedOut);
        assert!(snap.has_checkpoint, "timed-out job kept no checkpoint");
        assert!(snap.supersteps >= 1);

        // Resume to completion (without the old deadline, which would
        // just cut the continuation again).
        let (resumed, from_superstep) = sched.resume(id, None).unwrap();
        assert_eq!(from_superstep, snap.supersteps);
        let snap = wait_terminal(&sched, resumed);
        assert_eq!(snap.state, JobState::Completed, "err={:?}", snap.error);
        let (output, _) = sched.output(resumed).unwrap();
        let JobOutput::Labels(labels) = output else {
            panic!("cc job returned non-label output");
        };
        assert!(labels.iter().all(|&l| l == 0), "path has one component");
        // The checkpoint moved: a second resume is refused.
        assert_eq!(
            sched.resume(id, None).unwrap_err(),
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
        let id = sched.submit(spec("p"), Arc::clone(&g)).unwrap();
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
        let id2 = sched.submit(spec("small"), small).unwrap();
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
        let id = sched.submit(spec(FAULTY), Arc::clone(&small)).unwrap();
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
        let id2 = sched.submit(spec("small"), small).unwrap();
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
        let blocker = sched.submit(spec("p"), Arc::clone(&g)).unwrap();
        let small = Arc::new(build_undirected(&path(32)));
        let lo = sched.submit(spec("lo"), Arc::clone(&small)).unwrap();
        let mut hi_spec = spec("hi");
        hi_spec.priority = 9;
        let hi = sched.submit(hi_spec, Arc::clone(&small)).unwrap();
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

    #[test]
    fn cancelling_from_the_middle_keeps_the_order_of_the_rest() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 16,
        });
        let blocker = sched.submit(spec("p"), long_path()).unwrap();
        let (_, timed_out) = sched
            .wait_job(blocker, Duration::from_secs(60), |s| {
                s.state != JobState::Queued
            })
            .unwrap();
        assert!(!timed_out, "the blocker never started");
        let small = Arc::new(build_undirected(&path(32)));
        let ids: Vec<JobId> = [0, 5, 0, 5, 1, 5, 1]
            .into_iter()
            .map(|priority| {
                let s = JobSpec {
                    priority,
                    ..spec("small")
                };
                sched.submit(s, Arc::clone(&small)).unwrap()
            })
            .collect();
        // Queue order: ids 1, 3, 5 (priority 5), 4, 6 (priority 1), 0, 2.
        // Cancel the fourth of the seven.
        assert_eq!(sched.cancel(ids[4]).unwrap(), JobState::Cancelled);
        sched.cancel(blocker).unwrap();
        let expect = [ids[1], ids[3], ids[5], ids[6], ids[0], ids[2]];
        for &id in &expect {
            assert_eq!(wait_terminal(&sched, id).state, JobState::Completed);
        }
        // One worker: the start instants give the run order.
        let state = sched.shared.state.lock();
        let started = |id: &JobId| state.jobs[id].started;
        assert_eq!(started(&ids[4]), None, "the cancelled job ran");
        let mut ran = expect;
        ran.sort_by_key(started);
        assert_eq!(ran, expect);
        drop(state);
        sched.shutdown();
    }

    #[test]
    fn latency_series_stay_separate_and_sorted_by_label() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let g = Arc::new(build_undirected(&path(16)));
        let run = |algorithm, engine, graph: JobGraph| {
            let s = JobSpec {
                algorithm,
                engine,
                ..spec("p")
            };
            let id = sched.submit(s, graph).unwrap();
            assert_eq!(wait_terminal(&sched, id).state, JobState::Completed);
        };
        run(Algorithm::Cc, Engine::Bsp, Arc::clone(&g).into());
        run(Algorithm::Cc, Engine::GraphCt, Arc::clone(&g).into());
        run(Algorithm::Cc, Engine::Bsp, Arc::clone(&g).into());
        let answered = JobGraph {
            csr: None,
            num_vertices: 16,
            epoch: 1,
            precomputed: Some(JobOutput::Triangles(0)),
        };
        run(Algorithm::Triangles, Engine::Incremental, answered);
        run(Algorithm::Bfs, Engine::Bsp, Arc::clone(&g).into());
        let series: Vec<(String, u64)> = sched
            .stats()
            .latencies
            .into_iter()
            .map(|l| (l.label, l.completed))
            .collect();
        let expect = [
            ("bfs/bsp", 1),
            ("cc/bsp", 2),
            ("cc/graphct", 1),
            ("triangles/incremental", 1),
        ]
        .map(|(label, n)| (label.to_string(), n));
        assert_eq!(series, expect);
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
            let id = sched.submit(spec("d"), jg).unwrap();
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
    fn shutdown_releases_the_snapshots_of_queued_jobs() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let blocker = sched.submit(spec("p"), long_path()).unwrap();
        let (_, timed_out) = sched
            .wait_job(blocker, Duration::from_secs(60), |s| {
                s.state != JobState::Queued
            })
            .unwrap();
        assert!(!timed_out, "the blocker never started");
        let small = Arc::new(build_undirected(&path(64)));
        let queued = sched.submit(spec("small"), Arc::clone(&small)).unwrap();
        assert_eq!(Arc::strong_count(&small), 2);
        sched.shutdown();
        assert_eq!(sched.status(queued).unwrap().state, JobState::Cancelled);
        assert_eq!(
            Arc::strong_count(&small),
            1,
            "a job cancelled by shutdown still pins its snapshot"
        );
    }

    #[test]
    fn stats_stay_consistent_while_submitters_cancellers_and_workers_race() {
        const PER_SUBMITTER: u64 = 40;
        const SUBMITTED: u64 = 2 * PER_SUBMITTER;
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            queue_capacity: 8,
        });
        let small = Arc::new(build_undirected(&path(16)));
        let count = |stats: &SchedulerStats, name: &str| {
            stats
                .jobs_by_state
                .iter()
                .find(|(state, _)| *state == name)
                .map_or(0, |&(_, n)| n)
        };
        let check = |stats: &SchedulerStats| {
            assert_eq!(
                stats.queue_depth as u64,
                count(stats, "queued"),
                "{stats:?}"
            );
            let tracked: u64 = stats.jobs_by_state.iter().map(|&(_, n)| n).sum();
            assert_eq!(stats.submitted, tracked, "{stats:?}");
        };
        std::thread::scope(|scope| {
            let mut racers: Vec<_> = (0..2u8)
                .map(|t| {
                    let (sched, small) = (&sched, &small);
                    scope.spawn(move || {
                        let mut admitted = 0;
                        while admitted < PER_SUBMITTER {
                            let s = JobSpec {
                                priority: (admitted % 3) as u8 + t,
                                ..spec("small")
                            };
                            match sched.submit(s, Arc::clone(small)) {
                                Ok(_) => admitted += 1,
                                Err(ServiceError::QueueFull { .. }) => std::thread::yield_now(),
                                Err(other) => panic!("unexpected error: {other}"),
                            }
                        }
                    })
                })
                .collect();
            // Cancel among the newest ids, where the queued jobs are;
            // whatever state a job is in, the answer is typed.
            racers.push(scope.spawn(|| {
                let mut k = 0;
                loop {
                    let last = sched.stats().submitted;
                    if last == SUBMITTED {
                        break;
                    }
                    if last > 0 {
                        let _ = sched.cancel(last - k % last.min(4));
                    }
                    k += 1;
                    std::thread::yield_now();
                }
            }));
            while !racers.iter().all(|h| h.is_finished()) {
                check(&sched.stats());
            }
            for racer in racers {
                racer.join().unwrap();
            }
        });
        for id in 1..=SUBMITTED {
            let state = wait_terminal(&sched, id).state;
            assert!(
                matches!(state, JobState::Completed | JobState::Cancelled),
                "job {id}: {state:?}"
            );
        }
        let stats = sched.stats();
        check(&stats);
        assert_eq!(stats.submitted, SUBMITTED);
        let completed: u64 = stats.latencies.iter().map(|l| l.completed).sum();
        assert_eq!(completed, count(&stats, "completed"));
        sched.shutdown();
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
        let id = sched.submit(s, jg).unwrap();
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
        // capacity.  Cancelling every queued job must take the depth back
        // to zero and re-open admission.
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 3,
        });
        let g = long_path();
        let blocker = sched.submit(spec("p"), Arc::clone(&g)).unwrap();
        let (_, timed_out) = sched
            .wait_job(blocker, Duration::from_secs(60), |s| {
                s.state != JobState::Queued
            })
            .unwrap();
        assert!(!timed_out);

        let queued: Vec<JobId> = (0..3)
            .map(|_| sched.submit(spec("p"), Arc::clone(&g)).unwrap())
            .collect();
        assert!(matches!(
            sched.submit(spec("p"), Arc::clone(&g)),
            Err(ServiceError::QueueFull { .. })
        ));
        for id in &queued {
            assert_eq!(sched.cancel(*id).unwrap(), JobState::Cancelled);
        }
        assert_eq!(sched.stats().queue_depth, 0);
        // ... and admission control sees the free slots again.
        let small = Arc::new(build_undirected(&path(64)));
        let id = sched.submit(spec("small"), small).unwrap();
        let _ = sched.cancel(blocker);
        let snap = wait_terminal(&sched, id);
        assert_eq!(snap.state, JobState::Completed);
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
        let blocker = sched.submit(spec("p"), Arc::clone(&g)).unwrap();
        let queued = sched.submit(spec("p"), Arc::clone(&g)).unwrap();

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
        let blocker = sched.submit(spec("p"), Arc::clone(&g)).unwrap();
        let queued = sched.submit(spec("p"), Arc::clone(&g)).unwrap();
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
    fn a_cc_job_cancelled_before_a_pull_superstep_resumes_it_exactly() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        // CC under Auto on a path pulls while more than half the path is
        // awake: the first dozens of supersteps.
        let g = Arc::new(build_undirected(&path(200)));
        let config = BspConfig {
            delivery: xmt_bsp::Delivery::Auto,
            ..spec("p").config
        };
        let direct = xmt_bsp::run_bsp(
            &g,
            &xmt_bsp::algorithms::components::CcProgram,
            config,
            None,
        );
        let pulled: Vec<bool> = direct.superstep_stats.iter().map(|s| s.pulled).collect();
        // The boundary before the last pull superstep, itself after one.
        let at = pulled
            .iter()
            .rposition(|&p| p)
            .expect("Auto pulls the path");
        assert!(at > 1 && pulled[at - 1], "{pulled:?}");

        let cut = JobSpec {
            config,
            ..spec(&format!("{CANCEL_AT}{at}"))
        };
        let id = sched.submit(cut, Arc::clone(&g)).unwrap();
        let snap = wait_terminal(&sched, id);
        assert_eq!(snap.state, JobState::Cancelled);
        assert_eq!(snap.supersteps, at as u64);
        let (resumed, from_superstep) = sched.resume(id, None).unwrap();
        assert_eq!(from_superstep, at as u64);
        assert_eq!(labels(&sched, resumed), direct.states);

        // The joined trace is contiguous, and the resumed run pulls the
        // superstep it starts with, as the direct run did.
        let traces = [sched.trace(id).unwrap(), sched.trace(resumed).unwrap()];
        let joined: Vec<_> = traces.iter().flat_map(|t| &t.supersteps).collect();
        let numbers: Vec<u64> = joined.iter().map(|t| t.superstep).collect();
        assert_eq!(numbers, (0..direct.supersteps).collect::<Vec<_>>());
        let joined_pulled: Vec<bool> = joined.iter().map(|t| t.pulled).collect();
        assert_eq!(joined_pulled, pulled);
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
        let id = sched.submit(s, Arc::clone(&g)).unwrap();
        let snap = wait_terminal(&sched, id);
        assert_eq!(snap.state, JobState::TimedOut);
        let first = sched.trace(id).unwrap();
        assert_eq!(first.label, "cc/bsp");
        assert!(!first.supersteps.is_empty(), "cut run recorded no trace");
        assert_eq!(first.supersteps[0].superstep, 0);

        let (resumed, _) = sched.resume(id, None).unwrap();
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
        let blocker = sched.submit(spec("p"), Arc::clone(&g)).unwrap();
        let queued = sched.submit(spec("p"), Arc::clone(&g)).unwrap();
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
