//! The sweep service: validated requests in, streamed records out.
//!
//! A [`Service`] owns three things:
//!
//! * a bounded [`RequestQueue`] (the backpressure point — see
//!   [`crate::queue`]);
//! * a pool of *request workers* that pop queued requests and drive them;
//! * one shared `ccs-runtime` [`ThreadPool`] that all requests' sweep
//!   points are batched onto, so concurrent requests share the machine
//!   instead of oversubscribing it.
//!
//! A request resolves into an [`Experiment`] ([`SubmitRequest::experiment`])
//! and runs through the same executor as an in-process sweep: one pass over
//! [`Experiment::plan`].  Every point of a group is first checked against
//! the persistent [`ResultStore`] (when the service has one) under its
//! [`Experiment::record_keys`].  A point whose records are *all* stored is
//! streamed straight from disk (`cached: true` on the frames); the group's
//! other points run as one [`Experiment::run_group`] closure on the pool via
//! [`spawn_cancellable`](ThreadPool::spawn_cancellable) and are stored on
//! completion.  Stored records reserialise byte-identically to a fresh run
//! (see [`ccs_experiment::result_store`]), so clients cannot tell a memo
//! hit from a cold run except by the `cached` flag and the wall-clock.
//! Under the batch engine a group is a latency sweep's batchable points,
//! sharing one recorded pass (records stay byte-identical, and the
//! canonical keys fold onto the event engine's — a batched request hits
//! the entries an event request stored, and vice versa); under the other
//! engines every group is a single point.
//!
//! Cancellation rides on [`CancelToken`]s: each request gets a child of the
//! service's root token.  Tripping the request token drops the request's
//! still-queued points unrun; tripping the root (drain) cancels everything.
//! The worker observes completion through channel disconnect — every point
//! closure owns a sender clone, finished or dropped — and emits the
//! terminal `status` frame with `done` or `cancelled` accordingly.
//!
//! # Failure containment (DESIGN.md §13)
//!
//! Every group closure runs under `catch_unwind`: a panicking user
//! workload converts to one `error` frame per point of its group (and a
//! `failed` terminal status) while the daemon, the pool worker and every
//! other request keep going.  Requests submitted with `timeout_ms` are watched by
//! a deadline thread that trips their cancel token on expiry — in-flight
//! points still stream (the partial-results contract of cancellation) and
//! the terminal status reads `timeout`.  [`Service::health`] reports
//! uptime, inflight and queue depth plus the panic/timeout counters and
//! store statistics.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ccs_experiment::{Experiment, ResultStore, RunRecord, SweepPoint};
use ccs_runtime::{CancelToken, Policy, ThreadPool};
use parking_lot::{Condvar, Mutex};

use crate::protocol::{Frame, HealthReport, RequestState, SubmitRequest};
use crate::queue::{RequestQueue, SubmitError};

/// Tuning knobs of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Root directory of the persistent result store; `None` disables
    /// cross-process memoisation (the in-process build cache still applies).
    pub store_dir: Option<PathBuf>,
    /// Disk budget for the result store (`--store-max-bytes`): when set,
    /// every store write evicts least-recently-used entries over budget
    /// (see [`ResultStore::open_bounded`]).  `None` grows unboundedly.
    pub store_max_bytes: Option<u64>,
    /// Maximum queued (accepted but not yet running) requests.
    pub queue_capacity: usize,
    /// Request workers: how many requests run concurrently.
    pub workers: usize,
    /// Threads of the shared simulation pool all requests batch onto.
    pub pool_threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            store_dir: None,
            store_max_bytes: None,
            queue_capacity: 32,
            workers: 2,
            pool_threads: 2,
        }
    }
}

/// A request validated and resolved, ready to queue: the output of
/// [`Service::prepare`].
pub struct PreparedRequest {
    /// The client's request id.
    pub id: String,
    /// Resolved report name.
    pub name: String,
    /// Effective scale divisor (after `quick` clamping).
    pub scale: u64,
    /// Number of sweep points.
    pub points: usize,
    /// Total records a complete run produces.
    pub total: usize,
    exp: Arc<Experiment>,
    /// Server-side deadline, from the submit frame's `timeout_ms`.
    timeout: Option<Duration>,
}

/// A queued request: the prepared experiment plus its session plumbing.
struct QueuedRequest {
    prepared: PreparedRequest,
    token: CancelToken,
    reply: mpsc::Sender<Frame>,
    /// Deadline registration, when the request carried `timeout_ms`.  The
    /// clock runs from submit, so queue wait counts against the deadline.
    deadline: Option<DeadlineHandle>,
    /// Dropped by the worker when the request reaches its terminal status —
    /// the session's drain counter (see [`crate::session`]).
    _pending: Option<Box<dyn std::any::Any + Send>>,
}

/// One sweep point's outcome, reported back to the worker: its records, or
/// the panic message of a failed (e.g. panicking-workload) group.
struct PointDone {
    point: SweepPoint,
    records: Result<Vec<RunRecord>, String>,
}

/// Live progress of one request, served to `query` frames.
#[derive(Clone, Copy, Default)]
struct Progress {
    completed: usize,
    total: usize,
    cached: usize,
}

/// One registered deadline, shared between the watcher thread and the
/// request's worker.
struct DeadlineEntry {
    when: Instant,
    token: CancelToken,
    timed_out: Arc<AtomicBool>,
    settled: Arc<AtomicBool>,
}

/// The request side of a deadline registration: observe expiry, and settle
/// the entry on drop so the watcher forgets finished requests.
struct DeadlineHandle {
    timed_out: Arc<AtomicBool>,
    settled: Arc<AtomicBool>,
}

impl DeadlineHandle {
    fn timed_out(&self) -> bool {
        self.timed_out.load(Ordering::Acquire)
    }
}

impl Drop for DeadlineHandle {
    fn drop(&mut self) {
        self.settled.store(true, Ordering::Release);
    }
}

/// The deadline thread's state: pending entries plus its wakeup machinery.
/// One watcher serves every request of the service; expiry trips the
/// request's [`CancelToken`], which reuses the whole cancellation path
/// (queued points dropped unrun, in-flight points finish and stream).
struct DeadlineWatcher {
    entries: Mutex<Vec<DeadlineEntry>>,
    wake: Condvar,
    stopped: AtomicBool,
    /// Requests terminated by expiry, for [`Service::health`].
    expired: AtomicU64,
}

impl DeadlineWatcher {
    fn new() -> DeadlineWatcher {
        DeadlineWatcher {
            entries: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            stopped: AtomicBool::new(false),
            expired: AtomicU64::new(0),
        }
    }

    fn register(&self, timeout: Duration, token: CancelToken) -> DeadlineHandle {
        let timed_out = Arc::new(AtomicBool::new(false));
        let settled = Arc::new(AtomicBool::new(false));
        self.entries.lock().push(DeadlineEntry {
            when: Instant::now() + timeout,
            token,
            timed_out: Arc::clone(&timed_out),
            settled: Arc::clone(&settled),
        });
        self.wake.notify_all();
        DeadlineHandle { timed_out, settled }
    }

    /// The watcher thread body: expire due entries, drop settled ones,
    /// sleep until the next deadline (bounded, so a settled entry or a
    /// stop request is noticed promptly even without a wakeup).
    fn run(&self) {
        let mut entries = self.entries.lock();
        while !self.stopped.load(Ordering::Acquire) {
            let now = Instant::now();
            entries.retain(|entry| {
                if entry.settled.load(Ordering::Acquire) {
                    return false;
                }
                if entry.when <= now {
                    // Mark before cancelling, so a worker that sees the
                    // cancelled token and then asks `timed_out()` cannot
                    // miss the flag.
                    entry.timed_out.store(true, Ordering::Release);
                    entry.token.cancel();
                    self.expired.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                true
            });
            let next_due = entries.iter().map(|e| e.when).min();
            let wait = match next_due {
                Some(when) => when
                    .saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(100)),
                None => Duration::from_millis(100),
            };
            self.wake
                .wait_for(&mut entries, wait.max(Duration::from_millis(1)));
        }
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        let _entries = self.entries.lock();
        self.wake.notify_all();
    }
}

struct ServiceInner {
    queue: RequestQueue<QueuedRequest>,
    pool: ThreadPool,
    store: Option<ResultStore>,
    root: CancelToken,
    /// Request id → progress, inserted at submit and updated as records
    /// stream.  Entries persist after completion (three counters per
    /// request id) so late queries still answer; a resubmitted id
    /// overwrites its entry.
    progress: Mutex<std::collections::HashMap<String, Progress>>,
    deadlines: Arc<DeadlineWatcher>,
    /// Service start time, for health uptime.
    started: Instant,
    /// Requests currently being driven by a worker.
    inflight: AtomicUsize,
    /// Sweep-point panics caught by the request drivers (the pool-boundary
    /// counter, [`ThreadPool::panics_caught`], covers everything else).
    panics_caught: AtomicU64,
}

/// The daemon core: queue, workers, shared pool, result store.
pub struct Service {
    inner: Arc<ServiceInner>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    watcher: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Service {
    /// Start a service: opens the store (if configured) and spawns the
    /// request workers and the shared simulation pool.
    pub fn start(config: ServiceConfig) -> std::io::Result<Service> {
        let store = match &config.store_dir {
            Some(dir) => Some(ResultStore::open_bounded(dir, config.store_max_bytes)?),
            None => None,
        };
        let inner = Arc::new(ServiceInner {
            queue: RequestQueue::new(config.queue_capacity),
            pool: ThreadPool::new(config.pool_threads, Policy::WorkStealing),
            store,
            root: CancelToken::new(),
            progress: Mutex::new(std::collections::HashMap::new()),
            deadlines: Arc::new(DeadlineWatcher::new()),
            started: Instant::now(),
            inflight: AtomicUsize::new(0),
            panics_caught: AtomicU64::new(0),
        });
        // A failed thread spawn (resource exhaustion) must not leak the
        // threads already started: close the queue so they exit, join,
        // and surface the error instead of panicking.
        let mut workers = Vec::with_capacity(config.workers.max(1));
        let mut spawn_all = || -> std::io::Result<thread::JoinHandle<()>> {
            for i in 0..config.workers.max(1) {
                let inner = Arc::clone(&inner);
                workers.push(
                    thread::Builder::new()
                        .name(format!("ccs-serve-worker-{i}"))
                        .spawn(move || {
                            while let Some(request) = inner.queue.pop() {
                                run_request(&inner, request);
                            }
                        })?,
                );
            }
            let deadlines = Arc::clone(&inner.deadlines);
            thread::Builder::new()
                .name("ccs-serve-deadline".to_string())
                .spawn(move || deadlines.run())
        };
        let watcher = match spawn_all() {
            Ok(watcher) => watcher,
            Err(e) => {
                inner.queue.close();
                for worker in workers {
                    let _ = worker.join();
                }
                return Err(e);
            }
        };
        Ok(Service {
            inner,
            workers: Mutex::new(workers),
            watcher: Mutex::new(Some(watcher)),
        })
    }

    /// Validate a submit frame and resolve it into its experiment (see
    /// [`SubmitRequest::experiment`]).  The error string is client-facing:
    /// it becomes an `error` frame.
    pub fn prepare(&self, req: &SubmitRequest) -> Result<PreparedRequest, String> {
        if req.id.is_empty() {
            return Err("request id must not be empty".to_string());
        }
        let exp = req.experiment()?;
        let points = exp.sweep_points().len();
        Ok(PreparedRequest {
            id: req.id.clone(),
            name: exp.report_name().to_string(),
            scale: exp.effective_scale(),
            points,
            total: points * exp.resolved_schedulers().len(),
            exp: Arc::new(exp),
            timeout: req.timeout_ms.map(Duration::from_millis),
        })
    }

    /// Queue a prepared request.  `reply` receives every frame about it;
    /// `pending` (if any) is dropped when the request reaches its terminal
    /// status — sessions use it as their drain counter.
    pub fn submit(
        &self,
        prepared: PreparedRequest,
        token: CancelToken,
        reply: mpsc::Sender<Frame>,
        pending: Option<Box<dyn std::any::Any + Send>>,
    ) -> Result<(), SubmitError> {
        let id = prepared.id.clone();
        let total = prepared.total;
        self.inner.progress.lock().insert(
            id.clone(),
            Progress {
                completed: 0,
                total,
                cached: 0,
            },
        );
        // The deadline clock starts here: time spent queued counts, so a
        // request that expires before a worker reaches it terminates with
        // `timeout` and zero records.  (A queue-rejected request drops the
        // handle, which settles the watcher entry.)
        let deadline = prepared
            .timeout
            .map(|timeout| self.inner.deadlines.register(timeout, token.clone()));
        let result = self.inner.queue.submit(QueuedRequest {
            prepared,
            token,
            reply,
            deadline,
            _pending: pending,
        });
        if result.is_err() {
            // The queue rejected it (full or closed): no run will happen,
            // so don't leave a phantom 0/total entry behind.
            self.inner.progress.lock().remove(&id);
        }
        result
    }

    /// Progress of a submitted request: `(completed, total, cached)`
    /// record counts, or `None` for an id the service never accepted.
    /// Serves the protocol's `query` frame — any session may ask about any
    /// request id, without collecting its results.
    pub fn progress(&self, id: &str) -> Option<(usize, usize, usize)> {
        self.inner
            .progress
            .lock()
            .get(id)
            .map(|p| (p.completed, p.total, p.cached))
    }

    /// A child of the service's root cancel token: per-request tokens hang
    /// off this, so [`Service::shutdown`] can cancel everything at once.
    pub fn request_token(&self) -> CancelToken {
        self.inner.root.child()
    }

    /// Number of records in the store's in-memory front (0 without a store).
    pub fn store_cached_records(&self) -> usize {
        self.inner
            .store
            .as_ref()
            .map_or(0, ResultStore::cached_records)
    }

    /// A snapshot of daemon health: uptime, load, the panic and timeout
    /// counters, and store statistics.  Serves the protocol's `health`
    /// probe.
    pub fn health(&self) -> HealthReport {
        let inner = &self.inner;
        HealthReport {
            uptime_ms: inner.started.elapsed().as_millis() as u64,
            inflight: inner.inflight.load(Ordering::Relaxed),
            queue_depth: inner.queue.len(),
            panics_caught: inner.panics_caught.load(Ordering::Relaxed)
                + inner.pool.panics_caught() as u64,
            timeouts: inner.deadlines.expired.load(Ordering::Relaxed),
            store_records: self.store_cached_records(),
            store_bytes: inner.store.as_ref().map_or(0, ResultStore::disk_bytes),
        }
    }

    /// Graceful drain: stop accepting, let queued and in-flight requests
    /// finish, and join the workers (and the deadline watcher).  Idempotent.
    pub fn drain(&self) {
        self.inner.queue.close();
        let workers = std::mem::take(&mut *self.workers.lock());
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(watcher) = self.watcher.lock().take() {
            self.inner.deadlines.stop();
            let _ = watcher.join();
        }
    }

    /// Hard stop: cancel every request (queued points are dropped, in-flight
    /// points finish), then drain.
    pub fn shutdown(&self) {
        self.inner.root.cancel();
        self.drain();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Drive one request end to end: stream cache hits, run the rest of each
/// planned group on the pool, store fresh records, emit the terminal status.
fn run_request(inner: &Arc<ServiceInner>, request: QueuedRequest) {
    let QueuedRequest {
        prepared: req,
        token,
        reply,
        deadline,
        _pending,
    } = request;
    let total = req.total;
    let mut completed = 0usize;
    inner.inflight.fetch_add(1, Ordering::Relaxed);

    let accepted = Frame::Accepted {
        id: req.id.clone(),
        name: req.name.clone(),
        scale: req.scale,
        points: req.points,
        total,
    };
    // A failed send means the session is gone; cancel so queued points of
    // this request stop consuming the pool.
    if reply.send(accepted).is_err() {
        token.cancel();
    }

    let per_point = req.exp.resolved_schedulers().len();
    let mut emit = |seq_base: usize, records: &[RunRecord], cached: bool| {
        for (offset, record) in records.iter().enumerate() {
            completed += 1;
            let frame = Frame::Result {
                id: req.id.clone(),
                seq: seq_base + offset,
                total,
                cached,
                record: record.clone(),
            };
            if reply.send(frame).is_err() {
                token.cancel();
            }
        }
        if let Some(progress) = inner.progress.lock().get_mut(&req.id) {
            progress.completed = completed;
            if cached {
                progress.cached += records.len();
            }
        }
    };
    // Serve a point from the store when *all* its records are there.
    let stored_records = |point: &SweepPoint| -> Option<Vec<RunRecord>> {
        let store = inner.store.as_ref()?;
        req.exp
            .record_keys(point)
            .iter()
            .map(|key| store.get(key))
            .collect()
    };

    // Launch phase: one pass over the plan.  Each group serves its stored
    // points immediately and launches one pool closure for the rest.
    let (tx, rx) = mpsc::channel::<PointDone>();
    if !token.is_cancelled() {
        for group in req.exp.plan() {
            let mut fresh = Vec::new();
            for point in group {
                match stored_records(&point) {
                    Some(records) => emit(point.index * per_point, &records, true),
                    None => fresh.push(point),
                }
            }
            if fresh.is_empty() {
                continue;
            }
            let exp = Arc::clone(&req.exp);
            let tx = tx.clone();
            let service = Arc::clone(inner);
            inner.pool.spawn_cancellable(&token, move || {
                // Panic isolation: a panicking workload build (user
                // factories can panic) fails this group's points, not the
                // pool worker or the daemon.
                let run = panic::catch_unwind(AssertUnwindSafe(|| exp.run_group(&fresh)));
                let outcomes = match run {
                    Ok(per_point) => per_point.into_iter().map(Ok).collect(),
                    Err(payload) => {
                        service.panics_caught.fetch_add(1, Ordering::Relaxed);
                        vec![Err(panic_message(payload)); fresh.len()]
                    }
                };
                for (point, records) in fresh.into_iter().zip(outcomes) {
                    // The session may be gone; disconnect is fine.
                    let _ = tx.send(PointDone { point, records });
                }
            });
        }
    }
    drop(tx);

    // Drain phase: stream computed points as they land, memoising each;
    // a failed point becomes an `error` frame instead of records.  The
    // channel disconnects once every launched closure has either sent or
    // been dropped unrun by its cancel check — so a cancelled request
    // falls out of this loop with `completed < total`.
    let mut failed = 0usize;
    while let Ok(done) = rx.recv() {
        let records = match done.records {
            Ok(records) => records,
            Err(message) => {
                failed += 1;
                let frame = Frame::Error {
                    id: Some(req.id.clone()),
                    message: format!("sweep point {} panicked: {message}", done.point.index),
                };
                if reply.send(frame).is_err() {
                    token.cancel();
                }
                continue;
            }
        };
        if let Some(store) = &inner.store {
            for (key, record) in req.exp.record_keys(&done.point).iter().zip(&records) {
                if let Err(e) = store.put(key, record) {
                    // Memoisation is best-effort: the record still streams,
                    // it just won't be served from disk next time.
                    eprintln!("ccs-serve: store write failed for request {}: {e}", req.id);
                }
            }
        }
        emit(done.point.index * per_point, &records, false);
    }

    // Terminal state, most-specific first: expiry beats plain cancellation,
    // cancellation beats failure (a cancel arriving after a panic still
    // reads as the client's cancel), failure beats done.
    let timed_out = deadline.as_ref().is_some_and(DeadlineHandle::timed_out);
    let state = if timed_out {
        RequestState::TimedOut
    } else if token.is_cancelled() {
        RequestState::Cancelled
    } else if failed > 0 || completed < total {
        RequestState::Failed
    } else {
        RequestState::Done
    };
    // Settle the books *before* publishing the terminal status: a client
    // that reacts to the status with a health probe must not see this
    // request still counted in flight.
    drop(deadline);
    inner.inflight.fetch_sub(1, Ordering::Relaxed);
    let _ = reply.send(Frame::Status {
        id: req.id.clone(),
        state,
        completed,
        total,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_rejects_a_request_without_workloads() {
        let service = Service::start(ServiceConfig {
            workers: 1,
            pool_threads: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        // A library caller can hand-build what the wire parser rejects.
        let req = SubmitRequest {
            id: "empty".to_string(),
            name: None,
            workloads: Vec::new(),
            schedulers: Vec::new(),
            cores: Vec::new(),
            scale: 1024,
            quick: false,
            engine: ccs_sim::SimEngine::EventDriven,
            baseline: true,
            timeout_ms: None,
        };
        match service.prepare(&req) {
            Err(message) => assert_eq!(message, "submit has no workloads"),
            Ok(_) => panic!("a request without workloads must not prepare"),
        }
    }
}
