//! The in-repo client: submit sweeps, stream results, reassemble reports.
//!
//! [`Client`] wraps any `BufRead`/`Write` pair speaking the
//! [`crate::protocol`] — a Unix socket ([`Client::connect_unix`]), a
//! socketpair half in tests, or a child daemon's stdio.  Its centrepiece is
//! [`Client::collect`]: read frames for one request until its terminal
//! `status`, sorting streamed records by their report position `seq` so
//! [`CollectedRun::into_report`] reproduces a batch
//! [`Experiment::run`](ccs_experiment::Experiment::run) report *byte for
//! byte* — the invariant the e2e tests and the CI smoke `cmp` against a
//! direct run.
//!
//! Because the daemon memoises every finished point in its result store,
//! resubmitting a request is idempotent — which makes retrying safe.
//! [`run_with_retry`] leans on that: reconnect, resubmit, and collect again
//! until the request lands `done` or the [`RetryPolicy`] is exhausted, with
//! exponential backoff between attempts.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use ccs_experiment::{Report, RunRecord};

use crate::protocol::{Frame, HealthReport, RequestState, SubmitRequest};

/// One streamed record with its provenance.
#[derive(Debug)]
pub struct CollectedRecord {
    /// Report position of the record.
    pub seq: usize,
    /// Whether the daemon served it from the persistent result store.
    pub cached: bool,
    /// The record itself.
    pub record: RunRecord,
}

/// Everything the daemon streamed for one request.
#[derive(Debug)]
pub struct CollectedRun {
    /// Resolved experiment name (from the `accepted` frame).
    pub name: String,
    /// Effective scale divisor (from the `accepted` frame).
    pub scale: u64,
    /// Records a complete run would produce.
    pub total: usize,
    /// Terminal state of the request.
    pub state: RequestState,
    /// Streamed records, sorted by `seq` (ascending).
    pub records: Vec<CollectedRecord>,
    /// Per-point error messages the daemon sent after accepting the request
    /// (e.g. a workload factory panicked).  Empty on a clean `done` run.
    pub errors: Vec<String>,
}

impl CollectedRun {
    /// Whether every streamed record was a store hit.
    pub fn all_cached(&self) -> bool {
        !self.records.is_empty() && self.records.iter().all(|r| r.cached)
    }

    /// Reassemble the batch-identical [`Report`]: name and scale from the
    /// `accepted` frame, records in `seq` order.
    pub fn into_report(self) -> Report {
        let mut report = Report::new(self.name, self.scale);
        report.records = self.records.into_iter().map(|r| r.record).collect();
        report
    }
}

/// A protocol client over one connection.
pub struct Client<R, W> {
    reader: R,
    writer: W,
    /// Frames about *other* requests, buffered while collecting one.
    stash: Vec<Frame>,
}

impl Client<BufReader<UnixStream>, UnixStream> {
    /// Connect to a daemon's Unix socket, retrying with exponential backoff
    /// until `timeout` expires (the daemon may still be binding), and
    /// consume its `hello`.
    pub fn connect_unix(
        path: &Path,
        timeout: Duration,
    ) -> io::Result<Client<BufReader<UnixStream>, UnixStream>> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Duration::from_millis(10);
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(stream) => break stream,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(
                        backoff.min(deadline.saturating_duration_since(Instant::now())),
                    );
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
            }
        };
        let writer = stream.try_clone()?;
        Client::new(BufReader::new(stream), writer)
    }
}

impl<R: BufRead, W: Write> Client<R, W> {
    /// Wrap a connected stream pair and consume the daemon's `hello`.
    pub fn new(reader: R, writer: W) -> io::Result<Client<R, W>> {
        let mut client = Client {
            reader,
            writer,
            stash: Vec::new(),
        };
        match client.next_frame()? {
            Frame::Hello { .. } => Ok(client),
            other => Err(protocol_error(format!(
                "expected hello, got: {}",
                other.to_line()
            ))),
        }
    }

    /// Send one frame.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        writeln!(self.writer, "{}", frame.to_line())?;
        self.writer.flush()
    }

    /// Read the next frame (blocking).  EOF is an error: the protocol ends
    /// with a terminal frame, not a silent close.
    pub fn next_frame(&mut self) -> io::Result<Frame> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            return Frame::parse(line.trim_end()).map_err(protocol_error);
        }
    }

    /// Submit a sweep request (fire and forget; stream with
    /// [`Client::collect`]).
    pub fn submit(&mut self, request: SubmitRequest) -> io::Result<()> {
        self.send(&Frame::Submit(request))
    }

    /// Ask the daemon to drop `id`'s queued points.
    pub fn cancel(&mut self, id: &str) -> io::Result<()> {
        self.send(&Frame::Cancel { id: id.to_string() })
    }

    /// Liveness round-trip: returns once the daemon answers `pong`.
    /// Frames about in-flight requests arriving first are stashed, not lost.
    pub fn ping(&mut self) -> io::Result<()> {
        self.send(&Frame::Ping)?;
        loop {
            match self.next_frame()? {
                Frame::Pong => return Ok(()),
                other => self.stash.push(other),
            }
        }
    }

    /// Query the daemon's health (uptime, inflight, panics caught, store
    /// stats).  Frames about in-flight requests arriving first are stashed,
    /// not lost.
    pub fn health(&mut self) -> io::Result<HealthReport> {
        self.send(&Frame::HealthQuery)?;
        loop {
            match self.next_frame()? {
                Frame::Health(report) => return Ok(report),
                other => self.stash.push(other),
            }
        }
    }

    /// Query progress of request `id`: `(completed, total, cached)` record
    /// counts, without collecting any results.  Frames about in-flight
    /// requests arriving first are stashed, not lost; an `error` frame for
    /// `id` (e.g. an id the daemon never accepted) fails the query.
    pub fn query_progress(&mut self, id: &str) -> io::Result<(usize, usize, usize)> {
        self.send(&Frame::Query { id: id.to_string() })?;
        loop {
            match self.next_frame()? {
                Frame::Progress {
                    id: fid,
                    completed,
                    total,
                    cached,
                } if fid == id => return Ok((completed, total, cached)),
                Frame::Error { id: fid, message } if fid.as_deref() == Some(id) => {
                    return Err(protocol_error(message));
                }
                other => self.stash.push(other),
            }
        }
    }

    /// Ask the daemon to drain and stop.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.send(&Frame::Shutdown)
    }

    /// Collect request `id` to its terminal `status` frame.  See
    /// [`Client::collect_cancelling_after`] for the `cancel_after` knob.
    pub fn collect(&mut self, id: &str) -> io::Result<CollectedRun> {
        self.collect_cancelling_after(id, None)
    }

    /// Collect request `id`, sending a `cancel` after `cancel_after` result
    /// frames have streamed (when `Some`).  Frames about other requests are
    /// stashed for their own `collect` calls, so interleaved requests on one
    /// connection work.
    ///
    /// Error-frame handling is two-phase: *before* the `accepted` frame an
    /// `error` for `id` — or one with no id, e.g. an unparseable submit
    /// line — is fatal and fails the collect.  *After* acceptance, per-point
    /// `error` frames (a panicked workload build, say) are recorded in
    /// [`CollectedRun::errors`] and collection continues to the terminal
    /// `status`, which reports `failed` alongside whatever records survived.
    pub fn collect_cancelling_after(
        &mut self,
        id: &str,
        cancel_after: Option<usize>,
    ) -> io::Result<CollectedRun> {
        let mut name = String::new();
        let mut scale = 1u64;
        let mut total = 0usize;
        let mut records: Vec<CollectedRecord> = Vec::new();
        let mut errors: Vec<String> = Vec::new();
        let mut accepted = false;
        let mut cancel_sent = false;

        // Replay earlier-stashed frames (oldest first) before reading fresh
        // ones; whatever is still unclaimed at return goes back, in order.
        let mut pending: std::collections::VecDeque<Frame> = std::mem::take(&mut self.stash).into();
        let restash = |this: &mut Self, pending: std::collections::VecDeque<Frame>| {
            let newer = std::mem::take(&mut this.stash);
            this.stash = pending.into_iter().chain(newer).collect();
        };
        loop {
            let frame = match pending.pop_front() {
                Some(frame) => frame,
                None => self.next_frame()?,
            };
            match frame {
                Frame::Accepted {
                    id: fid,
                    name: fname,
                    scale: fscale,
                    total: ftotal,
                    ..
                } if fid == id => {
                    name = fname;
                    scale = fscale;
                    total = ftotal;
                    accepted = true;
                }
                Frame::Result {
                    id: fid,
                    seq,
                    cached,
                    record,
                    ..
                } if fid == id => {
                    records.push(CollectedRecord {
                        seq,
                        cached,
                        record,
                    });
                    if let Some(threshold) = cancel_after {
                        if !cancel_sent && records.len() >= threshold {
                            cancel_sent = true;
                            self.cancel(id)?;
                        }
                    }
                }
                Frame::Status {
                    id: fid,
                    state,
                    total: ftotal,
                    ..
                } if fid == id => {
                    restash(self, pending);
                    records.sort_by_key(|r| r.seq);
                    return Ok(CollectedRun {
                        name,
                        scale,
                        total: total.max(ftotal),
                        state,
                        records,
                        errors,
                    });
                }
                Frame::Error { id: fid, message } if fid.as_deref() == Some(id) && accepted => {
                    errors.push(message);
                }
                Frame::Error { id: fid, message }
                    if fid.as_deref() == Some(id) || fid.is_none() =>
                {
                    restash(self, pending);
                    return Err(protocol_error(message));
                }
                other => self.stash.push(other),
            }
        }
    }
}

/// How [`run_with_retry`] paces its attempts.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`0` behaves as `1`).
    pub attempts: usize,
    /// Sleep before the second attempt; doubles each retry.
    pub initial_delay: Duration,
    /// Ceiling on the backoff sleep.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            initial_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
        }
    }
}

/// Submit `request` over a fresh connection per attempt until it collects
/// `done`, with exponential backoff between attempts.
///
/// This is safe to call repeatedly because the daemon memoises finished
/// points in its result store: a resubmitted request re-serves already
/// computed records from cache and only runs what the failed attempt never
/// reached.  Returns the first `done` run; if every attempt falls short,
/// returns the last terminal run collected (e.g. `timeout` with partial
/// records), and only errors when no attempt produced a terminal status.
pub fn run_with_retry(
    socket: &Path,
    connect_timeout: Duration,
    request: &SubmitRequest,
    policy: RetryPolicy,
) -> io::Result<CollectedRun> {
    let attempts = policy.attempts.max(1);
    let mut delay = policy.initial_delay;
    let mut last_run: Option<CollectedRun> = None;
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(delay);
            delay = (delay * 2).min(policy.max_delay);
        }
        let outcome = Client::connect_unix(socket, connect_timeout).and_then(|mut client| {
            client.submit(request.clone())?;
            client.collect(&request.id)
        });
        match outcome {
            Ok(run) if run.state == RequestState::Done => return Ok(run),
            Ok(run) => last_run = Some(run),
            Err(e) => last_err = Some(e),
        }
    }
    match last_run {
        Some(run) => Ok(run),
        None => Err(last_err.unwrap_or_else(|| io::Error::other("retry attempts exhausted"))),
    }
}

fn protocol_error(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: &str, seq: usize) -> Frame {
        Frame::Result {
            id: id.to_string(),
            seq,
            total: 3,
            cached: false,
            record: RunRecord {
                workload: "mergesort".into(),
                config: "default-2/1024".into(),
                cores: 2,
                clusters: 1,
                scheduler: "pdf".into(),
                seed: None,
                cycles: 100 + seq as u64,
                instructions: 50,
                tasks: 3,
                l1_accesses: 10,
                l1_misses: 4,
                l2_accesses: 4,
                l2_misses: 2,
                l2_mpki: 40.0,
                l3_accesses: 0,
                l3_misses: 0,
                bandwidth_utilization: 0.5,
                off_chip_bytes: 256,
                trace_bytes: 0,
                peak_alloc_estimate: 0,
                compile_ms: 0.0,
                batch_width: 0,
                speedup_over_seq: None,
            },
        }
    }

    /// `cancel_after` sends exactly one `cancel`, once the threshold's
    /// record has streamed, and still collects to the terminal status.
    #[test]
    fn cancel_after_sends_one_cancel_at_the_threshold() {
        let frames = [
            Frame::hello(),
            Frame::Accepted {
                id: "c".into(),
                name: "e2e".into(),
                scale: 1024,
                points: 3,
                total: 3,
            },
            result("c", 1),
            result("c", 0),
            Frame::Status {
                id: "c".into(),
                state: RequestState::Cancelled,
                completed: 2,
                total: 3,
            },
        ];
        let input: String = frames.iter().map(|f| f.to_line() + "\n").collect();
        let mut client = Client::new(io::Cursor::new(input), Vec::new()).unwrap();
        let run = client.collect_cancelling_after("c", Some(1)).unwrap();
        assert_eq!(run.state, RequestState::Cancelled);
        assert_eq!((run.records.len(), run.total), (2, 3));
        assert_eq!(run.records[0].seq, 0, "records come back in report order");
        let sent = String::from_utf8(client.writer).unwrap();
        assert_eq!(sent, Frame::Cancel { id: "c".into() }.to_line() + "\n");
    }
}
