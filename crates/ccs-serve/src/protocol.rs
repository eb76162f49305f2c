//! The JSON-lines wire protocol of the sweep service.
//!
//! Every message is one JSON object on one line (a *frame*), in either
//! direction.  The vocabulary is deliberately small:
//!
//! | direction | frame | meaning |
//! |---|---|---|
//! | server → client | `hello` | greeting; carries the protocol version |
//! | client → server | `submit` | a sweep request with a client-chosen `id` |
//! | server → client | `accepted` | request validated and queued; resolved name/scale/totals |
//! | server → client | `result` | one streamed [`RunRecord`], with its report position `seq` |
//! | server → client | `status` | terminal frame per request: `done`, `cancelled`, `timeout` or `failed` |
//! | client → server | `query` | progress probe for a submitted request |
//! | server → client | `progress` | per-request progress: `completed`/`total`/`cached`, no records |
//! | client → server | `cancel` | drop the request's queued points |
//! | client → server | `ping` / server → client `pong` | liveness |
//! | client → server | `health` | daemon health probe |
//! | server → client | `health` | health report: uptime, inflight, queue depth, fault counters, store stats |
//! | client → server | `shutdown` | drain in-flight requests, then stop |
//! | server → client | `error` | validation or protocol failure (with `id` when attributable) |
//!
//! Framing rules (the version contract, see DESIGN.md §10): unknown object
//! *fields* are ignored, unknown frame *types* are an error, and
//! [`PROTOCOL_VERSION`] only changes when one of those two rules would not
//! save an old peer.  Version 2 added the `timeout` and `failed` terminal
//! states — new values of an *existing* field, which the rules cannot save
//! an old client from — plus the (rule-covered) `health` frames and the
//! optional `timeout_ms` submit field.
//!
//! Frames parse from and render to single lines via the same offline JSON
//! layer the report format uses ([`ccs_experiment::json`]), so a `result`
//! frame's `record` member is byte-compatible with report records.

use ccs_experiment::json::{self, Json};
use ccs_experiment::{Experiment, RunRecord, WorkloadSpec};
use ccs_sched::SchedulerSpec;
use ccs_sim::{CmpConfig, SimEngine};

/// The protocol version announced in the `hello` frame.
pub const PROTOCOL_VERSION: &str = "ccs-serve/2";

/// A parsed sweep request: the `submit` frame's payload.
#[derive(Clone, Debug)]
pub struct SubmitRequest {
    /// Client-chosen request id; echoed on every frame about this request.
    pub id: String,
    /// Experiment name; defaults to the first workload's name when absent.
    pub name: Option<String>,
    /// Workload specs (`"mergesort"`, `"heat:rows=64,cols=32"`, …).
    pub workloads: Vec<String>,
    /// Scheduler specs; empty means the PDF-and-WS default.
    pub schedulers: Vec<String>,
    /// Core counts of default design points; empty means the 8-core default.
    pub cores: Vec<usize>,
    /// Scale divisor (default 1).
    pub scale: u64,
    /// Quick mode: clamp scale to at least 256.
    pub quick: bool,
    /// Simulator engine (default event-driven).
    pub engine: SimEngine,
    /// Whether to run the 1-core sequential baseline (default true).
    pub baseline: bool,
    /// Server-side deadline in milliseconds; `None` means no deadline.
    /// Counted from acceptance (queue wait included); on expiry the request
    /// is cancelled and terminates with the `timeout` state, keeping every
    /// record streamed so far.
    pub timeout_ms: Option<u64>,
}

impl SubmitRequest {
    /// Validate the request against the spec grammar and the registries and
    /// resolve it into the [`Experiment`] it names.  The daemon runs exactly
    /// this experiment, and `serve_client --batch` runs it in process, so
    /// the two reports compare byte for byte.  The error string is
    /// client-facing (it becomes an `error` frame) and carries the
    /// registries' did-you-mean hints.
    pub fn experiment(&self) -> Result<Experiment, String> {
        let workloads = self
            .workloads
            .iter()
            .map(|spec| WorkloadSpec::resolve(spec).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let Some(first) = workloads.first() else {
            return Err("submit has no workloads".to_string());
        };
        let name = self
            .name
            .clone()
            .unwrap_or_else(|| first.name().to_string());
        let schedulers = self
            .schedulers
            .iter()
            .map(|spec| SchedulerSpec::resolve(spec).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let configs = self
            .cores
            .iter()
            .map(|&cores| {
                CmpConfig::default_with_cores(cores)
                    .ok_or_else(|| format!("no default CMP configuration with {cores} cores"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Experiment::named(name)
            .workloads(workloads)
            .schedulers(schedulers)
            .configs(configs)
            .scale(self.scale)
            .quick(self.quick)
            .engine(self.engine)
            .sequential_baseline(self.baseline))
    }
}

/// Terminal state of a request, carried by the `status` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestState {
    /// Every record was produced and streamed.
    Done,
    /// The request was cancelled; only a prefix of records was streamed.
    Cancelled,
    /// The request's deadline expired; only a prefix of records was
    /// streamed.  Resubmission is idempotent (the memoised store keeps the
    /// partial results), so a retry resumes where this attempt got to.
    TimedOut,
    /// One or more sweep points failed (e.g. a panicking workload build);
    /// each failed point was reported in an `error` frame.
    Failed,
}

impl RequestState {
    fn name(self) -> &'static str {
        match self {
            RequestState::Done => "done",
            RequestState::Cancelled => "cancelled",
            RequestState::TimedOut => "timeout",
            RequestState::Failed => "failed",
        }
    }
}

/// Daemon health, carried by the server→client `health` frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Milliseconds since the service started.
    pub uptime_ms: u64,
    /// Requests currently executing (accepted, not yet terminal).
    pub inflight: usize,
    /// Requests queued behind the workers.
    pub queue_depth: usize,
    /// Panics caught at the service and pool boundaries since start.
    pub panics_caught: u64,
    /// Requests terminated by deadline expiry since start.
    pub timeouts: u64,
    /// Records currently memoised in the result store (0 when storeless).
    pub store_records: usize,
    /// Bytes the result store occupies on disk (0 when storeless).
    pub store_bytes: u64,
}

/// One wire frame, either direction.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Server greeting with [`PROTOCOL_VERSION`].
    Hello {
        /// The announced protocol version.
        version: String,
    },
    /// Client sweep request.
    Submit(SubmitRequest),
    /// Request validated and queued.
    Accepted {
        /// The request id.
        id: String,
        /// Resolved experiment name (for client-side report assembly).
        name: String,
        /// Resolved effective scale divisor.
        scale: u64,
        /// Number of sweep points.
        points: usize,
        /// Total records the request will produce when not cancelled.
        total: usize,
    },
    /// One streamed record.
    Result {
        /// The request id.
        id: String,
        /// Report position: records sorted by `seq` reproduce batch order.
        seq: usize,
        /// Total records of the request.
        total: usize,
        /// Whether this record was served from the persistent result store.
        cached: bool,
        /// The record itself, in report-JSON shape.
        record: RunRecord,
    },
    /// Terminal frame of a request.
    Status {
        /// The request id.
        id: String,
        /// `done` or `cancelled`.
        state: RequestState,
        /// Records actually streamed.
        completed: usize,
        /// Records a complete run would have streamed.
        total: usize,
    },
    /// Progress probe for a submitted request (any session may ask about
    /// any live request id).
    Query {
        /// The request id to report on.
        id: String,
    },
    /// Progress answer: how far a request has got, without streaming its
    /// records.
    Progress {
        /// The request id.
        id: String,
        /// Records streamed so far (cached + simulated).
        completed: usize,
        /// Records a complete run will stream.
        total: usize,
        /// How many of the completed records came from the result store.
        cached: usize,
    },
    /// Cancel a request's queued points.
    Cancel {
        /// The request id to cancel.
        id: String,
    },
    /// Liveness probe.
    Ping,
    /// Liveness answer.
    Pong,
    /// Daemon health probe (client → server).
    HealthQuery,
    /// Daemon health report (server → client).
    Health(HealthReport),
    /// Drain and stop the daemon.
    Shutdown,
    /// Validation or protocol failure.
    Error {
        /// The offending request id, when attributable.
        id: Option<String>,
        /// Human-readable reason.
        message: String,
    },
}

impl Frame {
    /// The server greeting.
    pub fn hello() -> Frame {
        Frame::Hello {
            version: PROTOCOL_VERSION.to_string(),
        }
    }

    /// Render the frame as one newline-free JSON line.
    pub fn to_line(&self) -> String {
        self.to_json().to_string_compact()
    }

    fn to_json(&self) -> Json {
        match self {
            Frame::Hello { version } => Json::object([
                ("type", "hello".into()),
                ("version", version.as_str().into()),
            ]),
            Frame::Submit(req) => {
                let strings = |items: &[String]| {
                    Json::Array(items.iter().map(|s| Json::Str(s.clone())).collect())
                };
                Json::object([
                    ("type", "submit".into()),
                    ("id", req.id.as_str().into()),
                    ("name", req.name.as_deref().map_or(Json::Null, Json::from)),
                    ("workloads", strings(&req.workloads)),
                    ("schedulers", strings(&req.schedulers)),
                    (
                        "cores",
                        Json::Array(req.cores.iter().map(|&c| Json::from(c)).collect()),
                    ),
                    ("scale", req.scale.into()),
                    ("quick", req.quick.into()),
                    ("engine", req.engine.name().into()),
                    ("baseline", req.baseline.into()),
                    ("timeout_ms", req.timeout_ms.map_or(Json::Null, Json::from)),
                ])
            }
            Frame::Accepted {
                id,
                name,
                scale,
                points,
                total,
            } => Json::object([
                ("type", "accepted".into()),
                ("id", id.as_str().into()),
                ("name", name.as_str().into()),
                ("scale", (*scale).into()),
                ("points", (*points).into()),
                ("total", (*total).into()),
            ]),
            Frame::Result {
                id,
                seq,
                total,
                cached,
                record,
            } => Json::object([
                ("type", "result".into()),
                ("id", id.as_str().into()),
                ("seq", (*seq).into()),
                ("total", (*total).into()),
                ("cached", (*cached).into()),
                ("record", record.to_json()),
            ]),
            Frame::Status {
                id,
                state,
                completed,
                total,
            } => Json::object([
                ("type", "status".into()),
                ("id", id.as_str().into()),
                ("state", state.name().into()),
                ("completed", (*completed).into()),
                ("total", (*total).into()),
            ]),
            Frame::Query { id } => {
                Json::object([("type", "query".into()), ("id", id.as_str().into())])
            }
            Frame::Progress {
                id,
                completed,
                total,
                cached,
            } => Json::object([
                ("type", "progress".into()),
                ("id", id.as_str().into()),
                ("completed", (*completed).into()),
                ("total", (*total).into()),
                ("cached", (*cached).into()),
            ]),
            Frame::Cancel { id } => {
                Json::object([("type", "cancel".into()), ("id", id.as_str().into())])
            }
            Frame::Ping => Json::object([("type", "ping".into())]),
            Frame::Pong => Json::object([("type", "pong".into())]),
            Frame::HealthQuery => Json::object([("type", "health".into())]),
            Frame::Health(report) => Json::object([
                ("type", "health".into()),
                ("uptime_ms", report.uptime_ms.into()),
                ("inflight", report.inflight.into()),
                ("queue_depth", report.queue_depth.into()),
                ("panics_caught", report.panics_caught.into()),
                ("timeouts", report.timeouts.into()),
                ("store_records", report.store_records.into()),
                ("store_bytes", report.store_bytes.into()),
            ]),
            Frame::Shutdown => Json::object([("type", "shutdown".into())]),
            Frame::Error { id, message } => Json::object([
                ("type", "error".into()),
                ("id", id.as_deref().map_or(Json::Null, Json::from)),
                ("message", message.as_str().into()),
            ]),
        }
    }

    /// Parse one line into a frame.  Unknown fields are ignored (forward
    /// compatibility); unknown frame types and malformed payloads are errors.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let doc = json::parse(line).map_err(|e| format!("malformed frame: {e}"))?;
        let kind = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "frame has no \"type\" field".to_string())?;
        let id = |doc: &Json| -> Result<String, String> {
            doc.get("id")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind:?} frame has no \"id\" field"))
        };
        match kind {
            "hello" => Ok(Frame::Hello {
                version: doc
                    .get("version")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            "submit" => Ok(Frame::Submit(parse_submit(&doc, id(&doc)?)?)),
            "accepted" => Ok(Frame::Accepted {
                id: id(&doc)?,
                name: require_str(&doc, "name")?,
                scale: require_u64(&doc, "scale")?,
                points: require_u64(&doc, "points")? as usize,
                total: require_u64(&doc, "total")? as usize,
            }),
            "result" => Ok(Frame::Result {
                id: id(&doc)?,
                seq: require_u64(&doc, "seq")? as usize,
                total: require_u64(&doc, "total")? as usize,
                cached: doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
                record: RunRecord::from_json(
                    doc.get("record")
                        .ok_or_else(|| "result frame has no \"record\"".to_string())?,
                )
                .map_err(|e| format!("bad record in result frame: {e}"))?,
            }),
            "status" => Ok(Frame::Status {
                id: id(&doc)?,
                state: match require_str(&doc, "state")?.as_str() {
                    "done" => RequestState::Done,
                    "cancelled" => RequestState::Cancelled,
                    "timeout" => RequestState::TimedOut,
                    "failed" => RequestState::Failed,
                    other => return Err(format!("unknown request state {other:?}")),
                },
                completed: require_u64(&doc, "completed")? as usize,
                total: require_u64(&doc, "total")? as usize,
            }),
            "query" => Ok(Frame::Query { id: id(&doc)? }),
            "progress" => Ok(Frame::Progress {
                id: id(&doc)?,
                completed: require_u64(&doc, "completed")? as usize,
                total: require_u64(&doc, "total")? as usize,
                cached: require_u64(&doc, "cached")? as usize,
            }),
            "cancel" => Ok(Frame::Cancel { id: id(&doc)? }),
            "ping" => Ok(Frame::Ping),
            "pong" => Ok(Frame::Pong),
            // The probe and the report share the wire type; the report is
            // the one carrying measurements.
            "health" => {
                if doc.get("uptime_ms").is_none() {
                    Ok(Frame::HealthQuery)
                } else {
                    Ok(Frame::Health(HealthReport {
                        uptime_ms: require_u64(&doc, "uptime_ms")?,
                        inflight: require_u64(&doc, "inflight")? as usize,
                        queue_depth: require_u64(&doc, "queue_depth")? as usize,
                        panics_caught: require_u64(&doc, "panics_caught")?,
                        timeouts: require_u64(&doc, "timeouts")?,
                        store_records: require_u64(&doc, "store_records")? as usize,
                        store_bytes: require_u64(&doc, "store_bytes")?,
                    }))
                }
            }
            "shutdown" => Ok(Frame::Shutdown),
            "error" => Ok(Frame::Error {
                id: doc.get("id").and_then(Json::as_str).map(str::to_string),
                message: require_str(&doc, "message")?,
            }),
            other => Err(format!("unknown frame type {other:?}")),
        }
    }
}

fn require_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("frame has no string field {key:?}"))
}

fn require_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("frame has no integer field {key:?}"))
}

fn parse_submit(doc: &Json, id: String) -> Result<SubmitRequest, String> {
    let strings = |key: &str| -> Result<Vec<String>, String> {
        match doc.get(key) {
            None | Some(Json::Null) => Ok(Vec::new()),
            Some(value) => value
                .as_array()
                .ok_or_else(|| format!("submit field {key:?} must be an array of strings"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("submit field {key:?} must be an array of strings"))
                })
                .collect(),
        }
    };
    let workloads = strings("workloads")?;
    if workloads.is_empty() {
        return Err("submit has no workloads".to_string());
    }
    let cores = match doc.get("cores") {
        None | Some(Json::Null) => Vec::new(),
        Some(value) => value
            .as_array()
            .ok_or_else(|| "submit field \"cores\" must be an array of integers".to_string())?
            .iter()
            .map(|v| {
                v.as_u64().map(|c| c as usize).ok_or_else(|| {
                    "submit field \"cores\" must be an array of integers".to_string()
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let engine = match doc.get("engine").and_then(Json::as_str) {
        None => SimEngine::EventDriven,
        Some(text) => text.parse::<SimEngine>()?,
    };
    Ok(SubmitRequest {
        id,
        name: doc.get("name").and_then(Json::as_str).map(str::to_string),
        workloads,
        schedulers: strings("schedulers")?,
        cores,
        scale: doc.get("scale").and_then(Json::as_u64).unwrap_or(1),
        quick: doc.get("quick").and_then(Json::as_bool).unwrap_or(false),
        engine,
        baseline: doc.get("baseline").and_then(Json::as_bool).unwrap_or(true),
        timeout_ms: doc.get("timeout_ms").and_then(Json::as_u64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips_and_defaults_apply() {
        let line = r#"{"type":"submit","id":"r1","workloads":["mergesort","lu"]}"#;
        let Frame::Submit(req) = Frame::parse(line).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(req.id, "r1");
        assert_eq!(req.workloads, ["mergesort", "lu"]);
        assert!(req.schedulers.is_empty());
        assert!(req.cores.is_empty());
        assert_eq!(req.scale, 1);
        assert!(!req.quick);
        assert_eq!(req.engine, SimEngine::EventDriven);
        assert!(req.baseline);
        assert_eq!(req.timeout_ms, None);

        // A deadline survives the round trip.
        let timed = r#"{"type":"submit","id":"r2","workloads":["lu"],"timeout_ms":1500}"#;
        let Frame::Submit(timed) = Frame::parse(timed).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(timed.timeout_ms, Some(1500));
        let Frame::Submit(timed) = Frame::parse(&Frame::Submit(timed).to_line()).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(timed.timeout_ms, Some(1500));

        // Full rendering parses back to the same request.
        let rendered = Frame::Submit(req.clone()).to_line();
        assert!(!rendered.contains('\n'));
        let Frame::Submit(again) = Frame::parse(&rendered).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(again.workloads, req.workloads);
        assert_eq!(again.scale, req.scale);
    }

    #[test]
    fn experiment_resolves_axes_and_rejects_an_empty_request() {
        let req = SubmitRequest {
            id: "r1".to_string(),
            name: None,
            workloads: vec!["mergesort".to_string()],
            schedulers: Vec::new(),
            cores: vec![2, 4],
            scale: 1024,
            quick: false,
            engine: SimEngine::Batch,
            baseline: false,
            timeout_ms: None,
        };
        let exp = req.experiment().unwrap();
        assert_eq!(exp.report_name(), "mergesort");
        assert_eq!(exp.sweep_points().len(), 2);
        assert_eq!(exp.resolved_schedulers().len(), 2, "PDF and WS default");

        let error = |req: SubmitRequest| req.experiment().err().expect("must not resolve");
        // A hand-built request with no workloads and no name is an error,
        // not a panic.
        let empty = SubmitRequest {
            workloads: Vec::new(),
            ..req.clone()
        };
        assert_eq!(error(empty), "submit has no workloads");

        // A core count without a default design point carries its reason.
        let cores = SubmitRequest {
            cores: vec![3],
            ..req
        };
        assert!(error(cores).contains("3 cores"));
    }

    #[test]
    fn unknown_fields_are_ignored_unknown_types_are_not() {
        let ok = r#"{"type":"ping","future-extension":[1,2,3]}"#;
        assert!(matches!(Frame::parse(ok).unwrap(), Frame::Ping));
        let bad = r#"{"type":"warp-drive"}"#;
        assert!(Frame::parse(bad)
            .unwrap_err()
            .contains("unknown frame type"));
        assert!(Frame::parse("not json").is_err());
        assert!(Frame::parse("[1,2]").unwrap_err().contains("\"type\""));
    }

    #[test]
    fn control_frames_round_trip() {
        for frame in [
            Frame::hello(),
            Frame::Ping,
            Frame::Pong,
            Frame::Shutdown,
            Frame::Cancel {
                id: "r9".to_string(),
            },
            Frame::Error {
                id: None,
                message: "nope".to_string(),
            },
            Frame::Status {
                id: "r1".to_string(),
                state: RequestState::Cancelled,
                completed: 3,
                total: 8,
            },
            Frame::Status {
                id: "r1".to_string(),
                state: RequestState::TimedOut,
                completed: 3,
                total: 8,
            },
            Frame::Status {
                id: "r1".to_string(),
                state: RequestState::Failed,
                completed: 3,
                total: 8,
            },
            Frame::HealthQuery,
            Frame::Health(HealthReport {
                uptime_ms: 1234,
                inflight: 1,
                queue_depth: 2,
                panics_caught: 3,
                timeouts: 4,
                store_records: 5,
                store_bytes: 6789,
            }),
            Frame::Query {
                id: "r2".to_string(),
            },
            Frame::Progress {
                id: "r2".to_string(),
                completed: 5,
                total: 12,
                cached: 2,
            },
        ] {
            let line = frame.to_line();
            let parsed = Frame::parse(&line).unwrap();
            assert_eq!(line, parsed.to_line(), "round trip: {line}");
        }
        let Frame::Hello { version } = Frame::parse(&Frame::hello().to_line()).unwrap() else {
            panic!("expected hello");
        };
        assert_eq!(version, PROTOCOL_VERSION);
    }
}
