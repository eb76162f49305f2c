//! The in-repo client of the `serve` daemon — and its own batch control.
//!
//! ```text
//! # Submit a sweep to a running daemon and reassemble the streamed
//! # records into a batch-identical report:
//! cargo run --release -p ccs-bench --bin serve_client -- \
//!     --socket /tmp/ccs.sock --workloads mergesort --scale 1024 --json served.json
//!
//! # The same sweep run directly in-process (no daemon), for comparison:
//! cargo run --release -p ccs-bench --bin serve_client -- \
//!     --batch --workloads mergesort --scale 1024 --json batch.json
//!
//! cmp served.json batch.json   # byte-identical by construction
//! ```
//!
//! Flags (shared [`Options`] plus client extras in `rest`):
//!
//! * `--socket PATH` — the daemon's Unix socket;
//! * `--batch` — skip the daemon: build the submit request it would send,
//!   resolve it exactly as the daemon does ([`SubmitRequest::experiment`]),
//!   run that experiment in process and emit the same report (the CI smoke
//!   `cmp`s the two outputs);
//! * `--id ID` / `--name NAME` — request id and report name (defaults:
//!   `"r1"` / `"serve"`);
//! * `--cores 2,4` — design points (shared [`Options`] flag, each count
//!   ≥ 1; default: the paper's 8-core config);
//! * `--schedulers pdf,ws` — scheduler specs (default: PDF and WS);
//! * `--expect-cached` — fail unless *every* streamed record was a store
//!   hit (exercises the persistent memo across daemon restarts);
//! * `--cancel-after N` — send a cancel frame after `N` streamed records
//!   and report the terminal state;
//! * `--timeout-ms N` — per-request deadline, enforced daemon-side; an
//!   expired request ends `timeout` with whatever records it streamed;
//! * `--retries N` — reconnect and resubmit up to `N` attempts (with
//!   exponential backoff) until the request lands `done`; safe because the
//!   daemon's memo store makes resubmission idempotent.  Exits 4 when the
//!   attempts are exhausted without a `done`;
//! * `--health` — print the daemon's health frame (uptime, inflight,
//!   panics caught, store stats) to stderr after the run;
//! * `--shutdown` — ask the daemon to drain and stop after collecting.
//!
//! Failure model (timeouts, retries, health): DESIGN.md §13.

use std::io::Write;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use ccs_bench::text_out;
use ccs_experiment::{Options, Report};
use ccs_serve::protocol::SubmitRequest;
use ccs_serve::{run_with_retry, Client, CollectedRun, RequestState, RetryPolicy};

/// A malformed invocation is a typed complaint and exit 2, not a panic.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("serve_client: {message}");
    exit(2);
}

/// Print `report` as a TSV table (on stderr under `--json -`) and emit it
/// as `--json` asks.
fn emit(report: &Report, opts: &Options) {
    write!(text_out(opts), "{}", report.to_tsv()).expect("write the report table");
    if let Err(e) = opts.emit_json(report) {
        eprintln!("# failed to write JSON report: {e}");
    }
}

struct ClientFlags {
    socket: Option<PathBuf>,
    batch: bool,
    id: String,
    name: String,
    schedulers: Vec<String>,
    expect_cached: bool,
    cancel_after: Option<usize>,
    timeout_ms: Option<u64>,
    retries: Option<usize>,
    health: bool,
    shutdown: bool,
}

fn parse_flags(rest: &[String]) -> ClientFlags {
    let mut flags = ClientFlags {
        socket: None,
        batch: false,
        id: "r1".to_string(),
        name: "serve".to_string(),
        schedulers: Vec::new(),
        expect_cached: false,
        cancel_after: None,
        timeout_ms: None,
        retries: None,
        health: false,
        shutdown: false,
    };
    let mut iter = rest.iter();
    while let Some(flag) = iter.next() {
        let mut value = |what: &str| match iter.next() {
            Some(v) => v.clone(),
            None => fail(format_args!("{flag} requires {what}")),
        };
        match flag.as_str() {
            "--socket" => flags.socket = Some(PathBuf::from(value("a path"))),
            "--batch" => flags.batch = true,
            "--id" => flags.id = value("a value"),
            "--name" => flags.name = value("a value"),
            "--schedulers" => {
                flags.schedulers = value("a list")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--expect-cached" => flags.expect_cached = true,
            "--cancel-after" => {
                flags.cancel_after = Some(
                    value("a count")
                        .parse()
                        .unwrap_or_else(|_| fail("--cancel-after must be an integer")),
                );
            }
            "--timeout-ms" => {
                flags.timeout_ms = Some(
                    value("milliseconds")
                        .parse()
                        .unwrap_or_else(|_| fail("--timeout-ms must be an integer")),
                );
            }
            "--retries" => {
                flags.retries = Some(
                    value("a count")
                        .parse()
                        .unwrap_or_else(|_| fail("--retries must be an integer")),
                );
            }
            "--health" => flags.health = true,
            "--shutdown" => flags.shutdown = true,
            other => fail(format_args!(
                "unknown flag {other:?} (see serve_client --help text in the source)"
            )),
        }
    }
    flags
}

fn summarise(run: &CollectedRun) {
    let cached = run.records.iter().filter(|r| r.cached).count();
    eprintln!(
        "# serve_client: {} of {} records streamed ({cached} cached), state: {:?}",
        run.records.len(),
        run.total,
        run.state,
    );
    for error in &run.errors {
        eprintln!("# serve_client: daemon error: {error}");
    }
}

fn main() {
    let opts = Options::from_env();
    let flags = parse_flags(&opts.rest);

    let request = SubmitRequest {
        id: flags.id.clone(),
        name: Some(flags.name.clone()),
        workloads: opts.workload_specs().iter().map(|w| w.label()).collect(),
        schedulers: flags.schedulers.clone(),
        cores: opts.cores.clone(),
        scale: opts.scale,
        quick: opts.quick,
        engine: opts.engine,
        baseline: true,
        timeout_ms: flags.timeout_ms,
    };

    // The identical sweep in process: the request the daemon would get,
    // resolved as the daemon resolves it, so reports compare byte for byte.
    if flags.batch {
        let exp = request.experiment().unwrap_or_else(|e| fail(e));
        let report = exp.parallelism(opts.parallel).run();
        emit(&report, &opts);
        return;
    }

    let socket = flags
        .socket
        .as_deref()
        .unwrap_or_else(|| fail("needs --socket PATH (or --batch)"));
    let connect_timeout = Duration::from_secs(10);

    // With --retries the whole submit/collect is repeated over fresh
    // connections until `done` — idempotent thanks to the daemon's memo
    // store.  Without it, one connection, one attempt.
    let run = match flags.retries {
        Some(attempts) => run_with_retry(
            socket,
            connect_timeout,
            &request,
            RetryPolicy {
                attempts,
                ..RetryPolicy::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("serve_client: request failed after retries: {e}");
            exit(4);
        }),
        None => {
            let mut client = Client::connect_unix(socket, connect_timeout).unwrap_or_else(|e| {
                eprintln!("serve_client: cannot connect to {}: {e}", socket.display());
                exit(1);
            });
            client.submit(request).unwrap_or_else(|e| {
                eprintln!("serve_client: submit failed: {e}");
                exit(1);
            });
            client
                .collect_cancelling_after(&flags.id, flags.cancel_after)
                .unwrap_or_else(|e| {
                    eprintln!("serve_client: request failed: {e}");
                    exit(2);
                })
        }
    };

    summarise(&run);
    if flags.expect_cached && !run.all_cached() {
        let cached = run.records.iter().filter(|r| r.cached).count();
        eprintln!(
            "serve_client: --expect-cached, but only {cached} of {} records were store hits",
            run.records.len(),
        );
        exit(3);
    }
    if flags.retries.is_some() && run.state != RequestState::Done {
        eprintln!(
            "serve_client: retries exhausted in state {:?}, not done",
            run.state
        );
        exit(4);
    }
    if run.state == RequestState::Done {
        let report = run.into_report();
        emit(&report, &opts);
    }

    // Health and shutdown ride a fresh connection: the collecting one may
    // have been consumed by the retry helper.
    if flags.health || flags.shutdown {
        let mut client = Client::connect_unix(socket, connect_timeout).unwrap_or_else(|e| {
            eprintln!(
                "serve_client: cannot reconnect to {}: {e}",
                socket.display()
            );
            exit(1);
        });
        if flags.health {
            match client.health() {
                Ok(h) => eprintln!(
                    "# serve_client: health: uptime_ms={} inflight={} queue_depth={} \
                     panics_caught={} timeouts={} store_records={} store_bytes={}",
                    h.uptime_ms,
                    h.inflight,
                    h.queue_depth,
                    h.panics_caught,
                    h.timeouts,
                    h.store_records,
                    h.store_bytes,
                ),
                Err(e) => {
                    eprintln!("serve_client: health query failed: {e}");
                    exit(1);
                }
            }
        }
        if flags.shutdown {
            if let Err(e) = client.shutdown() {
                eprintln!("serve_client: shutdown frame failed: {e}");
                exit(1);
            }
        }
    }
}
