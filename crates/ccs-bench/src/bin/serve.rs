//! The sweep-service daemon: keep builds, caches and finished records warm
//! across many sweep requests instead of paying them per process.
//!
//! ```text
//! # One-shot pipe mode: frames in on stdin, frames out on stdout.
//! printf '%s\n' '{"type":"submit","id":"r1","workloads":["mergesort"],"scale":1024}' \
//!     | cargo run --release -p ccs-bench --bin serve -- --store /tmp/ccs-store
//!
//! # Daemon mode: serve many clients over a Unix socket until one sends
//! # a shutdown frame.
//! cargo run --release -p ccs-bench --bin serve -- \
//!     --socket /tmp/ccs.sock --store /tmp/ccs-store --parallel 4
//! ```
//!
//! Flags (shared [`Options`] plus daemon extras in `rest`):
//!
//! * `--store DIR` — persistent result store; repeated requests are served
//!   from disk, byte-identical to a fresh run;
//! * `--store-max-bytes N` — byte budget for the store directory; when a
//!   write pushes it over, least-recently-used entries (by mtime) are
//!   evicted until it fits (default: unbounded);
//! * `--socket PATH` — listen on a Unix socket (default: one stdio session);
//! * `--parallel N` — threads of the shared simulation pool (default and
//!   0: one per host core);
//! * `--queue N` — accepted-but-not-running request capacity (default 32);
//! * `--workers N` — concurrently running requests (default 2);
//! * `--fault-plan SPEC` — install a deterministic fault-injection plan
//!   (e.g. `seed=7,build-panic=0.5,torn-write=0.5`); overrides the
//!   `CCS_FAULT_PLAN` environment variable.  CI uses this to prove the
//!   daemon survives injected panics, torn store writes and dropped
//!   sessions; without a plan every hook is a no-op.
//!
//! Protocol and store format: DESIGN.md §10; failure model: DESIGN.md §13.

use std::path::PathBuf;
use std::process::exit;

use ccs_experiment::Options;
use ccs_runtime::fault::{self, FaultPlan};
use ccs_serve::{Server, ServiceConfig};

/// A malformed invocation is a typed complaint and exit 2, not a panic.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("serve: {message}");
    exit(2);
}

fn main() {
    let opts = Options::from_env();
    let mut socket: Option<PathBuf> = None;
    let mut fault_plan: Option<String> = None;
    let mut config = ServiceConfig {
        store_dir: opts.store.clone(),
        pool_threads: opts.parallel,
        ..ServiceConfig::default()
    };

    let mut rest = opts.rest.iter();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| match rest.next() {
            Some(v) => v.clone(),
            None => fail(format_args!("{flag} requires {what}")),
        };
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("a path"))),
            "--queue" => {
                config.queue_capacity = value("a capacity")
                    .parse()
                    .unwrap_or_else(|_| fail("--queue must be an integer"));
            }
            "--workers" => {
                config.workers = value("a count")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers must be an integer"));
            }
            "--store-max-bytes" => {
                config.store_max_bytes = Some(
                    value("a byte budget")
                        .parse()
                        .unwrap_or_else(|_| fail("--store-max-bytes must be an integer")),
                );
            }
            "--fault-plan" => fault_plan = Some(value("a plan spec")),
            other => fail(format_args!(
                "unknown flag {other:?} (serve takes --socket/--queue/--workers/--store-max-bytes/--fault-plan)"
            )),
        }
    }

    // Fault plan: the flag wins over the environment; either source failing
    // to parse is a startup error, not a silently inert daemon.
    let installed = match fault_plan {
        Some(spec) => {
            let plan =
                FaultPlan::parse(&spec).unwrap_or_else(|e| fail(format_args!("--fault-plan: {e}")));
            fault::install(plan).unwrap_or_else(|e| fail(format_args!("--fault-plan: {e}")));
            true
        }
        None => fault::install_from_env()
            .unwrap_or_else(|e| fail(format_args!("{}: {e}", fault::ENV_VAR))),
    };
    if installed {
        eprintln!("# serve: fault-injection plan active (expect injected failures)");
    }

    let server = Server::start(config).unwrap_or_else(|e| {
        eprintln!("serve: failed to start service: {e}");
        exit(1);
    });
    match socket {
        Some(path) => {
            eprintln!("# serve: listening on {}", path.display());
            if let Err(e) = server.serve_unix(&path) {
                eprintln!("serve: socket error: {e}");
                exit(1);
            }
        }
        None => server.serve_stdio(),
    }
}
