//! End-to-end daemon tests over socketpairs: concurrent clients, memoised
//! repeats (byte-identical to a direct batch run), cancellation mid-sweep,
//! store persistence across daemon restarts, protocol robustness, and the
//! failure-containment paths — deadlines, panic isolation, and client
//! retry against a slow-to-start daemon.

use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use ccs_experiment::{Experiment, WorkloadSpec};
use ccs_sched::SchedulerSpec;
use ccs_serve::protocol::SubmitRequest;
use ccs_serve::{run_with_retry, Client, RequestState, RetryPolicy, Server, ServiceConfig};
use ccs_sim::{CmpConfig, SimEngine};

type PairClient = Client<BufReader<UnixStream>, UnixStream>;

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ccs-serve-e2e-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ))
}

/// Connect a client to `server` over a socketpair; the session runs on its
/// own thread and ends (returning the shutdown flag) when the client drops.
fn connect(server: &Arc<Server>) -> (PairClient, thread::JoinHandle<bool>) {
    let (daemon_side, client_side) = UnixStream::pair().unwrap();
    let session = {
        let server = Arc::clone(server);
        thread::spawn(move || {
            let reader = BufReader::new(daemon_side.try_clone().unwrap());
            server.serve_stream(reader, daemon_side)
        })
    };
    let writer = client_side.try_clone().unwrap();
    let client = Client::new(BufReader::new(client_side), writer).unwrap();
    (client, session)
}

fn submit(id: &str, workloads: &[&str], cores: &[usize], schedulers: &[&str]) -> SubmitRequest {
    SubmitRequest {
        id: id.to_string(),
        name: Some("e2e".to_string()),
        workloads: workloads.iter().map(|s| s.to_string()).collect(),
        schedulers: schedulers.iter().map(|s| s.to_string()).collect(),
        cores: cores.to_vec(),
        scale: 1024,
        quick: false,
        engine: SimEngine::EventDriven,
        baseline: true,
        timeout_ms: None,
    }
}

/// The batch report the daemon must reproduce byte for byte.
fn direct_report(workloads: &[&str], cores: &[usize], schedulers: &[&str]) -> String {
    Experiment::named("e2e")
        .workloads(workloads.iter().map(|s| WorkloadSpec::from(*s)))
        .scale(1024)
        .schedulers(schedulers.iter().map(|s| SchedulerSpec::new(*s)))
        .configs(
            cores
                .iter()
                .map(|&c| CmpConfig::default_with_cores(c).unwrap()),
        )
        .run()
        .to_json()
}

/// The gate `e2e-gated` builds wait on: closed until [`GateOpener`] drops.
static GATE: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());

/// Opens [`GATE`] for good when dropped, so a failing assertion cannot
/// leave pool threads blocked in a gated build.
struct GateOpener;

impl Drop for GateOpener {
    fn drop(&mut self) {
        *GATE.0.lock().unwrap_or_else(|e| e.into_inner()) = true;
        GATE.1.notify_all();
    }
}

#[test]
fn concurrent_clients_memoised_repeat_and_mid_sweep_cancel() {
    // A workload whose build blocks until the gate opens: a point of it
    // that reaches a pool thread stays in flight until then.
    ccs_workloads::WorkloadRegistry::global().register_fn(
        "e2e-gated",
        "blocks in its factory until the test opens a gate (cancel test)",
        |_ctx| {
            let mut open = GATE.0.lock().unwrap_or_else(|e| e.into_inner());
            while !*open {
                open = GATE.1.wait(open).unwrap_or_else(|e| e.into_inner());
            }
            tiny_computation()
        },
    );
    let dir = unique_dir("concurrent");
    let server = Arc::new(
        Server::start(ServiceConfig {
            store_dir: Some(dir.clone()),
            queue_capacity: 8,
            workers: 2,
            pool_threads: 2,
            ..ServiceConfig::default()
        })
        .unwrap(),
    );

    // Client 1: the same sweep twice.  The first run computes and stores;
    // the second must be served entirely from the memo store, byte-identical.
    let memo = {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            let (mut client, session) = connect(&server);
            client
                .submit(submit("m1", &["mergesort"], &[2], &["pdf", "ws"]))
                .unwrap();
            let cold = client.collect("m1").unwrap();
            assert_eq!(cold.state, RequestState::Done);
            assert_eq!(cold.records.len(), 2);
            assert!(
                cold.records.iter().all(|r| !r.cached),
                "fresh store cannot hit"
            );

            client
                .submit(submit("m2", &["mergesort"], &[2], &["pdf", "ws"]))
                .unwrap();
            let warm = client.collect("m2").unwrap();
            assert_eq!(warm.state, RequestState::Done);
            assert!(warm.all_cached(), "repeat must be served from the store");

            let cold_json = cold.into_report().to_json();
            let warm_json = warm.into_report().to_json();
            assert_eq!(cold_json, warm_json, "memo hit must be byte-identical");
            drop(client);
            assert!(!session.join().unwrap());
            cold_json
        })
    };

    // Client 2, concurrently: a six-point sweep cancelled after the first
    // streamed record.  In-flight points finish, queued points are dropped,
    // and the terminal status says so.  The order is forced, not raced:
    // the first record is a store hit, streamed before any point reaches
    // the pool, and the three `e2e-gated` points block in their build
    // until the daemon has applied the cancel (the session answers the
    // ping after it), so with two pool threads at most two of them are in
    // flight and at least one is dropped.
    let cancel = {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            let gate = GateOpener;
            let (mut client, session) = connect(&server);
            client
                .submit(submit("c0", &["mergesort"], &[8], &["pdf"]))
                .unwrap();
            assert_eq!(client.collect("c0").unwrap().state, RequestState::Done);
            client
                .submit(submit(
                    "c1",
                    &["mergesort", "e2e-gated"],
                    &[2, 4, 8],
                    &["pdf"],
                ))
                .unwrap();
            while client.query_progress("c1").unwrap().0 == 0 {
                thread::sleep(Duration::from_millis(1));
            }
            client.cancel("c1").unwrap();
            client.ping().unwrap();
            drop(gate);
            let run = client.collect("c1").unwrap();
            assert_eq!(run.state, RequestState::Cancelled);
            assert_eq!(run.total, 6);
            assert!(!run.records.is_empty(), "cancelled mid-sweep, not before");
            assert!(
                run.records.len() < run.total,
                "cancel must drop the queued tail ({} of {} streamed)",
                run.records.len(),
                run.total,
            );
            drop(client);
            assert!(!session.join().unwrap());
        })
    };

    let served_json = memo.join().unwrap();
    cancel.join().unwrap();

    // The daemon's streamed report equals a direct batch run, byte for byte.
    assert_eq!(
        served_json,
        direct_report(&["mergesort"], &[2], &["pdf", "ws"])
    );

    // A *new* daemon over the same store directory serves the sweep entirely
    // from disk — the memo survives restarts.
    drop(server);
    let reborn = Arc::new(
        Server::start(ServiceConfig {
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let (mut client, session) = connect(&reborn);
    client
        .submit(submit("m3", &["mergesort"], &[2], &["pdf", "ws"]))
        .unwrap();
    let persisted = client.collect("m3").unwrap();
    assert!(persisted.all_cached(), "store must persist across restarts");
    assert_eq!(persisted.into_report().to_json(), served_json);
    drop(client);
    assert!(!session.join().unwrap());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_query_tracks_requests_without_collecting() {
    let dir = unique_dir("progress");
    let server = Arc::new(
        Server::start(ServiceConfig {
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let (mut client, session) = connect(&server);

    // Unknown ids are an error frame, and the session stays usable.
    let err = client.query_progress("ghost").unwrap_err();
    assert!(err.to_string().contains("unknown request id"), "{err}");

    client
        .submit(submit("p1", &["mergesort"], &[2], &["pdf", "ws"]))
        .unwrap();
    // The progress entry exists from the submit on; poll it to completion
    // without collecting a single result frame on this query path.
    let total = loop {
        let (completed, total, cached) = client.query_progress("p1").unwrap();
        assert_eq!(total, 2);
        assert!(completed <= total);
        assert!(cached <= completed);
        if completed == total {
            break total;
        }
        thread::sleep(std::time::Duration::from_millis(10));
    };
    // The streamed records were stashed during the queries, not lost.
    let run = client.collect("p1").unwrap();
    assert_eq!(run.state, RequestState::Done);
    assert_eq!(run.records.len(), total);
    assert!(run.records.iter().all(|r| !r.cached));

    // A fully memoised repeat reports all records as cached...
    client
        .submit(submit("p2", &["mergesort"], &[2], &["pdf", "ws"]))
        .unwrap();
    let warm = client.collect("p2").unwrap();
    assert!(warm.all_cached());
    assert_eq!(client.query_progress("p2").unwrap(), (2, 2, 2));
    // ...and any *other* session may query the same request id.
    let (mut observer, observer_session) = connect(&server);
    assert_eq!(observer.query_progress("p1").unwrap(), (2, 2, 0));
    drop(observer);
    assert!(!observer_session.join().unwrap());

    drop(client);
    assert!(!session.join().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_engine_requests_stream_byte_identically_and_share_store_entries() {
    let dir = unique_dir("batch");
    let server = Arc::new(
        Server::start(ServiceConfig {
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let (mut client, session) = connect(&server);

    // A batch-engine request computes through the grouped path and streams
    // a report byte-identical to a direct event-engine run.
    let mut request = submit("b1", &["mergesort"], &[1, 2], &["pdf"]);
    request.engine = SimEngine::Batch;
    client.submit(request).unwrap();
    let batched = client.collect("b1").unwrap();
    assert_eq!(batched.state, RequestState::Done);
    assert!(batched.records.iter().all(|r| !r.cached));
    assert_eq!(
        batched.into_report().to_json(),
        direct_report(&["mergesort"], &[1, 2], &["pdf"]),
    );

    // Canonical keys fold the batch engine onto the event engine: an
    // event-engine repeat of the same sweep is served from the entries the
    // batched run stored...
    client
        .submit(submit("e1", &["mergesort"], &[1, 2], &["pdf"]))
        .unwrap();
    let event = client.collect("e1").unwrap();
    assert!(
        event.all_cached(),
        "event run must hit batch-stored entries"
    );

    // ...and a batched repeat hits them too.
    let mut repeat = submit("b2", &["mergesort"], &[1, 2], &["pdf"]);
    repeat.engine = SimEngine::Batch;
    client.submit(repeat).unwrap();
    let warm = client.collect("b2").unwrap();
    assert!(warm.all_cached(), "batch run must hit stored entries");

    drop(client);
    assert!(!session.join().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounded_store_stays_within_budget_across_requests() {
    let dir = unique_dir("bounded");
    // A one-byte budget forces every put to evict all entries but the one
    // just written — the daemon must keep working, just without memo hits.
    let server = Arc::new(
        Server::start(ServiceConfig {
            store_dir: Some(dir.clone()),
            store_max_bytes: Some(1),
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let (mut client, session) = connect(&server);
    client
        .submit(submit("s1", &["mergesort"], &[2], &["pdf", "ws"]))
        .unwrap();
    assert_eq!(client.collect("s1").unwrap().state, RequestState::Done);

    let entries = || {
        std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "json")
            })
            .count()
    };
    assert!(
        entries() <= 1,
        "over-budget entries must be evicted, found {}",
        entries()
    );

    drop(client);
    assert!(!session.join().unwrap());

    // A fresh daemon over the same directory (no warm in-memory layer) can
    // serve at most the one surviving disk entry: the repeat completes, but
    // not fully from cache.
    let server = Arc::new(
        Server::start(ServiceConfig {
            store_dir: Some(dir.clone()),
            store_max_bytes: Some(1),
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let (mut client, session) = connect(&server);
    client
        .submit(submit("s2", &["mergesort"], &[2], &["pdf", "ws"]))
        .unwrap();
    let repeat = client.collect("s2").unwrap();
    assert_eq!(repeat.state, RequestState::Done);
    assert!(
        !repeat.all_cached(),
        "a one-byte store cannot serve all hits"
    );
    assert!(entries() <= 1);

    drop(client);
    assert!(!session.join().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_and_invalid_frames_leave_the_session_usable() {
    let server = Arc::new(Server::start(ServiceConfig::default()).unwrap());
    let (mut client, session) = connect(&server);

    // A malformed line earns an error frame, not a dropped connection.
    client
        .send(&ccs_serve::Frame::Error {
            id: None,
            message: "i am a server frame on the wrong side".to_string(),
        })
        .unwrap();
    let err = client.next_frame().unwrap();
    assert!(matches!(err, ccs_serve::Frame::Error { .. }));

    // An unknown workload is rejected through the typed spec errors, with
    // the registry's did-you-mean hint, attributed to the request id.
    client
        .submit(submit("bad", &["mergsort"], &[2], &["pdf"]))
        .unwrap();
    let rejection = client.collect("bad").unwrap_err();
    assert!(
        rejection.to_string().contains("did you mean \"mergesort\""),
        "{rejection}"
    );

    // An unknown core count and an unknown scheduler are rejected the same
    // way, and the daemon still answers pings afterwards.
    client
        .submit(submit("bad2", &["mergesort"], &[3], &["pdf"]))
        .unwrap();
    assert!(client.collect("bad2").is_err());
    client
        .submit(submit("bad3", &["mergesort"], &[2], &["pddf"]))
        .unwrap();
    let sched_rejection = client.collect("bad3").unwrap_err();
    assert!(
        sched_rejection.to_string().contains("did you mean \"pdf\""),
        "{sched_rejection}"
    );
    client.ping().unwrap();

    // Cancelling an id the session never submitted is an error frame too.
    client.cancel("ghost").unwrap();
    assert!(matches!(
        client.next_frame().unwrap(),
        ccs_serve::Frame::Error { .. }
    ));

    // A shutdown frame ends the session with the flag set.
    client.shutdown().unwrap();
    drop(client);
    assert!(session.join().unwrap(), "shutdown flag must propagate");
}

/// A trivial but valid computation for the registered test factories.
fn tiny_computation() -> ccs_dag::Computation {
    let mut b = ccs_dag::ComputationBuilder::new(128);
    let leaf = b.strand_with(|t| {
        t.compute(10).read_range(0x4000, 2048, 2);
    });
    b.finish(leaf)
}

#[test]
fn deadline_expiry_reports_timeout_with_partial_results() {
    // A workload whose *build* is slow: each distinct core count forces a
    // fresh 250 ms build, far beyond the request's 100 ms deadline.
    ccs_workloads::WorkloadRegistry::global().register_fn(
        "e2e-sleepy",
        "sleeps in its factory (deadline test)",
        |_ctx| {
            thread::sleep(Duration::from_millis(250));
            tiny_computation()
        },
    );
    // One pool thread so points run strictly one after another.
    let server = Arc::new(
        Server::start(ServiceConfig {
            workers: 1,
            pool_threads: 1,
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let (mut client, session) = connect(&server);

    let mut request = submit("slow", &["e2e-sleepy"], &[2, 4], &["pdf", "ws"]);
    request.timeout_ms = Some(100);
    client.submit(request).unwrap();
    let run = client.collect("slow").unwrap();

    // The deadline fired mid-sweep: the in-flight point finished and
    // streamed (cancellation never discards computed work), the queued tail
    // was dropped, and the terminal status says `timeout`, not `cancelled`.
    assert_eq!(run.state, RequestState::TimedOut);
    assert_eq!(run.total, 4);
    assert!(
        !run.records.is_empty(),
        "the in-flight point must still stream its record"
    );
    assert!(
        run.records.len() < run.total,
        "a 100 ms deadline cannot cover four 250 ms builds ({} of {} streamed)",
        run.records.len(),
        run.total,
    );

    // The session survived the timeout; an untimed repeat completes.
    client
        .submit(submit("ok-after", &["mergesort"], &[2], &["pdf"]))
        .unwrap();
    assert_eq!(
        client.collect("ok-after").unwrap().state,
        RequestState::Done
    );

    drop(client);
    assert!(!session.join().unwrap());
}

#[test]
fn workload_panic_is_isolated_and_counted_in_health() {
    ccs_workloads::WorkloadRegistry::global().register_fn(
        "e2e-explosive",
        "panics in its factory (isolation test)",
        |_ctx| panic!("explosive by design"),
    );
    // One point on the event engine; under the batch engine the two
    // identical points form one 2-point group, so the failing unit is a
    // real group.
    panic_is_isolated(SimEngine::EventDriven, &[2]);
    panic_is_isolated(SimEngine::Batch, &[2, 2]);
}

fn panic_is_isolated(engine: SimEngine, cores: &[usize]) {
    let server = Arc::new(
        Server::start(ServiceConfig {
            workers: 2,
            pool_threads: 2,
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let (mut client, session) = connect(&server);

    // Submit the panicking sweep and a healthy one on the same connection.
    client
        .submit(SubmitRequest {
            engine,
            ..submit("boom", &["e2e-explosive"], cores, &["pdf"])
        })
        .unwrap();
    client
        .submit(submit("calm", &["mergesort"], &[2], &["pdf", "ws"]))
        .unwrap();

    // The panic is contained to its request: one typed error per point, a
    // `failed` terminal status, and no records.
    let boom = client.collect("boom").unwrap();
    assert_eq!(boom.state, RequestState::Failed, "{engine:?}");
    assert!(boom.records.is_empty(), "{engine:?}");
    assert_eq!(
        boom.errors.len(),
        cores.len(),
        "{engine:?}: {:?}",
        boom.errors
    );
    assert!(
        boom.errors.iter().all(|e| e.contains("panicked")),
        "{engine:?}: expected panic errors, got {:?}",
        boom.errors
    );

    // The concurrent request — and the daemon — are unaffected.
    let calm = client.collect("calm").unwrap();
    assert_eq!(calm.state, RequestState::Done, "{engine:?}");
    assert_eq!(calm.records.len(), 2);
    assert!(calm.errors.is_empty());

    // The health frame counts the caught panic.
    let health = client.health().unwrap();
    assert!(
        health.panics_caught >= 1,
        "health must count caught panics, got {health:?}"
    );
    assert_eq!(health.inflight, 0);

    drop(client);
    assert!(!session.join().unwrap());
}

#[test]
fn retry_helper_reaches_a_slow_to_start_daemon() {
    let dir = unique_dir("retry");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("ccs.sock");

    // The daemon binds its socket only after a 300 ms head start — the
    // client's connect backoff and resubmit-with-retry must ride it out.
    let daemon = {
        let socket = socket.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(300));
            let server = Server::start(ServiceConfig::default()).unwrap();
            server.serve_unix(&socket).unwrap();
        })
    };

    let run = run_with_retry(
        &socket,
        Duration::from_millis(50),
        &submit("late", &["mergesort"], &[2], &["pdf", "ws"]),
        RetryPolicy {
            attempts: 40,
            initial_delay: Duration::from_millis(25),
            max_delay: Duration::from_millis(200),
        },
    )
    .unwrap();
    assert_eq!(run.state, RequestState::Done);
    assert_eq!(run.records.len(), 2);
    assert_eq!(
        run.into_report().to_json(),
        direct_report(&["mergesort"], &[2], &["pdf", "ws"]),
        "retried run must still be byte-identical to a direct batch run"
    );

    // Stop the daemon cleanly and reap its thread.
    let mut closer = Client::connect_unix(&socket, Duration::from_secs(2)).unwrap();
    closer.shutdown().unwrap();
    drop(closer);
    daemon.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_stops_the_unix_daemon_promptly_and_removes_its_socket() {
    let dir = unique_dir("shutdown");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("ccs.sock");

    // The daemon blocks in `accept`: the session that reads `shutdown` must
    // wake it, or `serve_unix` never returns.
    let (returned_tx, returned_rx) = std::sync::mpsc::channel();
    let daemon = {
        let socket = socket.clone();
        thread::spawn(move || {
            let server = Server::start(ServiceConfig::default()).unwrap();
            let served = server.serve_unix(&socket);
            let _ = returned_tx.send(());
            served
        })
    };

    let mut client = Client::connect_unix(&socket, Duration::from_secs(5)).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    returned_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("serve_unix must return once a session reads shutdown");
    daemon.join().unwrap().unwrap();
    assert!(!socket.exists(), "a clean shutdown removes the socket file");
    drop(client);
    std::fs::remove_dir_all(&dir).ok();
}
