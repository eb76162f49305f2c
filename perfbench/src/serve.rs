//! `serve_mixed`: a fresh `ccs-serve` daemon per round, driven over its
//! Unix socket by a closed loop of `nproc` clients.
//!
//! Each round starts cold — empty build cache, new on-disk store in a new
//! directory — and every client plays its own seeded sequence over a fixed
//! pool of small sweeps.  A client owns whole workload families, and plays
//! each of its sweeps `1 + REPEATS` times: the first time is computed
//! (cold), the rest are served from the store (cached).  Which requests are
//! cold is therefore fixed by the sequence, and the multiset of requests per
//! round does not depend on the seed, only their order does.  Two sweeps of
//! a family differ only in scheduler seed, so the second of them to run is
//! a cold record that reuses a cached build.
//!
//! Clients record stage timestamps (submit, `accepted`, first and last
//! `result`, `status`).  Traced rounds also keep every frame line, then
//! replay the frame codec over them and the round's key/record traffic
//! against a fresh store on the same filesystem.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccs_experiment::canon::record_key;
use ccs_experiment::{build_cache, Experiment, Report, ResultStore, RunRecord, WorkloadSpec};
use ccs_sched::SchedulerSpec;
use ccs_serve::{Frame, RequestState, Server, ServiceConfig, SubmitRequest};
use ccs_sim::{CmpConfig, SimEngine};

use crate::calib::HostSpeed;
use crate::setup::{self, SetupClock};
use crate::spans::Trace;
use crate::stats::{median, quantile, summarize};
use crate::{host, pins, sweep, Args, Outcome};

/// Scale divisor of every served sweep (submitted with `quick`).
pub const SERVE_SCALE: u64 = 1024;
/// Times each sweep is re-requested after its cold run, per round.
///
/// The cold share this gives, 1 in 1 + 3 = 25%, is an assumption of this
/// benchmark: nothing in the repository records a real request mix.  It was
/// chosen so that the end-to-end percentiles each land inside one mode.
/// The two modes do not overlap (a cold request computes its sweep, a
/// cached one reads the store: about 10 ms against 0.15 ms), so whenever
/// the cold share is above 10% and below 50%, the p50 is a cached request
/// and the p90 a cold one.  25% sits well inside both limits, and the share
/// is exact in every round, not sampled.
pub const REPEATS: usize = 3;
/// Fewest rounds a run makes.
const MIN_ROUNDS: usize = 2;

/// One sweep of the request pool.
pub struct Entry {
    /// Request and report name.
    pub id: &'static str,
    pub workload: &'static str,
    pub cores: &'static [usize],
    pub schedulers: &'static [&'static str],
}

/// The request pool: the registry workloads × cores {1, 2, 4, 8}.  The
/// `-r1`/`-r2` pairs differ only in scheduler seed.
pub const POOL: [Entry; 12] = [
    Entry {
        id: "mergesort-a",
        workload: "mergesort",
        cores: &[1, 2],
        schedulers: &["pdf", "ws"],
    },
    Entry {
        id: "mergesort-r1",
        workload: "mergesort",
        cores: &[4],
        schedulers: &["ws-rand@1"],
    },
    Entry {
        id: "mergesort-r2",
        workload: "mergesort",
        cores: &[4],
        schedulers: &["ws-rand@2"],
    },
    Entry {
        id: "hashjoin-a",
        workload: "hashjoin",
        cores: &[2, 4],
        schedulers: &["pdf", "ws"],
    },
    Entry {
        id: "hashjoin-r1",
        workload: "hashjoin",
        cores: &[8],
        schedulers: &["ws-rand@1"],
    },
    Entry {
        id: "hashjoin-r2",
        workload: "hashjoin",
        cores: &[8],
        schedulers: &["ws-rand@2"],
    },
    Entry {
        id: "lu-a",
        workload: "lu",
        cores: &[1, 4],
        schedulers: &["pdf", "ws"],
    },
    Entry {
        id: "quicksort-a",
        workload: "quicksort",
        cores: &[2, 8],
        schedulers: &["pdf", "ws"],
    },
    Entry {
        id: "matmul-a",
        workload: "matmul",
        cores: &[4],
        schedulers: &["pdf", "ws"],
    },
    Entry {
        id: "matmul-r1",
        workload: "matmul",
        cores: &[8],
        schedulers: &["ws-rand@1"],
    },
    Entry {
        id: "heat-a",
        workload: "heat",
        cores: &[1, 8],
        schedulers: &["pdf"],
    },
    Entry {
        id: "heat-r1",
        workload: "heat",
        cores: &[2],
        schedulers: &["ws-rand@1"],
    },
];

impl Entry {
    fn submit(&self, id: String) -> SubmitRequest {
        SubmitRequest {
            id,
            name: Some(self.id.to_string()),
            workloads: vec![self.workload.to_string()],
            schedulers: self.schedulers.iter().map(|s| s.to_string()).collect(),
            cores: self.cores.to_vec(),
            scale: SERVE_SCALE,
            quick: true,
            engine: SimEngine::EventDriven,
            baseline: true,
            timeout_ms: None,
        }
    }

    /// The in-process run the daemon must reproduce byte for byte.
    pub fn experiment(&self) -> Experiment {
        Experiment::named(self.id)
            .workload(self.workload)
            .cores(self.cores.to_vec())
            .schedulers(self.schedulers.iter().copied())
            .scale(SERVE_SCALE)
            .quick(true)
    }

    /// What the store key of the record at report position `seq` is made
    /// of: workload label, design point and scheduler, resolved as the
    /// daemon resolves them.
    fn key_parts(&self, seq: usize) -> (String, CmpConfig, SchedulerSpec) {
        let label = WorkloadSpec::resolve(self.workload)
            .expect("pool workloads are registered")
            .label();
        let sched = SchedulerSpec::resolve(self.schedulers[seq % self.schedulers.len()])
            .expect("pool schedulers are registered");
        let cores = self.cores[seq / self.schedulers.len()];
        let config = CmpConfig::default_with_cores(cores).expect("default core count");
        (label, config, sched)
    }
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Pool indices per client: workload families dealt round-robin, so no
/// two clients ever share a build or a store key.
pub fn partition(clients: usize) -> Vec<Vec<usize>> {
    let mut families: Vec<&str> = Vec::new();
    for entry in &POOL {
        if !families.contains(&entry.workload) {
            families.push(entry.workload);
        }
    }
    let clients = clients.clamp(1, families.len());
    let mut out = vec![Vec::new(); clients];
    for (i, family) in families.iter().enumerate() {
        out[i % clients].extend((0..POOL.len()).filter(|&e| POOL[e].workload == *family));
    }
    out
}

/// One client's request sequence for one round: each of its entries
/// `1 + REPEATS` times, in an order shuffled by `(seed, round, client)`.
pub fn sequence(seed: u64, round: u64, client: usize, entries: &[usize]) -> Vec<usize> {
    let mut rng =
        Rng::new(seed ^ round.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ ((client as u64) << 48));
    let mut seq: Vec<usize> = entries
        .iter()
        .flat_map(|&e| std::iter::repeat_n(e, 1 + REPEATS))
        .collect();
    for i in (1..seq.len()).rev() {
        seq.swap(i, rng.below(i + 1));
    }
    seq
}

/// A JSON-lines connection to the daemon.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn connect(path: &Path) -> io::Result<Conn> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(stream) => break stream,
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        };
        match Frame::parse(&conn.read_line()?) {
            Ok(Frame::Hello { .. }) => Ok(conn),
            other => Err(io::Error::other(format!("expected hello, got {other:?}"))),
        }
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}

/// What one request did, from the client's side.
struct RequestLog {
    entry: usize,
    cold: bool,
    submit: Instant,
    accepted: Option<Instant>,
    first: Option<Instant>,
    last: Option<Instant>,
    end: Instant,
    /// Failure description, `None` when the request checked out.
    failure: Option<String>,
    /// Records streamed (kept after `records` is released).
    n_records: usize,
    records: Vec<(bool, RunRecord)>,
    /// Every line exchanged (traced rounds only).
    lines: Vec<String>,
}

fn serve_one(
    conn: &mut Conn,
    entry: usize,
    id: String,
    cold: bool,
    keep_lines: bool,
) -> io::Result<RequestLog> {
    let submit_line = Frame::Submit(POOL[entry].submit(id.clone())).to_line();
    let mut log = RequestLog {
        entry,
        cold,
        submit: Instant::now(),
        accepted: None,
        first: None,
        last: None,
        end: Instant::now(),
        failure: None,
        n_records: 0,
        records: Vec::new(),
        lines: Vec::new(),
    };
    conn.send(&submit_line)?;
    if keep_lines {
        log.lines.push(submit_line);
    }
    let mut scale = 0;
    let mut total = 0;
    let mut slots: Vec<Option<(bool, RunRecord)>> = Vec::new();
    let mut errors = Vec::new();
    let state = loop {
        let line = conn.read_line()?;
        let now = Instant::now();
        let frame = Frame::parse(&line).map_err(io::Error::other)?;
        if keep_lines {
            log.lines.push(line);
        }
        match frame {
            Frame::Accepted {
                id: fid,
                scale: s,
                total: t,
                ..
            } if fid == id => {
                log.accepted = Some(now);
                scale = s;
                total = t;
                slots = (0..t).map(|_| None).collect();
            }
            Frame::Result {
                id: fid,
                seq,
                cached,
                record,
                ..
            } if fid == id => {
                log.first.get_or_insert(now);
                log.last = Some(now);
                match slots.get_mut(seq) {
                    Some(slot) if slot.is_none() => *slot = Some((cached, record)),
                    _ => errors.push(format!("result seq {seq} out of range or repeated")),
                }
            }
            Frame::Status { id: fid, state, .. } if fid == id => break Some(state),
            Frame::Error { message, .. } => {
                errors.push(message);
                // Before `accepted`, an error is a refusal: no status follows.
                if log.accepted.is_none() {
                    break None;
                }
            }
            _ => {}
        }
    };
    log.end = Instant::now();
    let complete = slots.iter().all(Option::is_some) && total > 0;
    log.records = slots.into_iter().flatten().collect();
    log.n_records = log.records.len();
    log.failure = if !errors.is_empty() {
        Some(errors.join("; "))
    } else if state != Some(RequestState::Done) || !complete {
        Some(format!(
            "state {state:?}, {}/{total} records",
            log.records.len()
        ))
    } else if log.records.iter().any(|(cached, _)| *cached == cold) {
        Some(format!(
            "expected every record {}",
            if cold { "computed" } else { "cached" }
        ))
    } else {
        let mut report = Report::new(POOL[entry].id, scale);
        report.records = log.records.iter().map(|(_, r)| r.clone()).collect();
        let got = sweep::digest(&report);
        let pinned = pins::serve(POOL[entry].id);
        (got != pinned).then(|| format!("report digest {got:016x}, pinned {pinned:016x}"))
    };
    Ok(log)
}

/// One client's round: its whole sequence, closed loop.
fn client_round(
    conn: &mut Conn,
    plan: &[usize],
    round: u64,
    client: usize,
    keep_lines: bool,
) -> io::Result<(Vec<RequestLog>, Trace)> {
    let mut trace = Trace::new(Instant::now());
    let root = trace.enter("serve.client");
    let mut seen = vec![false; POOL.len()];
    let mut logs = Vec::with_capacity(plan.len());
    for (k, &entry) in plan.iter().enumerate() {
        let cold = !seen[entry];
        seen[entry] = true;
        let log = serve_one(
            conn,
            entry,
            format!("r{round}c{client}n{k}"),
            cold,
            keep_lines,
        )?;
        let req = trace.record("serve.request", None, log.submit, log.end);
        let accepted = log.accepted.unwrap_or(log.end);
        let first = log.first.unwrap_or(accepted);
        let last = log.last.unwrap_or(first);
        trace.record("serve.accept", Some(req), log.submit, accepted);
        trace.record("serve.first_after_accept", Some(req), accepted, first);
        trace.record("serve.stream", Some(req), first, last);
        trace.record("serve.status", Some(req), last, log.end);
        logs.push(log);
    }
    trace.exit(root);
    Ok((logs, trace))
}

/// What one round measured.
struct Round {
    /// When the clients started.
    go: Instant,
    wall: Duration,
    logs: Vec<RequestLog>,
    trace: Trace,
    panics: u64,
    timeouts: u64,
    builds: usize,
}

/// A daemon started cold — empty build cache, new store directory — with
/// its clients connected: a round's set-up.
struct Daemon {
    server: Arc<Server>,
    accept_loop: std::thread::JoinHandle<io::Result<()>>,
    conns: Vec<Conn>,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, round: u64, clients: usize) -> io::Result<Daemon> {
        build_cache::clear();
        let dir = dir.join(format!("r{round}"));
        std::fs::create_dir_all(&dir)?;
        let socket = dir.join("d.sock");
        let server = Arc::new(Server::start(ServiceConfig {
            store_dir: Some(dir.join("store")),
            store_max_bytes: None,
            queue_capacity: 32,
            workers: clients,
            pool_threads: host::nproc(),
        })?);
        let accept_loop = {
            let server = Arc::clone(&server);
            let socket = socket.clone();
            std::thread::spawn(move || server.serve_unix(&socket))
        };
        let conns = (0..clients)
            .map(|_| Conn::connect(&socket))
            .collect::<io::Result<Vec<Conn>>>()?;
        Ok(Daemon {
            server,
            accept_loop,
            conns,
            dir,
        })
    }

    /// Hang up every client but the first, which shuts the daemon down;
    /// the accept loop then drains and removes the socket.
    fn stop(mut self) -> io::Result<()> {
        let mut first = self.conns.remove(0);
        drop(self.conns);
        first.send(&Frame::Shutdown.to_line())?;
        drop(first);
        self.accept_loop
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))??;
        drop(self.server);
        std::fs::remove_dir_all(&self.dir)
    }
}

fn run_round(dir: &Path, seed: u64, round: u64, keep_lines: bool) -> io::Result<Round> {
    let clients = partition(host::nproc());
    let mut daemon = Daemon::start(dir, round, clients.len())?;

    let go = Instant::now();
    let results: Vec<io::Result<(Vec<RequestLog>, Trace)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .conns
            .iter_mut()
            .zip(&clients)
            .enumerate()
            .map(|(c, (conn, entries))| {
                let plan = sequence(seed, round, c, entries);
                scope.spawn(move || client_round(conn, &plan, round, c, keep_lines))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
            })
            .collect()
    });
    let wall = go.elapsed();
    let health = daemon.server.service().health();
    let builds = build_cache::cached_builds();
    daemon.stop()?;

    let mut logs = Vec::new();
    let mut trace = Trace::new(go);
    for result in results {
        let (client_logs, client_trace) = result?;
        logs.extend(client_logs);
        trace.absorb(client_trace);
    }
    logs.sort_by_key(|log| log.end);
    Ok(Round {
        go,
        wall,
        logs,
        trace,
        panics: health.panics_caught,
        timeouts: health.timeouts,
        builds,
    })
}

/// Codec and store replays over a traced round's own traffic.
#[derive(Default)]
struct Replay {
    parse_us: Vec<f64>,
    encode_us: Vec<f64>,
    key_us: Vec<f64>,
    get_us: Vec<f64>,
    put_us: Vec<f64>,
    hits: u64,
    misses: u64,
    corrupt: u64,
    disk_bytes: u64,
    bytes_per_request: Vec<f64>,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn replay(round: &Round, dir: &Path, r: &mut Replay) -> io::Result<()> {
    for log in &round.logs {
        r.bytes_per_request
            .push(log.lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64);
        for line in &log.lines {
            let start = Instant::now();
            let frame = Frame::parse(line).map_err(io::Error::other)?;
            r.parse_us.push(micros(start.elapsed()));
            let start = Instant::now();
            let encoded = frame.to_line();
            r.encode_us.push(micros(start.elapsed()));
            std::hint::black_box(encoded);
        }
    }
    let store_dir = dir.join("replay");
    let store = ResultStore::open(&store_dir)?;
    let scale = ccs_experiment::experiment::effective_scale(SERVE_SCALE, true);
    for log in &round.logs {
        for (seq, (_, record)) in log.records.iter().enumerate() {
            let (label, config, sched) = POOL[log.entry].key_parts(seq);
            let start = Instant::now();
            let key = record_key(&label, &config, scale, SimEngine::EventDriven, &sched, true);
            r.key_us.push(micros(start.elapsed()));
            let start = Instant::now();
            if log.cold {
                store.put(&key, record)?;
                r.put_us.push(micros(start.elapsed()));
            } else {
                let got = store.get(&key);
                r.get_us.push(micros(start.elapsed()));
                if got.as_ref() == Some(record) {
                    r.hits += 1;
                } else {
                    r.misses += 1;
                }
            }
        }
    }
    r.disk_bytes += store.disk_bytes();
    r.corrupt += std::fs::read_dir(&store_dir)?
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "corrupt"))
        .count() as u64;
    drop(store);
    std::fs::remove_dir_all(&store_dir)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// The per-run scratch directory: inside the working directory, short
/// enough for a Unix socket path.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(std::process::id().to_string())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = scratch_dir();
    let result = measure(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    result
}

/// The `--setup-probe` side of `setup_s` (see `setup.rs`): the first
/// round's daemon, started and stopped.
pub fn probe() -> Result<Outcome, String> {
    let dir = scratch_dir();
    let result = Daemon::start(&dir, 0, partition(host::nproc()).len()).and_then(|daemon| {
        setup::ready();
        daemon.stop()
    });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    result
        .map(|()| Outcome::default())
        .map_err(|e| format!("serve_mixed set-up: {e}"))
}

fn measure(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let fail = |e: io::Error| format!("serve_mixed: {e}");
    let mut out = Outcome::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut replays = Replay::default();
    let mut untraced_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let started = Instant::now();
    let mut n = 0u64;
    let mut first_rss = f64::NAN;
    let mut setup = SetupClock::new(args);
    let mut speed = HostSpeed::new();
    while (n as usize) < MIN_ROUNDS || started.elapsed() < args.seconds {
        setup.tick()?;
        speed.sample();
        // Traced runs alternate plain and line-keeping rounds, so the
        // recorder's overhead is measured against the same traffic.
        let keep_lines = args.trace && n % 2 == 1;
        let mut round = run_round(dir, args.seed, n, keep_lines).map_err(fail)?;
        if keep_lines {
            replay(&round, dir, &mut replays).map_err(fail)?;
            traced_wall.push(ms(round.wall));
        } else {
            untraced_wall.push(ms(round.wall));
        }
        // Checked and replayed: release the traffic, so memory does not
        // grow with the number of rounds a run fits in.
        for log in &mut round.logs {
            log.lines = Vec::new();
            log.records = Vec::new();
        }
        rounds.push(round);
        if n == 0 {
            first_rss = host::peak_rss_mb();
        }
        n += 1;
    }
    speed.sample();

    let logs: Vec<&RequestLog> = rounds.iter().flat_map(|r| &r.logs).collect();
    out.attempted = logs.len() as u64;
    for log in &logs {
        if let Some(failure) = &log.failure {
            out.failed += 1;
            eprintln!("serve_mixed: {}: {failure}", POOL[log.entry].id);
        }
    }
    let latency = |keep: &dyn Fn(&RequestLog) -> bool| -> Vec<f64> {
        logs.iter()
            .filter(|l| keep(l))
            .map(|l| ms(l.end - l.submit))
            .collect()
    };
    let all = summarize(&latency(&|_| true));
    let wall: Duration = rounds.iter().map(|r| r.wall).sum();
    let requests_per_s = logs.len() as f64 / wall.as_secs_f64();
    let clients = partition(host::nproc()).len();
    out.detail("rounds", rounds.len());
    out.detail("requests", all.n);
    out.detail("requests_per_round", logs.len() / rounds.len());
    out.detail(
        "cold_per_round",
        logs.iter().filter(|l| l.cold).count() / rounds.len(),
    );
    out.detail("scale", SERVE_SCALE);
    out.detail("threads", host::nproc());
    out.detail("connections", clients);
    out.detail("loop", format!("closed, {clients} clients"));
    out.detail(
        "caches",
        "each round: empty build cache, new store directory",
    );
    out.detail(
        "raw_request_ms_p50_p90",
        format!("{:.4} {:.4}", all.p50, all.p90),
    );
    out.detail("raw_requests_per_s", format!("{requests_per_s:.2}"));
    out.detail("host_speed", format!("{:.4}", speed.relative()));
    out.detail("reference_kernel_ms", format!("{:.4}", speed.median_ms()));
    if !args.trace {
        let scaled: Vec<f64> = logs
            .iter()
            .map(|l| speed.scale(l.submit, ms(l.end - l.submit)))
            .collect();
        let op = summarize(&scaled);
        let scaled_wall: f64 = rounds.iter().map(|r| speed.scale(r.go, ms(r.wall))).sum();
        out.set("setup_s", setup.finish()?);
        out.set("op_ms_p50", op.p50);
        out.set("op_ms_p90", op.p90);
        out.set("work_per_s", logs.len() as f64 / (scaled_wall / 1000.0));
        out.set("peak_rss_mb", first_rss);
        return Ok(out);
    }

    let stage = |from: &dyn Fn(&RequestLog) -> Option<Instant>,
                 to: &dyn Fn(&RequestLog) -> Option<Instant>| {
        let v: Vec<f64> = logs
            .iter()
            .filter_map(|l| Some(ms(to(l)?.saturating_duration_since(from(l)?))))
            .collect();
        median(&v)
    };
    out.set(
        "serve.accept_ms",
        stage(&|l| Some(l.submit), &|l| l.accepted),
    );
    out.set(
        "serve.first_after_accept_ms",
        stage(&|l| l.accepted, &|l| l.first),
    );
    out.set("serve.stream_ms", stage(&|l| l.first, &|l| l.last));
    out.set("serve.status_ms", stage(&|l| l.last, &|l| Some(l.end)));
    out.set("serve.cold_ms_p50", median(&latency(&|l| l.cold)));
    out.set("serve.cached_ms_p50", median(&latency(&|l| !l.cold)));
    let first: Vec<f64> = logs
        .iter()
        .filter_map(|l| Some(ms(l.first? - l.submit)))
        .collect();
    out.set("serve.first_result_ms_p50", quantile(&first, 0.5));
    out.set("serve.first_result_ms_p90", quantile(&first, 0.9));
    out.set("serve.requests_per_s", requests_per_s);
    let records: usize = logs.iter().map(|l| l.n_records).sum();
    let cached: usize = logs.iter().filter(|l| !l.cold).map(|l| l.n_records).sum();
    out.set("serve.cached_frac", cached as f64 / records as f64);
    out.set(
        "serve.panics_caught",
        rounds.iter().map(|r| r.panics as f64).sum(),
    );
    out.set(
        "serve.timeouts",
        rounds.iter().map(|r| r.timeouts as f64).sum(),
    );

    let per_round = 1.0 / rounds.len() as f64;
    let cold_points: usize = logs
        .iter()
        .filter(|l| l.cold)
        .map(|l| POOL[l.entry].cores.len())
        .sum();
    let builds: usize = rounds.iter().map(|r| r.builds).sum();
    out.set("build_cache.misses", builds as f64 * per_round);
    out.set(
        "build_cache.hits",
        (cold_points - builds) as f64 * per_round,
    );

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let replayed_rounds = traced_wall.len().max(1) as f64;
    out.set("frame.parse_us", mean(&replays.parse_us));
    out.set("frame.encode_us", mean(&replays.encode_us));
    out.set("frame.bytes", mean(&replays.bytes_per_request));
    out.set("canon.key_us", mean(&replays.key_us));
    out.set("store.get_us.p50", median(&replays.get_us));
    out.set("store.put_us.p50", median(&replays.put_us));
    out.set("store.hits", replays.hits as f64 / replayed_rounds);
    out.set("store.misses", replays.misses as f64 / replayed_rounds);
    out.set("store.corrupt", replays.corrupt as f64 / replayed_rounds);
    out.set(
        "store.disk_bytes",
        replays.disk_bytes as f64 / replayed_rounds,
    );

    let mut trace = Trace::new(Instant::now());
    for round in rounds {
        trace.absorb(round.trace);
    }
    let (wall, unattributed) = trace.root_accounting();
    out.set("trace.wall_ms", ms(wall) * per_round);
    out.set("trace.unattributed_ms", ms(unattributed) * per_round);
    out.set(
        "trace.unattributed_frac",
        unattributed.as_secs_f64() / wall.as_secs_f64(),
    );
    out.set(
        "trace.overhead_frac",
        median(&traced_wall) / median(&untraced_wall) - 1.0,
    );
    out.set("trace.ops", all.n as f64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_yields_the_same_request_sequence() {
        let clients = partition(2);
        assert_eq!(clients.len(), 2);
        for (c, entries) in clients.iter().enumerate() {
            let a = sequence(7, 3, c, entries);
            assert_eq!(a, sequence(7, 3, c, entries), "same seed, same sequence");
            assert_ne!(a, sequence(8, 3, c, entries), "another seed reorders");
            assert_ne!(a, sequence(7, 4, c, entries), "another round reorders");
            // The multiset — hence which requests are cold — is fixed.
            let mut sorted = a.clone();
            sorted.sort_unstable();
            let mut expected: Vec<usize> = entries
                .iter()
                .flat_map(|&e| std::iter::repeat_n(e, 1 + REPEATS))
                .collect();
            expected.sort_unstable();
            assert_eq!(sorted, expected);
        }
    }

    #[test]
    fn partition_keeps_families_on_one_client_and_covers_the_pool() {
        for n in 1..=8 {
            let parts = partition(n);
            let mut all: Vec<usize> = parts.concat();
            all.sort_unstable();
            assert_eq!(all, (0..POOL.len()).collect::<Vec<_>>());
            for part in &parts {
                for other in parts.iter().filter(|p| !std::ptr::eq(*p, part)) {
                    assert!(part
                        .iter()
                        .all(|&a| other.iter().all(|&b| POOL[a].workload != POOL[b].workload)));
                }
            }
        }
    }
}
