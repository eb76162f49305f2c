//! `setup_s`: process start to the first timed operation.
//!
//! A run cannot see its own process start, so it times fresh ones.  It
//! spawns this binary with `--setup-probe`; the probe does the workload's
//! set-up (everything a run does before its first timed op), prints
//! `ready`, then tears down and exits.  One sample is the time from spawn
//! to `ready`.  Samples are spread over the run, between ops, so set-up is
//! timed on a host in the same state as the ops, and the run reports their
//! median.  Traced runs take none.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::stats::median;
use crate::Args;

/// Set-up samples one untraced run takes.
pub const SAMPLES: usize = 12;

/// Takes a set-up sample whenever one is due.
pub struct SetupClock {
    workload: String,
    enabled: bool,
    every: Duration,
    next: Instant,
    samples: Vec<f64>,
}

impl SetupClock {
    pub fn new(args: &Args) -> SetupClock {
        SetupClock {
            workload: args.workload.clone(),
            enabled: !args.trace,
            every: args.seconds / SAMPLES as u32,
            next: Instant::now(),
            samples: Vec::with_capacity(SAMPLES),
        }
    }

    /// Call before each op: takes a sample if one is due.
    pub fn tick(&mut self) -> Result<(), String> {
        if self.enabled && self.samples.len() < SAMPLES && Instant::now() >= self.next {
            self.samples.push(time_probe(&self.workload)?);
            self.next += self.every;
        }
        Ok(())
    }

    /// The median set-up time in seconds, after topping up to `SAMPLES`
    /// samples when the run's ops were too long to fit them all in.
    pub fn finish(mut self) -> Result<f64, String> {
        while self.samples.len() < SAMPLES {
            self.samples.push(time_probe(&self.workload)?);
        }
        Ok(median(&self.samples))
    }
}

/// One sample: spawn a probe and wait for its `ready` line.
fn time_probe(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up probe: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--setup-probe"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let mut line = String::new();
    let read = child
        .stdout
        .take()
        .map(|out| BufReader::new(out).read_line(&mut line));
    let elapsed = start.elapsed();
    let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
    match read {
        Some(Ok(_)) if status.success() && line.trim_end() == "ready" => Ok(elapsed.as_secs_f64()),
        _ => Err(format!("set-up probe for {workload} failed ({status})")),
    }
}

/// The probe side: tell the timing parent that set-up is done.
pub fn ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "ready");
    let _ = out.flush();
}
