//! `run_all` whose reader goes away early (`run_all | head`) stops writing
//! and exits quietly instead of panicking on the broken pipe.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_run_all_without_a_panic() {
    // Tables on stdout, then tables on stderr with the JSON on stdout.
    for args in [
        &["--fig", "tables_2_3"][..],
        &["--fig", "tables_2_3", "--json", "-"][..],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn run_all");
        // The reader leaves before run_all writes its first byte.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for run_all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "run_all {args:?}: {stderr}");
        assert!(out.status.success(), "run_all {args:?}: {:?}", out.status);
    }
}
