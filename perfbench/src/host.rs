//! The host shape every result is stamped with.  Wall-clock figures are
//! only comparable between results whose shapes match.

use std::path::Path;

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` does not report it.
///
/// The sweeps and the daemon read it once their first op has finished: the
/// footprint of one op from a fresh process.  Later ops add allocator
/// retention that differs from run to run (freed memory kept in
/// per-thread arenas).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit when the tree is a git work tree whose HEAD
/// resolves to a commit id (loose or packed ref, or detached), else
/// `"none"`.
fn commit() -> String {
    commit_in(Path::new(".git")).unwrap_or_else(|| "none".to_string())
}

fn commit_in(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => match std::fs::read_to_string(git.join(reference)) {
            Ok(id) => id.trim().to_string(),
            // Packed refs: `<id> <ref>` lines.
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|line| {
                    Some(line.strip_suffix(reference)?.strip_suffix(' ')?.to_string())
                })?,
        },
    };
    let is_id = id.len() >= 40 && id.bytes().all(|b| b.is_ascii_hexdigit());
    is_id.then_some(id)
}

/// FNV-1a over the workspace sources and manifests (`crates/`, `Cargo.lock`),
/// walked in sorted order: identifies the measured code where there is no
/// commit to name it.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("{:016x}", ccs_experiment::canon::fnv1a64(&bytes))
}

/// Keep freed heap memory in the process (glibc: no `mmap`ed chunks, no
/// trimming), so that an op reuses the pages earlier ops faulted in.
///
/// A `sweep_multicore` pass frees and re-allocates about 15 MB; with
/// glibc's defaults that is ~3 700 minor page faults per pass.  On a VM the
/// cost of a fault drifts with the host for minutes at a time, and it moved
/// whole runs' pass times by up to 1.7×.  Allocation itself still lands in
/// the ops; only the kernel's re-faulting after the first op is gone.  Call
/// before any other thread starts.  Returns what the stamp should say.
pub fn retain_freed_memory() -> &'static str {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_MAX: c_int = -4;
        // SAFETY: `mallopt` only sets glibc allocator tunables and may be
        // called at any time; it runs from `main` before any other thread
        // exists, so no allocation races with the change.
        let set =
            unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1 };
        if set {
            return "glibc, freed memory retained";
        }
    }
    "default"
}

/// `(key, value)` pairs describing the host and build.
pub fn stamp() -> Vec<(String, String)> {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc".into(), nproc().to_string()),
        ("cpu_model".into(), cpu_model()),
        ("pinned".into(), "false".into()),
        ("build_profile".into(), profile.into()),
        ("commit".into(), commit()),
        ("source_digest".into(), source_digest()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_resolves_loose_packed_and_detached_heads() {
        let git =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(".test-git-{}", std::process::id()));
        let id = "0123456789abcdef0123456789abcdef01234567";
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        let write = |path: &str, text: &str| std::fs::write(git.join(path), text).unwrap();

        write("HEAD", "ref: refs/heads/main\n");
        assert_eq!(commit_in(&git), None, "unresolved ref");
        write(
            "packed-refs",
            &format!("# pack-refs\n{id} refs/heads/main\n"),
        );
        assert_eq!(commit_in(&git).as_deref(), Some(id), "packed ref");
        write("refs/heads/main", &format!("{}\n", id.replace('0', "f")));
        assert_eq!(
            commit_in(&git),
            Some(id.replace('0', "f")),
            "loose ref wins"
        );
        write("HEAD", &format!("{id}\n"));
        assert_eq!(commit_in(&git).as_deref(), Some(id), "detached");
        std::fs::remove_dir_all(&git).unwrap();
        assert_eq!(commit_in(&git), None, "no work tree");
    }
}
