//! Report digests pinned from the current code: FNV-1a over
//! `Report::to_json` of each sweep workload and of each served sweep.  A
//! change that moves any simulated number fails the benchmark's output
//! check; regenerate with `--print-pins` only for an intended change.

use crate::serve::POOL;
use crate::sweep::{digest, SweepPlan};

/// `sweep_multicore` at its pinned scale.
pub const SWEEP_MULTICORE: u64 = 0xbdc751bdd20e1ad0;
/// `latency_batch` at its pinned scale.
pub const LATENCY_BATCH: u64 = 0x34301f2e5657c7b9;

/// `serve_mixed`'s request pool, by entry id.
const SERVE: [(&str, u64); 12] = [
    ("mergesort-a", 0xa1edc97615532990),
    ("mergesort-r1", 0x1b84f1f75d1d89cb),
    ("mergesort-r2", 0xd8a6220f856b3cb4),
    ("hashjoin-a", 0x21112fc8b2baaa0d),
    ("hashjoin-r1", 0x314dadad78f9e4a9),
    ("hashjoin-r2", 0x0668649bfba7eb2f),
    ("lu-a", 0x4b5eecc5f629d927),
    ("quicksort-a", 0x4abf9e40567d57ec),
    ("matmul-a", 0x733b42b054a7fbf9),
    ("matmul-r1", 0x16a2a02b1d40da53),
    ("heat-a", 0xe3cd312c9af059de),
    ("heat-r1", 0xa5febbbc588b5e3a),
];

/// The pinned digest of served sweep `id`.
pub fn serve(id: &str) -> u64 {
    SERVE
        .iter()
        .find(|(name, _)| *name == id)
        .map_or(0, |(_, digest)| *digest)
}

/// Print every digest as computed by the current code, in source form.
pub fn print_current() {
    println!(
        "pub const SWEEP_MULTICORE: u64 = 0x{:016x};",
        digest(&SweepPlan::multicore().run())
    );
    println!(
        "pub const LATENCY_BATCH: u64 = 0x{:016x};",
        digest(&SweepPlan::latency_grid().run())
    );
    for entry in &POOL {
        println!(
            "    (\"{}\", 0x{:016x}),",
            entry.id,
            digest(&entry.experiment().run())
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pool_entry_is_pinned() {
        assert!(POOL.iter().all(|e| SERVE.iter().any(|(id, _)| *id == e.id)));
    }
}
