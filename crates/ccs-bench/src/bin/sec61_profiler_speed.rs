//! Section 6.1: performance of the one-pass `LruTree` working-set profiler
//! versus the multi-pass `SetAssoc` baseline on a scaled-down Mergesort
//! trace (see [`ccs_bench::sections::sec61_profiler_speed`]).
//!
//! ```text
//! cargo run --release -p ccs-bench --bin sec61_profiler_speed -- [--scale N]
//! ```

use ccs_bench::sections::sec61_profiler_speed;
use ccs_bench::text_out;
use ccs_experiment::Options;

fn main() {
    let opts = Options::from_env();
    sec61_profiler_speed(&opts, &mut text_out(&opts)).expect("write the timing table");
}
