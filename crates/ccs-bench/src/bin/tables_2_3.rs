//! Regenerate Table 1 (common parameters), Table 2 (default configurations)
//! and Table 3 (45 nm single-technology configurations), both as published
//! and as derived by the area/latency model of `ccs_sim::area`, plus the
//! registered workload roster (see [`ccs_bench::sections::tables_2_3`]).
//!
//! ```text
//! cargo run --release -p ccs-bench --bin tables_2_3
//! ```

use ccs_bench::sections::tables_2_3;
use ccs_bench::text_out;
use ccs_experiment::Options;

fn main() {
    let opts = Options::from_env();
    tables_2_3(&opts, &mut text_out(&opts)).expect("write the tables");
}
