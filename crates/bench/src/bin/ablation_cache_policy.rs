//! Ablation: DyLeCT's CTE-cache insertion policy and the naive design's
//! short-CTE cache organization (paper Fig. 9, §IV-C2), on canneal.
//!
//! Defined in `dylect_bench::figures`; the paper rows are matrix runs.
//! Usage: `ablation_cache_policy [--quick] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
