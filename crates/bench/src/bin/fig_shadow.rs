//! Counterfactual CTE-cache analysis per scheme: 3C miss classes, shadow
//! caches of other geometries, and page lifetimes by managed level.
//!
//! Defined in `dylect_bench::figures`. Exports land under `--out DIR`
//! (default `results/shadow`). Usage: `fig_shadow [--quick] [--out DIR]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
