//! Warmup dynamics: CTE hit rate and ML0 fraction vs retired instructions
//! for TMCC and DyLeCT, from telemetry time series of Figure 19's runs.
//!
//! Defined in `dylect_bench::figures`. Exports land under `--out DIR`
//! (default `results/telemetry`). Usage: `fig_warmup [--quick] [--out DIR]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
