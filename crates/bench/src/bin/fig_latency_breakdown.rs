//! Per-access latency attribution per scheme: where the cycles go, and
//! latency percentiles by translation outcome (`DYLECT_SPAN_SAMPLE=N` spans).
//!
//! Defined in `dylect_bench::figures`. Exports land under `--out DIR`
//! (default `results/latency`). Usage: `fig_latency_breakdown [--quick] [--out DIR]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
