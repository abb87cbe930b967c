//! Virtualized translation: the `tlb_walk` cycles 2D nested page walks
//! add per scheme, on 4 KB pages.
//!
//! Defined in `dylect_bench::figures`. Exports land under `--out DIR`
//! (default `results/nested`). Usage: `fig_nested [--quick] [--out DIR]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
