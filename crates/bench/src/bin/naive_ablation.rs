//! §IV-A3: the naive dynamic-length strawman against TMCC at high
//! compression (paper: 76% CTE hit rate, 5% slower than TMCC).
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `naive_ablation [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
