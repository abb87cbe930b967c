//! Figure 6: TMCC at 4/16/64/128 KB granularity, normalized to no
//! compression (paper: coarser helps at low compression, hurts at high).
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig06_granularity [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
