//! Figure 19: CTE cache hit rates of TMCC and DyLeCT, with DyLeCT's hits
//! split into pre-gathered and unified blocks (paper: 67% -> 91% at high).
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig19_hitrate [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
