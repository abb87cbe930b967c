//! Figure 18: DyLeCT over TMCC, with the always-hit upper bound
//! (paper: +11% at low compression, +9.5% at high).
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig18_speedup [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
