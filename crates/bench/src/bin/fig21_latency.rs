//! Figure 21: L3-miss latency that TMCC and DyLeCT add over no
//! compression (paper: TMCC 9.5/12.8 ns, DyLeCT 2.9/5.8 ns).
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig21_latency [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
