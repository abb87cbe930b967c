//! Figure 17: memory bandwidth utilization without compression
//! (paper: roughly 10-80% of the DDR4-3200 channel).
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig17_bandwidth [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
