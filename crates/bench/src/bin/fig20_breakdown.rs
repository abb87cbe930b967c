//! Figure 20: DRAM breakdown into ML0/ML1/ML2 under DyLeCT at low and
//! high compression.
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig20_breakdown [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
