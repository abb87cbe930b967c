//! Figure 25: ML0 fraction of uncompressed pages vs DRAM page-group size
//! (paper: ~0.66 at G=3, flat from G=7).
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig25_groupsize [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
