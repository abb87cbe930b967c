//! Figure 24: DRAM energy per instruction, DyLeCT on 8 ranks over no
//! compression on 16 ranks (paper: ~0.60).
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig24_energy [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
