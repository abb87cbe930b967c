//! Figure 3: speedup of 2 MB huge pages over 4 KB pages without memory
//! compression (paper: 1.75x average, ~20x fewer TLB misses).
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig03_hugepages [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
