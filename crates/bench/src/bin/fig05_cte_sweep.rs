//! Figure 5: TMCC CTE cache miss rate from 64 KB to 512 KB (paper: only
//! 34% -> 24% on average; capacity alone cannot buy reach).
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig05_cte_sweep [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
