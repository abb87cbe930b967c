//! Figure 23: CTE traffic and total traffic, DyLeCT over TMCC (paper: CTE
//! traffic < 1, total ~1.045). Prints the combined Figures 22-23 table.
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig23_cte_traffic [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
