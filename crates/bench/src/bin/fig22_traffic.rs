//! Figure 22: memory traffic per instruction, DyLeCT over TMCC (paper:
//! 0.93). Prints the combined Figures 22-23 table.
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig22_traffic [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
