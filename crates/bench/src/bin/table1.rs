//! Table 1: achieved compression ratio and DyLeCT's speedup over TMCC,
//! with only the memory controller modified (paper: equal ratios, +10.25%).
//!
//! Defined in `dylect_bench::figures`; its runs are Figure 18's TMCC and
//! DyLeCT cells. Usage: `table1 [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
