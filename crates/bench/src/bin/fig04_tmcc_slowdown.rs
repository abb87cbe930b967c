//! Figure 4: TMCC normalized to a bigger memory system without
//! compression (paper: 14% slowdown at low compression, 18% at high).
//!
//! Prints exactly its section of `allfigs`; the figure is defined in
//! `dylect_bench::figures`. Usage: `fig04_tmcc_slowdown [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
