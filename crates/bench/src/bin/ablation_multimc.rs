//! Ablation: DyLeCT on 1, 2 and 4 memory controllers, each managing its
//! local DRAM with no cross-MC coherence (paper §IV-D: minimal impact).
//!
//! Defined in `dylect_bench::figures`. Usage:
//! `ablation_multimc [--quick] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
