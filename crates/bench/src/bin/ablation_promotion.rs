//! Ablation: DyLeCT's promotion knobs (counter sample rate, thresholds)
//! on canneal at high compression; the paper row is the matrix run.
//!
//! Defined in `dylect_bench::figures`. Usage:
//! `ablation_promotion [--quick] [--no-cache]`.

fn main() {
    dylect_bench::figures::main(env!("CARGO_BIN_NAME"));
}
