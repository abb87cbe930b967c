//! One-stop reproduction driver: runs the runs of every figure in
//! `dylect_bench::figures::ALLFIGS` as one batch, then prints the figures
//! in order. Figures share most of their runs; the runner simulates each
//! distinct configuration once and caches it under `results/cache/`, where
//! the per-figure binaries pick it up without re-simulating.
//!
//! Usage: `allfigs [--quick] [--all] [--no-cache]` (`--all` = full
//! 12-benchmark suite).

use dylect_bench::figures;

fn main() {
    figures::run(&figures::ALLFIGS);
    println!("# allfigs complete");
}
