//! The whole reproduction: runs every figure of
//! `dylect_bench::figures::ALLFIGS` as one batch (the runner simulates each
//! distinct run once and caches it) and prints them in order.
//! Usage: `allfigs [--quick] [--all] [--no-cache]`.

fn main() {
    dylect_bench::figures::run(&dylect_bench::figures::ALLFIGS);
    println!("# allfigs complete");
}
