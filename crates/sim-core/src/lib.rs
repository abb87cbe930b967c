//! Shared vocabulary for the DyLeCT hardware-compressed-memory simulator.
//!
//! This crate defines the primitive types every other crate in the workspace
//! speaks in:
//!
//! - [`Time`]: picosecond-resolution simulation time (both instants and
//!   durations),
//! - address newtypes ([`VirtAddr`], [`PhysAddr`], [`MachineAddr`]) and page
//!   identifiers ([`PageId`], [`DramPageId`]) that keep the simulator's three
//!   address spaces statically distinct,
//! - a deterministic, seedable random-number generator ([`rng::Rng`]) with a
//!   Zipf sampler used by the synthetic workload generators,
//! - lightweight statistics helpers ([`stats`]),
//! - observability probes ([`probe`]) through which memory controllers
//!   announce discrete events (promotions, expansions, …) to the telemetry
//!   subsystem without affecting simulation behavior.
//!
//! # The three address spaces
//!
//! Hardware memory compression introduces a third address space beyond the
//! familiar virtual/physical pair:
//!
//! ```text
//! VirtAddr --(TLB / page tables)--> PhysAddr --(CTEs in the MC)--> MachineAddr
//! ```
//!
//! `PhysAddr` is what the OS believes memory looks like (and can be larger
//! than installed DRAM when compression is active). `MachineAddr` names a
//! location in actual DRAM. Keeping them as separate newtypes means the type
//! checker rejects, e.g., feeding an untranslated physical address to the
//! DRAM timing model.
//!
//! # Example
//!
//! ```
//! use dylect_sim_core::{PhysAddr, Time, PAGE_BYTES};
//!
//! let a = PhysAddr::new(3 * PAGE_BYTES as u64 + 128);
//! assert_eq!(a.page().index(), 3);
//! assert_eq!(a.page_offset(), 128);
//! let t = Time::from_ns(13.75);
//! assert_eq!(t.as_ps(), 13_750);
//! ```

pub mod addr;
pub mod blackbox;
pub mod check;
pub mod digest;
pub mod env;
pub mod kv;
pub mod probe;
pub mod prof;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod time;
pub mod trace;

pub use addr::{
    DramPageId, MachineAddr, PageId, PhysAddr, VirtAddr, BLOCKS_PER_PAGE, BLOCK_BYTES,
    HUGE_PAGE_BYTES, PAGES_PER_HUGE_PAGE, PAGE_BYTES,
};
pub use time::Time;
