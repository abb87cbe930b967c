//! Full-system assembly for the DyLeCT reproduction.
//!
//! This crate wires the substrates together into the paper's simulated
//! machine (Table 3): four interval-model cores with private L1/L2, TLBs,
//! and page walkers ([`dylect_cpu`]); a shared 8 MB L3; one of the
//! compressed-memory controller schemes (TMCC, DyLeCT, the naive
//! strawman, or the no-compression baseline); and the DDR4-3200 DRAM
//! model.
//!
//! # Example
//!
//! ```
//! use dylect_sim::{SchemeKind, System, SystemConfig};
//! use dylect_workloads::{BenchmarkSpec, CompressionSetting};
//!
//! let spec = BenchmarkSpec::by_name("canneal").unwrap();
//! let cfg = SystemConfig::quick(&spec, SchemeKind::dylect(), CompressionSetting::High);
//! let mut sys = System::new(cfg, &spec);
//! let report = sys.run(1_000, 2_000);
//! assert!(report.instructions > 0);
//! ```

pub mod backend;
pub mod config;
pub mod report;
pub mod system;

pub use backend::{SharedMemory, SharedStats};
pub use config::{SchemeKind, SystemConfig};
pub use report::RunReport;
pub use system::{SchemeBuilder, System, TenantSummary};
