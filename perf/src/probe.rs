//! Host time in reference units.
//!
//! On a shared machine the same simulator code runs up to twice as slowly
//! for minutes at a time while other tenants load the processor and its
//! caches; the clock rate does not change, so a tight arithmetic loop does
//! not notice, but branchy code like the simulator's does. A fixed piece of
//! such code slows down in step: sorting a small random array that fits
//! the private caches. This module times that probe beside the measured
//! work and scales the work's host time to a host on which one probe pass
//! takes [`REFERENCE_NS`], the probe's pace on a quiet 2-vCPU Intel Xeon
//! VM.
//!
//! Random updates to a table beyond the private caches were tried as a
//! probe too: they slow down about twice as much as the simulator does, so
//! scaling by them overcorrects.
//!
//! The probe is `std` code fed fixed random keys, so no change to this
//! repository changes it: a change that makes the simulator slower makes
//! its scaled time longer by the same share.

use std::hint::black_box;
use std::time::Instant;

use crate::host;

/// Elements sorted per pass: 128 KiB, within the private caches.
const SORTED: usize = 1 << 14;

/// Host ns of one probe pass on the reference host.
pub const REFERENCE_NS: f64 = 200_000.0;

/// The probe: the array to sort and the position of its random stream.
pub struct Probe {
    sorted: Vec<u64>,
    state: u64,
}

impl Probe {
    /// A probe at the start of its random stream.
    pub fn new() -> Probe {
        Probe {
            sorted: vec![0; SORTED],
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The next number of the probe's xorshift64 stream, which repeats
    /// from process to process.
    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Runs one pass: fills the array and sorts it.
    fn pass(&mut self) {
        for i in 0..SORTED {
            self.sorted[i] = self.next();
        }
        self.sorted.sort_unstable();
        black_box(&self.sorted);
    }

    /// Host ns of one pass, by the wall clock.
    pub fn ns(&mut self) -> f64 {
        let t0 = Instant::now();
        self.pass();
        t0.elapsed().as_nanos() as f64
    }

    /// Host ns of one pass, by this thread's processor time, which leaves
    /// out time the thread waited for a processor. For a probe that shares
    /// its processor with another busy process.
    pub fn cpu_ns(&mut self) -> f64 {
        let t0 = host::thread_cpu_ns();
        self.pass();
        host::thread_cpu_ns() - t0
    }
}

/// `host_ns` of work during which a probe pass took `probe_ns`, scaled to
/// the reference host.
pub fn scaled(host_ns: f64, probe_ns: f64) -> f64 {
    host_ns * REFERENCE_NS / probe_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_passes_take_time_on_both_clocks_and_scaling_is_proportional() {
        let mut p = Probe::new();
        assert!(p.ns() > 0.0);
        let cpu = p.cpu_ns();
        assert!(cpu > 0.0 && cpu.is_finite());
        assert!(p.sorted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(scaled(300.0, REFERENCE_NS), 300.0);
        assert_eq!(scaled(300.0, 2.0 * REFERENCE_NS), 150.0);
    }
}
