//! What the benchmark reads from, and asks of, the Linux host: memory and
//! processor time of processes and threads, and which processor a thread
//! runs on.

/// Anonymous resident memory (`RssAnon`) of process `pid`, in kB: the
/// heap and stacks, without the file pages of the binary, which vary from
/// run to run with the page cache.
pub fn anon_rss_kb(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("RssAnon:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("{path}: no RssAnon line"))
}

/// Processor seconds (user + system) that process `pid` and its threads,
/// ended ones included, have used, from `/proc/<pid>/stat` in its fixed
/// 1/100 s ticks.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let (_, rest) = stat.rsplit_once(')')?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i - 3)?.parse::<u64>().ok();
    Some((ticks(14)? + ticks(15)?) as f64 / 100.0)
}

/// Processor time of the calling thread, ns.
pub fn thread_cpu_ns() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    /// Linux's `CLOCK_THREAD_CPUTIME_ID`.
    const THREAD_CPUTIME: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 * 1e9 + ts.nsec as f64
}

/// A Linux `cpu_set_t`: one bit per processor, 1024 processors.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The processors the calling thread may run on, in order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Keeps the calling thread, and every thread and process it starts from
/// now on, on processor `cpu`.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("cannot pin a thread to processor {cpu}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_memory_processor_time_and_processors() {
        let pid = std::process::id();
        assert!(anon_rss_kb(pid).is_ok_and(|kb| kb > 0));
        assert!(cpu_seconds(pid).is_some_and(|s| s >= 0.0));
        let t0 = thread_cpu_ns();
        let spin: u64 = (0..1_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0 && thread_cpu_ns() > t0);
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        // Pinning a thread of its own leaves the test thread alone.
        std::thread::spawn(move || pin_to(cpus[0]))
            .join()
            .expect("pinned thread")
            .expect("pinning to an allowed processor works");
    }
}
