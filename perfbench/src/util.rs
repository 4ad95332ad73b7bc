//! Counting allocator, output digest, quantiles and process memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use hpm_core::knowledge::VerifyScratch;
use hpm_core::plan::CompiledPattern;
use hpm_topology::{ClusterShape, Placement, PlacementPolicy};

use crate::{add, Counts};

/// The system allocator, counting heap growth while a probe is armed.
pub struct Counting;

static PROBE: AtomicBool = AtomicBool::new(false);
static CUR: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(delta: i64) {
    if PROBE.load(Ordering::Relaxed) {
        let cur = CUR.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(cur, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are plain statistics and never affect
// what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as our caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as our caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as our caller's.
        unsafe { System.dealloc(ptr, layout) };
        grow(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as our caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Makes glibc keep freed heap memory in the process: no trimming of the
/// heap top and a fixed mmap threshold (32 MiB, the largest glibc takes)
/// instead of the adaptive one. With the defaults the simulator's
/// per-call scratch is handed back to the kernel and faulted in again,
/// up to 5 million minor faults and a third of the CPU time per `faults`
/// run, and what that costs on a shared host swung whole runs by up to
/// 1.6x (README.md). A no-op on other C libraries.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only changes glibc's tuning parameters; it is
        // called before any other thread exists.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// Runs `f` with the counter armed and returns the peak heap growth in
/// bytes while it ran. Callers run it while no other thread allocates.
fn peak_heap_growth<R>(f: impl FnOnce() -> R) -> u64 {
    CUR.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    PROBE.store(true, Ordering::Relaxed);
    let r = f();
    PROBE.store(false, Ordering::Relaxed);
    drop(r);
    PEAK.load(Ordering::Relaxed).max(0) as u64
}

/// Records as `topology.placement.peak_bytes` the heap a placement of
/// `p` ranks on `shape` takes to build.
pub fn probe_placement(iso: &mut Counts, shape: ClusterShape, p: usize) {
    let bytes = peak_heap_growth(|| Placement::new(shape, PlacementPolicy::RoundRobin, p));
    add(iso, "topology.placement.peak_bytes", bytes as f64);
}

/// Records as `core.verify.peak_bytes` the heap one knowledge-recurrence
/// verify of `plan` takes, on fresh scratch.
pub fn probe_verify(iso: &mut Counts, plan: &CompiledPattern) {
    let bytes = peak_heap_growth(|| VerifyScratch::new().verify(plan).synchronizes());
    add(iso, "core.verify.peak_bytes", bytes as f64);
}

/// FNV-1a over the outputs of a run, fed in op order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        for &v in vs {
            self.f64(v);
        }
    }

    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }
}

/// SplitMix64 finalizer: derives per-op seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// The highest of the usual percentiles with at least ten samples beyond
/// it, for `n` samples; the median when there are fewer than 20.
pub fn tail_percentile(n: usize) -> f64 {
    // In tenths of a percent, so the count beyond is exact.
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|q| n * (1000 - q) >= 10_000)
        .map_or(50.0, |q| q as f64 / 10.0)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.f64s(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.f64s(&[2.0, 1.0]);
        assert_ne!(a, b);
    }
}
