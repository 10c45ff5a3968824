//! Host facts and the machine probe: core count, last-level cache, peak
//! memory, thread CPU time, and the triad / multiply-add loops whose
//! rates are the roofline denominators of the traced run.

use std::hint::black_box;
use std::time::Instant;

const LLC_SIZE_FILE: &str = "/sys/devices/system/cpu/cpu0/cache/index3/size";

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of cpu0's last-level (L3) cache in bytes, when the kernel
/// reports one.
pub fn llc_bytes() -> Option<u64> {
    let text = std::fs::read_to_string(LLC_SIZE_FILE).ok()?;
    parse_cache_size(text.trim())
}

fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// OS threads of this process right now.
pub fn threads_now() -> usize {
    status_field("Threads:").map_or(0, |n| n as usize)
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the affinity mask of [`pin_to_current_cpu`] can name (glibc's
/// `CPU_SETSIZE`).
const CPU_SET_BITS: usize = 1024;

/// Pin the calling thread, and every thread it starts from now on, to
/// the CPU it is running on; returns that CPU, or `None` when the kernel
/// refuses (the run then goes on unpinned). A distributed fit's rank
/// thread then runs on the core that holds the fit's data, and the
/// reference kernels of [`crate::speed`] time the same core as the fits.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and only reads the CPU
    // number of the calling thread.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).ok().filter(|&c| c < CPU_SET_BITS)?;
    let mut mask = [0u64; CPU_SET_BITS / 64];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; `mask` is a live array and the
    // size passed is exactly its size, so the kernel reads only it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// CPU seconds the calling thread has run, from the scheduler's
/// nanosecond counter.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(f64::NAN, |ns| ns as f64 * 1e-9)
}

/// The commit the checkout was made from, read from `.git` without
/// running git; "unknown" outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Every `UOI_*` variable in the environment. The benchmark builds all
/// of its configuration explicitly and ignores them.
pub fn uoi_env_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("UOI_"))
        .collect();
    names.sort();
    names
}

pub struct MachineProbe {
    /// Best single-thread triad bandwidth, GB/s (10^9 bytes), counting
    /// 24 bytes per element as STREAM does.
    pub triad_gbps: f64,
    /// Bytes in each of the three triad arrays.
    pub triad_array_bytes: u64,
    /// Best multiply-add rate of one thread, GFLOP/s.
    pub peak_gflops: f64,
}

/// Measure the roofline denominators: a STREAM-style triad over three
/// arrays of `array_bytes` each, and independent multiply-add chains.
pub fn probe(array_bytes: u64) -> MachineProbe {
    MachineProbe {
        triad_gbps: triad_gbps(array_bytes),
        triad_array_bytes: array_bytes,
        peak_gflops: peak_gflops(),
    }
}

fn triad_gbps(array_bytes: u64) -> f64 {
    let n = (array_bytes / 8) as usize;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (24 * n) as f64 / best * 1e-9
}

/// Thirty-two independent multiply-add chains, compiled for the same
/// target features as the library kernels, so the rate is the peak this
/// build can issue rather than the chip's vendor figure.
fn peak_gflops() -> f64 {
    const LANES: usize = 32;
    const ROUNDS: usize = 2_000_000;
    let (m, k) = (black_box(0.999_999_9), black_box(1e-9));
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut acc = black_box([1.0f64; LANES]);
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for v in acc.iter_mut() {
                *v = *v * m + k;
            }
        }
        black_box(&acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (2 * LANES * ROUNDS) as f64 / best * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("107520K"), Some(107520 * 1024));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }
}
