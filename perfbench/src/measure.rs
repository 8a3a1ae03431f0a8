//! Small measurement helpers: a clock that reports times at nominal host
//! speed, order statistics, a digest, peak memory.

use std::time::Instant;

/// Kernel runs per calibration sample.
const CALIBRATION_REPS: usize = 3;
/// What one run of either kernel takes on an idle host.
const CALIBRATION_NOMINAL_S: f64 = 0.8e-3;

/// A calibration kernel: fixed code of the benchmark's own, shaped like
/// the work of a workload, so that busy neighbours slow both alike.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// Progressive filling, for the solver workloads.
    Solver,
    /// A layered-receiver star simulation, for `fig8_protocols`.
    Simulation,
}

/// Times a pass's library calls, in wall seconds and in seconds at a
/// nominal host speed.
///
/// Other tenants of a shared host slow this process by 10-60%, in bursts
/// shorter than a second and in stretches of minutes. So every timed call
/// is followed by a calibration sample (a [`Kernel`], which no library
/// change can move), and a call's nominal time is its wall time
/// divided by the mean slowdown of the samples just before and just after
/// it. This works only when samples are close to the calls (5-80 ms
/// apart here): one sample after a whole pass of seconds tracked the
/// bursts worse than no scaling at all.
#[derive(Debug)]
pub struct Clock {
    kernel: Kernel,
    /// The slowdown the last calibration sample measured.
    before: f64,
    /// Wall seconds of the timed calls.
    pub secs: f64,
    /// The same calls' seconds at nominal host speed.
    pub nominal_secs: f64,
}

impl Clock {
    /// A clock with nothing timed yet, after a first calibration sample.
    pub fn start(kernel: Kernel) -> Self {
        Clock {
            kernel,
            before: kernel.slowdown(),
            secs: 0.0,
            nominal_secs: 0.0,
        }
    }

    /// Run one library call, timed, then take a calibration sample.
    pub fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = call();
        let secs = t.elapsed().as_secs_f64();
        let after = self.kernel.slowdown();
        self.secs += secs;
        self.nominal_secs += secs / ((self.before + after) / 2.0);
        self.before = after;
        out
    }
}

impl Kernel {
    /// The host's slowness right now, as a multiple of the kernel's
    /// nominal time.
    fn slowdown(self) -> f64 {
        let run = match self {
            Kernel::Solver => solver_kernel_secs,
            Kernel::Simulation => star_kernel_secs,
        };
        let total: f64 = (0..CALIBRATION_REPS).map(|_| run()).sum();
        total / CALIBRATION_REPS as f64 / CALIBRATION_NOMINAL_S
    }
}

/// Seconds the solver kernel takes: progressive filling (max-min fair
/// rates) on fixed random instances of 40 flows over 48 links,
/// throughput-bound floating-point and branch work. Computed side by side
/// in the same runs, a latency-bound kernel (a dependent walk over a
/// 64 KiB permutation) slowed less than the workloads when neighbours were
/// busiest and left `fig5_randomjoin` spreading 0.071 across runs, where
/// this kernel left 0.027.
fn solver_kernel_secs() -> f64 {
    const LINKS: usize = 48;
    const FLOWS: usize = 40;
    const HOPS: usize = 6;
    const INSTANCES: usize = 60;
    let t = Instant::now();
    let mut s: u64 = 0x1234_5678_9ABC_DEF1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut total = 0.0;
    for _ in 0..INSTANCES {
        let cap: [f64; LINKS] = std::array::from_fn(|_| 1.0 + (next() % 1000) as f64 / 100.0);
        let routes: [[usize; HOPS]; FLOWS] =
            std::array::from_fn(|_| std::array::from_fn(|_| (next() % LINKS as u64) as usize));
        let mut rate = [0.0f64; FLOWS];
        let mut frozen = [false; FLOWS];
        loop {
            let mut count = [0usize; LINKS];
            let mut used = [0.0f64; LINKS];
            for (f, route) in routes.iter().enumerate() {
                for &l in route {
                    if frozen[f] {
                        used[l] += rate[f];
                    } else {
                        count[l] += 1;
                    }
                }
            }
            let fair = |l: usize| (cap[l] - used[l]) / count[l] as f64;
            let level = (0..LINKS)
                .filter(|&l| count[l] > 0)
                .map(fair)
                .fold(f64::INFINITY, f64::min);
            if !level.is_finite() {
                break;
            }
            for f in 0..FLOWS {
                if !frozen[f] {
                    rate[f] = level;
                }
            }
            for l in (0..LINKS).filter(|&l| count[l] > 0 && fair(l) <= level * (1.0 + 1e-12)) {
                for (f, route) in routes.iter().enumerate() {
                    if route.contains(&l) {
                        frozen[f] = true;
                    }
                }
            }
        }
        total += rate.iter().sum::<f64>();
    }
    std::hint::black_box(total);
    t.elapsed().as_secs_f64()
}

/// Seconds the star kernel takes: 100 receivers climbing and dropping 8
/// layers under random losses, one xorshift draw per receiver and layer
/// per slot, integer and branch work like the star engine's. On
/// `fig8_protocols` it left runs of one seed spreading 0.035, where the
/// solver kernel left 0.060.
fn star_kernel_secs() -> f64 {
    const RECEIVERS: usize = 100;
    const LAYERS: usize = 8;
    const SLOTS: usize = 500;
    let t = Instant::now();
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut level = [1usize; RECEIVERS];
    let mut since = [0u32; RECEIVERS];
    let mut delivered = 0u64;
    for _ in 0..SLOTS {
        for layer in 0..LAYERS {
            let shared_lost = next() % 10_000 == 0;
            for r in 0..RECEIVERS {
                if layer >= level[r] {
                    continue;
                }
                if shared_lost || next() % 1000 < 30 {
                    level[r] = level[r].saturating_sub(1).max(1);
                    since[r] = 0;
                } else {
                    delivered += 1;
                    since[r] += 1;
                    if since[r] > (8u32 << level[r]) && level[r] < LAYERS {
                        level[r] += 1;
                        since[r] = 0;
                    }
                }
            }
        }
    }
    std::hint::black_box(delivered);
    t.elapsed().as_secs_f64()
}

/// The median of `xs` (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// First quartile, median and third quartile of `xs`, computed like
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method).
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The `p`-th percentile (nearest rank) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// 64-bit FNV-1a, for printing digests of reference outputs and counters.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Reset this process's `VmHWM` to its current resident set, so that
/// [`peak_rss_mb`] covers only what runs afterwards. False where the
/// kernel does not offer the reset (`/proc/self/clear_refs`).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 99.0), 10.0);
    }
}
