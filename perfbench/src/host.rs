//! Host records read from `/proc`, so a noisy run can be attributed to
//! the machine rather than the code.

use std::time::Instant;

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The profile this binary was built with.
#[must_use]
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// `(on-CPU ns, run-queue wait ns)` of one task, from its `schedstat`.
fn schedstat(path: &str) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut it = text.split_whitespace().filter_map(|f| f.parse().ok());
    Some((it.next()?, it.next()?))
}

/// `(tid, on-CPU ns, wait ns)` of every live thread of this process.
#[must_use]
pub fn thread_schedstats() -> Vec<(u64, u64, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<(u64, u64, u64)> = dir
        .filter_map(Result::ok)
        .filter_map(|entry| {
            let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
            let (run, wait) = schedstat(&format!("/proc/self/task/{tid}/schedstat"))?;
            Some((tid, run, wait))
        })
        .collect();
    out.sort_unstable();
    out
}

/// Thread id of the calling thread.
#[must_use]
pub fn current_tid() -> Option<u64> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Speed of a fixed integer kernel (xorshift steps) over `window_s`, in
/// millions of steps per second. The same binary on the same machine
/// should read the same; when it drops, the host slowed, not the program.
/// Steal and run-queue wait miss a host that keeps the thread running
/// but runs it slower.
#[must_use]
pub fn reference_mops(window_s: f64) -> f64 {
    const BATCH: u64 = 1 << 16;
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut steps = 0u64;
    while start.elapsed().as_secs_f64() < window_s {
        for _ in 0..BATCH {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x = std::hint::black_box(x);
        steps += BATCH;
    }
    steps as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Seconds the reference kernel runs at each end of a window.
const REFERENCE_WINDOW_S: f64 = 0.25;

/// Host activity over an interval: CPU steal across the machine, the
/// run-queue wait of the benchmark thread, and the reference kernel's
/// speed at both ends.
#[derive(Debug)]
pub struct HostWindow {
    start: Instant,
    jiffies: Option<(u64, u64)>,
    wait_ns: Option<u64>,
    reference_mops: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct HostRecord {
    /// Share of all CPU time the hypervisor gave to other guests.
    pub steal_ratio: f64,
    /// Run-queue wait of the benchmark thread over wall time.
    pub runqueue_wait_ratio: f64,
    /// Mean reference-kernel speed at the two ends of the window.
    pub reference_mops: f64,
}

fn own_wait_ns() -> Option<u64> {
    schedstat("/proc/thread-self/schedstat").map(|(_, wait)| wait)
}

impl HostWindow {
    #[must_use]
    pub fn open() -> Self {
        let reference_mops = reference_mops(REFERENCE_WINDOW_S);
        HostWindow {
            start: Instant::now(),
            jiffies: cpu_jiffies(),
            wait_ns: own_wait_ns(),
            reference_mops,
        }
    }

    /// Closes the window; unreadable counters read as zero.
    #[must_use]
    pub fn close(&self) -> HostRecord {
        let wall_ns = self.start.elapsed().as_nanos() as f64;
        let steal_ratio = match (self.jiffies, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        let runqueue_wait_ratio = match (self.wait_ns, own_wait_ns()) {
            (Some(w0), Some(w1)) if wall_ns > 0.0 => w1.saturating_sub(w0) as f64 / wall_ns,
            _ => 0.0,
        };
        HostRecord {
            steal_ratio,
            runqueue_wait_ratio,
            reference_mops: (self.reference_mops + reference_mops(REFERENCE_WINDOW_S)) / 2.0,
        }
    }
}

/// Nodes of the speed probe's graph.
const PROBE_NODES: usize = 4_096;
/// Out-links per node of the speed probe's graph.
const PROBE_DEGREE: usize = 6;
/// One probe sample is this many windows of [`PROBE_RUNS`] runs each.
const PROBE_WINDOWS: usize = 8;
const PROBE_RUNS: usize = 25;
/// Probe speed, in shortest-path runs per second, that the reported
/// timings are scaled to: [`SpeedProbe::runs_per_s`] on the reference
/// host (a 2-vCPU guest, see README.md) read 1 040–1 420.
pub const REFERENCE_PROBE_RUNS_PER_S: f64 = 1_200.0;

/// A fixed shortest-path kernel in the benchmark's own code, timed in
/// short windows between passes, that tracks how fast the host runs
/// code like the planner's during a run.
///
/// The host's speed for such code shifts by tens of percent for minutes
/// at a time (see README.md), far more than most code changes one wants
/// to measure. The probe is a binary-heap Dijkstra over a fixed random
/// graph, so it slows down with the planner when the host does, yet none
/// of the workspace's code runs in it: a change to the planner leaves the
/// probe's speed alone. Timings are scaled by the probe's speed over the
/// run ([`SpeedProbe::runs_per_s`]) against
/// [`REFERENCE_PROBE_RUNS_PER_S`].
#[derive(Debug)]
pub struct SpeedProbe {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<u32>,
    next_source: usize,
    windows: Vec<f64>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedProbe {
    #[must_use]
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut offsets = Vec::with_capacity(PROBE_NODES + 1);
        let mut targets = Vec::with_capacity(PROBE_NODES * PROBE_DEGREE);
        let mut weights = Vec::with_capacity(PROBE_NODES * PROBE_DEGREE);
        for u in 0..PROBE_NODES {
            offsets.push(targets.len());
            // A ring keeps every node reachable; the rest are random.
            targets.push(((u + 1) % PROBE_NODES) as u32);
            weights.push(100);
            for _ in 1..PROBE_DEGREE {
                targets.push((next() % PROBE_NODES as u64) as u32);
                weights.push((next() % 100 + 1) as u32);
            }
        }
        offsets.push(targets.len());
        SpeedProbe {
            offsets,
            targets,
            weights,
            next_source: 0,
            windows: Vec::new(),
        }
    }

    /// Distances from `source`, summed.
    #[must_use]
    pub fn run(&self, source: usize) -> u64 {
        use std::cmp::Reverse;
        let mut dist = vec![u32::MAX; PROBE_NODES];
        let mut heap = std::collections::BinaryHeap::new();
        dist[source] = 0;
        heap.push(Reverse((0u32, source as u32)));
        while let Some(Reverse((d, u))) = heap.pop() {
            let u = u as usize;
            if d > dist[u] {
                continue;
            }
            for i in self.offsets[u]..self.offsets[u + 1] {
                let v = self.targets[i] as usize;
                let nd = d + self.weights[i];
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd, v as u32)));
                }
            }
        }
        dist.iter().map(|&d| u64::from(d)).sum()
    }

    /// Times the kernel in a few short windows.
    pub fn sample(&mut self) {
        for _ in 0..PROBE_WINDOWS {
            let rate = self.window();
            self.windows.push(rate);
        }
    }

    /// Runs per second over one window of [`PROBE_RUNS`] runs.
    fn window(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..PROBE_RUNS {
            std::hint::black_box(self.run(self.next_source));
            self.next_source = (self.next_source + 1_031) % PROBE_NODES;
        }
        PROBE_RUNS as f64 / start.elapsed().as_secs_f64()
    }

    /// The median window speed so far, in runs per second, or 0 before
    /// the first sample: the host's usual speed over the run, as the
    /// median pass is the planner's.
    #[must_use]
    pub fn runs_per_s(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        crate::stats::median(&self.windows)
    }

    /// How much faster than the reference host the probe ran; a timing
    /// multiplied by it reads as it would on the reference host.
    #[must_use]
    pub fn speed_factor(&self) -> f64 {
        self.runs_per_s() / REFERENCE_PROBE_RUNS_PER_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_kernel_is_fixed() {
        let probe = SpeedProbe::new();
        let a = probe.run(0);
        // The ring reaches every node, so no distance stays infinite.
        assert!(a < u64::from(u32::MAX));
        assert_eq!(a, SpeedProbe::new().run(0));
        assert_ne!(a, probe.run(1_031));
    }

    #[test]
    fn speed_is_the_median_window() {
        let mut probe = SpeedProbe::new();
        assert_eq!(probe.runs_per_s(), 0.0);
        // One lucky window does not set the speed.
        probe.windows = vec![900.0, 1_000.0, 1_200.0, 1_250.0, 5_000.0];
        assert_eq!(probe.runs_per_s(), 1_200.0);
        assert_eq!(probe.speed_factor(), 1.0);
        probe.sample();
        assert_eq!(probe.windows.len(), 5 + PROBE_WINDOWS);
        assert!(probe.runs_per_s() > 0.0);
    }
}
