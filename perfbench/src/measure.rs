//! Latency histograms with bounded error, per-sub-window series, the
//! closed-loop runner, and the CPU and memory stamps every run carries
//! (effective cores, CPU pressure, run-queue wait, steal, peak RSS).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sub-buckets per octave: a bucket is at most 1/128 of its lower
/// bound wide, and reporting its midpoint errs by at most 0.4%.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the exact range (values up to 2^40 ns, about 18 min).
const OCTAVES: usize = 40 - SUB_BITS as usize;

/// Log-linear latency histogram in nanoseconds: values below 128 are
/// exact; above, 128 sub-buckets per octave.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; SUB * (OCTAVES + 1)], n: 0 }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = (63 - v.leading_zeros()).min(OCTAVES as u32 + SUB_BITS - 1);
        let sub = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
        (e - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Midpoint of bucket `b` (exact below 128).
    fn value(b: usize) -> u64 {
        if b < SUB {
            return b as u64;
        }
        let shift = (b / SUB - 1) as u32;
        let lo = ((SUB + b % SUB) as u64) << shift;
        lo + (1u64 << shift) / 2
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile (`0 < q <= 1`): the bucket holding the
    /// smallest sample with at least `q * n` samples at or below it.
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Self::value(b);
            }
        }
        unreachable!("rank {rank} is at most the sample count {}", self.n)
    }

    /// One report line: each quantile in µs with the number of samples
    /// beyond it, so a reader sees how many samples a tail rests on.
    pub fn line(&self, label: &str) -> String {
        let beyond = |q: f64| self.n - ((q * self.n as f64).ceil() as u64).min(self.n);
        format!(
            "{label}: n={} p50={:.1}us p90={:.1}us (n>{}) p99={:.1}us (n>{})",
            self.n,
            us(self.quantile(0.5)),
            us(self.quantile(0.9)),
            beyond(0.90),
            us(self.quantile(0.99)),
            beyond(0.99)
        )
    }
}

/// Sub-windows per measured window. Each end-to-end figure is the
/// trimmed mean over the quiet sub-windows (see [`quiet_slices`] and
/// [`trimmed_mean`]): a burst of interference from outside the process
/// moves at most a few sub-windows, and those fall in the trimmed
/// tails.
pub const SLICES: usize = 40;

/// The sub-windows the host disturbed least: those whose steal share
/// is at most the median share. Every sub-window when the host steals
/// nothing, or when steal was not measured.
pub fn quiet_slices(steal_pct: &[f64]) -> Vec<usize> {
    if steal_pct.len() != SLICES {
        return (0..SLICES).collect();
    }
    let cut = median(steal_pct);
    (0..SLICES).filter(|&i| steal_pct[i] <= cut).collect()
}

/// One request class over a measured window: a latency histogram and
/// a completion count per sub-window.
#[derive(Clone, Debug)]
pub struct Series {
    slice_s: f64,
    hists: Vec<Hist>,
    done: Vec<u64>,
}

impl Series {
    pub fn new(window_s: f64) -> Series {
        Series {
            slice_s: window_s / SLICES as f64,
            hists: vec![Hist::default(); SLICES],
            done: vec![0; SLICES],
        }
    }

    fn slice(&self, offset: Duration) -> Option<usize> {
        let i = (offset.as_secs_f64() / self.slice_s) as usize;
        (i < SLICES).then_some(i)
    }

    /// A latency sample of an operation issued `offset` into the window.
    pub fn sample(&mut self, offset: Duration, ns: u64) {
        let i = self.slice(offset).unwrap_or(SLICES - 1);
        self.hists[i].record(ns);
    }

    /// A completion `offset` into the window; later ones are dropped.
    pub fn done(&mut self, offset: Duration) {
        if let Some(i) = self.slice(offset) {
            self.done[i] += 1;
        }
    }

    /// Closed loop: an operation issued and counted at `offset`.
    pub fn record(&mut self, offset: Duration, ns: u64) {
        self.sample(offset, ns);
        self.done(offset);
    }

    pub fn merge(&mut self, other: &Series) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        for (a, b) in self.done.iter_mut().zip(&other.done) {
            *a += b;
        }
    }

    /// All sub-windows pooled.
    pub fn pooled(&self) -> Hist {
        let mut all = Hist::default();
        self.hists.iter().for_each(|h| all.merge(h));
        all
    }

    /// Trimmed mean over the sub-windows `slices` of the `q` quantile,
    /// in µs.
    pub fn quantile_us(&self, q: f64, slices: &[usize]) -> f64 {
        let per: Vec<f64> = slices
            .iter()
            .map(|&i| &self.hists[i])
            .filter(|h| h.count() > 0)
            .map(|h| us(h.quantile(q)))
            .collect();
        trimmed_mean(&per)
    }

    /// Trimmed mean over the sub-windows `slices` of completions per
    /// second.
    pub fn per_s(&self, slices: &[usize]) -> f64 {
        let per: Vec<f64> = slices.iter().map(|&i| self.done[i] as f64 / self.slice_s).collect();
        trimmed_mean(&per)
    }

    pub fn count(&self) -> u64 {
        self.hists.iter().map(Hist::count).sum()
    }

    /// The `q` quantile of each sub-window in µs, for the report.
    pub fn per_slice_us(&self, q: f64) -> String {
        let per: Vec<String> =
            self.hists.iter().map(|h| format!("{:.0}", us(h.quantile(q)))).collect();
        per.join(" ")
    }
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub fn ns_since(t0: Instant, t1: Instant) -> u64 {
    t1.saturating_duration_since(t0).as_nanos() as u64
}

/// Median of a small set of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of `values` once the lowest and the highest tenth are dropped
/// (the plain mean of fewer than ten). Unlike a median it moves in
/// proportion when sub-windows split between two speeds: on a shared
/// 2-vCPU Xeon VM memory-bound code ran in a fast and a slow state,
/// switching every few seconds, and a median over sub-windows jumped
/// between the two.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Write back every dirty page and wait for it, so that file-system
/// work left by whatever ran before does not land in a measured window.
pub fn sync_filesystems() {
    extern "C" {
        fn sync();
    }
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `some` stall time from `/proc/pressure/cpu`, in µs.
fn cpu_pressure_some_us() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/pressure/cpu").ok()?;
    let some = text.lines().find(|l| l.starts_with("some"))?;
    some.split_whitespace().find_map(|f| f.strip_prefix("total="))?.parse().ok()
}

/// Run-queue wait (ns) of every live thread of this process, by tid,
/// from the second field of `/proc/self/task/<tid>/schedstat`.
fn runqueue_wait_by_tid() -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return out };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let path = task.path().join("schedstat");
        if let Some(wait) = std::fs::read_to_string(path)
            .ok()
            .and_then(|s| s.split_whitespace().nth(1).and_then(|f| f.parse::<u64>().ok()))
        {
            out.insert(tid, wait);
        }
    }
    out
}

/// Machine-wide (steal, total) CPU time in ticks, from the first line
/// of `/proc/stat`.
fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A thread that reads the steal share (%) of every sub-window of a
/// window of `window_s` seconds opening at `start`: the CPU time the
/// hypervisor gave to other guests while this machine wanted to run.
fn meter_steal(start: Instant, window_s: f64) -> JoinHandle<Vec<f64>> {
    std::thread::spawn(move || {
        let slice = Duration::from_secs_f64(window_s / SLICES as f64);
        let mut last = steal_ticks();
        (1..=SLICES as u32)
            .map(|i| {
                if let Some(wait) = (start + slice * i).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let now = steal_ticks();
                let share = match (last, now) {
                    (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                        s1.saturating_sub(s0) as f64 / (t1 - t0) as f64 * 100.0
                    }
                    _ => 0.0,
                };
                last = now;
                share
            })
            .collect()
    })
}

/// CPU stamps taken at the start of a measured window.
pub struct CpuWindow {
    start: Instant,
    pressure_us: Option<u64>,
    waits: HashMap<u64, u64>,
    steal: JoinHandle<Vec<f64>>,
}

/// What the machine did to the run during the window.
#[derive(Clone, Debug, Default)]
pub struct CpuStamp {
    /// Share of the window in which some runnable task waited for a CPU.
    pub pressure_some_pct: f64,
    /// Run-queue wait summed over threads alive for the whole window.
    pub runqueue_wait_ms: f64,
    /// Steal share of each sub-window, in %.
    pub steal_pct: Vec<f64>,
}

impl CpuWindow {
    /// Start a window of `window_s` seconds now. Every thread whose wait
    /// should count must be alive now and still alive at
    /// [`CpuWindow::finish`].
    pub fn begin(window_s: f64) -> CpuWindow {
        let start = Instant::now();
        let pressure_us = cpu_pressure_some_us();
        let waits = runqueue_wait_by_tid();
        CpuWindow { start, pressure_us, waits, steal: meter_steal(start, window_s) }
    }

    /// Close the window; waits for its last sub-window's steal reading.
    pub fn finish(self) -> CpuStamp {
        let elapsed_us = self.start.elapsed().as_secs_f64() * 1e6;
        let pressure_some_pct = match (self.pressure_us, cpu_pressure_some_us()) {
            (Some(a), Some(b)) if elapsed_us > 0.0 => {
                b.saturating_sub(a) as f64 / elapsed_us * 100.0
            }
            _ => 0.0,
        };
        let waits = runqueue_wait_by_tid();
        let wait_ns: u64 = waits
            .iter()
            .filter_map(|(tid, end)| self.waits.get(tid).map(|start| end.saturating_sub(*start)))
            .sum();
        let steal_pct = self.steal.join().expect("steal meter panicked");
        CpuStamp { pressure_some_pct, runqueue_wait_ms: wait_ns as f64 / 1e6, steal_pct }
    }
}

/// Fixed CPU-bound work: an LCG chain the optimizer cannot fold.
fn spin(iters: u64) -> u64 {
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..iters {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    }
    std::hint::black_box(x)
}

/// Parallelism this process actually gets: the same spin run on one
/// thread, then on two at once. Two full cores give 2.0; two threads
/// time-sliced on one core give 1.0. `nproc` cannot tell these apart.
pub fn effective_cores() -> f64 {
    // Calibrate the spin to about 40 ms on one thread.
    let mut iters = 1u64 << 20;
    let one = loop {
        let t0 = Instant::now();
        spin(iters);
        let took = t0.elapsed();
        if took >= Duration::from_millis(40) || iters >= 1 << 34 {
            break took;
        }
        iters *= 2;
    };
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin(iters));
        let b = s.spawn(|| spin(iters));
        a.join().expect("spin thread panicked");
        b.join().expect("spin thread panicked");
    });
    let two = t0.elapsed();
    2.0 * one.as_secs_f64() / two.as_secs_f64().max(1e-9)
}

/// Shared flags of one closed-loop window.
pub struct Phase {
    /// Start of the measured window, set once warm-up is over.
    window: OnceLock<Instant>,
    stop: AtomicBool,
    start: Barrier,
    exit: Barrier,
}

impl Phase {
    /// How far into the measured window `t` lies; `None` during
    /// warm-up (the operation is not measured).
    pub fn offset(&self, t: Instant) -> Option<Duration> {
        self.window.get().map(|w| t.saturating_duration_since(*w))
    }

    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// A closed-loop worker: runs operations until [`Phase::stopped`].
pub type Worker<'a, T> = Box<dyn FnOnce(&Phase) -> T + Send + 'a>;

/// Run `workers` on their own threads: warm-up, then a measured window
/// of `seconds`. `at_edge` runs on the calling thread at the window's
/// start and end (to snapshot counters). Every worker is alive for the
/// whole window, so the CPU stamp covers them. Returns the workers'
/// results, the window length in seconds and the CPU stamp.
pub fn closed_loop<'a, T: Send>(
    workers: Vec<Worker<'a, T>>,
    seconds: f64,
    mut at_edge: impl FnMut(),
) -> (Vec<T>, f64, CpuStamp) {
    let phase = Phase {
        window: OnceLock::new(),
        stop: AtomicBool::new(false),
        start: Barrier::new(workers.len() + 1),
        exit: Barrier::new(workers.len() + 1),
    };
    std::thread::scope(|s| {
        let phase = &phase;
        let handles: Vec<_> = workers
            .into_iter()
            .map(|work| {
                s.spawn(move || {
                    phase.start.wait();
                    let out = work(phase);
                    phase.exit.wait();
                    out
                })
            })
            .collect();
        phase.start.wait();
        std::thread::sleep(Duration::from_secs_f64(crate::WARMUP_S));
        at_edge();
        let cpu = CpuWindow::begin(seconds);
        let t0 = Instant::now();
        phase.window.set(t0).expect("the window opens once");
        std::thread::sleep(Duration::from_secs_f64(seconds));
        phase.stop.store(true, Ordering::Release);
        let window = t0.elapsed().as_secs_f64();
        at_edge();
        let stamp = cpu.finish();
        phase.exit.wait();
        let results =
            handles.into_iter().map(|h| h.join().expect("benchmark worker panicked")).collect();
        (results, window, stamp)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest rank straight off a sorted copy: the oracle.
    fn oracle(samples: &[u64], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_match_sorted_array_oracle_within_half_a_percent() {
        let mut state = 7u64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097, 100_000] {
            let samples: Vec<u64> = (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    // Heavy duplicates, exact small values and a long tail.
                    (state >> 45) * (state >> 60) + (state >> 61)
                })
                .collect();
            let mut h = Hist::default();
            samples.iter().for_each(|&v| h.record(v));
            for q in [0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let (got, want) = (h.quantile(q), oracle(&samples, q));
                let err = got.abs_diff(want) as f64 / want.max(1) as f64;
                assert!(err <= 0.004, "n={n} q={q}: {got} vs oracle {want}");
                if want < 128 {
                    assert_eq!(got, want, "small values are exact");
                }
            }
        }
        assert_eq!(Hist::default().quantile(0.5), 0);
    }

    #[test]
    fn every_bucket_midpoint_lands_in_its_own_bucket() {
        for v in (0..1u64 << 20).step_by(97).chain([u64::MAX >> 24, 1 << 39]) {
            let b = Hist::bucket(v);
            assert_eq!(Hist::bucket(Hist::value(b)), b, "v={v}");
            assert!(Hist::value(b).abs_diff(v) as f64 <= v as f64 / 256.0 + 1.0, "v={v}");
        }
    }

    #[test]
    fn series_reports_trimmed_means_over_sub_windows() {
        let mut s = Series::new(1.0);
        let slice = Duration::from_secs_f64(1.0 / SLICES as f64);
        for i in 0..SLICES as u32 {
            // One sub-window is disturbed: slow and sparse.
            let (ns, ops) = if i == 3 { (1_000_000, 5) } else { (100, 50) };
            for _ in 0..ops {
                s.record(slice * i + slice / 2, ns);
            }
        }
        s.done(Duration::from_secs(2)); // after the window: not counted
        let all: Vec<usize> = (0..SLICES).collect();
        // The disturbed sub-window falls in the trimmed top tenth.
        assert!((s.quantile_us(0.9, &all) - 0.1).abs() < 1e-9);
        assert!((s.per_s(&all) - 50.0 * SLICES as f64).abs() < 1e-6);
        assert_eq!(s.per_s(&[3]), 5.0 * SLICES as f64);
        assert_eq!(s.count(), 50 * (SLICES as u64 - 1) + 5);
        assert!(s.pooled().quantile(1.0).abs_diff(1_000_000) <= 4_000);
    }

    #[test]
    fn quiet_slices_drop_those_with_more_than_the_median_steal() {
        let all: Vec<usize> = (0..SLICES).collect();
        assert_eq!(quiet_slices(&[0.0; SLICES]), all);
        assert_eq!(quiet_slices(&[]), all);
        let steal: Vec<f64> = (0..SLICES).map(|i| if i % 4 == 0 { 30.0 } else { 1.0 }).collect();
        assert_eq!(
            quiet_slices(&steal),
            all.iter().copied().filter(|i| i % 4 != 0).collect::<Vec<_>>()
        );
        let ramp: Vec<f64> = (0..SLICES).map(|i| i as f64).collect();
        assert_eq!(quiet_slices(&ramp), (0..SLICES / 2).collect::<Vec<_>>());
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_the_outer_tenths() {
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0]), 2.0);
        let ten = [100.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, -50.0];
        assert_eq!(trimmed_mean(&ten), 5.5);
        // Sub-windows split between two speeds: the median jumps from
        // one to the other as the share passes a half; the trimmed mean
        // moves with the share.
        let split = |fast: usize| -> Vec<f64> {
            (0..SLICES).map(|i| if i < fast { 1.5 } else { 2.5 }).collect()
        };
        let (below, above) = (split(SLICES / 2 - 1), split(SLICES / 2 + 1));
        assert_eq!((median(&below), median(&above)), (2.5, 1.5));
        let step = 2.0 / (SLICES - 2 * (SLICES / 10)) as f64;
        assert!((trimmed_mean(&below) - trimmed_mean(&above) - step).abs() < 1e-9);
    }

    #[test]
    fn report_line_counts_samples_beyond_each_quantile() {
        let mut h = Hist::default();
        (1..=1000u64).for_each(|i| h.record(i));
        assert!(h.line("x").contains("p90=0.9us (n>100)"), "{}", h.line("x"));
        assert!(h.line("x").contains("p99=1.0us (n>10)"), "{}", h.line("x"));
    }
}
