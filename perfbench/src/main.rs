//! The repository benchmark. One command runs one workload with a
//! seed, checks the program's outputs and prints every metric with its
//! unit; the last line of standard output is a JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-wire --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the
//! workload with timing decorators around the calls into each crate and
//! prints the per-layer metrics together with the traced-minus-plain
//! delta of every end-to-end metric; the plain pass it is compared with
//! runs in a child process, so each pass has its own peak RSS.

mod gen;
mod htap_scan;
mod kv_wire;
mod layers;
mod measure;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use measure::{CpuStamp, Series, SLICES};

/// Set-ups per run; the reported `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Warm-up before each measured window (not part of `--seconds`).
pub const WARMUP_S: f64 = 0.5;

/// End-to-end metrics, printed by `--trace 0`: (name, unit).
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_ops_per_s", "1/s"),
    ("write_ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
];

/// Per-layer metrics, printed by `--trace 1`: (name, unit). A metric
/// of a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("stm.useful_ratio", "ratio"),
    ("stm.aborts_validation", "count"),
    ("stm.aborts_locked", "count"),
    ("stm.elastic_cuts_per_op", "ratio"),
    ("stm.extensions_per_op", "ratio"),
    ("stm.wait_gate_ms", "ms"),
    ("stm.wait_arbitrate_ms", "ms"),
    ("stm.wait_clock_ms", "ms"),
    ("stm.aborts_unavailable", "count"),
    ("kv.scan_us_p50", "us"),
    ("kv.get_us_p50", "us"),
    ("kv.get_calls", "count"),
    ("durable.commit_us_p50", "us"),
    ("durable.commit_us_p90", "us"),
    ("durable.commit_calls", "count"),
    ("durable.wal_wait_ms", "ms"),
    ("durable.commits_per_fsync", "ratio"),
    ("durable.wal_bytes", "bytes"),
    ("durable.recover_s", "s"),
    ("storage.sync_calls", "count"),
    ("storage.sync_us_p50", "us"),
    ("storage.sync_us_p90", "us"),
    ("storage.append_calls", "count"),
    ("storage.append_bytes", "bytes"),
    ("storage.busy_ms", "ms"),
    ("storage_bytes_per_user_byte", "ratio"),
    ("server.batch_ops_per_commit", "ratio"),
    ("server.backpressure_stalled_ms", "ms"),
    ("server.bytes_out_per_req", "bytes"),
    ("server.write_self_us_p50", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.send_us_p50", "us"),
    ("cpu.effective_cores", "cores"),
    ("cpu.pressure_some_pct", "%"),
    ("cpu.runqueue_wait_ms", "ms"),
    ("cpu.steal_pct", "%"),
    ("delta.setup_s", "s"),
    ("delta.peak_rss_mb", "MB"),
    ("delta.read_ops_per_s", "1/s"),
    ("delta.write_ops_per_s", "1/s"),
    ("delta.read_p50_us", "us"),
    ("delta.read_p90_us", "us"),
    ("delta.write_p50_us", "us"),
    ("delta.write_p90_us", "us"),
];

/// What one pass of a workload measured and checked.
#[derive(Debug)]
pub struct Run {
    /// Operations issued in the measured window.
    pub attempted: u64,
    /// Operations that failed, were refused or returned a wrong
    /// answer, plus failed end-of-run checks.
    pub failures: Failures,
    pub setup_s: f64,
    pub window_s: f64,
    pub read: Series,
    pub write: Series,
    pub cpu: CpuStamp,
    /// Per-layer values by metric name (only what the workload
    /// exercises; the rest print as 0).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra human-readable report lines.
    pub notes: Vec<String>,
}

/// A failure count with the first few descriptions.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn note(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(what);
        }
    }

    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        for what in other.first {
            if self.first.len() < 8 {
                self.first.push(what);
            }
        }
    }
}

impl Run {
    pub fn new(setup_s: f64, window_s: f64) -> Run {
        Run {
            attempted: 0,
            failures: Failures::default(),
            setup_s,
            window_s,
            read: Series::new(window_s),
            write: Series::new(window_s),
            cpu: CpuStamp::default(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failures.note(what);
    }

    /// Throughputs and latency quantiles are trimmed means over the
    /// sub-windows in `slices`.
    fn end_to_end(&self, slices: &[usize]) -> [f64; 8] {
        [
            self.setup_s,
            measure::peak_rss_mb(),
            self.read.per_s(slices),
            self.write.per_s(slices),
            self.read.quantile_us(0.5, slices),
            self.read.quantile_us(0.9, slices),
            self.write.quantile_us(0.5, slices),
            self.write.quantile_us(0.9, slices),
        ]
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["htap-scan", "kv-wire"].contains(&args.workload.as_str()) {
        return Err(format!("--workload must be htap-scan or kv-wire (got {:?})", args.workload));
    }
    Ok(args)
}

/// Only kv-wire's traced pass adds decorators (the `ServerStore` and
/// `Storage` wrappers and the `BatchTag` join). htap-scan's per-layer
/// metrics come from the same timed calls and counters as its plain
/// pass, so its traced-minus-plain delta is 0 by construction and no
/// second pass is run.
fn has_decorators(workload: &str) -> bool {
    workload == "kv-wire"
}

fn run_pass(args: &Args, traced: bool) -> Result<Run, String> {
    match args.workload.as_str() {
        "htap-scan" => Ok(htap_scan::run(args.seed, args.seconds)),
        "kv-wire" => kv_wire::run(args.seed, args.seconds, traced),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The plain pass as a child process running this program with
/// `--trace 0`; its report is passed through. Returns its end-to-end
/// metrics, `attempted` and `failed`.
fn plain_child(args: &Args) -> Result<([f64; 8], u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("plain pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        let sep = if line.starts_with('[') { "" } else { "[plain] " };
        println!("{sep}{line}");
    }
    let (attempted, failed, e2e) = parse_result(last)
        .ok_or_else(|| format!("plain pass exited with {} and no result line", out.status))?;
    Ok((e2e, attempted, failed))
}

/// Reads `attempted`, `failed` and the end-to-end values back from a
/// line written by [`result_json`].
fn parse_result(line: &str) -> Option<(u64, u64, [f64; 8])> {
    let after = |key: &str| -> Option<&str> {
        let i = line.find(key)? + key.len();
        let rest = &line[i..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let attempted = after("\"attempted\": ")?.parse().ok()?;
    let failed = after("\"failed\": ")?.parse().ok()?;
    let mut e2e = [0.0; 8];
    for (value, (name, _)) in e2e.iter_mut().zip(END_TO_END) {
        *value = after(&format!("\"{name}\": {{\"value\": "))?.parse().ok()?;
    }
    Some((attempted, failed, e2e))
}

fn report(label: &str, run: &Run, effective_cores: f64) {
    println!(
        "[{label}] attempted={} failed={} window={:.3}s setup_s={:.4} effective_cores={:.2} \
         cpu_pressure_some={:.1}% runqueue_wait={:.1}ms",
        run.attempted,
        run.failures.count,
        run.window_s,
        run.setup_s,
        effective_cores,
        run.cpu.pressure_some_pct,
        run.cpu.runqueue_wait_ms
    );
    let steal: Vec<String> = run.cpu.steal_pct.iter().map(|p| format!("{p:.0}")).collect();
    println!("[{label}] steal % by sub-window: {}", steal.join(" "));
    let quiet = measure::quiet_slices(&run.cpu.steal_pct);
    let all: Vec<usize> = (0..SLICES).collect();
    // The gated figures come from the quiet sub-windows; the same
    // figures over all of them show what the selection changed.
    let fmt = |v: [f64; 8]| v[2..].iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(" ");
    for (which, slices) in [("quiet", &quiet), ("all", &all)] {
        println!(
            "[{label}] read/s write/s read_p50 read_p90 write_p50 write_p90 over {} {which} \
             sub-windows: {}",
            slices.len(),
            fmt(run.end_to_end(slices))
        );
    }
    println!("[{label}] pooled {}", run.read.pooled().line("read"));
    println!("[{label}] pooled {}", run.write.pooled().line("write"));
    println!("[{label}] read p50 by sub-window (us): {}", run.read.per_slice_us(0.5));
    println!("[{label}] read p90 by sub-window (us): {}", run.read.per_slice_us(0.9));
    println!("[{label}] write p90 by sub-window (us): {}", run.write.per_slice_us(0.9));
    for note in &run.notes {
        println!("[{label}] {note}");
    }
    for p in &run.failures.first {
        println!("[{label}] FAILED CHECK: {p}");
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    measure::sync_filesystems();
    let effective_cores = measure::effective_cores();

    // With `--trace 1` on a workload with decorators, the plain pass
    // runs first, in a child process.
    let mut attempted = 0;
    let mut failures = Failures::default();
    let plain_e2e = if args.trace && has_decorators(&args.workload) {
        match plain_child(&args) {
            Ok((e2e, child_attempted, child_failed)) => {
                attempted += child_attempted;
                if child_failed > 0 {
                    failures.count += child_failed;
                    failures.first.push(format!("{child_failed} failures in the plain pass"));
                }
                Some(e2e)
            }
            Err(e) => {
                eprintln!("perfbench: {} aborted: {e}", args.workload);
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };

    let label = if args.trace { "traced" } else { "plain" };
    let run = match run_pass(&args, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {label} {} aborted: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    report(label, &run, effective_cores);
    let e2e = run.end_to_end(&measure::quiet_slices(&run.cpu.steal_pct));
    attempted += run.attempted;
    failures.absorb(run.failures);

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut values = run.layers.clone();
        values.insert("cpu.effective_cores", effective_cores);
        values.insert("cpu.pressure_some_pct", run.cpu.pressure_some_pct);
        values.insert("cpu.runqueue_wait_ms", run.cpu.runqueue_wait_ms);
        values.insert("cpu.steal_pct", run.cpu.steal_pct.iter().sum::<f64>() / SLICES as f64);
        let deltas: BTreeMap<String, f64> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                (format!("delta.{name}"), plain_e2e.map_or(0.0, |plain| e2e[i] - plain[i]))
            })
            .collect();
        if plain_e2e.is_none() {
            println!("[traced] delta.* = 0: this workload's traced pass adds no decorators");
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v =
                    values.get(name).copied().or_else(|| deltas.get(*name).copied()).unwrap_or(0.0);
                (*name, v, *unit)
            })
            .collect()
    } else {
        END_TO_END.iter().zip(e2e).map(|((name, unit), v)| (*name, v, *unit)).collect()
    };

    for (name, value, unit) in &metrics {
        println!("{name} = {value:.4} {unit}");
    }
    for p in &failures.first {
        eprintln!("perfbench: failed check: {p}");
    }
    let correct = failures.count == 0;
    println!("{}", result_json(correct, attempted.max(1), failures.count, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names printed here and the ones `BENCHMARK.json`
    /// declares must be the same sets, in the same order.
    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().expect("quoted name").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        assert_eq!(names_in("per_layer"), layer);
        assert_eq!(names_in("workloads"), vec!["htap-scan", "kv-wire"]);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 10, 0, &[("a_us", 1.5, "us"), ("b", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_us\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn result_line_parses_back() {
        let e2e: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (name, unit))| (*name, 0.125 + i as f64 * 1e3, *unit))
            .collect();
        let (attempted, failed, values) =
            parse_result(&result_json(false, 42, 3, &e2e)).expect("parses");
        assert_eq!((attempted, failed), (42, 3));
        assert_eq!(values.to_vec(), e2e.iter().map(|m| m.1).collect::<Vec<_>>());
        assert!(parse_result("perfbench: bad").is_none());
    }

    #[test]
    fn args_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload kv-wire --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("kv-wire", 7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload kv-wire --trace 2")).is_err());
        assert!(parse_args(&argv("--workload kv-wire --seed")).is_err());
    }
}
