//! `isbench`: the end-to-end and per-layer benchmark of the ISRec
//! workspace.
//!
//! ```text
//! isbench --workload <train|eval|serve-cold|serve-hot> --seed <n> \
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds one workload's inputs from `--seed`, sets it up several
//! times (reporting the median set-up time), measures it for `--seconds`,
//! checks its outputs, and prints the metrics. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with every
//! probe of the program switched off; with `--trace 1` they are the
//! per-layer ones, read from the program's own counters and timers and from
//! the benchmark's spans around its calls into each layer. A failed output
//! check makes the exit code non-zero.
//!
//! See `README.md` next to this file for the workloads, the metric
//! definitions, and which layer metric should move which end-to-end metric.

mod eval;
mod layers;
mod probes;
mod serve;
mod spans;
mod train;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for snapshots and span dumps (created on demand).
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let work_dir = PathBuf::from(map.get("work-dir").map_or(".bench_work", String::as_str));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    })
}

const WORKLOADS: [&str; 4] = ["train", "eval", "serve-cold", "serve-hot"];

impl Args {
    /// Where a traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        self.work_dir
            .join(format!("spans-{}-{}.json", self.workload, self.seed))
    }
}

/// One metric value with its unit.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to the printer.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed window (steps, user evaluations,
    /// requests).
    pub attempted: u64,
    /// Operations that failed, including failed output checks.
    pub failed: u64,
    /// Human-readable descriptions of failed checks.
    pub problems: Vec<String>,
    /// Findings that are reported but are not failed output checks.
    pub notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// The workload's own metric names (e.g. `train.steps_per_s`), printed
    /// on stdout above the JSON line.
    pub named: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, Metric { value, unit });
    }

    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    /// The by-name lines every workload prints after its own: set-up
    /// time, peak RSS and the failure share.
    pub fn named_common(&mut self, setup_s: f64) {
        self.named("setup_s", setup_s, "s");
        self.named("peak_rss_mb", util::peak_rss_mb(), "MB");
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.named("fail_ratio", fail_ratio, "ratio");
    }

    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    pub fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }

    /// The end-to-end metrics every workload reports; `op_ms` is the timed
    /// window's per-operation latency sample in milliseconds and `ends_s`
    /// the completion time of each, in seconds from the window's start.
    /// Throughput and tail percentiles are printed by name but not reported
    /// here: on a shared 2-core host they spread too widely from run to run
    /// to be gated (see README.md).
    pub fn end_to_end(&mut self, setup_s: f64, op_ms: &[f64], ends_s: &[f64]) {
        self.metric("setup_s", setup_s, "s");
        self.metric("op_quiet_p50_ms", util::quiet_p50(op_ms, ends_s), "ms");
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.metric("ok_ratio", 1.0 - fail_ratio, "ratio");
        self.metric("peak_rss_mb", util::peak_rss_mb(), "MB");
    }
}

/// Pins glibc malloc's adaptive thresholds. By default glibc raises its
/// mmap threshold and trims the heap according to the order in which
/// threads happen to free memory, so the same run can take anywhere from
/// 0.2 to 1.6 million page faults and its step time moves with them. With
/// fixed thresholds every run pays the same allocator costs; allocation
/// volume still shows in `tensor.alloc_bytes` and `peak_rss_mb`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets allocator parameters; it is called
    // before this process starts any thread, with documented parameter
    // codes and values in range (the mmap threshold's maximum is 32 MiB on
    // 64-bit glibc).
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("isbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The run, not the environment, decides what is observed: a stray
    // IST_METRICS / IST_TRACE / IST_SERVE_ACCESS_LOG cannot switch probes
    // on in an untraced run.
    ist_obs::set_mode(if args.trace {
        ist_obs::Mode::Collect
    } else {
        ist_obs::Mode::Off
    });
    ist_obs::trace::set_enabled(false);
    ist_obs::reqctx::disable_access_log();

    let host = format!(
        "host: nproc={} pool_threads={} simd={} workload={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ist_tensor::pool::global().threads(),
        ist_tensor::simd::level().name(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    println!("{host}");
    eprintln!("isbench: {host}");

    let result = match args.workload.as_str() {
        "train" => train::run(&args),
        "eval" => eval::run(&args),
        "serve-cold" => serve::run(&args, serve::Kind::Cold),
        "serve-hot" => serve::run(&args, serve::Kind::Hot),
        _ => unreachable!("validated in parse_args"),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("isbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    for (name, value, unit) in &out.named {
        println!("{name:<24} {value:>14.4} {unit}");
    }
    for n in &out.notes {
        println!("NOTE: {n}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
        eprintln!("isbench: check failed: {p}");
    }
    let correct = out.problems.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_f64(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Full-precision JSON number (non-finite values become `null`, which the
/// output checks have already flagged).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
