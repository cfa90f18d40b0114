//! The repository benchmark: three workloads, their end-to-end metrics
//! from an untraced run, and per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <paper-batch|similarity-smc|ingest-serve|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! name every measured figure with its unit, and the machine
//! fingerprint. The process exits non-zero when any output check fails.
//! See `perfbench/README.md` for the workloads and the metric table.

mod checks;
mod ingest_serve;
mod machine;
mod openloop;
mod paper_batch;
mod simapi;
mod similarity;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use checks::Checks;
use trace::Tracer;

/// Names, units and direction of the end-to-end metrics, in output
/// order. Each workload fills every one; README.md gives the mapping.
const END_TO_END: [(&str, &str); 7] = [
    ("load_per_s", "1/s"),
    ("work_per_s", "1/s"),
    ("fast_path_ms", "ms"),
    ("slow_path_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer figures of one workload, by metric name.
type Layer = BTreeMap<String, f64>;

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// The four workload-specific end-to-end figures, in
    /// [`END_TO_END`] order.
    pub load_per_s: f64,
    pub work_per_s: f64,
    pub fast_path_ms: f64,
    pub slow_path_ms: f64,
    /// Median set-up time over the pass's repeated set-ups.
    pub setup_s: f64,
    /// Peak resident set of the pass, read before the output checks
    /// that build reference answers of their own.
    pub peak_rss_mib: f64,
    /// The finer figures of this workload (name, value, unit),
    /// printed by name.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer figures (traced pass only).
    pub layer: Layer,
    /// Time spent inside timed operations per round, for the tracing
    /// overhead.
    pub busy_s: Vec<f64>,
}

/// Everything a workload pass needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub work: PathBuf,
    pub tracer: Tracer,
    pub checks: Checks,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// A metrics sink for one layer call: recording when traced.
    pub fn sink(&self) -> smda_obs::MetricsSink {
        if self.traced() {
            smda_obs::MetricsSink::recording()
        } else {
            smda_obs::MetricsSink::disabled()
        }
    }
}

/// Whether to start another round: always until `min` rounds are done
/// (at least one), then only one expected to end within `seconds` of
/// `started`, so a run measures for about `--seconds`, or for `min`
/// rounds if they take longer.
pub fn another_round(started: Instant, done: usize, min: usize, seconds: f64) -> bool {
    if done < min.max(1) {
        return true;
    }
    let elapsed = started.elapsed().as_secs_f64();
    elapsed + elapsed / done as f64 <= seconds
}

const WORKLOADS: [&str; 3] = ["paper-batch", "similarity-smc", "ingest-serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or `all`, got `{}`",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_pass(workload: &str, ctx: &Ctx) -> Outcome {
    match workload {
        "paper-batch" => paper_batch::run(ctx),
        "similarity-smc" => similarity::run(ctx),
        _ => ingest_serve::run(ctx),
    }
}

/// Peak resident set (`VmHWM`) of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
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

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

/// The result line: the last line of standard output.
fn result_line(attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.join(", ")
    )
}

/// A result line read back: attempted, failed, and each metric's name,
/// value and unit.
struct Parsed {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

/// Read back a line written by [`result_line`] with [`json_metric`]
/// entries; `None` for anything else.
fn parse_result(line: &str) -> Option<Parsed> {
    let count = |key: &str| -> Option<u64> {
        let tag = format!("\"{key}\": ");
        let rest = &line[line.find(&tag)? + tag.len()..];
        rest[..rest.find(',')?].parse().ok()
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    let tag = "\"metrics\": {";
    let mut rest = &line[line.find(tag)? + tag.len()..];
    let mut metrics = Vec::new();
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let name = &rest[..rest.find('"')?];
        let take = |rest: &mut &str, tag: &str, end: char| -> Option<String> {
            let from = rest.find(tag)? + tag.len();
            let to = from + rest[from..].find(end)?;
            let field = rest[from..to].to_string();
            *rest = &rest[to + 1..];
            Some(field)
        };
        let value = take(&mut rest, "\"value\": ", ',')?.parse().ok()?;
        let unit = take(&mut rest, "\"unit\": \"", '"')?;
        metrics.push((name.to_string(), value, unit));
    }
    Some(Parsed {
        attempted,
        failed,
        metrics,
    })
}

/// `--workload all`: every workload in a child process of its own, so
/// that each reports its own peak resident set. Their lines are passed
/// on and their metrics merged, each name prefixed by its workload.
/// Returns the exit code.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find this program: {e}");
            return 2;
        }
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perfbench: cannot run the {w} workload: {e}");
                return 2;
            }
        };
        let text = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let counted = match parse_result(last) {
            Some(r) => {
                attempted += r.attempted;
                for (name, v, unit) in r.metrics {
                    metrics.push(json_metric(&format!("{w}.{name}"), v, &unit));
                }
                r.failed
            }
            None => {
                println!("check failed [{w}]: no result");
                1
            }
        };
        failed += counted;
        if !child.status.success() && counted == 0 {
            println!("check failed [{w}]: {}", child.status);
            failed += 1;
        }
    }
    println!("{}", result_line(attempted, failed, &metrics));
    i32::from(failed > 0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let w = args.workload.as_str();
    let root = std::env::current_dir().expect("working directory");
    let work = root
        .join(".bench_work")
        .join(format!("run-{}", std::process::id()));
    let out_dir = root.join(".bench_out");
    for dir in [&work, &out_dir] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let fingerprint = machine::Fingerprint::probe();
    let run_id = args.seed ^ (std::process::id() as u64) << 32;

    let mut layer = Layer::new();
    let reference = Ctx {
        seed: args.seed,
        seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        work: work.join(w),
        tracer: Tracer::new(false, run_id),
        checks: Checks::default(),
    };
    let plain = run_pass(w, &reference);
    let mut attempted = reference.checks.attempted();
    let mut failed = reference.checks.failed();
    for line in reference.checks.failures() {
        println!("check failed [{w}]: {line}");
    }
    if args.trace {
        let traced = Ctx {
            tracer: Tracer::new(true, run_id),
            checks: Checks::default(),
            ..reference
        };
        let started = Instant::now();
        let t = {
            let _root = traced.tracer.span(trace::BENCH, w);
            run_pass(w, &traced)
        };
        let wall = started.elapsed().as_secs_f64();
        attempted += traced.checks.attempted();
        failed += traced.checks.failed();
        for line in traced.checks.failures() {
            println!("check failed [{w}, traced]: {line}");
        }
        let (by_layer, covered) = traced.tracer.attribute();
        let mut unattributed = wall - covered;
        for (l, s) in &by_layer {
            if *l == trace::BENCH {
                unattributed += s;
            } else {
                layer.insert(format!("self_s.{l}"), *s);
            }
        }
        layer.insert("self_s.unattributed".into(), unattributed);
        layer.insert("obs.wall_s".into(), wall);
        layer.insert("obs.unattributed_share".into(), unattributed / wall);
        layer.insert(
            "obs.trace_overhead".into(),
            stats::median(&t.busy_s) / stats::median(&plain.busy_s),
        );
        layer.extend(t.layer);
        let path = out_dir.join(format!("trace-{w}-seed{}.jsonl", args.seed));
        if let Err(e) = traced.tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        println!("trace written to {}", path.display());
    }
    let ok = if reference.checks.attempted() == 0 {
        0.0
    } else {
        1.0 - reference.checks.failed() as f64 / reference.checks.attempted() as f64
    };
    for (name, v, unit) in &plain.named {
        println!("{w}: {name} = {v} {unit}");
    }
    let e2e = BTreeMap::from([
        ("load_per_s", plain.load_per_s),
        ("work_per_s", plain.work_per_s),
        ("fast_path_ms", plain.fast_path_ms),
        ("slow_path_ms", plain.slow_path_ms),
        ("ok_ratio", ok),
        ("peak_rss_mib", plain.peak_rss_mib),
        ("setup_s", plain.setup_s),
    ]);
    let dot = machine::dot_gflops();
    let stream = machine::stream_gb_per_s(fingerprint.llc_bytes);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(root.join(".bench_work"));

    println!("fingerprint {}", fingerprint.to_json());
    println!("machine: dot {dot:.3} GFLOP/s, stream {stream:.3} GB/s");
    let mut metrics: Vec<String> = Vec::new();
    for (name, unit) in END_TO_END {
        println!("{name} = {} {unit}", e2e[name]);
        if !(e2e[name].is_finite() && e2e[name] > 0.0) {
            println!("check failed [{w}]: {name} was not measured");
            failed += 1;
        }
    }
    if args.trace {
        layer.insert("machine.dot_gflops".into(), dot);
        layer.insert("machine.stream_gb_per_s".into(), stream);
        derive_shares(&mut layer);
        let names = paper_batch::per_layer()
            .into_iter()
            .chain(similarity::per_layer())
            .chain(ingest_serve::per_layer())
            .chain(COMMON_PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)));
        for (name, unit) in names {
            let v = layer.get(&name).copied().unwrap_or(0.0);
            metrics.push(json_metric(&name, v, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            metrics.push(json_metric(name, e2e[name], unit));
        }
    }
    println!("{}", result_line(attempted, failed, &metrics));
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Per-layer metrics every workload reports.
const COMMON_PER_LAYER: &[(&str, &str)] = &[
    ("machine.dot_gflops", "GFLOP/s"),
    ("machine.stream_gb_per_s", "GB/s"),
    ("obs.trace_overhead", "ratio"),
    ("obs.unattributed_share", "ratio"),
    ("obs.wall_s", "s"),
    ("self_s.unattributed", "s"),
    ("self_s.idle", "s"),
    ("self_s.smda-core", "s"),
    ("self_s.smda-stats", "s"),
    ("self_s.smda-storage", "s"),
    ("self_s.smda-engines", "s"),
    ("self_s.smda-hive", "s"),
    ("self_s.smda-spark", "s"),
    ("self_s.smda-ingest", "s"),
    ("self_s.smda-serve", "s"),
];

/// The `*_share` metrics: a layer's rate as a share of the measured
/// machine ceiling.
fn derive_shares(layer: &mut Layer) {
    let dot = layer["machine.dot_gflops"];
    let stream = layer["machine.stream_gb_per_s"];
    if let Some(g) = layer.get("kernels.effective_gflops").copied() {
        // The all-pairs tiers run on two threads.
        layer.insert(
            "kernels.dot_peak_share".into(),
            g / (dot * similarity::THREADS as f64),
        );
    }
    if let Some(gb) = layer.get("format.scan_gb_per_s").copied() {
        layer.insert("format.scan_stream_share".into(), gb / stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_reads_back() {
        let metrics = [
            json_metric("paper-batch.load_per_s", 781.25, "1/s"),
            json_metric("obs.trace_overhead", 0.9875, "ratio"),
        ];
        let r = parse_result(&result_line(12, 1, &metrics)).expect("parses");
        assert_eq!((r.attempted, r.failed), (12, 1));
        assert_eq!(
            r.metrics,
            vec![
                (
                    "paper-batch.load_per_s".to_string(),
                    781.25,
                    "1/s".to_string()
                ),
                (
                    "obs.trace_overhead".to_string(),
                    0.9875,
                    "ratio".to_string()
                ),
            ]
        );
        assert!(parse_result("perfbench: no result").is_none());
    }
}
