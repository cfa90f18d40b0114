//! `paper-batch`: the paper's single-server and cluster matrix for the
//! three per-consumer tasks.
//!
//! Matlab (partitioned CSV), MADLib (reading per row) and System C each
//! load, run every task cold, `warm()`, and run every task warm, at two
//! threads. Matlab-smc runs cold off its mapped `.smc`; Hive and Spark
//! load the reading-per-line text table and run one job per task on the
//! four-worker virtual cluster. Similarity is left out on purpose: it is
//! quadratic and would drown the linear cells (it has its own workload).
//!
//! The work lands in the `smda-stats` fitters, `smda-storage` pages, the
//! CSV and text parsers and the `smda-cluster` scheduler and shuffle, and
//! almost none in the similarity kernels or the serving layer.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use smda_cluster::{ClusterTopology, CostModel};
use smda_core::tasks::{run_consumer_task_on, run_reference};
use smda_core::{SeedConfig, Task, TaskOutput};
use smda_engines::{
    ColumnarEngine, NumericEngine, Platform, RelationalEngine, RelationalLayout, RunSpec,
};
use smda_hive::HiveEngine;
use smda_obs::{counters, MetricsSink, RunManifest};
use smda_spark::SparkEngine;
use smda_storage::FileLayout;
use smda_types::{DataFormat, Dataset};

use crate::stats::{geomean, lower_quartile, median};
use crate::{checks, Ctx, Outcome};

/// Consumers in the generated year.
const CONSUMERS: usize = 200;
/// Threads of every single-server run.
const THREADS: usize = 2;
/// Workers of the virtual cluster (12 slots each, as in the paper).
const CLUSTER_WORKERS: usize = 4;
/// DFS block size of the cluster table.
const BLOCK_BYTES: u64 = 1 << 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A short cell is repeated until its runs add up to this many seconds
/// per round, so that a 10 ms cell is timed as often as it needs to not
/// be noise.
const CELL_MIN_S: f64 = 0.2;
/// A cluster job is repeated until its runs add up to this many seconds
/// per round: a 0.3–0.5 s job then gives three or more samples a round.
/// One job's time moves by 15–30 % with the host's load, so its figure
/// needs several samples a round.
const CLUSTER_CELL_MIN_S: f64 = 1.0;
/// Rounds per run at least, so each cell is timed at two moments some
/// seconds apart.
const MIN_ROUNDS: usize = 2;
const CELL_MAX_REPS: usize = 25;
/// Consumers whose fits are timed one by one for `core.fit.*_us`.
const FIT_SAMPLE: usize = 64;

const TASKS: [(Task, &str); 3] = [
    (Task::Histogram, "histogram"),
    (Task::ThreeLine, "three_line"),
    (Task::Par, "par"),
];

/// Platforms in report order; the first three also run warm, the last
/// two run on the virtual cluster.
const PLATFORMS: [&str; 6] = ["Matlab", "MADLib", "SystemC", "Matlab-smc", "Hive", "Spark"];
const CLUSTER_PLATFORMS: [&str; 2] = ["Hive", "Spark"];

pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for p in PLATFORMS {
        v.push((format!("engines.{p}.load_s"), "s"));
        for (_, t) in TASKS {
            v.push((format!("engines.{p}.{t}.cold_s"), "s"));
        }
    }
    for p in &PLATFORMS[..3] {
        v.push((format!("engines.{p}.warmup_s"), "s"));
        for (_, t) in TASKS {
            v.push((format!("engines.{p}.{t}.warm_s"), "s"));
        }
    }
    for name in [
        "core.fit.histogram_us",
        "core.fit.three_line_us",
        "core.fit.par_us",
    ] {
        v.push((name.into(), "us"));
    }
    for name in [
        "fits.scratch_reuses",
        "storage.rows_scanned",
        "storage.pages_faulted",
        "storage.cache_hits",
        "cluster.tasks_scheduled",
        "cluster.bytes_shuffled",
        "cluster.tasks_retried",
    ] {
        v.push((name.into(), "count"));
    }
    v.push(("cluster.hive.virtual_s".into(), "s"));
    v.push(("cluster.spark.virtual_s".into(), "s"));
    v
}

/// Timings of one run keyed `platform.cell`, one sample per timed call,
/// and the counters the calls recorded.
#[derive(Default)]
struct Cells {
    samples: BTreeMap<String, Vec<f64>>,
    counters: BTreeMap<String, u64>,
    /// Virtual makespans of the cluster jobs, by platform.
    virtual_s: BTreeMap<&'static str, Vec<f64>>,
    busy: f64,
}

impl Cells {
    fn add(&mut self, key: String, d: Duration) {
        self.busy += d.as_secs_f64();
        self.samples.entry(key).or_default().push(d.as_secs_f64());
    }

    /// Run `cell` until its runs add up to [`CELL_MIN_S`] (at most
    /// [`CELL_MAX_REPS`] times); every run is one sample. Only the first
    /// run's counters are kept, so counts do not depend on how many
    /// repetitions the host's speed called for.
    fn repeat(&mut self, key: String, mut cell: impl FnMut() -> (Duration, Option<MetricsSink>)) {
        let mut total = 0.0;
        let mut reps = 0;
        while reps == 0 || (total < CELL_MIN_S && reps < CELL_MAX_REPS) {
            let (took, sink) = cell();
            total += took.as_secs_f64();
            self.add(key.clone(), took);
            if let (Some(sink), 0) = (sink, reps) {
                self.absorb(&sink);
            }
            reps += 1;
        }
    }

    fn absorb(&mut self, sink: &MetricsSink) {
        if sink.is_recording() {
            for (name, v) in sink
                .finish(RunManifest::new("cell", "paper-batch"))
                .counters
            {
                *self.counters.entry(name).or_default() += v;
            }
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

fn generate(seed: u64) -> Dataset {
    smda_core::generator::generate_seed(&SeedConfig {
        consumers: CONSUMERS,
        seed,
        ..Default::default()
    })
    .expect("seed generation is total for a valid config")
}

pub fn run(ctx: &Ctx) -> Outcome {
    let t = &ctx.tracer;
    let mut setups = Vec::new();
    let mut ds = None;
    for _ in 0..SETUPS {
        let _s = t.span("smda-core", "generate_seed");
        let (d, took) = timed(|| generate(ctx.seed));
        setups.push(took.as_secs_f64());
        ds = Some(d);
    }
    let ds = ds.expect("at least one set-up");
    let reference: Vec<TaskOutput> = {
        let _s = t.span("smda-core", "run_reference");
        TASKS
            .iter()
            .map(|(task, _)| run_reference(*task, &ds))
            .collect()
    };

    let mut cells = Cells::default();
    let mut busy = Vec::new();
    let started = Instant::now();
    let mut round = 0;
    while crate::another_round(started, round, MIN_ROUNDS, ctx.seconds) {
        let _r = t.span(crate::trace::BENCH, &format!("round {round}"));
        let before = cells.busy;
        let dir = ctx.work.join(format!("round-{round}"));
        one_round(ctx, &ds, &reference, &dir, &mut cells);
        let _ = std::fs::remove_dir_all(&dir);
        busy.push(cells.busy - before);
        round += 1;
    }

    let mut out = Outcome {
        setup_s: median(&setups),
        peak_rss_mib: crate::peak_rss_mib(),
        busy_s: busy,
        ..Outcome::default()
    };
    let n = CONSUMERS as f64;
    let rate = |key: &str| n / lower_quartile(&cells.samples[key]);
    let loads: Vec<f64> = PLATFORMS
        .iter()
        .map(|p| rate(&format!("{p}.load")))
        .collect();
    // Median run of every cell, seconds, split three ways so that each
    // cell is in exactly one bounded metric.
    let (mut single_cold, mut cluster_cold, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    for p in PLATFORMS {
        for (_, task) in TASKS {
            for mode in ["cold", "warm"] {
                let Some(s) = cells.samples.get(&format!("{p}.{task}.{mode}")) else {
                    continue;
                };
                let into = match mode {
                    "warm" => &mut warm,
                    _ if CLUSTER_PLATFORMS.contains(&p) => &mut cluster_cold,
                    _ => &mut single_cold,
                };
                into.push(lower_quartile(s));
            }
        }
    }
    let per_s = |v: &[f64]| v.iter().map(|s| n / s).collect::<Vec<_>>();
    let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    out.load_per_s = geomean(&loads);
    out.work_per_s = geomean(&per_s(&single_cold));
    out.fast_path_ms = geomean(&ms(&warm));
    out.slow_path_ms = geomean(&ms(&cluster_cold));
    out.named = vec![
        ("load_consumers_per_s".into(), geomean(&loads), "1/s"),
        (
            "cold_consumers_per_s".into(),
            geomean(&per_s(
                &[single_cold.clone(), cluster_cold.clone()].concat(),
            )),
            "1/s",
        ),
        ("warm_consumers_per_s".into(), geomean(&per_s(&warm)), "1/s"),
        (
            "single_server_cold_consumers_per_s".into(),
            out.work_per_s,
            "1/s",
        ),
        ("warm_run_ms".into(), out.fast_path_ms, "ms"),
        ("cluster_job_ms".into(), out.slow_path_ms, "ms"),
        ("rounds".into(), round as f64, "count"),
        ("consumers".into(), n, "count"),
    ];

    if ctx.traced() {
        let l = &mut out.layer;
        for (key, s) in &cells.samples {
            l.insert(format!("engines.{key}_s"), median(s));
        }
        let per_round =
            |name: &str| cells.counters.get(name).copied().unwrap_or(0) as f64 / round as f64;
        for (metric, counter) in [
            ("fits.scratch_reuses", counters::FITS_SCRATCH_REUSES),
            ("storage.rows_scanned", counters::ROWS_SCANNED),
            ("storage.pages_faulted", counters::PAGES_FAULTED),
            ("storage.cache_hits", counters::CACHE_HITS),
            ("cluster.tasks_scheduled", counters::TASKS_SCHEDULED),
            ("cluster.bytes_shuffled", counters::BYTES_SHUFFLED),
            ("cluster.tasks_retried", counters::TASKS_RETRIED),
        ] {
            l.insert(metric.into(), per_round(counter));
        }
        for (platform, v) in &cells.virtual_s {
            let name = format!("cluster.{}.virtual_s", platform.to_lowercase());
            l.insert(name, median(v));
        }
        let _s = t.span("smda-core", "run_consumer_task_on");
        let temps = ds.temperature().values();
        for (task, name) in TASKS {
            let sample = &ds.consumers()[..FIT_SAMPLE.min(ds.len())];
            let start = Instant::now();
            for c in sample {
                let r = run_consumer_task_on(task, c.id, c.readings(), temps);
                ctx.checks.record(
                    "run_consumer_task_on",
                    r.map(|_| ()).map_err(|e| e.to_string()),
                );
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
            l.insert(format!("core.fit.{name}_us"), us);
        }
    }
    out
}

/// One pass over every platform and task.
fn one_round(ctx: &Ctx, ds: &Dataset, reference: &[TaskOutput], dir: &Path, cells: &mut Cells) {
    let t = &ctx.tracer;
    let check_load = |what: &str, r: smda_types::Result<()>| {
        ctx.checks.record(what, r.map_err(|e| e.to_string()));
    };
    let check = |what: &str, got: smda_types::Result<TaskOutput>, want: &TaskOutput| {
        let r = got
            .map_err(|e| e.to_string())
            .and_then(|o| checks::task_output(&o, want));
        ctx.checks.record(what, r);
    };
    let spec = |task: Task, sink: &MetricsSink| {
        RunSpec::builder(task)
            .threads(THREADS)
            .metrics(sink.clone())
            .build()
    };

    // Single-server platforms and the binary-backed Matlab twin: every
    // load writes a fresh store; the last one loaded serves the runs.
    type Make = fn(&Path) -> Box<dyn Platform>;
    let platforms: [(&str, Make); 4] = [
        ("Matlab", |d| {
            Box::new(NumericEngine::new(
                d.join("matlab"),
                FileLayout::Partitioned,
            ))
        }),
        ("MADLib", |d| {
            Box::new(RelationalEngine::new(
                d.join("madlib"),
                RelationalLayout::ReadingPerRow,
            ))
        }),
        ("SystemC", |d| {
            Box::new(ColumnarEngine::new(d.join("systemc")))
        }),
        ("Matlab-smc", |d| {
            Box::new(NumericEngine::binary(d.join("matlab.smc")))
        }),
    ];
    for (name, make) in platforms {
        let mut rep = 0;
        let mut engine = None;
        cells.repeat(format!("{name}.load"), || {
            // Only the newest store is kept on disk.
            engine = None;
            let _ = std::fs::remove_dir_all(dir.join(format!("{name}-{rep}")));
            rep += 1;
            let store = dir.join(format!("{name}-{rep}"));
            let made = std::fs::create_dir_all(&store);
            ctx.checks.record(
                &format!("{name} store dir"),
                made.map_err(|e| e.to_string()),
            );
            let mut e = make(&store);
            let (r, took) = {
                let _s = t.span("smda-engines", &format!("{name}.load"));
                timed(|| e.load(ds))
            };
            check_load(&format!("{name} load"), r.map(|_| ()));
            engine = Some(e);
            (took, None)
        });
        let mut engine = engine.expect("loaded at least once");
        let modes: &[&str] = if name == "Matlab-smc" {
            &["cold"]
        } else {
            &["cold", "warm"]
        };
        for mode in modes {
            if *mode == "warm" {
                let (r, took) = {
                    let _s = t.span("smda-engines", &format!("{name}.warm"));
                    timed(|| engine.warm())
                };
                check_load(&format!("{name} warm"), r.map(|_| ()));
                cells.add(format!("{name}.warmup"), took);
            }
            for (i, (task, tname)) in TASKS.iter().enumerate() {
                cells.repeat(format!("{name}.{tname}.{mode}"), || {
                    if *mode == "cold" {
                        engine.make_cold();
                    }
                    let sink = ctx.sink();
                    let (r, took) = {
                        let _s = t.span("smda-engines", &format!("{name}.{tname}.{mode}"));
                        timed(|| engine.run(&spec(*task, &sink)))
                    };
                    check(
                        &format!("{name} {tname} {mode}"),
                        r.map(|r| r.output),
                        &reference[i],
                    );
                    (took, Some(sink))
                });
            }
        }
    }

    let topology = |cost| ClusterTopology {
        workers: CLUSTER_WORKERS,
        slots_per_worker: 12,
        cost,
    };
    let mut hive = HiveEngine::new(topology(CostModel::mapreduce()), BLOCK_BYTES);
    let (r, took) = {
        let _s = t.span("smda-hive", "Hive.load");
        timed(|| hive.load(ds, DataFormat::ReadingPerLine))
    };
    check_load("Hive load", r);
    cells.add("Hive.load".into(), took);
    cluster_jobs(ctx, cells, reference, "Hive", "smda-hive", |spec| {
        hive.run_with(spec)
            .map(|r| (r.output, r.stats.virtual_elapsed))
    });

    let mut spark = SparkEngine::new(topology(CostModel::spark()), BLOCK_BYTES);
    let (r, took) = {
        let _s = t.span("smda-spark", "Spark.load");
        timed(|| spark.load(ds, DataFormat::ReadingPerLine))
    };
    check_load("Spark load", r);
    cells.add("Spark.load".into(), took);
    cluster_jobs(ctx, cells, reference, "Spark", "smda-spark", |spec| {
        spark.run_with(spec).map(|r| (r.output, r.virtual_elapsed))
    });
}

/// Jobs on a loaded cluster engine: the tasks take turns, pass after
/// pass, until every task's runs add up to [`CLUSTER_CELL_MIN_S`], so
/// each task's samples spread over the whole stretch rather than one
/// short part of it. `job` returns the output and the job's virtual
/// makespan. As in [`Cells::repeat`], only the first pass's counters
/// are kept.
fn cluster_jobs(
    ctx: &Ctx,
    cells: &mut Cells,
    reference: &[TaskOutput],
    platform: &'static str,
    layer: &'static str,
    mut job: impl FnMut(&RunSpec) -> smda_types::Result<(TaskOutput, Duration)>,
) {
    let mut virtual_s = Vec::new();
    let mut total = [0.0; TASKS.len()];
    let mut pass = 0;
    while pass == 0 || (total.iter().any(|s| *s < CLUSTER_CELL_MIN_S) && pass < CELL_MAX_REPS) {
        for (i, ((task, tname), want)) in TASKS.iter().zip(reference).enumerate() {
            let sink = ctx.sink();
            let spec = RunSpec::builder(*task).metrics(sink.clone()).build();
            let (r, took) = {
                let _s = ctx.tracer.span(layer, &format!("{platform}.{tname}"));
                timed(|| job(&spec))
            };
            let r = r.map(|(output, makespan)| {
                virtual_s.push(makespan.as_secs_f64());
                output
            });
            let r = r
                .map_err(|e| e.to_string())
                .and_then(|o| checks::task_output(&o, want));
            ctx.checks.record(&format!("{platform} {tname}"), r);
            total[i] += took.as_secs_f64();
            cells.add(format!("{platform}.{tname}.cold"), took);
            if pass == 0 {
                cells.absorb(&sink);
            }
        }
        pass += 1;
    }
    cells
        .virtual_s
        .entry(platform)
        .or_default()
        .extend(virtual_s);
}
