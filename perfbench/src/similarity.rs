//! `similarity-smc`: cold file → top-10 for every similarity tier.
//!
//! Two phases over the same layers at opposite ends of bytes per flop:
//!
//! * **all-pairs, compute-bound.** One year of [`ALLPAIRS_N`] consumers
//!   through three tiers, each checked `to_bits`-equal to the others:
//!   `NumericEngine::binary` (in-memory tiled), `NumericEngine::binary_oooc`
//!   over a raw file, and the out-of-core kernel over a packed file that
//!   fits the default 128 MiB decode cache.
//! * **scan, bytes-bound.** [`QUERIES`] query rows streamed once through
//!   the query-set entry point over a raw and a packed file of
//!   [`SCAN_N`] consumers, each at least 4× `DEFAULT_CACHE_BYTES`, so the
//!   packed scan cannot be served from the decode cache. Every answer is
//!   checked against `top_k_query` over an in-memory matrix built from
//!   the generator.
//!
//! The scan files are written during set-up and read back within the
//! same run, so the page cache is warm: the scan measures memory-mapped
//! reads, checksums and decoding, not a disk.

use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use smda_core::{SeedConfig, Task, TaskOutput};
use smda_engines::{NumericEngine, Platform, RunSpec, DEFAULT_CACHE_BYTES};
use smda_format::metrics as format_metrics;
use smda_obs::{counters, RunManifest};
use smda_stats::{top_k_query, SeriesMatrixBuilder, SimilarityMatch};
use smda_storage::{BinaryEncoding, BinaryStore, BinaryWriter};
use smda_types::{ConsumerId, Dataset, Error, HOURS_PER_YEAR};

use crate::stats::{geomean, lower_quartile, median};
use crate::{checks, simapi, Ctx, Outcome};

/// Consumers of the all-pairs year.
const ALLPAIRS_N: usize = 1000;
/// Consumers of each scan file.
const SCAN_N: usize = 8400;
/// Query rows of the scan.
const QUERIES: usize = 32;
/// Neighbours per row.
const K: usize = 10;
/// Threads of the all-pairs tiers.
pub const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 2;
/// Rounds per run at least, so each bounded figure is the faster of two
/// passes some seconds apart rather than one pass.
const MIN_ROUNDS: usize = 2;

const TIERS: [&str; 3] = ["tiled", "oooc-raw", "oooc-packed"];
const ENCODINGS: [(&str, BinaryEncoding); 2] = [
    ("raw", BinaryEncoding::Raw),
    ("packed", BinaryEncoding::Packed),
];

pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for tier in TIERS {
        v.push((format!("similarity.allpairs_s.{tier}"), "s"));
    }
    for (e, _) in ENCODINGS {
        v.push((format!("similarity.scan_s.{e}"), "s"));
        v.push((format!("format.write_mb_per_s.{e}"), "MB/s"));
    }
    v.extend([
        ("kernels.effective_gflops".into(), "GFLOP/s"),
        ("kernels.dot_peak_share".into(), "ratio"),
        ("oooc.bands_loaded".into(), "count"),
        ("oooc.band_pairs".into(), "count"),
        ("oooc.bytes_streamed".into(), "bytes"),
        ("format.open_ms".into(), "ms"),
        ("format.verify_mb_per_s".into(), "MB/s"),
        ("format.zero_copy_hits".into(), "count"),
        ("format.blocks_decoded".into(), "count"),
        ("format.cache_hits".into(), "count"),
        ("format.cache_misses".into(), "count"),
        ("format.cache_evictions".into(), "count"),
        ("format.scan_gb_per_s".into(), "GB/s"),
        ("format.scan_stream_share".into(), "ratio"),
    ]);
    v
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

fn seed_config(consumers: usize, seed: u64) -> SeedConfig {
    SeedConfig {
        consumers,
        seed,
        ..Default::default()
    }
}

/// The scan year is a different draw from the all-pairs one.
fn scan_seed(seed: u64) -> u64 {
    seed.wrapping_add(0x5ca1)
}

/// Stream the scan year once into both encodings, one writer thread
/// per file so the two encoders overlap with generation.
fn write_scan_files(dir: &Path, seed: u64) -> smda_types::Result<[u64; 2]> {
    type Row = (ConsumerId, Arc<Vec<f64>>);
    std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut writers = Vec::new();
        for (e, enc) in ENCODINGS {
            let (tx, rx) = mpsc::sync_channel::<Row>(64);
            let path = dir.join(format!("scan-{e}.smc"));
            senders.push(tx);
            writers.push(scope.spawn(move || {
                let mut w = BinaryWriter::create(path, SCAN_N, HOURS_PER_YEAR, enc)?;
                for (id, row) in rx {
                    w.append_consumer(id, &row)?;
                }
                Ok::<_, smda_types::Error>(w)
            }));
        }
        let temps = smda_core::generator::generate_seed_streaming(
            &seed_config(SCAN_N, seed),
            &mut |id, row| {
                let row = Arc::new(row.to_vec());
                for tx in &senders {
                    tx.send((id, row.clone()))
                        .map_err(|_| Error::Invalid("scan-file writer stopped".into()))?;
                }
                Ok(())
            },
        );
        drop(senders);
        let writers: Vec<_> = writers
            .into_iter()
            .map(|w| w.join().expect("scan-file writer panicked"))
            .collect();
        let temps = temps?;
        let mut sizes = [0; 2];
        for (size, w) in sizes.iter_mut().zip(writers) {
            *size = w?.finish(temps.values())?;
        }
        Ok(sizes)
    })
}

/// Per-cell samples of one run.
#[derive(Default)]
struct Samples {
    allpairs: [Vec<f64>; 3],
    scan: [Vec<f64>; 2],
    write: [Vec<f64>; 2],
    write_bytes: [u64; 2],
    oooc: [u64; 3],
    format: [u64; 5],
}

pub fn run(ctx: &Ctx) -> Outcome {
    let t = &ctx.tracer;
    let dir = &ctx.work;
    let _ = std::fs::create_dir_all(dir);
    let mut setups = Vec::new();
    let mut ds = None;
    let mut scan_bytes = [0u64; 2];
    for _ in 0..SETUPS {
        let start = Instant::now();
        {
            let _s = t.span("smda-core", "generate_seed");
            ds = Some(
                smda_core::generator::generate_seed(&seed_config(ALLPAIRS_N, ctx.seed))
                    .expect("seed generation is total for a valid config"),
            );
        }
        let written = {
            let _s = t.span("smda-storage", "BinaryWriter scan files");
            write_scan_files(dir, scan_seed(ctx.seed))
        };
        match written {
            Ok(sizes) => scan_bytes = sizes,
            Err(e) => ctx.checks.record("write scan files", Err(e.to_string())),
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let ds = ds.expect("at least one set-up");
    for (i, (e, _)) in ENCODINGS.iter().enumerate() {
        let big = scan_bytes[i] >= 4 * DEFAULT_CACHE_BYTES as u64;
        ctx.checks.record(
            &format!("scan-{e} exceeds 4x the decode cache"),
            big.then_some(()).ok_or(format!("{} bytes", scan_bytes[i])),
        );
    }
    let queries = query_rows(ctx.seed);

    let mut s = Samples::default();
    let mut busy = Vec::new();
    let mut scan_answers: Vec<Vec<Vec<SimilarityMatch>>> = Vec::new();
    let started = Instant::now();
    let mut round = 0;
    while crate::another_round(started, round, MIN_ROUNDS, ctx.seconds) {
        let _r = t.span(crate::trace::BENCH, &format!("round {round}"));
        let before = format_metrics::snapshot();
        let b = all_pairs_round(ctx, &ds, &dir.join(format!("round-{round}")), &mut s)
            + scan_round(ctx, dir, &queries, &mut s, &mut scan_answers);
        let delta = format_metrics::snapshot().since(&before);
        for (acc, v) in s.format.iter_mut().zip([
            delta.zero_copy_hits,
            delta.blocks_decoded,
            delta.cache_hits,
            delta.cache_misses,
            delta.cache_evictions,
        ]) {
            *acc += v;
        }
        busy.push(b);
        round += 1;
    }
    // The reference below holds the whole scan year in memory.
    let peak_rss_mib = crate::peak_rss_mib();
    {
        let _s = t.span("smda-stats", "top_k_query reference");
        check_scans(ctx, &queries, &scan_answers);
    }

    let n = ALLPAIRS_N as f64;
    let pairs = n * (n - 1.0) / 2.0;
    let allpairs_rates: Vec<f64> = s
        .allpairs
        .iter()
        .map(|v| pairs / lower_quartile(v))
        .collect();
    let scan_rates: Vec<f64> = s
        .scan
        .iter()
        .map(|v| SCAN_N as f64 / lower_quartile(v))
        .collect();
    let write_rates: Vec<f64> = s.write.iter().map(|v| n / lower_quartile(v)).collect();
    // One bounded metric per phase and scan tier: the zero-copy raw
    // scan is the fast path, the decoding packed scan the slow one.
    let mut out = Outcome {
        setup_s: median(&setups),
        peak_rss_mib,
        load_per_s: geomean(&write_rates),
        work_per_s: geomean(&allpairs_rates),
        fast_path_ms: lower_quartile(&s.scan[0]) * 1e3,
        slow_path_ms: lower_quartile(&s.scan[1]) * 1e3,
        busy_s: busy,
        ..Outcome::default()
    };
    out.named = vec![
        (
            "allpairs_pairs_per_s".into(),
            geomean(&allpairs_rates),
            "1/s",
        ),
        ("scan_rows_per_s".into(), geomean(&scan_rates), "1/s"),
        ("scan_raw_ms".into(), out.fast_path_ms, "ms"),
        ("scan_packed_ms".into(), out.slow_path_ms, "ms"),
        ("smc_write_rows_per_s".into(), out.load_per_s, "1/s"),
        ("rounds".into(), round as f64, "count"),
        ("scan_file_bytes.raw".into(), scan_bytes[0] as f64, "bytes"),
        (
            "scan_file_bytes.packed".into(),
            scan_bytes[1] as f64,
            "bytes",
        ),
    ];
    if ctx.traced() {
        let l = &mut out.layer;
        for (i, tier) in TIERS.iter().enumerate() {
            l.insert(
                format!("similarity.allpairs_s.{tier}"),
                median(&s.allpairs[i]),
            );
        }
        for (i, (e, _)) in ENCODINGS.iter().enumerate() {
            l.insert(format!("similarity.scan_s.{e}"), median(&s.scan[i]));
            l.insert(
                format!("format.write_mb_per_s.{e}"),
                s.write_bytes[i] as f64 / median(&s.write[i]) / 1e6,
            );
        }
        l.insert(
            "kernels.effective_gflops".into(),
            pairs * 2.0 * HOURS_PER_YEAR as f64 / median(&s.allpairs[0]) / 1e9,
        );
        let rounds = round as f64;
        for (name, v) in [
            "oooc.bands_loaded",
            "oooc.band_pairs",
            "oooc.bytes_streamed",
        ]
        .iter()
        .zip(s.oooc)
        {
            l.insert((*name).into(), v as f64 / rounds);
        }
        for (name, v) in [
            "format.zero_copy_hits",
            "format.blocks_decoded",
            "format.cache_hits",
            "format.cache_misses",
            "format.cache_evictions",
        ]
        .iter()
        .zip(s.format)
        {
            l.insert((*name).into(), v as f64 / rounds);
        }
        l.insert(
            "format.scan_gb_per_s".into(),
            scan_bytes[0] as f64 / median(&s.scan[0]) / 1e9,
        );
        let raw = dir.join("scan-raw.smc");
        let mut opens = Vec::new();
        for _ in 0..5 {
            let _s = t.span("smda-storage", "BinaryStore::open");
            let (store, took) = timed(|| BinaryStore::open(&raw));
            ctx.checks.record(
                "open scan-raw",
                store.map(|_| ()).map_err(|e| e.to_string()),
            );
            opens.push(took.as_secs_f64() * 1e3);
        }
        l.insert("format.open_ms".into(), median(&opens));
        let _s = t.span("smda-storage", "BinaryStore::verify");
        let (verified, took) = timed(|| BinaryStore::open(&raw).and_then(|s| s.verify()));
        ctx.checks.record(
            "verify scan-raw",
            verified.map(|_| ()).map_err(|e| e.to_string()),
        );
        l.insert(
            "format.verify_mb_per_s".into(),
            scan_bytes[0] as f64 / took.as_secs_f64() / 1e6,
        );
    }
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Seeded, distinct query rows of the scan files.
fn query_rows(seed: u64) -> Vec<usize> {
    let mut rng = crate::openloop::Rng::new(seed ^ 0x9e37);
    let mut rows: Vec<usize> = Vec::with_capacity(QUERIES);
    while rows.len() < QUERIES {
        let r = (rng.next_u64() % SCAN_N as u64) as usize;
        if !rows.contains(&r) {
            rows.push(r);
        }
    }
    rows
}

/// The three all-pairs tiers over `ds`, each from a freshly written
/// file; returns the busy seconds.
fn all_pairs_round(ctx: &Ctx, ds: &Dataset, dir: &Path, s: &mut Samples) -> f64 {
    let t = &ctx.tracer;
    let _ = std::fs::create_dir_all(dir);
    let mut busy = 0.0;
    let mut outputs: Vec<Option<TaskOutput>> = Vec::new();
    for (i, tier) in TIERS.iter().enumerate().take(2) {
        let mut engine = if i == 0 {
            NumericEngine::binary(dir.join("tiled.smc"))
        } else {
            NumericEngine::binary_oooc(dir.join("oooc-raw.smc"))
        };
        let (r, took) = {
            let _s = t.span("smda-engines", &format!("{tier}.load"));
            timed(|| engine.load(ds))
        };
        ctx.checks.record(
            &format!("{tier} load"),
            r.map(|_| ()).map_err(|e| e.to_string()),
        );
        s.write[0].push(took.as_secs_f64());
        busy += took.as_secs_f64();
        engine.make_cold();
        let sink = ctx.sink();
        let spec = RunSpec::builder(Task::Similarity)
            .threads(THREADS)
            .metrics(sink.clone())
            .build();
        let (r, took) = {
            let _s = t.span("smda-engines", &format!("{tier}.similarity.cold"));
            timed(|| engine.run(&spec))
        };
        s.allpairs[i].push(took.as_secs_f64());
        busy += took.as_secs_f64();
        if i == 1 && sink.is_recording() {
            let report = sink.finish(RunManifest::new("Similarity", "Matlab-oooc"));
            for (acc, name) in s.oooc.iter_mut().zip([
                counters::OOOC_BANDS_LOADED,
                counters::OOOC_BAND_PAIRS,
                counters::OOOC_BYTES_STREAMED,
            ]) {
                *acc += report.counter(name).unwrap_or(0);
            }
        }
        match r {
            Ok(r) => outputs.push(Some(r.output)),
            Err(e) => {
                ctx.checks
                    .record(&format!("{tier} run"), Err(e.to_string()));
                outputs.push(None);
            }
        }
    }
    s.write_bytes[0] = std::fs::metadata(dir.join("tiled.smc")).map_or(0, |m| m.len());

    let packed = dir.join("oooc-packed.smc");
    let (r, took) = {
        let _s = t.span("smda-storage", "BinaryStore::create packed");
        timed(|| BinaryStore::create(&packed, ds, BinaryEncoding::Packed))
    };
    ctx.checks.record(
        "packed write",
        r.as_ref().map(|_| ()).map_err(|e| e.to_string()),
    );
    s.write[1].push(took.as_secs_f64());
    s.write_bytes[1] = std::fs::metadata(&packed).map_or(0, |m| m.len());
    busy += took.as_secs_f64();
    drop(r);
    let (r, took) = {
        let _s = t.span("smda-engines", "oooc-packed.similarity.cold");
        timed(|| {
            let store = BinaryStore::open(&packed)?;
            let ids = store.consumer_ids()?;
            let (m, _) = simapi::all_pairs(&store, K, THREADS, &ctx.sink())?;
            Ok::<_, smda_types::Error>((ids, m))
        })
    };
    s.allpairs[2].push(took.as_secs_f64());
    busy += took.as_secs_f64();

    match (&outputs[0], &outputs[1]) {
        (Some(tiled), Some(raw)) => {
            ctx.checks
                .record("oooc-raw == tiled", checks::similarity_bits(raw, tiled));
            let packed_check = r.map_err(|e| e.to_string()).and_then(|(ids, m)| {
                let as_output = TaskOutput::Similarity(
                    m.into_iter()
                        .enumerate()
                        .map(|(q, hits)| smda_core::ConsumerMatches {
                            consumer: ids[q],
                            matches: hits.into_iter().map(|h| (ids[h.index], h.score)).collect(),
                        })
                        .collect(),
                );
                checks::similarity_bits(&as_output, tiled)
            });
            ctx.checks.record("oooc-packed == tiled", packed_check);
        }
        _ => ctx
            .checks
            .record("all-pairs tiers ran", Err("a tier failed".into())),
    }
    let _ = std::fs::remove_dir_all(dir);
    busy
}

/// Stream the query set once through each scan file; returns the busy
/// seconds. Answers are kept for the check at the end of the run.
fn scan_round(
    ctx: &Ctx,
    dir: &Path,
    queries: &[usize],
    s: &mut Samples,
    answers: &mut Vec<Vec<Vec<SimilarityMatch>>>,
) -> f64 {
    let t = &ctx.tracer;
    let mut busy = 0.0;
    for (i, (e, _)) in ENCODINGS.iter().enumerate() {
        let (r, took) = {
            let _s = t.span("smda-stats", &format!("scan {e}"));
            timed(|| {
                let store = BinaryStore::open(dir.join(format!("scan-{e}.smc")))?;
                simapi::scan(&store, queries, K)
            })
        };
        s.scan[i].push(took.as_secs_f64());
        busy += took.as_secs_f64();
        match r {
            Ok((m, _)) => answers.push(m),
            Err(err) => ctx
                .checks
                .record(&format!("scan {e}"), Err(err.to_string())),
        }
    }
    busy
}

/// Every scan answer against `top_k_query` over the normalized matrix
/// of the same generated year.
fn check_scans(ctx: &Ctx, queries: &[usize], answers: &[Vec<Vec<SimilarityMatch>>]) {
    let builder = SeriesMatrixBuilder::new(SCAN_N, HOURS_PER_YEAR);
    let generated = smda_core::generator::generate_seed_streaming(
        &seed_config(SCAN_N, scan_seed(ctx.seed)),
        &mut |id, row| {
            builder.set_row_normalized(id.raw() as usize, row);
            Ok(())
        },
    );
    if let Err(e) = generated {
        ctx.checks.record("reference matrix", Err(e.to_string()));
        return;
    }
    let matrix = builder.finish();
    let want: Vec<Vec<SimilarityMatch>> = queries
        .iter()
        .map(|&q| top_k_query(&matrix, q, K))
        .collect();
    for got in answers {
        if got.len() != want.len() {
            ctx.checks.record(
                "scan answers one list per query",
                Err(format!("{} lists for {} queries", got.len(), want.len())),
            );
            continue;
        }
        for (g, w) in got.iter().zip(&want) {
            ctx.checks
                .record("scan query == top_k_query", checks::matches_bits(g, w));
        }
    }
}
