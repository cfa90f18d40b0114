//! `ingest-serve`: writes beside reads.
//!
//! A seeded year is replayed through `run_pipeline` on two shards and
//! published; a `Server` with two workers is then driven by the
//! open-loop generator ([`crate::openloop`]) with the per-epoch cache
//! warmed first, so its hit ratio is stationary: a ladder of fixed
//! rates from well below saturation to past it, and interludes of the
//! nominal rate, bursts that measure how fast a backlog drains and quiet
//! re-timings of the ingest. Last, the nominal rate is held while a second year is ingested and
//! published, so pipeline and server contend for the shared worker
//! pool and the cache is invalidated at the epoch swap.
//!
//! Only this workload puts work in `smda-ingest` and `smda-serve`.
//! The admission queue and deadlines are sized so that nothing is
//! refused or expires: overload shows as queueing delay, measured from
//! each query's intended send time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smda_core::queries::{anomaly_result, lookup};
use smda_core::tasks::run_reference;
use smda_core::{Alert, SeedConfig, Task, TaskOutput};
use smda_ingest::{
    fit_detectors, replay_events, run_pipeline, IngestConfig, IngestOutcome, LiveSnapshot,
    ReplayConfig, SnapshotHandle,
};
use smda_obs::{counters, MetricsSink, RunManifest};
use smda_serve::{ServeConfig, ServeError, Server, Ticket};
use smda_types::{ConsumerId, Dataset, Query, QueryKind, QueryResult, Reading};

use crate::openloop::{self, Planned, Population, Record, Target};
use crate::stats::{geomean, lower_quartile, median, percentile_sorted};
use crate::{Ctx, Outcome};

/// Consumers per year.
const CONSUMERS: usize = 500;
/// Ingest shards.
const SHARDS: usize = 2;
/// Server workers.
const WORKERS: usize = 2;
/// Answers the per-epoch cache holds; the warm-up fills it with the
/// most popular keys, which fixes the hit ratio. An assumption, chosen
/// for the hit ratio it gives: with five equally likely kinds and
/// Zipf(1) consumers it holds every kind of the 204 most popular of the
/// 500 consumers, H(204)/H(500) ≈ 0.87 of the traffic (H the harmonic
/// number), so about one query in eight takes the miss path. The
/// server's default of 4096 would hold all 2500 keys, and no timed
/// query would miss until the epoch swap.
const CACHE_CAPACITY: usize = 1024;
/// Latency limit on p99 that a ladder rate must meet to count as
/// sustained.
const LIMIT_MS: f64 = 50.0;
/// The ladder, queries per second.
const RATES: [u32; 5] = [1000, 2000, 4000, 8000, 16000];
/// Queries per ladder rung, enough for ten beyond the 99th percentile;
/// a rung lasts at least [`RUNG_MIN_S`] so a backlog has time to grow.
const RUNG_QUERIES: f64 = 1000.0;
const RUNG_MIN_S: f64 = 0.5;
/// The nominal rate, held for one slice of [`SLICE_SHARE`] of the
/// run's `--seconds` per interlude (2 s, 1000 queries, at 20 s). The
/// reported percentiles are the median over slices.
const NOMINAL_QPS: f64 = 500.0;
const SLICE_SHARE: f64 = 0.1;
/// Queries in each saturating burst, and bursts per interlude;
/// capacity is the median over all bursts of the run.
const BURST: usize = 8000;
const BURSTS: usize = 2;
/// Quiet ingests per interlude.
const QUIET_INGESTS: usize = 2;
/// Interludes spread over the run, each one nominal slice, [`BURSTS`]
/// bursts and [`QUIET_INGESTS`] quiet ingests, with the miss-path
/// service time of every consumer timed in parts between them. Top-k takes about four
/// times as long as the other kinds together, so each interlude times
/// it for one consumer in [`INTERLUDES`] only (every consumer once a
/// run) and the other kinds for every consumer.
const INTERLUDES: usize = 4;
/// The `--seconds` at which each interlude's service-time sample covers
/// every consumer; a shorter run samples a proportional share of them.
const FULL_SAMPLE_SECONDS: f64 = 20.0;
/// Query kinds whose miss path fits a model: the fast path. Top-k,
/// which scores the consumer against every other, is the slow path.
const FIT_KINDS: [QueryKind; 2] = [QueryKind::ThreeLineFeatures, QueryKind::ParCoefficients];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 2;

pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("ingest.pipeline_s".into(), "s"),
        ("ingest.backpressure_stalls".into(), "count"),
        ("ingest.watermark_lag_hours".into(), "hours"),
        ("ingest.readings_late".into(), "count"),
        ("ingest.publish_visible_ms".into(), "ms"),
        ("serve.cache_hit_ratio".into(), "ratio"),
        ("serve.cache_invalidations".into(), "count"),
        ("serve.rejected_overload".into(), "count"),
        ("serve.deadline_misses".into(), "count"),
        ("serve.queue_depth_p99".into(), "count"),
        ("serve.generator_lag_p99_ms".into(), "ms"),
        ("serve.max_qps".into(), "1/s"),
        ("serve.p50_ms".into(), "ms"),
        ("serve.p99_ms".into(), "ms"),
        ("serve.p99_reingest_ms".into(), "ms"),
    ];
    for kind in QueryKind::ALL {
        v.push((format!("serve.{}.service_ms", kind.name()), "ms"));
    }
    for r in RATES {
        v.push((format!("serve.rate-{r}.p50_ms"), "ms"));
        v.push((format!("serve.rate-{r}.p99_ms"), "ms"));
    }
    v
}

/// The server as the generator sees it; samples the admission queue
/// depth at every send.
struct ServerTarget<'a> {
    server: &'a Server,
    depths: Mutex<Vec<f64>>,
}

/// Far beyond any phase, so no query expires: lateness is measured,
/// not enforced.
const DEADLINE: Duration = Duration::from_secs(120);

impl Target for ServerTarget<'_> {
    type Pending = Ticket;

    fn submit(&self, query: Query) -> Result<Ticket, ServeError> {
        let ticket = self.server.submit_with_deadline(query, DEADLINE);
        let depth = self.server.queued() as f64;
        self.depths
            .lock()
            .expect("depth samples poisoned")
            .push(depth);
        ticket
    }

    fn poll(&self, ticket: &Ticket) -> Option<Result<Arc<QueryResult>, ServeError>> {
        ticket.try_take()
    }
}

/// One generated year and its replayed event stream.
struct Year {
    ds: Dataset,
    events: Vec<Reading>,
}

fn year(seed: u64) -> Year {
    let ds = smda_core::generator::generate_seed(&SeedConfig {
        consumers: CONSUMERS,
        seed,
        ..Default::default()
    })
    .expect("seed generation is total for a valid config");
    let events = replay_events(
        &ds,
        &ReplayConfig {
            jitter_hours: 12,
            seed,
        },
    );
    Year { ds, events }
}

/// What one open-loop phase measured.
struct Phase {
    records: Vec<Record>,
    /// Latencies in ms, ascending; a failed query is infinitely late.
    sorted_ms: Vec<f64>,
}

impl Phase {
    /// One phase holding every record of `parts`.
    fn pooled(parts: Vec<Phase>) -> Phase {
        let mut records = Vec::new();
        let mut sorted_ms = Vec::new();
        for p in parts {
            records.extend(p.records);
            sorted_ms.extend(p.sorted_ms);
        }
        sorted_ms.sort_by(f64::total_cmp);
        Phase { records, sorted_ms }
    }

    fn p(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted_ms, q)
    }

    /// The rate is sustained when p99 meets the limit and the last tenth
    /// of the phase is not slower than the limit (no growing backlog).
    fn sustained(&self) -> bool {
        let tail = &self.records[self.records.len() * 9 / 10..];
        let mut late: Vec<f64> = tail
            .iter()
            .map(|r| r.latency().as_secs_f64() * 1e3)
            .collect();
        late.sort_by(f64::total_cmp);
        self.p(99.0) <= LIMIT_MS && percentile_sorted(&late, 50.0) <= LIMIT_MS
    }
}

fn play(ctx: &Ctx, target: &ServerTarget<'_>, name: &str, plan: &[Planned]) -> Phase {
    let _phase = ctx.tracer.span(crate::trace::IDLE, name);
    let records = openloop::run(target, plan, Instant::now());
    phase_of(ctx, records)
}

/// A saturating burst: every query of `plan` submitted at once, then
/// the answers taken in order with blocking waits, so that the
/// generator holds no core while the server drains the backlog (a
/// polling collector would take up to a quarter of one from the two
/// workers). An answer is stamped when its wait returns, which is late
/// for one that finished before an older one; the last stamp, and so
/// the drain time, is not, since the walk ends as the last answer does.
fn burst(ctx: &Ctx, server: &Server, name: &str, plan: &[Planned]) -> Phase {
    let _phase = ctx.tracer.span(crate::trace::IDLE, name);
    let start = Instant::now();
    let tickets: Vec<_> = plan
        .iter()
        .map(|p| {
            (
                Instant::now(),
                server.submit_with_deadline(p.query, DEADLINE),
            )
        })
        .collect();
    let records = plan
        .iter()
        .zip(tickets)
        .map(|(p, (sent, ticket))| {
            let outcome = ticket.and_then(Ticket::wait);
            Record {
                query: p.query,
                due: start + p.due,
                sent,
                done: Instant::now(),
                outcome,
            }
        })
        .collect();
    phase_of(ctx, records)
}

/// A phase's records, sorted latencies and, when traced, one span per
/// query under the phase's span (open on the calling thread).
fn phase_of(ctx: &Ctx, records: Vec<Record>) -> Phase {
    let t = &ctx.tracer;
    let parent = t.current();
    if t.enabled() {
        for r in &records {
            t.record(parent, "smda-serve", r.query.kind().name(), r.sent, r.done);
        }
    }
    let mut sorted_ms: Vec<f64> = records
        .iter()
        .map(|r| match r.outcome {
            Ok(_) => r.latency().as_secs_f64() * 1e3,
            Err(_) => f64::INFINITY,
        })
        .collect();
    sorted_ms.sort_by(f64::total_cmp);
    Phase { records, sorted_ms }
}

fn ingest(
    ctx: &Ctx,
    y: &Year,
    detectors: &Arc<std::collections::HashMap<smda_types::ConsumerId, smda_core::AnomalyDetector>>,
    handle: &Arc<SnapshotHandle>,
    metrics: MetricsSink,
) -> (smda_types::Result<IngestOutcome>, Duration, Instant) {
    let cfg = IngestConfig::new()
        .with_shards(SHARDS)
        .with_detectors(detectors.clone())
        .with_publish(handle.clone())
        .with_metrics(metrics);
    // Stamped when the router pulls the last reading: the rest of the
    // pipeline's time is draining, sealing and publishing.
    let routed_ns = AtomicU64::new(0);
    let origin = Instant::now();
    let last = y.events.len();
    let events = y.events.iter().copied().enumerate().map(|(i, r)| {
        if i + 1 == last {
            routed_ns.store(origin.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        r
    });
    let _s = ctx.tracer.span("smda-ingest", "run_pipeline");
    let out = run_pipeline(events, &cfg);
    let took = origin.elapsed();
    (
        out,
        took,
        origin + Duration::from_nanos(routed_ns.load(Ordering::Relaxed)),
    )
}

fn sealed_matches(ctx: &Ctx, what: &str, out: &IngestOutcome, ds: &Dataset) {
    let got = out.snapshot.dataset();
    let same = got.len() == ds.len()
        && got.consumers().iter().zip(ds.consumers()).all(|(a, b)| {
            a.id == b.id
                && a.readings().len() == b.readings().len()
                && a.readings()
                    .iter()
                    .zip(b.readings())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        });
    ctx.checks.record(
        what,
        same.then_some(())
            .ok_or("sealed snapshot differs from the generated year".into()),
    );
}

pub fn run(ctx: &Ctx) -> Outcome {
    let t = &ctx.tracer;
    let mut setups = Vec::new();
    let mut years = None;
    for _ in 0..SETUPS {
        drop(years.take());
        let start = Instant::now();
        let _s = t.span("smda-core", "generate_seed + replay_events");
        let a = year(ctx.seed);
        let b = year(ctx.seed.wrapping_add(1));
        let detectors = Arc::new(fit_detectors(&a.ds));
        setups.push(start.elapsed().as_secs_f64());
        years = Some((a, b, detectors));
    }
    let (a, b, detectors) = years.expect("at least one set-up");
    let readings = a.events.len() as f64;
    let mut out = Outcome {
        setup_s: median(&setups),
        ..Outcome::default()
    };

    let handle = Arc::new(SnapshotHandle::new());
    let ingest_sink = ctx.sink();
    let (first, first_took, routed_at) = ingest(ctx, &a, &detectors, &handle, ingest_sink.clone());
    let visible_at = Instant::now();
    let first = match first {
        Ok(o) => o,
        Err(e) => {
            ctx.checks.record("first ingest", Err(e.to_string()));
            return out;
        }
    };
    sealed_matches(ctx, "sealed year A == generated", &first, &a.ds);
    // The quiet ingest is timed again in every interlude, into a handle
    // no server reads, so that a slow spell of the host moves some of
    // the samples rather than all of them.
    let mut ingest_s = vec![first_took.as_secs_f64()];
    let private = Arc::new(SnapshotHandle::new());
    let quiet_ingest = || {
        let (r, took, _) = ingest(ctx, &a, &detectors, &private, MetricsSink::disabled());
        let ok = r.map(|_| ()).map_err(|e| e.to_string());
        ctx.checks.record("quiet ingest", ok);
        took.as_secs_f64()
    };

    let serve_sink = ctx.sink();
    let server = Server::start(
        handle.clone(),
        ServeConfig {
            queue_depth: 1 << 20,
            workers: WORKERS,
            default_deadline: DEADLINE,
            cache_capacity: CACHE_CAPACITY,
            metrics: serve_sink.clone(),
        },
    );
    let target = ServerTarget {
        server: &server,
        depths: Mutex::new(Vec::new()),
    };
    let ids: Vec<_> = a.ds.consumers().iter().map(|c| c.id).collect();
    let pop = Population::new(&ids, ctx.seed);
    let predicted_hit_ratio = warm_cache(ctx, &target, &pop);
    // Counters are read per phase; the warm-up's are discarded.
    let _ = serve_sink.finish(RunManifest::new("warm-up", "serve"));

    // The nominal slices, service-time chunks, bursts and quiet ingests
    // are spread over the run in interludes, so that a slow spell of
    // the host moves some of them and not the median.
    let live = handle.pin().expect("the first ingest published");
    let mut slices = Vec::new();
    let mut service: Vec<Vec<f64>> = vec![Vec::new(); QueryKind::ALL.len()];
    let mut depths = Vec::new();
    let mut nominal_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut bursts = Vec::new();
    let mut drain_s = Vec::new();
    let sample_per_interlude =
        (ids.len() as f64 * (ctx.seconds / FULL_SAMPLE_SECONDS).min(1.0)).ceil() as usize;
    let mut interlude = |i: usize| {
        let plan = openloop::schedule(
            ctx.seed ^ (0x40 + i as u64),
            NOMINAL_QPS,
            Duration::from_secs_f64(SLICE_SHARE * ctx.seconds),
            &pop,
        );
        let _ = serve_sink.finish(RunManifest::new("between", "serve"));
        target
            .depths
            .lock()
            .expect("depth samples poisoned")
            .clear();
        slices.push(play(ctx, &target, &format!("nominal-{i}"), &plan));
        depths.append(&mut target.depths.lock().expect("depth samples poisoned"));
        for (name, v) in serve_sink
            .finish(RunManifest::new("nominal", "serve"))
            .counters
        {
            *nominal_counts.entry(name).or_default() += v;
        }
        // (consumer, whether to time top-k for it)
        let chunk: Vec<(ConsumerId, bool)> = (0..ids.len())
            .map(|k| (k + i * ids.len() / INTERLUDES) % ids.len())
            .take(sample_per_interlude)
            .map(|at| (ids[at], at % INTERLUDES == i))
            .collect();
        // The chunk is timed in parts between the interlude's other
        // steps, so its samples spread over the interlude.
        let steps = BURSTS + QUIET_INGESTS + 1;
        let mut parts = chunk.chunks(chunk.len().div_ceil(steps).max(1));
        service_times(ctx, &live, parts.next().unwrap_or_default(), &mut service);
        for b in 0..BURSTS {
            let n = i * BURSTS + b;
            let plan = openloop::burst(ctx.seed + n as u64, BURST, &pop);
            let start = Instant::now();
            let burst = burst(ctx, target.server, &format!("burst-{n}"), &plan);
            let last = burst.records.iter().map(|r| r.done).max().unwrap_or(start);
            drain_s.push(last.saturating_duration_since(start).as_secs_f64());
            bursts.push(burst);
            service_times(ctx, &live, parts.next().unwrap_or_default(), &mut service);
        }
        for _ in 0..QUIET_INGESTS {
            ingest_s.push(quiet_ingest());
            service_times(ctx, &live, parts.next().unwrap_or_default(), &mut service);
        }
    };
    interlude(0);

    let mut rungs = Vec::new();
    for (i, rate) in RATES.iter().enumerate() {
        let r = *rate as f64;
        let plan = openloop::schedule(
            ctx.seed + i as u64,
            r,
            Duration::from_secs_f64((RUNG_QUERIES / r).max(RUNG_MIN_S)),
            &pop,
        );
        rungs.push(play(ctx, &target, &format!("rate-{rate}"), &plan));
    }
    for i in 1..INTERLUDES {
        interlude(i);
    }

    let burst = Phase::pooled(bursts);
    let drained = median(&drain_s);
    let ingest_took = median(&ingest_s);
    let capacity = BURST as f64 / lower_quartile(&drain_s);
    let slice_p = |q: f64| median(&slices.iter().map(|s| s.p(q)).collect::<Vec<_>>());
    let (nominal_p50, nominal_p99) = (slice_p(50.0), slice_p(99.0));
    let nominal = Phase::pooled(slices);
    let service: Vec<(QueryKind, f64, f64)> = QueryKind::ALL
        .iter()
        .zip(service)
        .map(|(kind, mut ms)| {
            ms.sort_by(f64::total_cmp);
            (
                *kind,
                percentile_sorted(&ms, 50.0),
                percentile_sorted(&ms, 10.0),
            )
        })
        .collect();

    // Re-ingest under load: the second year is published mid-phase.
    let reingest_plan = openloop::schedule(
        ctx.seed ^ 0x80,
        NOMINAL_QPS,
        Duration::from_secs_f64(ingest_took * 1.3),
        &pop,
    );
    let (second, reingest) = std::thread::scope(|scope| {
        let parent = t.current();
        let (b, detectors, handle) = (&b, &detectors, &handle);
        let writer = scope.spawn(move || {
            let _adopted = t.adopt(parent);
            ingest(ctx, b, detectors, handle, MetricsSink::disabled()).0
        });
        let phase = play(ctx, &target, "re-ingest", &reingest_plan);
        (writer.join().expect("re-ingest thread panicked"), phase)
    });
    match &second {
        Ok(o) => sealed_matches(ctx, "sealed year B == generated", o, &b.ds),
        Err(e) => ctx.checks.record("second ingest", Err(e.to_string())),
    }
    let reingest_counters = serve_sink.finish(RunManifest::new("re-ingest", "serve"));

    out.peak_rss_mib = crate::peak_rss_mib();
    // Every phase's queries must be answered; those served off year A
    // must equal the batch answer bit for bit.
    {
        let _s = t.span("smda-core", "run_reference");
        let batch: Vec<TaskOutput> = [
            Task::Similarity,
            Task::Histogram,
            Task::ThreeLine,
            Task::Par,
        ]
        .iter()
        .map(|task| run_reference(*task, &a.ds))
        .collect();
        for phase in rungs.iter().chain([&nominal, &burst]) {
            for r in &phase.records {
                ctx.checks
                    .record("served == batch", check_answer(r, &batch, &first.alerts));
            }
        }
        for r in &reingest.records {
            let ok = r.outcome.as_ref().map(|_| ()).map_err(|e| e.to_string());
            ctx.checks.record("answered during re-ingest", ok);
        }
    }

    let max_qps = RATES
        .iter()
        .zip(&rungs)
        .filter(|(_, p)| p.sustained())
        .map(|(r, _)| *r as f64)
        .fold(0.0, f64::max);
    // The bounded fast and slow paths are miss-path service times, of
    // the fitted answers (3-line, PAR) and of top-k. The open-loop p50
    // (about 0.2 ms) is mostly thread wake-ups and the p99 doubles in a
    // busy spell of a shared host: between two sets of runs of the same
    // code the p50's spread went from 13 % to 34 % of its median, too
    // far to bound. A service time is taken on one thread, and in a
    // busy spell of the host it grows by up to 1.8x for seconds at a
    // time, so the bounded figure is the 10th percentile of samples
    // spread over the run: the time outside those spells.
    // Histogram and anomaly answers are lookups of a few microseconds,
    // timer noise.
    let service_of = |kind: QueryKind| {
        service
            .iter()
            .find(|(k, ..)| *k == kind)
            .expect("every kind is sampled")
    };
    let fit_p10: Vec<f64> = FIT_KINDS.iter().map(|k| service_of(*k).2).collect();
    out.load_per_s = readings / lower_quartile(&ingest_s);
    out.work_per_s = capacity;
    out.fast_path_ms = geomean(&fit_p10);
    out.slow_path_ms = service_of(QueryKind::TopKSimilar).2;
    out.busy_s = vec![ingest_took + drained];
    out.named = vec![
        ("ingest_readings_per_s".into(), out.load_per_s, "1/s"),
        ("serve_p50_ms".into(), nominal_p50, "ms"),
        ("serve_p99_ms".into(), nominal_p99, "ms"),
        ("serve_max_qps".into(), max_qps, "1/s"),
        ("serve_p99_reingest_ms".into(), reingest.p(99.0), "ms"),
        ("serve_capacity_qps".into(), capacity, "1/s"),
        ("fit_service_p10_ms".into(), out.fast_path_ms, "ms"),
        ("top_k_service_p10_ms".into(), out.slow_path_ms, "ms"),
        (
            "cache_predicted_hit_ratio".into(),
            predicted_hit_ratio,
            "ratio",
        ),
        (
            "nominal_queries".into(),
            nominal.records.len() as f64,
            "count",
        ),
    ];
    for (rate, p) in RATES.iter().zip(&rungs) {
        out.named
            .push((format!("rate-{rate}.p99_ms"), p.p(99.0), "ms"));
    }
    for (kind, p50, _) in &service {
        out.named
            .push((format!("{}.service_ms", kind.name()), *p50, "ms"));
    }

    if ctx.traced() {
        let l = &mut out.layer;
        let report = ingest_sink.finish(RunManifest::new("ingest", "pipeline"));
        l.insert("ingest.pipeline_s".into(), ingest_took);
        l.insert(
            "ingest.backpressure_stalls".into(),
            first.report.backpressure_stalls as f64,
        );
        l.insert(
            "ingest.watermark_lag_hours".into(),
            first.report.watermark_lag_hours as f64,
        );
        l.insert(
            "ingest.readings_late".into(),
            report
                .counter(counters::INGEST_READINGS_LATE)
                .unwrap_or(first.report.readings_late) as f64,
        );
        l.insert(
            "ingest.publish_visible_ms".into(),
            visible_at
                .saturating_duration_since(routed_at)
                .as_secs_f64()
                * 1e3,
        );
        let nominal_count = |name: &str| nominal_counts.get(name).copied().unwrap_or(0);
        let admitted = nominal_count(counters::SERVE_ADMITTED);
        let hits = nominal_count(counters::SERVE_CACHE_HITS);
        l.insert(
            "serve.cache_hit_ratio".into(),
            hits as f64 / admitted.max(1) as f64,
        );
        let sum = |name: &str| {
            (nominal_count(name) + reingest_counters.counter(name).unwrap_or(0)) as f64
        };
        l.insert(
            "serve.cache_invalidations".into(),
            sum(counters::SERVE_CACHE_INVALIDATIONS),
        );
        l.insert(
            "serve.rejected_overload".into(),
            sum(counters::SERVE_REJECTED_OVERLOAD),
        );
        l.insert(
            "serve.deadline_misses".into(),
            sum(counters::SERVE_DEADLINE_MISSES),
        );
        let mut d = depths;
        d.sort_by(f64::total_cmp);
        l.insert("serve.queue_depth_p99".into(), percentile_sorted(&d, 99.0));
        let mut lags: Vec<f64> = nominal
            .records
            .iter()
            .map(|r| r.lag().as_secs_f64() * 1e3)
            .collect();
        lags.sort_by(f64::total_cmp);
        l.insert(
            "serve.generator_lag_p99_ms".into(),
            percentile_sorted(&lags, 99.0),
        );
        l.insert("serve.max_qps".into(), max_qps);
        l.insert("serve.p50_ms".into(), nominal_p50);
        l.insert("serve.p99_ms".into(), nominal_p99);
        l.insert("serve.p99_reingest_ms".into(), reingest.p(99.0));
        for (rate, p) in RATES.iter().zip(&rungs) {
            l.insert(format!("serve.rate-{rate}.p50_ms"), p.p(50.0));
            l.insert(format!("serve.rate-{rate}.p99_ms"), p.p(99.0));
        }
        for (kind, p50, _) in &service {
            l.insert(format!("serve.{}.service_ms", kind.name()), *p50);
        }
    }
    drop(server);
    out
}

/// Miss-path service time of each query kind, appended to `out` in
/// `QueryKind::ALL` order: `execute` on the pinned snapshot, outside
/// the server, on this thread, in ms; top-k only for the consumers
/// marked for it, every other kind for each consumer. The kinds take
/// turns consumer by consumer, so each kind's samples spread over the
/// whole part rather than one short stretch of it.
fn service_times(
    ctx: &Ctx,
    live: &LiveSnapshot,
    part: &[(ConsumerId, bool)],
    out: &mut [Vec<f64>],
) {
    let _s = ctx.tracer.span("smda-serve", "execute (miss path)");
    for (id, with_top_k) in part {
        for (kind, samples) in QueryKind::ALL.iter().zip(out.iter_mut()) {
            if *kind == QueryKind::TopKSimilar && !with_top_k {
                continue;
            }
            let q = openloop::query_of(*kind, *id);
            let start = Instant::now();
            let r = smda_serve::execute(live, &q);
            samples.push(start.elapsed().as_secs_f64() * 1e3);
            ctx.checks
                .record("execute", r.map(|_| ()).map_err(|e| e.to_string()));
        }
    }
}

/// Fill the cache with its capacity's worth of the most popular
/// (kind, consumer) keys: every kind of the consumers in Zipf rank
/// order, the kinds being equally likely. Returns the share of the
/// traffic those keys draw, the hit ratio the model predicts.
fn warm_cache(ctx: &Ctx, target: &ServerTarget<'_>, pop: &Population) -> f64 {
    let kinds = QueryKind::ALL.len();
    let predicted: f64 = (0..CACHE_CAPACITY.min(kinds * pop.by_rank().len()))
        .map(|key| pop.prob(key / kinds) / kinds as f64)
        .sum();
    let plan: Vec<Planned> = pop
        .by_rank()
        .iter()
        .flat_map(|id| QueryKind::ALL.map(|kind| openloop::query_of(kind, *id)))
        .take(CACHE_CAPACITY)
        .map(|query| Planned {
            due: Duration::ZERO,
            query,
        })
        .collect();
    let warm = play(ctx, target, "warm-up", &plan);
    for r in &warm.records {
        ctx.checks.record(
            "warm-up answered",
            r.outcome.as_ref().map(|_| ()).map_err(|e| e.to_string()),
        );
    }
    predicted
}

fn check_answer(r: &Record, batch: &[TaskOutput], alerts: &[Alert]) -> Result<(), String> {
    let served = r.outcome.as_ref().map_err(|e| e.to_string())?;
    let want = match r.query.kind() {
        QueryKind::TopKSimilar => lookup(&batch[0], &r.query),
        QueryKind::Histogram => lookup(&batch[1], &r.query),
        QueryKind::ThreeLineFeatures => lookup(&batch[2], &r.query),
        QueryKind::ParCoefficients => lookup(&batch[3], &r.query),
        QueryKind::AnomalyStatus => Some(anomaly_result(r.query.consumer(), alerts)),
    }
    .ok_or_else(|| format!("no batch answer for `{}`", r.query))?;
    if served.bits_eq(&want) {
        Ok(())
    } else {
        Err(format!("`{}` differs from the batch answer", r.query))
    }
}
