//! Open-loop load generator.
//!
//! Independent users do not wait for each other, so the generator sends
//! on a schedule regardless of how fast answers come back: one submit
//! thread sends each query at its due time, one collect thread waits
//! for the answers. Latency is measured from the *due* time, so a stall
//! in the system (or in the generator) is charged to every query that
//! was due while it lasted, and how late the generator itself ran is
//! reported separately as lag. A closed loop would instead slow its
//! sending down and hide the queueing (coordinated omission).
//!
//! The schedule is a pure function of (seed, rate, duration) over a
//! fixed consumer population: Poisson arrivals, all five query kinds
//! with equal weight, and Zipf-skewed consumers.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smda_serve::ServeError;
use smda_types::{ConsumerId, Query, QueryKind, QueryResult};

/// Neighbours asked for by every top-k query.
const TOP_K: usize = 10;

/// Zipf exponent of the consumer popularity. An assumption: no
/// measured query log fixes it, and `s = 1` is Zipf's law in its plain
/// form. The kinds need no weights: like the repository's own serving
/// sweep (`query_mix` in the bench crate), every kind is equally likely.
const ZIPF_S: f64 = 1.0;

/// SplitMix64 step: the generator's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The popularity model: consumers ranked by a seeded permutation, rank
/// `r` (1-based) drawn with probability proportional to `r^-s`.
pub struct Population {
    by_rank: Vec<ConsumerId>,
    cdf: Vec<f64>,
}

impl Population {
    pub fn new(consumers: &[ConsumerId], seed: u64) -> Population {
        let mut by_rank = consumers.to_vec();
        let mut rng = Rng::new(seed ^ 0x005e_ed0f_2a11);
        for i in (1..by_rank.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            by_rank.swap(i, j);
        }
        let mut cdf = Vec::with_capacity(by_rank.len());
        let mut acc = 0.0;
        for r in 1..=by_rank.len() {
            acc += (r as f64).powf(-ZIPF_S);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Population { by_rank, cdf }
    }

    /// Probability of the consumer at rank index `i` (0-based).
    pub fn prob(&self, i: usize) -> f64 {
        self.cdf[i] - if i == 0 { 0.0 } else { self.cdf[i - 1] }
    }

    pub fn by_rank(&self) -> &[ConsumerId] {
        &self.by_rank
    }

    fn draw(&self, rng: &mut Rng) -> ConsumerId {
        let u = rng.unit();
        let i = self.cdf.partition_point(|&c| c < u);
        self.by_rank[i.min(self.by_rank.len() - 1)]
    }
}

/// Build a query of `kind` for `consumer`.
pub fn query_of(kind: QueryKind, consumer: ConsumerId) -> Query {
    match kind {
        QueryKind::TopKSimilar => Query::TopKSimilar { consumer, k: TOP_K },
        QueryKind::Histogram => Query::Histogram { consumer },
        QueryKind::ThreeLineFeatures => Query::ThreeLineFeatures { consumer },
        QueryKind::ParCoefficients => Query::ParCoefficients { consumer },
        QueryKind::AnomalyStatus => Query::AnomalyStatus { consumer },
    }
}

/// One planned send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// When the query is due, from the start of the phase.
    pub due: Duration,
    pub query: Query,
}

/// The send schedule: Poisson arrivals at `rate` per second for
/// `duration`, kinds drawn uniformly, consumers from `pop`.
pub fn schedule(seed: u64, rate: f64, duration: Duration, pop: &Population) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ rate.to_bits() ^ (duration.as_nanos() as u64).rotate_left(17));
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= duration.as_secs_f64() {
            return out;
        }
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            query: draw_query(&mut rng, pop),
        });
    }
}

/// `count` queries from the same mix, all due at time zero: the
/// saturating step that measures how fast the server drains a backlog.
pub fn burst(seed: u64, count: usize, pop: &Population) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ 0xb0b5_7000 ^ count as u64);
    (0..count)
        .map(|_| Planned {
            due: Duration::ZERO,
            query: draw_query(&mut rng, pop),
        })
        .collect()
}

fn draw_query(rng: &mut Rng, pop: &Population) -> Query {
    let kind = QueryKind::ALL[(rng.next_u64() % QueryKind::ALL.len() as u64) as usize];
    query_of(kind, pop.draw(rng))
}

/// What happened to one planned query.
pub struct Record {
    pub query: Query,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub outcome: Result<Arc<QueryResult>, ServeError>,
}

impl Record {
    /// Latency from the intended send time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// A system under load: `submit` admits a query and returns something
/// to poll, and `poll` takes its answer without blocking once there is
/// one.
pub trait Target: Sync {
    type Pending: Send;
    fn submit(&self, query: Query) -> Result<Self::Pending, ServeError>;
    fn poll(&self, pending: &Self::Pending) -> Option<Result<Arc<QueryResult>, ServeError>>;
}

/// A resolved query: plan index, sent, answered, outcome.
type Done = (
    usize,
    Instant,
    Instant,
    Result<Arc<QueryResult>, ServeError>,
);

/// Shortest pause between two polling passes of the collector.
const NAP: Duration = Duration::from_micros(20);
/// The pause after a pass is at least this many times the pass's own
/// length, so a large backlog costs the collector at most a quarter of
/// one core, taken from the system it measures.
const NAP_PER_PASS: u32 = 3;

/// Play `plan` against `target` from `start`: the calling thread
/// becomes the submit thread and one collect thread gathers answers.
/// Returns one record per planned query, in plan order.
///
/// The collector polls every outstanding query on each pass and stamps
/// each answer on the pass that finds it, so an answer that overtakes
/// an older, slower one is stamped when it arrives, not when the older
/// one does. A stamp is late by at most one pass and one pause.
pub fn run<T: Target>(target: &T, plan: &[Planned], start: Instant) -> Vec<Record> {
    type Sent<P> = (usize, Instant, Result<P, ServeError>);
    let (tx, rx) = mpsc::channel::<Sent<T::Pending>>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done: Vec<Done> = Vec::with_capacity(plan.len());
            let mut outstanding: Vec<(usize, Instant, T::Pending)> = Vec::new();
            let mut open = true;
            while open || !outstanding.is_empty() {
                if outstanding.is_empty() {
                    match rx.recv() {
                        Ok(item) => push(&mut outstanding, &mut done, item),
                        Err(_) => open = false,
                    }
                    continue;
                }
                loop {
                    match rx.try_recv() {
                        Ok(item) => push(&mut outstanding, &mut done, item),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                let pass = Instant::now();
                outstanding.retain(|(i, sent, p)| match target.poll(p) {
                    Some(outcome) => {
                        done.push((*i, *sent, Instant::now(), outcome));
                        false
                    }
                    None => true,
                });
                if !outstanding.is_empty() {
                    std::thread::sleep((pass.elapsed() * NAP_PER_PASS).max(NAP));
                }
            }
            done
        });

        for (i, p) in plan.iter().enumerate() {
            let due = start + p.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let pending = target.submit(p.query);
            if tx.send((i, sent, pending)).is_err() {
                break;
            }
        }
        drop(tx);
        let mut done = collector.join().expect("collector thread panicked");
        done.sort_by_key(|d| d.0);
        done.into_iter()
            .map(|(i, sent, at, outcome)| Record {
                query: plan[i].query,
                due: start + plan[i].due,
                sent,
                done: at,
                outcome,
            })
            .collect()
    })
}

fn push<P>(
    outstanding: &mut Vec<(usize, Instant, P)>,
    done: &mut Vec<Done>,
    (i, sent, pending): (usize, Instant, Result<P, ServeError>),
) {
    match pending {
        Ok(p) => outstanding.push((i, sent, p)),
        // Refused at admission: resolved the moment it was sent.
        Err(e) => done.push((i, sent, sent, Err(e))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn population() -> Population {
        let ids: Vec<ConsumerId> = (0..50).map(ConsumerId).collect();
        Population::new(&ids, 3)
    }

    /// A target that answers immediately, except that the `stall_at`-th
    /// submit blocks the submit thread for `stall`.
    struct Stub {
        calls: AtomicUsize,
        stall_at: usize,
        stall: Duration,
        sent: Mutex<Vec<Query>>,
    }

    impl Target for Stub {
        type Pending = Query;
        fn submit(&self, query: Query) -> Result<Query, ServeError> {
            if self.calls.fetch_add(1, Ordering::Relaxed) == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.sent.lock().unwrap().push(query);
            Ok(query)
        }
        fn poll(&self, q: &Query) -> Option<Result<Arc<QueryResult>, ServeError>> {
            Some(Err(ServeError::UnknownConsumer(q.consumer())))
        }
    }

    fn stub(stall_at: usize, stall: Duration) -> Stub {
        Stub {
            calls: AtomicUsize::new(0),
            stall_at,
            stall,
            sent: Mutex::new(Vec::new()),
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_rate_and_duration() {
        let pop = population();
        let a = schedule(7, 500.0, Duration::from_millis(400), &pop);
        let b = schedule(7, 500.0, Duration::from_millis(400), &pop);
        assert_eq!(a, b);
        assert!(a.len() > 100, "{}", a.len());
        assert_ne!(a, schedule(8, 500.0, Duration::from_millis(400), &pop));
        assert_ne!(a, schedule(7, 400.0, Duration::from_millis(400), &pop));
        // Every kind appears and dues ascend.
        for kind in QueryKind::ALL {
            assert!(a.iter().any(|p| p.query.kind() == kind), "{kind:?}");
        }
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn two_runs_with_one_seed_send_the_same_query_sequence() {
        let pop = population();
        let plan = schedule(11, 2000.0, Duration::from_millis(100), &pop);
        let sent: Vec<Vec<Query>> = (0..2)
            .map(|_| {
                let target = stub(usize::MAX, Duration::ZERO);
                run(&target, &plan, Instant::now());
                target.sent.into_inner().unwrap()
            })
            .collect();
        assert_eq!(sent[0], sent[1]);
        assert_eq!(sent[0], plan.iter().map(|p| p.query).collect::<Vec<_>>());
    }

    #[test]
    fn a_stall_is_charged_to_every_query_due_during_it() {
        let pop = population();
        let plan = schedule(5, 1000.0, Duration::from_millis(600), &pop);
        let stall = Duration::from_millis(200);
        let stall_at = plan
            .iter()
            .position(|p| p.due >= Duration::from_millis(200))
            .expect("queries due after 200 ms");
        let target = stub(stall_at, stall);
        let start = Instant::now();
        let records = run(&target, &plan, start);
        assert_eq!(records.len(), plan.len());
        let stall_began = records[stall_at].sent;
        let stall_ended = stall_began + stall;
        let mut charged = 0;
        for r in &records[stall_at + 1..] {
            if r.due >= stall_ended {
                break;
            }
            // Measured from the due time, the query carries the rest of
            // the stall; measured from the send time it would not.
            let owed = stall_ended.saturating_duration_since(r.due);
            assert!(r.latency() >= owed, "{:?} < {:?}", r.latency(), owed);
            assert!(r.lag() >= owed);
            charged += 1;
        }
        assert!(charged > 100, "{charged} queries fell in the stall");
    }

    /// A target whose first query takes `slow` to answer and every
    /// other query none.
    struct SlowFirst {
        calls: AtomicUsize,
        slow: Duration,
    }

    impl Target for SlowFirst {
        type Pending = (Query, Instant);
        fn submit(&self, query: Query) -> Result<(Query, Instant), ServeError> {
            let first = self.calls.fetch_add(1, Ordering::Relaxed) == 0;
            let ready = Instant::now() + if first { self.slow } else { Duration::ZERO };
            Ok((query, ready))
        }
        fn poll(
            &self,
            (q, ready): &(Query, Instant),
        ) -> Option<Result<Arc<QueryResult>, ServeError>> {
            (Instant::now() >= *ready).then(|| Err(ServeError::UnknownConsumer(q.consumer())))
        }
    }

    #[test]
    fn answers_that_overtake_a_slow_query_are_stamped_when_they_arrive() {
        let pop = population();
        let plan = schedule(9, 1000.0, Duration::from_millis(400), &pop);
        let slow = Duration::from_millis(200);
        let target = SlowFirst {
            calls: AtomicUsize::new(0),
            slow,
        };
        let records = run(&target, &plan, Instant::now());
        assert!(records[0].latency() >= slow);
        let overtaking: Vec<&Record> = records[1..]
            .iter()
            .filter(|r| r.due < records[0].done)
            .collect();
        assert!(overtaking.len() > 100, "{} overtook", overtaking.len());
        // Stamped on arrival, each is far quicker than the slow query;
        // stamped when the slow one resolved, most would carry its wait.
        for r in overtaking {
            assert!(
                r.latency() < Duration::from_millis(50),
                "{:?} for a query answered at once",
                r.latency()
            );
        }
    }
}
