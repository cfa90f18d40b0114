//! The benchmark's own span recorder.
//!
//! Spans are recorded only from the benchmark's files, around each call
//! into a layer's public API; nothing inside the program is changed. A
//! span carries a name, a layer, start and end (nanoseconds since the
//! run began), its parent span and the run id. Spans stay in memory and
//! are written out as JSON lines when the run ends.
//!
//! Self time per layer comes from a sweep over the whole run: every
//! instant of wall time is given to the deepest span open at that
//! instant (the most recently started one on a tie, which only happens
//! between threads). Instants covered only by the benchmark's own
//! structural spans (layer [`BENCH`]) are the unattributed remainder,
//! and instants where the open-loop generator sleeps with no request in
//! flight are [`IDLE`]. Layer self times, idle and unattributed
//! therefore sum to the run's wall time exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Layer name of the benchmark's structural spans (workload, phase,
/// round). Time they cover and no layer span does is unattributed.
pub const BENCH: &str = "bench";
/// Layer name of the open-loop generator's sleeps between sends.
pub const IDLE: &str = "idle";

/// One recorded interval.
struct Span {
    id: u32,
    parent: Option<u32>,
    layer: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder; a disabled tracer records nothing and costs a branch.
pub struct Tracer {
    run_id: u64,
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, parent: Option<u32>, layer: &'static str, name: &str, start: Instant) -> u32 {
        let spans = self.spans.as_ref().expect("push on an enabled tracer");
        let mut spans = spans.lock().expect("span list poisoned");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            layer,
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: u64::MAX,
        });
        id
    }

    fn close(&self, id: u32, end: Instant) {
        let end = self.ns(end);
        if let Some(spans) = &self.spans {
            spans.lock().expect("span list poisoned")[id as usize].end_ns = end;
        }
    }

    /// Open a span under whatever span this thread has open; it closes
    /// when the guard drops.
    pub fn span(&self, layer: &'static str, name: &str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let id = self.push(parent, layer, name, Instant::now());
        OPEN.with(|o| o.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            id: Some(id),
        }
    }

    /// The span this thread has open, to parent spans recorded on other
    /// threads.
    pub fn current(&self) -> Option<u32> {
        if !self.enabled() {
            return None;
        }
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Nest the spans this thread opens next under `parent`, a span of
    /// another thread, until the guard drops.
    pub fn adopt(&self, parent: Option<u32>) -> Adopted {
        if let Some(p) = parent {
            OPEN.with(|o| o.borrow_mut().push(p));
        }
        Adopted { parent }
    }

    /// Record a finished interval measured elsewhere (another thread, or
    /// a request's submit-to-answer time) under `parent`.
    pub fn record(
        &self,
        parent: Option<u32>,
        layer: &'static str,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled() {
            let id = self.push(parent, layer, name, start);
            self.close(id, end);
        }
    }

    /// Self time per layer over the whole run, seconds, plus the wall
    /// time the spans cover. See the module docs for the rule.
    pub fn attribute(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let Some(spans) = &self.spans else {
            return (BTreeMap::new(), 0.0);
        };
        let spans = spans.lock().expect("span list poisoned");
        let depth: Vec<u32> = {
            let mut d = vec![0u32; spans.len()];
            for s in spans.iter() {
                // Parents are always recorded before their children.
                d[s.id as usize] = s.parent.map_or(0, |p| d[p as usize] + 1);
            }
            d
        };
        let mut events: Vec<(u64, bool, u32)> = Vec::with_capacity(spans.len() * 2);
        for s in spans.iter().filter(|s| s.end_ns != u64::MAX) {
            events.push((s.start_ns, true, s.id));
            events.push((s.end_ns, false, s.id));
        }
        events.sort_unstable();
        let mut active: Vec<u32> = Vec::new();
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut first, mut last) = (u64::MAX, 0u64);
        let mut prev = 0u64;
        for (t, open, id) in events {
            if let Some(&owner) = active.iter().max_by_key(|&&a| {
                let s = &spans[a as usize];
                (depth[a as usize], s.start_ns, a)
            }) {
                *out.entry(spans[owner as usize].layer).or_default() += (t - prev) as f64 * 1e-9;
            }
            if open {
                active.push(id);
                first = first.min(t);
            } else {
                active.retain(|&a| a != id);
                last = last.max(t);
            }
            prev = t;
        }
        let wall = if last > first {
            (last - first) as f64 * 1e-9
        } else {
            0.0
        };
        (out, wall)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        let spans = spans.lock().expect("span list poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id,
                s.id,
                parent,
                s.layer,
                s.name.replace('"', "'"),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Undoes [`Tracer::adopt`] on drop.
pub struct Adopted {
    parent: Option<u32>,
}

impl Drop for Adopted {
    fn drop(&mut self) {
        if let Some(p) = self.parent {
            OPEN.with(|o| {
                let mut o = o.borrow_mut();
                if let Some(pos) = o.iter().rposition(|&x| x == p) {
                    o.remove(pos);
                }
            });
        }
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<u32>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.tracer.close(id, Instant::now());
            OPEN.with(|o| {
                let mut o = o.borrow_mut();
                if let Some(pos) = o.iter().rposition(|&x| x == id) {
                    o.remove(pos);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_and_remainder_sum_to_wall() {
        let t = Tracer::new(true, 1);
        {
            let _root = t.span(BENCH, "root");
            std::thread::sleep(Duration::from_millis(4));
            {
                let _a = t.span("layer-a", "a");
                std::thread::sleep(Duration::from_millis(6));
                let _b = t.span("layer-b", "b");
                std::thread::sleep(Duration::from_millis(3));
            }
            let parent = t.current();
            let s = Instant::now();
            std::thread::sleep(Duration::from_millis(2));
            t.record(parent, IDLE, "sleep", s, Instant::now());
        }
        let (by_layer, wall) = t.attribute();
        let sum: f64 = by_layer.values().sum();
        assert!((sum - wall).abs() < 1e-9, "{sum} vs {wall}");
        assert!(by_layer["layer-a"] >= 0.006 && by_layer["layer-a"] < 0.009);
        assert!(by_layer["layer-b"] >= 0.003);
        assert!(by_layer[IDLE] >= 0.002);
        assert!(by_layer[BENCH] >= 0.004);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 1);
        {
            let _s = t.span("x", "y");
        }
        assert!(t.current().is_none());
        assert!(t.attribute().0.is_empty());
    }
}
