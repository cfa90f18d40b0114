//! Output checks. Every run checks what the program returned; a failed
//! check counts into `failed` and makes the run exit non-zero.
//!
//! The task comparators are those of the cross-platform integration
//! test: histogram counts exactly, 3-line and PAR within the tolerance
//! that the CSV and text round-trips need, similarity rankings exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use smda_core::TaskOutput;
use smda_stats::SimilarityMatch;
use smda_types::ConsumerId;

#[derive(Default)]
pub struct Checks {
    attempted: AtomicU64,
    failed: AtomicU64,
    failures: Mutex<Vec<String>>,
}

impl Checks {
    /// Record one checked operation; `Err` carries why it failed.
    pub fn record(&self, what: &str, result: Result<(), String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if let Err(why) = result {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut f = self.failures.lock().expect("failure list poisoned");
            if f.len() < 20 {
                f.push(format!("{what}: {why}"));
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn failures(&self) -> Vec<String> {
        self.failures.lock().expect("failure list poisoned").clone()
    }
}

fn near(a: f64, b: f64, tol: f64, what: &str, c: ConsumerId) -> Result<(), String> {
    if (a - b).abs() < tol {
        Ok(())
    } else {
        Err(format!("{c}: {what} {a} vs reference {b}"))
    }
}

/// A platform's task output against `run_reference`'s.
pub fn task_output(got: &TaskOutput, want: &TaskOutput) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} results, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match (got, want) {
        (TaskOutput::Histograms(a), TaskOutput::Histograms(b)) => {
            for (x, y) in a.iter().zip(b) {
                if x.consumer != y.consumer || x.histogram.counts != y.histogram.counts {
                    return Err(format!("{}: histogram counts differ", x.consumer));
                }
            }
        }
        (TaskOutput::ThreeLine(a, _), TaskOutput::ThreeLine(b, _)) => {
            for (x, y) in a.iter().zip(b) {
                if x.consumer != y.consumer {
                    return Err(format!("consumer {} vs {}", x.consumer, y.consumer));
                }
                near(
                    x.heating_gradient(),
                    y.heating_gradient(),
                    5e-3,
                    "heating",
                    x.consumer,
                )?;
                near(
                    x.cooling_gradient(),
                    y.cooling_gradient(),
                    5e-3,
                    "cooling",
                    x.consumer,
                )?;
                near(x.base_load(), y.base_load(), 5e-2, "base load", x.consumer)?;
            }
        }
        (TaskOutput::Par(a), TaskOutput::Par(b)) => {
            for (x, y) in a.iter().zip(b) {
                if x.consumer != y.consumer {
                    return Err(format!("consumer {} vs {}", x.consumer, y.consumer));
                }
                for (p, q) in x.profile.iter().zip(&y.profile) {
                    near(*p, *q, 5e-3, "PAR profile", x.consumer)?;
                }
            }
        }
        (TaskOutput::Similarity(a), TaskOutput::Similarity(b)) => {
            for (x, y) in a.iter().zip(b) {
                let xi: Vec<ConsumerId> = x.matches.iter().map(|(i, _)| *i).collect();
                let yi: Vec<ConsumerId> = y.matches.iter().map(|(i, _)| *i).collect();
                if x.consumer != y.consumer || xi != yi {
                    return Err(format!("{}: similarity ranking differs", x.consumer));
                }
            }
        }
        _ => return Err("output of another task".into()),
    }
    Ok(())
}

/// Two similarity outputs `to_bits`-equal: same consumers, same
/// neighbours in the same order, same score bits.
pub fn similarity_bits(got: &TaskOutput, want: &TaskOutput) -> Result<(), String> {
    let (TaskOutput::Similarity(a), TaskOutput::Similarity(b)) = (got, want) else {
        return Err("not a similarity output".into());
    };
    if a.len() != b.len() {
        return Err(format!("{} rows vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let same = x.consumer == y.consumer
            && x.matches.len() == y.matches.len()
            && x.matches
                .iter()
                .zip(&y.matches)
                .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits());
        if !same {
            return Err(format!("{}: top-k differs in bits", x.consumer));
        }
    }
    Ok(())
}

/// Two raw top-k lists `to_bits`-equal.
pub fn matches_bits(got: &[SimilarityMatch], want: &[SimilarityMatch]) -> Result<(), String> {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(p, q)| p.index == q.index && p.score.to_bits() == q.score.to_bits());
    if same {
        Ok(())
    } else {
        Err("top-k differs in bits".into())
    }
}
