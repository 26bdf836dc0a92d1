//! Output checks: every answer the benchmark times is also verified, and
//! each failed check counts against the operations attempted.

use crate::workloads::is_abnormal;
use mint_core::{MintBackend, QueryResult};
use std::time::Instant;
use trace_model::{SpanId, Trace, TraceId, TraceSet};

/// Failure messages kept for the report; the count is always exact.
const KEPT_MESSAGES: usize = 5;

/// Outcome counters of verified queries.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Queries for ingested ids.
    pub ingested: u64,
    /// Queries for never-ingested ids.
    pub never: u64,
    /// Ingested ids answered wrongly (see [`Checks::ingested`]).
    pub failed: u64,
    /// Never-ingested ids that answered anything but `Miss`.
    pub false_hits: u64,
    /// Other invariant violations (non-repeatable reports, unsupported
    /// percentiles, a traced replay that diverged).
    pub broken: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Verifies the answer for an ingested trace: it must not miss; an
    /// exact answer must reproduce the original span ids, parents, names and
    /// services; an approximate answer must name no service the trace never
    /// touched.
    pub fn ingested(&mut self, original: &Trace, answer: &QueryResult) {
        self.ingested += 1;
        let problem = match answer {
            QueryResult::Miss => Some("ingested id missed"),
            QueryResult::Exact(exact) if skeleton(exact) != skeleton(original) => {
                Some("exact answer differs from the original trace")
            }
            QueryResult::Approximate(approx) => {
                let touched = original.services();
                let foreign = approx.services().iter().any(|s| !touched.contains(s));
                foreign.then_some("approximate answer names an untouched service")
            }
            QueryResult::Exact(_) => None,
        };
        if let Some(problem) = problem {
            self.failed += 1;
            self.note(format!("{problem}: {}", original.trace_id()));
        }
    }

    /// Records the answer for a never-ingested id.
    pub fn never(&mut self, answer: &QueryResult) {
        self.never += 1;
        if !answer.is_miss() {
            self.false_hits += 1;
        }
    }

    /// Records a broken invariant.
    pub fn broken(&mut self, message: String) {
        self.broken += 1;
        self.note(message);
    }

    fn note(&mut self, message: String) {
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: Checks) {
        self.ingested += other.ingested;
        self.never += other.never;
        self.failed += other.failed;
        self.false_hits += other.false_hits;
        self.broken += other.broken;
        for message in other.messages {
            self.note(message);
        }
    }

    /// Queries verified.
    pub fn queries(&self) -> u64 {
        self.ingested + self.never
    }

    /// Failed operations: wrong answers plus broken invariants.
    pub fn failures(&self) -> u64 {
        self.failed + self.broken
    }

    /// Share of queries answered correctly (`1 − query_failure_rate`).
    pub fn success_rate(&self) -> f64 {
        1.0 - self.failed as f64 / self.queries().max(1) as f64
    }

    /// Share of never-ingested probes that missed (`1 − false_hit_rate`).
    pub fn true_miss_rate(&self) -> f64 {
        1.0 - self.false_hit_rate()
    }

    pub fn false_hit_rate(&self) -> f64 {
        self.false_hits as f64 / self.never.max(1) as f64
    }
}

/// The order-free structure of a trace: (span id, parent, name, service).
fn skeleton(trace: &Trace) -> Vec<(SpanId, SpanId, &str, &str)> {
    let mut spans: Vec<_> = trace
        .spans()
        .iter()
        .map(|s| (s.span_id(), s.parent_id(), s.name(), s.service()))
        .collect();
    spans.sort_unstable();
    spans
}

/// The result of querying every ingested id and every never-ingested probe
/// once against a finished backend.
#[derive(Debug, Default)]
pub struct Sweep {
    pub checks: Checks,
    /// Indexes (into the trace set) of traces answered exactly.
    pub sampled: Vec<usize>,
    /// Indexes of traces answered approximately.
    pub unsampled: Vec<usize>,
    /// Per-class query latencies, µs.
    pub exact_us: Vec<f64>,
    pub approx_us: Vec<f64>,
    pub miss_us: Vec<f64>,
    /// Bloom segments matched, summed over approximate answers.
    pub matched_segments: u64,
    /// Abnormal or error traces, and how many of them answered exactly.
    pub abnormal: u64,
    pub abnormal_exact: u64,
}

impl Sweep {
    /// Queries every id of `traces` and every id of `never` on `backend`.
    pub fn run(backend: &MintBackend, traces: &TraceSet, never: &[TraceId]) -> Sweep {
        let mut sweep = Sweep::default();
        for (index, trace) in traces.iter().enumerate() {
            let start = Instant::now();
            let answer = backend.query(trace.trace_id());
            let us = start.elapsed().as_secs_f64() * 1e6;
            sweep.checks.ingested(trace, &answer);
            let abnormal = is_abnormal(trace);
            sweep.abnormal += u64::from(abnormal);
            match &answer {
                QueryResult::Exact(_) => {
                    sweep.sampled.push(index);
                    sweep.exact_us.push(us);
                    sweep.abnormal_exact += u64::from(abnormal);
                }
                QueryResult::Approximate(approx) => {
                    sweep.unsampled.push(index);
                    sweep.approx_us.push(us);
                    sweep.matched_segments += approx.matched_segments as u64;
                }
                QueryResult::Miss => {}
            }
        }
        for &id in never {
            let start = Instant::now();
            let answer = backend.query(id);
            let us = start.elapsed().as_secs_f64() * 1e6;
            if answer.is_miss() {
                sweep.miss_us.push(us);
            }
            sweep.checks.never(&answer);
        }
        sweep
    }

    /// Share of abnormal or error traces answered exactly.
    pub fn abnormal_capture_rate(&self) -> f64 {
        self.abnormal_exact as f64 / self.abnormal.max(1) as f64
    }

    /// Mean Bloom segments matched per approximate answer.
    pub fn matched_segments_per_query(&self) -> f64 {
        self.matched_segments as f64 / self.unsampled.len().max(1) as f64
    }
}
