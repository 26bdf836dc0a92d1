//! Sieve: attention-based tail sampling of uncommon traces.
//!
//! Sieve exports every span to the collector (tail-sampling network profile)
//! and decides at the backend which traces to keep: traces whose feature
//! vectors receive a high robust-random-cut-forest anomaly score are
//! retained, up to a storage budget.

use crate::framework::{FrameworkReport, QueryOutcome, TracingFramework};
use crate::rrcf::RandomCutForest;
use std::collections::HashMap;
use trace_model::{Trace, TraceId, TraceSet, TraceView, WireSize};

/// The Sieve baseline.
#[derive(Debug, Clone)]
pub struct Sieve {
    /// Fraction of traces retained per processed batch.
    budget_rate: f64,
    /// Number of trees in the forest.
    num_trees: usize,
    /// Subsample size per tree.
    sample_size: usize,
    seed: u64,
    stored: HashMap<TraceId, TraceView>,
    report: FrameworkReport,
}

impl Sieve {
    /// Creates Sieve with the given retention budget (fraction of traces,
    /// paper setup: 5%).
    pub fn new(budget_rate: f64) -> Self {
        Sieve {
            budget_rate: budget_rate.clamp(0.0, 1.0),
            num_trees: 24,
            sample_size: 256,
            seed: 0x51E7E,
            stored: HashMap::new(),
            report: FrameworkReport::default(),
        }
    }

    /// The per-trace feature vector fed to the forest: log duration, span
    /// count, error count, service count and maximum single-span duration.
    fn features(trace: &Trace) -> Vec<f64> {
        let max_span = trace
            .spans()
            .iter()
            .map(|s| s.duration_us())
            .max()
            .unwrap_or(0) as f64;
        let errors = trace
            .spans()
            .iter()
            .filter(|s| s.status().is_error())
            .count() as f64;
        vec![
            (trace.duration_us() as f64 + 1.0).ln(),
            trace.len() as f64,
            errors,
            trace.services().len() as f64,
            (max_span + 1.0).ln(),
        ]
    }
}

impl TracingFramework for Sieve {
    fn name(&self) -> &'static str {
        "Sieve"
    }

    fn process(&mut self, traces: &TraceSet) -> FrameworkReport {
        if traces.is_empty() {
            return self.report;
        }
        let features: Vec<Vec<f64>> = traces.iter().map(Sieve::features).collect();
        let forest = RandomCutForest::fit(&features, self.num_trees, self.sample_size, self.seed);

        // Everything crosses the network (tail sampling); score and rank to
        // pick what is stored.
        let mut scored: Vec<(usize, f64)> = Vec::with_capacity(traces.len());
        for (index, trace) in traces.iter().enumerate() {
            self.report.traces += 1;
            let bytes = trace.wire_size() as u64;
            self.report.raw_bytes += bytes;
            self.report.network_bytes += bytes;
            scored.push((index, forest.score(&features[index])));
        }
        rank_by_score(&mut scored);
        let budget = ((traces.len() as f64 * self.budget_rate).ceil() as usize).min(traces.len());
        for &(index, _) in scored.iter().take(budget) {
            let trace = &traces.traces()[index];
            self.report.storage_bytes += trace.wire_size() as u64;
            self.report.retained_traces += 1;
            self.stored.insert(trace.trace_id(), TraceView::from(trace));
        }
        self.report
    }

    fn report(&self) -> FrameworkReport {
        self.report
    }

    fn query(&self, trace_id: TraceId) -> QueryOutcome {
        if self.stored.contains_key(&trace_id) {
            QueryOutcome::ExactHit
        } else {
            QueryOutcome::Miss
        }
    }

    fn analysis_views(&self) -> Vec<TraceView> {
        self.stored.values().cloned().collect()
    }
}

/// Orders `(trace index, anomaly score)` pairs most anomalous first; equal
/// scores keep index order.
fn rank_by_score(scored: &mut [(usize, f64)]) {
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{online_boutique, GeneratorConfig, TraceGenerator};

    fn traces(n: usize, abnormal: f64) -> TraceSet {
        TraceGenerator::new(
            online_boutique(),
            GeneratorConfig::default()
                .with_seed(61)
                .with_abnormal_rate(abnormal),
        )
        .generate(n)
    }

    #[test]
    fn sieve_retains_roughly_the_budget() {
        let traces = traces(600, 0.05);
        let mut sieve = Sieve::new(0.05);
        let report = sieve.process(&traces);
        let retention = report.retention_rate();
        assert!((0.04..0.08).contains(&retention), "retention {retention}");
        assert_eq!(report.network_bytes, report.raw_bytes);
        assert!(report.storage_ratio() < 0.2);
    }

    #[test]
    fn sieve_prefers_anomalous_traces() {
        let traces = traces(600, 0.05);
        let mut sieve = Sieve::new(0.05);
        sieve.process(&traces);
        // Abnormal traces have inflated latency, so they should be
        // over-represented among the retained set.
        let abnormal_ids: Vec<TraceId> = traces
            .iter()
            .filter(|t| crate::ot::is_tagged_abnormal(t))
            .map(|t| t.trace_id())
            .collect();
        let retained_abnormal = abnormal_ids
            .iter()
            .filter(|id| sieve.query(**id).is_exact())
            .count();
        let abnormal_recall = retained_abnormal as f64 / abnormal_ids.len().max(1) as f64;
        let overall_rate = sieve.report().retention_rate();
        assert!(
            abnormal_recall > overall_rate,
            "recall {abnormal_recall} vs rate {overall_rate}"
        );
    }

    #[test]
    fn unretained_traces_miss() {
        let traces = traces(200, 0.0);
        let mut sieve = Sieve::new(0.05);
        sieve.process(&traces);
        let misses = traces
            .iter()
            .filter(|t| sieve.query(t.trace_id()) == QueryOutcome::Miss)
            .count();
        assert!(misses > 150);
        assert!(sieve.analysis_views().len() <= 12);
    }

    #[test]
    fn nan_scores_rank_without_panicking() {
        let mut scored: Vec<(usize, f64)> = (0..64)
            .map(|i| {
                let score = if i % 3 == 0 {
                    f64::NAN
                } else {
                    (i * 37 % 101) as f64
                };
                (i, score)
            })
            .collect();
        rank_by_score(&mut scored);
        let finite: Vec<f64> = scored
            .iter()
            .map(|&(_, score)| score)
            .filter(|score| !score.is_nan())
            .collect();
        assert!(finite.windows(2).all(|pair| pair[0] >= pair[1]));
        assert_eq!(scored.len(), 64);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut sieve = Sieve::new(0.05);
        let report = sieve.process(&TraceSet::new());
        assert_eq!(report.traces, 0);
        assert_eq!(sieve.name(), "Sieve");
    }
}
