//! Trace-based root-cause-analysis (RCA) methods.
//!
//! Table 3 of the paper measures how useful the trace data retained by each
//! tracing framework is to downstream RCA.  Three classic methods are
//! reimplemented here over the flattened [`TraceView`] representation:
//!
//! * [`MicroRank`] — spectrum analysis: services covered by anomalous traces
//!   but rarely by normal ones are suspicious (Ochiai coefficient).
//! * [`TraceRca`] — association mining: score services by the confidence and
//!   support of the rule "trace passes through S and S is slow/erroneous ⇒
//!   trace is anomalous".
//! * [`TraceAnomaly`] — normal-template deviation: learn per-service latency
//!   statistics from normal traces and score services by how far anomalous
//!   traces deviate from them.
//!
//! All three need a healthy population of *normal* traces to work — which is
//! exactly what "1 or 0" samplers throw away and what Mint's approximate
//! traces preserve.
//!
//! # Example
//!
//! ```
//! use rca::{label_anomalous, MicroRank, RcaMethod};
//! use trace_model::{SpanView, TraceView, TraceId};
//!
//! let make = |id: u128, slow: bool| TraceView {
//!     trace_id: TraceId::from_u128(id),
//!     exact: true,
//!     duration_us: if slow { 50_000 } else { 1_000 },
//!     spans: vec![SpanView {
//!         service: "db".into(),
//!         operation: "query".into(),
//!         duration_us: if slow { 49_000 } else { 500 },
//!         is_error: slow,
//!     }],
//! };
//! let views: Vec<TraceView> = (0..20).map(|i| make(i, i % 10 == 0)).collect();
//! let labelled = label_anomalous(&views);
//! let ranking = MicroRank::default().rank(&labelled);
//! assert_eq!(ranking.first().unwrap().0, "db");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;
mod labelling;
mod microrank;
mod traceanomaly;
mod tracerca;

pub use eval::{capture_rate, score_streamed_case, top_k_accuracy, RcaCase, RcaEvaluation};
pub use labelling::{label_anomalous, LabelledTrace};
pub use microrank::MicroRank;
pub use traceanomaly::TraceAnomaly;
pub use tracerca::TraceRca;

/// A ranked list of candidate root-cause services with their scores, most
/// suspicious first.
pub type Ranking = Vec<(String, f64)>;

/// A trace-based root-cause-analysis method.
pub trait RcaMethod {
    /// The method's display name.
    fn name(&self) -> &'static str;

    /// Ranks candidate root-cause services from labelled trace views.
    fn rank(&self, traces: &[LabelledTrace]) -> Ranking;
}

/// Sorts a score map into a ranking, most suspicious first, breaking ties by
/// service name for determinism.  Scores compare by [`f64::total_cmp`], so a
/// NaN score has a fixed place (a positive NaN ranks first) instead of
/// breaking the sort.
pub(crate) fn sorted_ranking(scores: std::collections::HashMap<String, f64>) -> Ranking {
    let mut ranking: Ranking = scores.into_iter().collect();
    ranking.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranking
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn nan_scores_rank_deterministically_without_panicking() {
        // Dense NaNs across more services than a small sort handles alone.
        let scores: Vec<(String, f64)> = (0..64)
            .map(|i| {
                let score = if i % 3 == 0 {
                    f64::NAN
                } else {
                    (i * 37 % 101) as f64
                };
                (format!("svc-{i:02}"), score)
            })
            .collect();
        let forward = sorted_ranking(scores.iter().cloned().collect::<HashMap<_, _>>());
        let backward = sorted_ranking(scores.iter().rev().cloned().collect::<HashMap<_, _>>());
        let names = |r: &Ranking| r.iter().map(|(name, _)| name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&forward), names(&backward));
        let finite: Vec<f64> = forward
            .iter()
            .map(|(_, score)| *score)
            .filter(|score| !score.is_nan())
            .collect();
        assert!(finite.windows(2).all(|pair| pair[0] >= pair[1]));
        assert_eq!(forward.len(), 64);
    }
}
