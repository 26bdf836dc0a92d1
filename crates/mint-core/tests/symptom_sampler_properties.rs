//! Property tests for the symptom sampler's allocation-free hot path.
//!
//! The sampler reads latency and numeric quantiles from an exact sliding
//! window kept sorted in place, and searches string values for abnormal
//! words without lower-casing them.  Neither may change a decision, so each
//! is checked against the straightforward code it replaced:
//!
//! 1. **Quantile equivalence** — after every `QuantileTracker::observe`, the
//!    tracker's quantile equals a clone-and-sort of the last `capacity`
//!    values, for arbitrary finite sequences: duplicates, both zeros, fewer
//!    than 8 values, and many wrap-arounds of the window.  Values compare
//!    with `==`, under which `-0.0` and `0.0` are equal; they are the only
//!    values the two sort orders arrange differently.
//! 2. **Word-scan equivalence** — `AbnormalWords::matches` equals
//!    `value.to_ascii_lowercase().contains(&word.to_ascii_lowercase())` over
//!    the configured words, including empty words, upper-case words,
//!    non-ASCII text and words at the end of a value.
//! 3. **Decision equivalence** — `SymptomSampler::observe_span` flags exactly
//!    the spans a reference copy of the original sampler (string op keys,
//!    sorted clones, lower-cased copies) flags, on finite input.

use mint_core::{AbnormalWords, MintConfig, QuantileTracker, SymptomSampler};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use trace_model::{AttrValue, Span, SpanId, SpanStatus, TraceId};

/// The window sorted as the original tracker sorted its copy of it.
fn sorted_copy(window: &VecDeque<f64>) -> Vec<f64> {
    let mut sorted: Vec<f64> = window.iter().copied().collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted
}

/// The quantile as the original tracker read it from its sorted copy: rank
/// `round((len - 1) * q)`, nothing below 8 values.
fn reference_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.len() < 8 {
        return None;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted.get(rank).copied()
}

/// Finite values with frequent duplicates and both zeros.
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u8..6).prop_map(f64::from),
        (0u8..2).prop_map(|sign| if sign == 0 { 0.0 } else { -0.0 }),
        (-1000i32..1000).prop_map(|v| f64::from(v) / 8.0),
        any::<f64>(),
    ]
}

const QUANTILES: [f64; 5] = [0.0, 0.5, 0.95, 0.99, 1.0];

/// Fragments for string values and words: mixed case, digits, spaces,
/// multi-byte UTF-8 (including characters whose lower case is not ASCII).
const FRAGMENTS: [&str; 16] = [
    "e", "E", "rr", "OR", "error", "Timeout", "ex", "ception", "5", "0", "2", " ", "é", "İ", "ß",
    "fAiL",
];

fn text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..FRAGMENTS.len(), 0..max)
        .prop_map(|parts| parts.iter().map(|&i| FRAGMENTS[i]).collect())
}

/// The original symptom sampler, kept as the oracle for decision
/// equivalence.
struct ReferenceSampler {
    words: Vec<String>,
    quantile: f64,
    numeric: HashMap<String, VecDeque<f64>>,
    durations: HashMap<String, VecDeque<f64>>,
}

impl ReferenceSampler {
    fn new(config: &MintConfig) -> Self {
        ReferenceSampler {
            words: config
                .abnormal_words
                .iter()
                .map(|w| w.to_ascii_lowercase())
                .collect(),
            quantile: config.symptom_quantile,
            numeric: HashMap::new(),
            durations: HashMap::new(),
        }
    }

    fn judge(window: &mut VecDeque<f64>, q: f64, value: f64) -> bool {
        let outlier = reference_rank(&sorted_copy(window), q).is_some_and(|p| value > p * 2.0);
        if window.len() == 512 {
            window.pop_front();
        }
        window.push_back(value);
        outlier
    }

    fn observe_span(&mut self, span: &Span) -> bool {
        let mut symptomatic = span.status().is_error();
        let op_key = format!("{}::{}", span.service(), span.name());
        let window = self.durations.entry(op_key).or_default();
        symptomatic |= Self::judge(window, self.quantile, span.duration_us() as f64);
        for (key, value) in span.attributes().iter() {
            match value {
                AttrValue::Str(s) => {
                    let lower = s.to_ascii_lowercase();
                    if self.words.iter().any(|w| lower.contains(w)) {
                        symptomatic = true;
                    }
                }
                AttrValue::Int(_) | AttrValue::Float(_) => {
                    let v = value.as_f64().unwrap_or(0.0);
                    let window = self.numeric.entry(key.to_owned()).or_default();
                    symptomatic |= Self::judge(window, self.quantile, v);
                }
                AttrValue::Bool(_) => {}
            }
        }
        symptomatic
    }
}

/// One generated span: operation, duration, error flag, a numeric and a
/// string attribute.
type SpanSpec = (usize, u64, u8, f64, String);

fn span_spec() -> impl Strategy<Value = SpanSpec> {
    (
        0usize..4,
        prop_oneof![90u64..110, 1u64..5_000],
        0u8..20,
        value(),
        text(6),
    )
}

fn build_span(i: usize, (op, duration, error, number, message): &SpanSpec) -> Span {
    let mut builder = Span::builder(TraceId::from_u128(1), SpanId::from_u64(i as u64))
        .service(["cart", "checkout"][op % 2])
        .name(["get", "put"][op / 2])
        .duration_us(*duration)
        .attr("queue.depth", AttrValue::Float(*number))
        .attr("log.message", AttrValue::str(message.as_str()));
    if *error == 0 {
        builder = builder.status(SpanStatus::Error);
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn quantile_matches_clone_and_sort_after_every_observe(
        capacity in prop_oneof![0usize..40, 0usize..40, 500usize..520],
        values in proptest::collection::vec(value(), 0..700),
        q in 0.0f64..1.0,
    ) {
        let mut tracker = QuantileTracker::new(capacity);
        let mut window = VecDeque::new();
        for (i, &v) in values.iter().enumerate() {
            prop_assert!(tracker.observe(v));
            if window.len() == capacity.max(8) {
                window.pop_front();
            }
            window.push_back(v);
            let sorted = sorted_copy(&window);
            for quantile in QUANTILES.iter().copied().chain([q]) {
                prop_assert_eq!(
                    tracker.quantile(quantile),
                    reference_rank(&sorted, quantile),
                    "after value {} of {:?}, capacity {}, q {}",
                    i,
                    values,
                    capacity,
                    quantile
                );
            }
        }
    }

    #[test]
    fn non_finite_values_leave_the_window_unchanged(
        values in proptest::collection::vec(value(), 0..40),
        bad in 0u8..3,
    ) {
        let mut tracker = QuantileTracker::new(8);
        let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][usize::from(bad)];
        for &v in &values {
            tracker.observe(v);
            let before: Vec<Option<f64>> = QUANTILES.iter().map(|&q| tracker.quantile(q)).collect();
            prop_assert!(!tracker.observe(non_finite));
            let after: Vec<Option<f64>> = QUANTILES.iter().map(|&q| tracker.quantile(q)).collect();
            prop_assert_eq!(before, after);
        }
    }

    #[test]
    fn word_scan_matches_lowercase_contains(
        words in proptest::collection::vec(text(3), 0..4),
        values in proptest::collection::vec(text(10), 1..8),
    ) {
        let scan = AbnormalWords::new(&words);
        for value in &values {
            let lower = value.to_ascii_lowercase();
            let expected = words.iter().any(|w| lower.contains(&w.to_ascii_lowercase()));
            prop_assert_eq!(scan.matches(value), expected, "value {:?}, words {:?}", value, words);
        }
    }

    #[test]
    fn decisions_match_the_reference_sampler(
        specs in proptest::collection::vec(span_spec(), 0..300),
    ) {
        let mut config = MintConfig::default();
        config.abnormal_words.push("ERR".to_owned());
        let mut sampler = SymptomSampler::new(&config);
        let mut reference = ReferenceSampler::new(&config);
        for (i, spec) in specs.iter().enumerate() {
            let span = build_span(i, spec);
            prop_assert_eq!(
                sampler.observe_span(&span),
                reference.observe_span(&span),
                "span {} of {:?}",
                i,
                specs
            );
        }
        prop_assert_eq!(sampler.non_finite_values(), 0);
    }
}

#[test]
fn word_scan_edge_cases() {
    let defaults = AbnormalWords::new(&MintConfig::default().abnormal_words);
    // A word at the very end of a value, and one cut off by it.
    assert!(defaults.matches("upstream returned 502"));
    assert!(!defaults.matches("upstream returned 50"));
    // Mixed case in the value.
    assert!(defaults.matches("Connection TimeOut"));
    // Non-ASCII text around and inside a would-be match.
    assert!(defaults.matches("échec: ERROR ß"));
    assert!(!defaults.matches("errör"));
    assert!(!defaults.matches(""));
    // An upper-case word in the configuration.
    assert!(AbnormalWords::new(&["REFUSED"]).matches("connection refused"));
    // An empty word occurs in every value, the empty one included.
    assert!(AbnormalWords::new(&[""]).matches(""));
    assert!(AbnormalWords::new(&["x", ""]).matches("abc"));
    // No words, no match.
    assert!(!AbnormalWords::new::<&str>(&[]).matches("error"));
}
