//! Mint's samplers (§4.2): which traces get their *parameters* uploaded.
//!
//! Under the commonality + variability paradigm no trace is ever discarded —
//! sampling only decides whether a trace's variable parameters are shipped to
//! the backend (exact trace) or left to age out of the agent-side buffer
//! (approximate trace).  Mint provides two biased samplers designed for this
//! paradigm, plus a deterministic head sampler for compatibility experiments.

use crate::config::MintConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use trace_model::{AttrValue, Span, TraceId};

/// Why (or whether) a trace was selected for full parameter retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SamplerDecision {
    /// Selected by the symptom sampler (abnormal value or latency outlier).
    Symptom,
    /// Selected by the edge-case sampler (rare execution path).
    EdgeCase,
    /// Selected by head sampling.
    Head,
    /// Not selected: only the commonality part is retained.
    NotSampled,
}

impl SamplerDecision {
    /// Whether the trace's parameters should be uploaded.
    pub fn is_sampled(&self) -> bool {
        !matches!(self, SamplerDecision::NotSampled)
    }

    /// Combines two decisions, preferring the sampled one.
    pub fn or(self, other: SamplerDecision) -> SamplerDecision {
        if self.is_sampled() {
            self
        } else {
            other
        }
    }
}

/// Values of history kept per operation and per numeric attribute.
const WINDOW: usize = 512;

/// Fewest values a window needs before it reports a quantile.
const MIN_SAMPLES: usize = 8;

/// Exact quantile over a sliding window of the most recent finite values.
///
/// The window is held twice: in insertion order, to know which value leaves
/// next, and sorted by [`f64::total_cmp`], to read any order statistic by
/// index.  Each [`observe`](Self::observe) moves one value in and one out of
/// the sorted copy with two binary searches and a single shift, so a read
/// never sorts.  Non-finite values are refused, so the window is always a set
/// of finite values whose sorted order is the one a comparison sort gives.
#[derive(Debug, Clone)]
pub struct QuantileTracker {
    /// The window in insertion order; once full, `cursor` is its oldest.
    ring: Vec<f64>,
    /// The same values, ascending by `f64::total_cmp`.
    sorted: Vec<f64>,
    capacity: usize,
    cursor: usize,
}

impl QuantileTracker {
    /// Creates an empty tracker over the last `capacity` values (at least 8).
    pub fn new(capacity: usize) -> Self {
        QuantileTracker {
            ring: Vec::with_capacity(capacity.min(64)),
            sorted: Vec::with_capacity(capacity.min(64)),
            capacity: capacity.max(MIN_SAMPLES),
            cursor: 0,
        }
    }

    /// Adds `value` to the window, evicting the oldest value once it is full.
    /// Returns `false`, leaving the window unchanged, when `value` is NaN or
    /// infinite.
    pub fn observe(&mut self, value: f64) -> bool {
        if !value.is_finite() {
            return false;
        }
        let insert_at = self.sorted.partition_point(|x| x.total_cmp(&value).is_lt());
        if self.ring.len() < self.capacity {
            self.ring.push(value);
            self.sorted.insert(insert_at, value);
            return true;
        }
        let evicted = std::mem::replace(&mut self.ring[self.cursor], value);
        self.cursor = (self.cursor + 1) % self.capacity;
        // `evicted` is in `sorted` bit for bit, so this lands on a copy of it.
        let evict_at = self
            .sorted
            .partition_point(|x| x.total_cmp(&evicted).is_lt());
        // Shift only the values between the two slots.
        if evict_at < insert_at {
            self.sorted.copy_within(evict_at + 1..insert_at, evict_at);
            self.sorted[insert_at - 1] = value;
        } else {
            self.sorted.copy_within(insert_at..evict_at, insert_at + 1);
            self.sorted[insert_at] = value;
        }
        true
    }

    /// The `q`-quantile of the window: the value at rank
    /// `round((len - 1) * q)`, or `None` below 8 values.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.len() < MIN_SAMPLES {
            return None;
        }
        let rank = ((self.sorted.len() as f64 - 1.0) * q).round() as usize;
        self.sorted.get(rank).copied()
    }
}

/// ASCII case-insensitive search for any of a set of words.
///
/// Equivalent to `value.to_ascii_lowercase().contains(word)` over the
/// lower-cased words, without allocating: a 256-entry table of the bytes a
/// word can start with limits the comparisons to the offsets that can match.
#[derive(Debug, Clone)]
pub struct AbnormalWords {
    /// The non-empty words, lower-cased.
    words: Vec<String>,
    /// `starts[b]`: some word begins with the lower-case byte `b`.
    starts: [bool; 256],
    /// An empty word occurs in every value.
    has_empty: bool,
}

impl AbnormalWords {
    /// Builds the search for `words`; upper-case ASCII in them is ignored.
    pub fn new<S: AsRef<str>>(words: &[S]) -> Self {
        let mut starts = [false; 256];
        let mut has_empty = false;
        let mut lowered = Vec::with_capacity(words.len());
        for word in words {
            let word = word.as_ref().to_ascii_lowercase();
            match word.as_bytes().first() {
                Some(&first) => {
                    starts[usize::from(first)] = true;
                    lowered.push(word);
                }
                None => has_empty = true,
            }
        }
        AbnormalWords {
            words: lowered,
            starts,
            has_empty,
        }
    }

    /// Whether any word occurs in `value`, ignoring ASCII case.
    pub fn matches(&self, value: &str) -> bool {
        if self.has_empty {
            return true;
        }
        let bytes = value.as_bytes();
        bytes.iter().enumerate().any(|(at, byte)| {
            self.starts[usize::from(byte.to_ascii_lowercase())]
                && self.words.iter().any(|word| {
                    bytes
                        .get(at..at + word.len())
                        .is_some_and(|window| window.eq_ignore_ascii_case(word.as_bytes()))
                })
        })
    }
}

/// Whether `value` is a clear outlier against `tracker`'s window — more than
/// twice its `q`-quantile — judged before `value` joins the window.  Counts a
/// non-finite `value` in `non_finite`.
fn judge(tracker: &mut QuantileTracker, q: f64, value: f64, non_finite: &mut u64) -> bool {
    let outlier = tracker.quantile(q).is_some_and(|p| value > p * 2.0);
    if !tracker.observe(value) {
        *non_finite += 1;
    }
    outlier
}

/// The Symptom Sampler: monitors the variable parameters flowing through the
/// agent and marks traces with abnormal values (error statuses, abnormal
/// words, 5xx codes) or outliers (values above the configured quantile of
/// their attribute's recent history) as sampled.
#[derive(Debug, Clone)]
pub struct SymptomSampler {
    abnormal_words: AbnormalWords,
    quantile: f64,
    /// Attribute key → history of its numeric values.
    numeric_history: HashMap<String, QuantileTracker>,
    /// Service → operation name → history of its span durations.
    duration_history: HashMap<String, HashMap<String, QuantileTracker>>,
    observed_spans: u64,
    triggered: u64,
    non_finite_values: u64,
}

impl SymptomSampler {
    /// Creates a sampler from the Mint configuration.
    pub fn new(config: &MintConfig) -> Self {
        SymptomSampler {
            abnormal_words: AbnormalWords::new(&config.abnormal_words),
            quantile: config.symptom_quantile,
            numeric_history: HashMap::new(),
            duration_history: HashMap::new(),
            observed_spans: 0,
            triggered: 0,
            non_finite_values: 0,
        }
    }

    /// Observes one span and reports whether it is symptomatic.
    pub fn observe_span(&mut self, span: &Span) -> bool {
        self.observed_spans += 1;
        let mut symptomatic = span.status().is_error();

        // Latency outlier relative to the (service, operation)'s history.
        // Keys are copied only the first time they are seen.
        let operations = match self.duration_history.get_mut(span.service()) {
            Some(operations) => operations,
            None => self
                .duration_history
                .entry(span.service().to_owned())
                .or_default(),
        };
        let tracker = match operations.get_mut(span.name()) {
            Some(tracker) => tracker,
            None => operations
                .entry(span.name().to_owned())
                .or_insert_with(|| QuantileTracker::new(WINDOW)),
        };
        // Require a clear outlier (well above the P95 of recent history) so
        // ordinary jitter does not inflate the sampled fraction.
        symptomatic |= judge(
            tracker,
            self.quantile,
            span.duration_us() as f64,
            &mut self.non_finite_values,
        );

        for (key, value) in span.attributes().iter() {
            match value {
                AttrValue::Str(s) => {
                    // The scan has no side effect, so a span already judged
                    // symptomatic skips it.
                    if !symptomatic && self.abnormal_words.matches(s) {
                        symptomatic = true;
                    }
                }
                AttrValue::Int(_) | AttrValue::Float(_) => {
                    let v = value.as_f64().unwrap_or(0.0);
                    let tracker = match self.numeric_history.get_mut(key) {
                        Some(tracker) => tracker,
                        None => self
                            .numeric_history
                            .entry(key.to_owned())
                            .or_insert_with(|| QuantileTracker::new(WINDOW)),
                    };
                    symptomatic |= judge(tracker, self.quantile, v, &mut self.non_finite_values);
                }
                AttrValue::Bool(_) => {}
            }
        }
        if symptomatic {
            self.triggered += 1;
        }
        symptomatic
    }

    /// Number of spans observed so far.
    pub fn observed_spans(&self) -> u64 {
        self.observed_spans
    }

    /// Number of spans flagged symptomatic so far.
    pub fn triggered(&self) -> u64 {
        self.triggered
    }

    /// Number of NaN or infinite numeric values seen so far.  Each was judged
    /// (`+inf` is an outlier against any finite history) but kept out of its
    /// window, so it cannot skew later quantiles.
    pub fn non_finite_values(&self) -> u64 {
        self.non_finite_values
    }
}

/// The Edge-Case Sampler: monitors topology-pattern match counts and samples
/// traces whose execution path is rare — the pattern has matched only a
/// handful of sub-traces *and* accounts for a tiny share of the traffic seen
/// so far (so common paths are not oversampled while the system warms up).
#[derive(Debug, Clone)]
pub struct EdgeCaseSampler {
    rare_threshold: u64,
    max_frequency: f64,
    decisions: u64,
    triggered: u64,
}

impl EdgeCaseSampler {
    /// Creates a sampler from the Mint configuration.
    pub fn new(config: &MintConfig) -> Self {
        EdgeCaseSampler {
            rare_threshold: config.edge_case_rare_threshold,
            max_frequency: config.edge_case_max_frequency,
            decisions: 0,
            triggered: 0,
        }
    }

    /// Decides whether a trace matching a topology pattern seen
    /// `pattern_match_count` times (including this one), out of
    /// `total_matches` sub-traces observed overall, is an edge case.
    pub fn observe(&mut self, pattern_match_count: u64, total_matches: u64) -> bool {
        self.decisions += 1;
        let frequency = pattern_match_count as f64 / total_matches.max(1) as f64;
        let rare = pattern_match_count <= self.rare_threshold && frequency <= self.max_frequency;
        if rare {
            self.triggered += 1;
        }
        rare
    }

    /// Number of decisions taken.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of traces flagged as edge cases.
    pub fn triggered(&self) -> u64 {
        self.triggered
    }
}

/// Deterministic head sampler: the decision is a pure function of the trace
/// id, so every agent in the deployment makes the same choice without
/// coordination.
#[derive(Debug, Clone, Copy)]
pub struct HeadSampler {
    rate: f64,
}

impl HeadSampler {
    /// Creates a head sampler with the given sampling rate in `[0, 1]`.
    pub fn new(rate: f64) -> Self {
        HeadSampler {
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whether `trace_id` is head-sampled.
    pub fn decide(&self, trace_id: TraceId) -> bool {
        if self.rate >= 1.0 {
            return true;
        }
        if self.rate <= 0.0 {
            return false;
        }
        // Cheap splitmix-style hash of the id, mapped to [0, 1).
        let mut x = trace_id.as_u128() as u64 ^ (trace_id.as_u128() >> 64) as u64;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x as f64 / u64::MAX as f64) < self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{SpanId, SpanStatus};

    fn span(duration: u64, status_code: i64, message: &str) -> Span {
        Span::builder(TraceId::from_u128(1), SpanId::from_u64(1))
            .service("svc")
            .name("op")
            .duration_us(duration)
            .attr("http.status_code", AttrValue::Int(status_code))
            .attr("log.message", AttrValue::str(message))
            .build()
    }

    #[test]
    fn error_status_is_symptomatic() {
        let mut sampler = SymptomSampler::new(&MintConfig::default());
        let mut errored = span(100, 200, "all good");
        errored.set_status(SpanStatus::Error);
        assert!(sampler.observe_span(&errored));
        assert_eq!(sampler.triggered(), 1);
    }

    #[test]
    fn abnormal_words_are_symptomatic() {
        let mut sampler = SymptomSampler::new(&MintConfig::default());
        assert!(sampler.observe_span(&span(100, 200, "connection TIMEOUT while calling db")));
        assert!(sampler.observe_span(&span(100, 502, "upstream returned 502 bad gateway")));
        assert!(!sampler.observe_span(&span(100, 200, "request completed")));
    }

    #[test]
    fn latency_outliers_are_symptomatic() {
        let mut sampler = SymptomSampler::new(&MintConfig::default());
        for _ in 0..100 {
            assert!(!sampler.observe_span(&span(100, 200, "ok")));
        }
        assert!(sampler.observe_span(&span(100_000, 200, "ok")));
        assert_eq!(sampler.observed_spans(), 101);
    }

    #[test]
    fn numeric_attribute_outliers_are_symptomatic() {
        let mut config = MintConfig::default();
        config.abnormal_words.clear();
        let mut sampler = SymptomSampler::new(&config);
        for i in 0..100 {
            let s = Span::builder(TraceId::from_u128(1), SpanId::from_u64(i))
                .service("svc")
                .name("op")
                .duration_us(100)
                .attr("queue.depth", AttrValue::Int(10))
                .build();
            sampler.observe_span(&s);
        }
        let spike = Span::builder(TraceId::from_u128(1), SpanId::from_u64(999))
            .service("svc")
            .name("op")
            .duration_us(100)
            .attr("queue.depth", AttrValue::Int(10_000))
            .build();
        assert!(sampler.observe_span(&spike));
    }

    #[test]
    fn non_finite_values_are_judged_but_kept_out_of_the_window() {
        let mut sampler = SymptomSampler::new(&MintConfig::default());
        let ratio_span = |i: u64, value: f64| {
            Span::builder(TraceId::from_u128(1), SpanId::from_u64(i))
                .service("svc")
                .name("op")
                .duration_us(100)
                .attr("ratio", AttrValue::Float(value))
                .build()
        };
        // Dense NaNs among unordered finite values, all on one operation.
        // (A strict NaN/finite alternation happens not to trip the standard
        // sort's order check; every third value does, at span 22.)
        for i in 0..128u64 {
            let value = if i % 3 == 0 {
                f64::NAN
            } else {
                (i * 37 % 101) as f64
            };
            let symptomatic = sampler.observe_span(&ratio_span(i, value));
            if value.is_nan() {
                assert!(!symptomatic, "NaN flagged at span {i}");
            }
        }
        // Infinities are judged against the finite window, never entered.
        assert!(sampler.observe_span(&ratio_span(128, f64::INFINITY)));
        assert!(!sampler.observe_span(&ratio_span(129, f64::NEG_INFINITY)));
        assert!(sampler.observe_span(&ratio_span(130, f64::INFINITY)));
        assert_eq!(sampler.observed_spans(), 131);
        assert_eq!(sampler.non_finite_values(), 43 + 3);
    }

    #[test]
    fn edge_case_sampler_flags_rare_patterns() {
        let mut sampler = EdgeCaseSampler::new(&MintConfig::default());
        // Rare path: few matches, tiny share of the traffic.
        assert!(sampler.observe(1, 5_000));
        assert!(sampler.observe(10, 5_000));
        // Too many matches, or too large a share of traffic: not an edge case.
        assert!(!sampler.observe(11, 5_000));
        assert!(!sampler.observe(5, 20));
        assert!(!sampler.observe(5_000, 10_000));
        assert_eq!(sampler.decisions(), 5);
        assert_eq!(sampler.triggered(), 2);
    }

    #[test]
    fn head_sampler_rate_is_respected() {
        let sampler = HeadSampler::new(0.05);
        let sampled = (0..20_000u128)
            .filter(|i| sampler.decide(TraceId::from_u128(*i)))
            .count();
        let rate = sampled as f64 / 20_000.0;
        assert!((0.03..0.07).contains(&rate), "rate {rate}");
        assert!(HeadSampler::new(1.0).decide(TraceId::from_u128(1)));
        assert!(!HeadSampler::new(0.0).decide(TraceId::from_u128(1)));
    }

    #[test]
    fn head_sampler_is_deterministic() {
        let a = HeadSampler::new(0.1);
        let b = HeadSampler::new(0.1);
        for i in 0..100u128 {
            assert_eq!(
                a.decide(TraceId::from_u128(i)),
                b.decide(TraceId::from_u128(i))
            );
        }
    }

    #[test]
    fn decision_combinators() {
        assert!(SamplerDecision::Symptom.is_sampled());
        assert!(!SamplerDecision::NotSampled.is_sampled());
        assert_eq!(
            SamplerDecision::NotSampled.or(SamplerDecision::EdgeCase),
            SamplerDecision::EdgeCase
        );
        assert_eq!(
            SamplerDecision::Head.or(SamplerDecision::Symptom),
            SamplerDecision::Head
        );
    }
}
