//! Non-finite numeric attributes (`NaN`, `+inf`, `-inf`) are input a tracing
//! agent can receive from any instrumented service.  Every driver must ingest
//! them in every sampling mode without panicking, keep every trace
//! queryable, and — for the modes whose decision is a pure function of the
//! trace — still agree with the serial driver byte for byte.
//!
//! The non-finite values are dense on purpose: every other value of one
//! attribute on one operation.  Sparse ones rarely break a comparison sort's
//! ordering checks, so they would not show a non-total comparator.

use mint_core::{
    MintConfig, MintDeployment, QueryResult, SamplingMode, ShardedDeployment, StreamingDeployment,
};
use trace_model::{AttrValue, TraceSet};
use workload::{online_boutique, GeneratorConfig, TraceGenerator};

const MODES: [SamplingMode; 5] = [
    SamplingMode::MintBiased,
    SamplingMode::Head,
    SamplingMode::AbnormalTag,
    SamplingMode::All,
    SamplingMode::None,
];

/// 200 generated traces whose root span carries `probe.ratio`: `NaN` on every
/// even trace, and finite, `+inf` or `-inf` values on the odd ones.
fn hostile_workload() -> TraceSet {
    let generated = TraceGenerator::new(
        online_boutique(),
        GeneratorConfig::default()
            .with_seed(77)
            .with_abnormal_rate(0.05),
    )
    .generate(200);
    let mut traces = TraceSet::new();
    for (i, trace) in generated.iter().enumerate() {
        let mut trace = trace.clone();
        let value = match i % 8 {
            3 => f64::INFINITY,
            7 => f64::NEG_INFINITY,
            odd if odd % 2 == 1 => i as f64,
            _ => f64::NAN,
        };
        trace.spans_mut()[0]
            .attributes_mut()
            .insert("probe.ratio", AttrValue::Float(value));
        traces.push(trace);
    }
    traces
}

fn assert_all_queryable(traces: &TraceSet, query: impl Fn(&trace_model::Trace) -> QueryResult) {
    for trace in traces {
        assert!(
            !query(trace).is_miss(),
            "ingested trace {} answered as a miss",
            trace.trace_id()
        );
    }
}

#[test]
fn every_driver_ingests_non_finite_attributes_in_every_mode() {
    let traces = hostile_workload();
    for mode in MODES {
        let config = MintConfig::default().with_sampling_mode(mode);
        let deterministic = mode != SamplingMode::MintBiased;

        let mut serial = MintDeployment::new(config.clone());
        let serial_report = serial.process(&traces);
        assert_eq!(serial_report.traces, traces.len() as u64, "{mode:?}");
        assert_all_queryable(&traces, |t| serial.backend().query(t.trace_id()));

        let mut sharded = ShardedDeployment::new(config.clone().with_shard_count(2));
        let sharded_report = sharded.process(&traces);
        assert_eq!(sharded_report.traces, serial_report.traces, "{mode:?}");
        assert_all_queryable(&traces, |t| sharded.backend().query(t.trace_id()));

        let mut streaming = StreamingDeployment::new(
            config
                .clone()
                .with_shard_count(2)
                .with_epoch_trace_count(16),
        );
        let streaming_report = streaming.process(&traces);
        assert_eq!(streaming_report.traces, serial_report.traces, "{mode:?}");
        assert_all_queryable(&traces, |t| streaming.backend().query(t.trace_id()));

        if deterministic {
            assert_eq!(sharded_report, serial_report, "{mode:?}: sharded diverged");
            assert_eq!(
                streaming_report, serial_report,
                "{mode:?}: streaming diverged"
            );
        }
    }
}
