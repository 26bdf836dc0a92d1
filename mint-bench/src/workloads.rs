//! The three workloads, their seeded inputs and the Mint configuration they
//! run under.

use mint_core::{MintConfig, SamplingMode};
use std::collections::HashSet;
use trace_model::{Trace, TraceId, TraceSet};
use workload::{layered_application, load_test_plan, GeneratorConfig, StreamingSource};

/// Abnormal-request rate of every workload, as in the Fig. 14 experiment.
const ABNORMAL_RATE: f64 = 0.02;
/// Traces in the single-phase `wide-serial` stream: the Fig. 14 plan's total.
const WIDE_TRACES: usize = 8_000;
/// Never-ingested ids probed per run.
const NEVER_INGESTED: usize = 3_000;
/// Epoch size of the streaming workload.
pub const EPOCH_TRACES: usize = 256;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 14 load plan through serial `MintDeployment::process`.
    Fig14Serial,
    /// A low-commonality single-phase stream through the serial driver.
    WideSerial,
    /// The Fig. 14 load plan consumed live by the streaming driver.
    Fig14Stream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig14Serial,
        Workload::WideSerial,
        Workload::Fig14Stream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig14Serial => "fig14-serial",
            Workload::WideSerial => "wide-serial",
            Workload::Fig14Stream => "fig14-stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the streaming driver runs this workload.
    pub fn is_stream(self) -> bool {
        self == Workload::Fig14Stream
    }

    /// Generates the workload's traces from `seed`.
    pub fn generate(self, seed: u64) -> TraceSet {
        let base = GeneratorConfig::default()
            .with_seed(seed)
            .with_abnormal_rate(ABNORMAL_RATE);
        match self {
            Workload::Fig14Serial | Workload::Fig14Stream => {
                // The production-like system of Fig. 14: 8 APIs over web,
                // MongoDB and MySQL tiers, walked through the 14 load tests.
                let app = layered_application("prod", 8, 6, 26);
                StreamingSource::from_load_plan(&app, base, &load_test_plan(), |test| {
                    (test.total_requests() / 10) as usize
                })
                .collect()
            }
            Workload::WideSerial => {
                let app = layered_application("wide", 64, 6, 384);
                StreamingSource::paced(app, base, WIDE_TRACES).collect()
            }
        }
    }
}

/// The Mint configuration of every workload: the paper's biased sampling
/// and, for the streaming driver, one shard worker beside the router (two
/// threads in all) with 256-trace epochs.
pub fn config() -> MintConfig {
    MintConfig::default()
        .with_sampling_mode(SamplingMode::MintBiased)
        .with_shard_count(1)
        .with_epoch_trace_count(EPOCH_TRACES)
}

/// Everything a run needs, built before timing starts.
pub struct Input {
    pub traces: TraceSet,
    /// Ids the workload never produced, for the miss and false-hit probes.
    pub never_ingested: Vec<TraceId>,
}

impl Input {
    /// Builds the input of `workload` from `seed`.
    pub fn build(workload: Workload, seed: u64) -> Input {
        let traces = workload.generate(seed);
        let ingested: HashSet<TraceId> = traces.iter().map(Trace::trace_id).collect();
        let mut rng = Rng::new(seed ^ 0x6e65_7665_725f_6964);
        let mut never_ingested = Vec::with_capacity(NEVER_INGESTED);
        while never_ingested.len() < NEVER_INGESTED {
            let id = TraceId::from_u128(u128::from(rng.next()) << 64 | u128::from(rng.next()));
            if id.is_valid() && !ingested.contains(&id) {
                never_ingested.push(id);
            }
        }
        Input {
            traces,
            never_ingested,
        }
    }

    /// Spans in the input.
    pub fn spans(&self) -> usize {
        self.traces.span_count()
    }
}

/// Whether the generator tagged `trace` abnormal or it carries an error.
pub fn is_abnormal(trace: &Trace) -> bool {
    trace.has_error()
        || trace
            .root()
            .and_then(|root| root.attributes().get("is_abnormal"))
            .and_then(|v| v.as_bool())
            .unwrap_or(false)
}

/// A splitmix64 generator: the benchmark's only source of randomness, so a
/// seed fixes every choice it makes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
