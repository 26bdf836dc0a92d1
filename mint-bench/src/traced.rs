//! The traced run: the serial driver's ingest replayed through the public
//! API of each layer, in the agent's own order, with a timer and the
//! allocation counters around every call.  Nothing inside the program is
//! instrumented; the replay must reproduce the untraced run's report exactly
//! or the run fails.

use crate::alloc::{set_counting, Allocs};
use mint_bloom::BloomFilter;
use mint_core::{
    DeploymentReport, EdgeCaseSampler, MintAgent, MintBackend, MintCollector, MintConfig,
    MintDeployment, ParamsBuffer, PrefilterStats, SpanParser, SymptomSampler, TopoPatternLibrary,
    TraceParams, TraceParser,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use trace_model::{PatternId, SubTrace, TraceSet, WireSize};

/// The ingest layers, in the order the serial driver calls them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SubTrace::split_by_service`.
    Split,
    /// `WireSize::wire_size` of each trace and sub-trace (raw-byte accounting).
    WireSize,
    /// `SymptomSampler::observe_span`.
    Symptom,
    /// `SpanParser::parse`.
    Parse,
    /// `TraceParser::encode`.
    Encode,
    /// `TopoPatternLibrary::observe` (pattern lookup and Bloom mount).
    Observe,
    /// `EdgeCaseSampler::observe` with `TopoPatternLibrary::total_matches`.
    EdgeCase,
    /// `ParamsBuffer::push`.
    Push,
    /// Collector and backend accounting per sub-trace and sampled trace.
    Account,
    /// End-of-batch pattern upload and Bloom drain.
    Flush,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Split,
        Layer::WireSize,
        Layer::Symptom,
        Layer::Parse,
        Layer::Encode,
        Layer::Observe,
        Layer::EdgeCase,
        Layer::Push,
        Layer::Account,
        Layer::Flush,
    ];

    /// The metric prefix of the layer (module name, then the call).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Split => "trace_model.split",
            Layer::WireSize => "trace_model.wire_size",
            Layer::Symptom => "samplers.symptom",
            Layer::Parse => "span_parser.parse",
            Layer::Encode => "trace_parser.encode",
            Layer::Observe => "trace_parser.observe",
            Layer::EdgeCase => "samplers.edge_case",
            Layer::Push => "params.push",
            Layer::Account => "collector.account",
            Layer::Flush => "collector.flush",
        }
    }
}

/// Busy time and heap traffic of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub ns: u64,
    pub calls: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl Cost {
    fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}

/// Per-layer costs, indexed like [`Layer::ALL`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs([Cost; 10]);

impl Costs {
    pub fn get(&self, layer: Layer) -> Cost {
        self.0[layer as usize]
    }

    /// Runs `f` as one call of `layer`.
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let allocs = Allocs::now();
        let start = Instant::now();
        let result = f();
        let ns = start.elapsed().as_nanos() as u64;
        let delta = allocs.since();
        self.0[layer as usize].add(Cost {
            ns,
            calls: 1,
            allocs: delta.calls,
            bytes: delta.bytes,
        });
        result
    }

    /// Total busy time of every layer, ns.
    pub fn total_ns(&self) -> u64 {
        self.0.iter().map(|c| c.ns).sum()
    }

    pub fn absorb(&mut self, other: &Costs) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            mine.add(theirs);
        }
    }
}

/// One node's agent, held as its separate layers.
struct Node {
    span_parser: SpanParser,
    trace_parser: TraceParser,
    topo: TopoPatternLibrary,
    params: ParamsBuffer,
    symptom: SymptomSampler,
    edge_case: EdgeCaseSampler,
}

impl Node {
    /// A fresh agent around `span_parser`, as `MintAgent::new` builds it.
    fn new(span_parser: SpanParser, config: &MintConfig) -> Node {
        Node {
            span_parser,
            trace_parser: TraceParser::new(),
            topo: TopoPatternLibrary::new(config),
            params: ParamsBuffer::new(config.params_buffer_bytes),
            symptom: SymptomSampler::new(config),
            edge_case: EdgeCaseSampler::new(config),
        }
    }
}

/// What one replay measured and produced.
pub struct Replay {
    pub costs: Costs,
    pub wall_s: f64,
    pub report: DeploymentReport,
    pub new_span_patterns: u64,
    pub symptom_observed: u64,
    pub symptom_triggered: u64,
    pub edge_decisions: u64,
    pub edge_triggered: u64,
    pub flushed_blooms: u64,
    pub evicted_before_sampled: u64,
    pub prefilter: PrefilterStats,
    pub bloom_segments: u64,
    pub bloom_filters: u64,
}

/// Replays `MintDeployment::process` on `traces`, starting from the warm-up
/// state of `warmed`.
pub fn replay(warmed: &MintDeployment, traces: &TraceSet) -> Replay {
    let config = warmed.config().clone();
    // `MintAgent::new` charges each sub-trace its share of one Bloom upload.
    let reference = BloomFilter::with_byte_budget(config.bloom_buffer_bytes, config.bloom_fpp);
    let mounting_bytes = (reference.serialized_size() as u64).div_ceil(reference.capacity() as u64);
    let mut nodes: HashMap<String, Node> = warmed
        .agents()
        .map(|agent| {
            let node = Node::new(agent.span_parser().clone(), &config);
            (agent.node().to_owned(), node)
        })
        .collect();
    let mut collector = MintCollector::new();
    let mut backend = MintBackend::new();
    let mut costs = Costs::default();
    let mut segments: HashSet<(String, PatternId)> = HashSet::new();
    let (mut bloom_filters, mut new_span_patterns, mut evicted_before_sampled) = (0, 0, 0);
    let (mut sampled_traces, mut raw_trace_bytes, mut spans) = (0u64, 0u64, 0u64);
    let (mut min_start, mut max_end) = (u64::MAX, 0u64);

    set_counting(true);
    let start = Instant::now();
    for trace in traces {
        for span in trace.spans() {
            min_start = min_start.min(span.start_time_us());
            max_end = max_end.max(span.end_time_us());
        }
        spans += trace.len() as u64;
        raw_trace_bytes += costs.time(Layer::WireSize, || trace.wire_size()) as u64;
        let trace_id = trace.trace_id();
        let sub_traces = costs.time(Layer::Split, || SubTrace::split_by_service(trace));
        let mut sampled = false;
        let mut touched: Vec<String> = Vec::with_capacity(sub_traces.len());
        for sub in &sub_traces {
            let name = sub.node().to_owned();
            let node = nodes
                .entry(name.clone())
                .or_insert_with(|| Node::new(SpanParser::new(&config), &config));
            costs.time(Layer::WireSize, || sub.wire_size());
            let mut pattern_of = HashMap::with_capacity(sub.len());
            let mut block = TraceParams::new(trace_id);
            for span in sub.spans() {
                if costs.time(Layer::Symptom, || node.symptom.observe_span(span)) {
                    sampled = true;
                }
                let (pattern, params, is_new) =
                    costs.time(Layer::Parse, || node.span_parser.parse(span));
                new_span_patterns += u64::from(is_new);
                pattern_of.insert(span.span_id(), pattern);
                block.spans.push(params);
            }
            let topo = costs.time(Layer::Encode, || node.trace_parser.encode(sub, &pattern_of));
            let outcome = costs.time(Layer::Observe, || node.topo.observe(topo, trace_id));
            if costs.time(Layer::EdgeCase, || {
                let total = node.topo.total_matches();
                node.edge_case.observe(outcome.match_count, total)
            }) {
                sampled = true;
            }
            costs.time(Layer::Push, || node.params.push(block));
            costs.time(Layer::Account, || {
                collector.record_bloom_bytes(mounting_bytes);
                backend.charge_bloom_bytes(mounting_bytes);
                if let Some(bloom) = outcome.flushed_bloom {
                    collector.record_bloom_upload(&bloom);
                    backend.store_bloom(name.clone(), outcome.topo_id, bloom);
                    segments.insert((name.clone(), outcome.topo_id));
                    bloom_filters += 1;
                }
            });
            touched.push(name);
        }
        if sampled {
            costs.time(Layer::Account, || {
                sampled_traces += 1;
                collector.record_other(32 * touched.len());
                for name in &touched {
                    let taken = nodes.get_mut(name).and_then(|n| n.params.take(trace_id));
                    match taken {
                        Some(params) => {
                            collector.record_params_upload(&params);
                            backend.store_params(name.clone(), params);
                        }
                        None => evicted_before_sampled += 1,
                    }
                }
            });
        }
    }

    let duration_s = if max_end > min_start {
        ((max_end - min_start) / 1_000_000).max(1)
    } else {
        1
    };
    costs.time(Layer::Flush, || {
        let intervals = (duration_s / config.pattern_report_interval_s.max(1)).max(1);
        for (name, node) in &nodes {
            let library_bytes = node.span_parser.library_size_bytes() + node.topo.stored_size();
            collector.record_pattern_upload(library_bytes * intervals as usize);
            backend.store_catalog(name.clone(), node.span_parser.catalog());
            let patterns: Vec<_> = node.topo.iter().map(|(_, p, _)| p.clone()).collect();
            backend.store_topo_patterns(name.clone(), patterns);
        }
        for (name, node) in &mut nodes {
            for (topo_id, bloom) in node.topo.drain_partial_blooms() {
                collector.record_bloom_upload(&bloom);
                backend.store_bloom(name.clone(), topo_id, bloom);
                segments.insert((name.clone(), topo_id));
                bloom_filters += 1;
            }
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    set_counting(false);

    let mut prefilter = PrefilterStats::default();
    for node in nodes.values() {
        prefilter.absorb(node.span_parser.prefilter_stats());
    }
    let sum = |f: &dyn Fn(&Node) -> u64| nodes.values().map(f).sum::<u64>();
    Replay {
        costs,
        wall_s,
        report: DeploymentReport {
            network: collector.network(),
            storage: backend.storage(),
            traces: traces.len() as u64,
            spans,
            sampled_traces,
            raw_trace_bytes,
            span_patterns: sum(&|n| n.span_parser.library().len() as u64),
            topo_patterns: sum(&|n| n.topo.len() as u64),
            duration_s,
        },
        new_span_patterns,
        symptom_observed: sum(&|n| n.symptom.observed_spans()),
        symptom_triggered: sum(&|n| n.symptom.triggered()),
        edge_decisions: sum(&|n| n.edge_case.decisions()),
        edge_triggered: sum(&|n| n.edge_case.triggered()),
        flushed_blooms: sum(&|n| n.topo.flushed_blooms()),
        evicted_before_sampled,
        prefilter,
        bloom_segments: segments.len() as u64,
        bloom_filters,
    }
}

/// Times the real `MintAgent::ingest_sub_trace` over `traces`, starting from
/// the warm-up state of `warmed`.  Returns ns per span.
pub fn agent_pass(warmed: &MintDeployment, traces: &TraceSet) -> f64 {
    let config = warmed.config();
    let mut agents: HashMap<String, MintAgent> = warmed
        .agents()
        .map(|agent| (agent.node().to_owned(), agent.clone()))
        .collect();
    let mut ns = 0u128;
    for trace in traces {
        let sub_traces = SubTrace::split_by_service(trace);
        let mut sampled = false;
        for sub in &sub_traces {
            let agent = agents
                .entry(sub.node().to_owned())
                .or_insert_with(|| MintAgent::new(sub.node(), config.clone()));
            let start = Instant::now();
            let outcome = agent.ingest_sub_trace(sub);
            ns += start.elapsed().as_nanos();
            sampled |= outcome.symptom_sampled || outcome.edge_case_sampled;
        }
        if sampled {
            for sub in &sub_traces {
                if let Some(agent) = agents.get_mut(sub.node()) {
                    agent.take_params(trace.trace_id());
                }
            }
        }
    }
    ns as f64 / traces.span_count().max(1) as f64
}
