//! mint-bench: one end-to-end ingest + query benchmark over three workloads,
//! with a separate traced run that times each `mint-core` layer through its
//! public API.  See README.md for the workloads, metrics and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path mint-bench/Cargo.toml -- \
//!     --workload fig14-serial --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is the
//! full report (environment, input sizes, sample counts, checks).

mod alloc;
mod checks;
mod host;
mod json;
mod serial;
mod stats;
mod stream;
mod traced;
mod workloads;

use checks::{Checks, Sweep};
use json::Json;
use mint_core::{DeploymentReport, MintDeployment};
use stats::Summary;
use std::process::ExitCode;
use std::time::Instant;
use traced::Layer;
use workloads::{Input, Rng, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Untraced reference + traced replay pairs in a traced run, at least.
const MIN_TRACED_PAIRS: usize = 3;

const USAGE: &str = "usage: mint-bench --workload <fig14-serial|wide-serial|fig14-stream> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("no workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The inputs of a run, built [`SETUP_REPEATS`] times.
struct Setup {
    input: Input,
    warmed: Option<MintDeployment>,
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    warm_up_s: Vec<f64>,
}

/// Generates the input and, when `warm` is set, warms a serial deployment
/// on it (`MintDeployment::warm_up`), keeping the last of the repeats.
fn set_up(workload: Workload, seed: u64, warm: bool) -> Setup {
    let (mut setup_s, mut generate_s, mut warm_up_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous repeat first, so it does not raise peak RSS.
        drop(kept.take());
        let start = Instant::now();
        let input = Input::build(workload, seed);
        generate_s.push(start.elapsed().as_secs_f64());
        let warmed = warm.then(|| {
            let warm_start = Instant::now();
            let mut deployment = MintDeployment::new(workloads::config());
            deployment.warm_up(&input.traces);
            warm_up_s.push(warm_start.elapsed().as_secs_f64());
            deployment
        });
        setup_s.push(start.elapsed().as_secs_f64());
        kept = Some((input, warmed));
    }
    let (input, warmed) = kept.expect("SETUP_REPEATS > 0");
    Setup {
        input,
        warmed,
        setup_s,
        generate_s,
        warm_up_s,
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Collects named metrics and timing summaries for the result and report.
#[derive(Default)]
struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    timings: Vec<(String, Json)>,
    checks: Checks,
    /// Traces ingested, over every pass of the run.
    ingested: u64,
}

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_owned(), value, unit));
    }

    /// Records the summary of `samples` under `prefix` in the report.
    fn summarize(&mut self, prefix: &str, unit: &'static str, samples: &[f64]) -> Option<Summary> {
        let Some(summary) = Summary::of(samples) else {
            self.checks.broken(format!("{prefix}: no samples"));
            return None;
        };
        let tail = summary.tail.map_or(Json::Null, |(p, v)| {
            Json::obj([("percentile", Json::Num(p)), ("value", Json::Num(v))])
        });
        self.timings.push((
            prefix.to_owned(),
            Json::obj([
                ("unit", Json::str(unit)),
                ("n", Json::count(summary.n as u64)),
                ("p50", Json::Num(summary.p50)),
                ("tail", tail),
            ]),
        ));
        Some(summary)
    }

    /// Records `samples` as a timing and puts its median (and p99, when
    /// `with_p99`) as `{prefix}_p50_{unit}` / `{prefix}_p99_{unit}`; a
    /// dotted prefix takes `.` instead of `_`.
    fn timing(&mut self, prefix: &str, unit: &'static str, samples: &[f64], with_p99: bool) {
        let Some(summary) = self.summarize(prefix, unit, samples) else {
            return;
        };
        let sep = if prefix.contains('.') { '.' } else { '_' };
        self.put(&format!("{prefix}{sep}p50_{unit}"), summary.p50, unit);
        if with_p99 {
            match summary.p99 {
                Some(p99) => self.put(&format!("{prefix}{sep}p99_{unit}"), p99, unit),
                None => self.checks.broken(format!(
                    "{prefix}: {} samples do not support a p99",
                    summary.n
                )),
            }
        }
    }
}

/// The end-to-end metrics every untraced run reports.
fn end_to_end(args: &Args, setup: &Setup, rng: &mut Rng) -> (Metrics, Json) {
    let seconds = args.seconds as f64;
    let input = &setup.input;
    let mut m = Metrics::default();
    let serial::DriverRun {
        reps,
        ingest_s,
        floor_ingest_s,
        visible_ms,
        warm_up_visible_ms,
        query_us,
        raw_query_us,
        checks,
        report,
        sweep,
        queries,
        process_s,
        host,
    } = if args.workload.is_stream() {
        stream::run(input, &workloads::config(), seconds, rng)
    } else {
        let warmed = setup.warmed.as_ref().expect("serial set-up warms");
        serial::run(input, warmed, seconds, rng)
    };
    m.ingested = (input.traces.len() * reps) as u64;
    m.checks.absorb(checks);
    m.checks.absorb(sweep.checks.clone());

    // Gated timings come from each piece's fastest repetition (see
    // `stats::floor`), divided by the host's slowdown (see `host`); the
    // unscaled floors and the raw figures of every repetition go to the
    // report.
    let slowdown = host.slowdown();
    let scaled = |samples: &[f64]| -> Vec<f64> { samples.iter().map(|v| v / slowdown).collect() };
    let spans = report.spans as f64;
    m.put(
        "ingest_spans_per_s",
        spans * slowdown / floor_ingest_s,
        "spans/s",
    );
    m.timing("visible", "ms", &scaled(&visible_ms), true);
    if !warm_up_visible_ms.is_empty() {
        m.summarize("warm_up_visible", "ms", &scaled(&warm_up_visible_ms));
    }
    m.timing("query", "us", &scaled(&query_us), true);
    m.summarize("unscaled_visible", "ms", &visible_ms);
    m.summarize("unscaled_query", "us", &query_us);
    m.summarize("raw_query", "us", &raw_query_us);
    m.put("query_success_rate", m.checks.success_rate(), "share");
    m.put("true_miss_rate", m.checks.true_miss_rate(), "share");
    m.put("network_ratio", report.network_ratio(), "share");
    m.put("storage_ratio", report.storage_ratio(), "share");
    m.put(
        "abnormal_capture_rate",
        sweep.abnormal_capture_rate(),
        "share",
    );
    m.put("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB");
    let setup_s = stats::median(&setup.setup_s);
    m.put("setup_s", setup_s / slowdown, "s");

    let throughput: Vec<f64> = ingest_s.iter().map(|s| spans / s).collect();
    let spread = if throughput.len() >= 2 {
        let [q1, _, q3] = stats::quartiles(&throughput);
        Json::Num((q3 - q1) / stats::median(&throughput))
    } else {
        Json::Null
    };
    let detail = Json::obj([
        ("reps", Json::count(reps as u64)),
        (
            "ingest_s",
            Json::Arr(ingest_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "host",
            Json::obj([
                ("slowdown", Json::Num(slowdown)),
                ("piece_floor_s", Json::Num(host.piece_floor_s())),
                ("reference_piece_s", Json::Num(host::REFERENCE_PIECE_S)),
            ]),
        ),
        ("floor_ingest_s", Json::Num(floor_ingest_s)),
        (
            "unscaled_ingest_spans_per_s",
            Json::Num(spans / floor_ingest_s),
        ),
        ("unscaled_setup_s", Json::Num(setup_s)),
        ("process_s", process_s.map_or(Json::Null, Json::Num)),
        (
            "raw_ingest_spans_per_s",
            Json::Num(stats::median(&throughput)),
        ),
        ("ingest_throughput_iqr_share", spread),
        (
            "queries",
            Json::obj(
                queries
                    .into_iter()
                    .map(|(class, n)| (class, Json::count(n))),
            ),
        ),
        (
            "query_failure_rate",
            Json::Num(1.0 - m.checks.success_rate()),
        ),
        ("false_hit_rate", Json::Num(m.checks.false_hit_rate())),
        (
            "abnormal_traces",
            Json::obj([
                ("total", Json::count(sweep.abnormal)),
                ("exact", Json::count(sweep.abnormal_exact)),
            ]),
        ),
        ("report", report_json(&report)),
    ]);
    (m, detail)
}

fn report_json(report: &DeploymentReport) -> Json {
    Json::obj([
        ("traces", Json::count(report.traces)),
        ("spans", Json::count(report.spans)),
        ("sampled_traces", Json::count(report.sampled_traces)),
        ("span_patterns", Json::count(report.span_patterns)),
        ("topo_patterns", Json::count(report.topo_patterns)),
        ("raw_trace_bytes", Json::count(report.raw_trace_bytes)),
        ("network_bytes", Json::count(report.network.total_bytes())),
        ("storage_bytes", Json::count(report.storage.total_bytes())),
    ])
}

/// The per-layer metrics of a traced run.
fn per_layer(args: &Args, setup: &Setup, rng: &mut Rng) -> (Metrics, Json) {
    let input = &setup.input;
    let traces = &input.traces;
    let warmed = setup.warmed.as_ref().expect("traced set-up warms");
    let spans = traces.span_count() as f64;
    let mut m = Metrics::default();

    // Untraced reference and traced replay in pairs, ordered AB, BA, AB, …
    // so a steady drift in machine speed cancels out of the pair medians.
    // The replay must reproduce the reference report exactly.
    let mut untraced_s = Vec::new();
    let mut replays = Vec::new();
    let mut reference: Option<(DeploymentReport, Sweep)> = None;
    let mut diverged = false;
    serial::repeat_within(args.seconds as f64, MIN_TRACED_PAIRS, |pair| {
        let replay_first = pair % 2 == 1;
        let replay = replay_first.then(|| traced::replay(warmed, traces));
        let mut deployment = warmed.clone();
        let start = Instant::now();
        let report = deployment.process(traces);
        untraced_s.push(start.elapsed().as_secs_f64());
        let (reference_report, _) = reference.get_or_insert_with(|| {
            let sweep = Sweep::run(deployment.backend(), traces, &input.never_ingested);
            (report, sweep)
        });
        drop(deployment);
        let replay = replay.unwrap_or_else(|| traced::replay(warmed, traces));
        if replay.report != *reference_report {
            diverged = true;
            m.checks.broken(format!(
                "traced replay diverged: {:?} vs untraced {:?}",
                replay.report, reference_report
            ));
        }
        replays.push(replay);
    });
    let (report, sweep) = reference.expect("at least one pair ran");
    m.checks.absorb(sweep.checks.clone());
    let agent_ns_per_span = traced::agent_pass(warmed, traces);
    let stream = stream::stream_once(input, &workloads::config(), Rng::new(rng.next()), true);
    m.checks.absorb(stream.checks);

    // Reference and replay per pair, then the agent pass and the stream.
    m.ingested = (input.traces.len() * (2 * replays.len() + 2)) as u64;
    let pairs = replays.len() as f64;
    let mut costs = traced::Costs::default();
    for replay in &replays {
        costs.absorb(&replay.costs);
    }
    let first = &replays[0];
    let subtraces = costs.get(Layer::Encode).calls as f64;
    let per_span = |layer: Layer| costs.get(layer).ns as f64 / (spans * pairs);
    let per_subtrace = |layer: Layer| costs.get(layer).ns as f64 / subtraces;
    let allocs_per_span = |layer: Layer| costs.get(layer).allocs as f64 / (spans * pairs);
    let bytes_per_span = |layer: Layer| costs.get(layer).bytes as f64 / (spans * pairs);
    let ratio = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;

    let prefilter = first.prefilter;
    let network = report.network;
    let storage = report.storage;
    let rows = [
        (
            "trace_model.split.ns_per_span",
            per_span(Layer::Split),
            "ns",
        ),
        (
            "trace_model.split.allocs_per_span",
            allocs_per_span(Layer::Split),
            "count",
        ),
        (
            "trace_model.wire_size.ns_per_span",
            per_span(Layer::WireSize),
            "ns",
        ),
        (
            "agent.ingest_sub_trace.ns_per_span",
            agent_ns_per_span,
            "ns",
        ),
        (
            "samplers.symptom.ns_per_span",
            per_span(Layer::Symptom),
            "ns",
        ),
        (
            "samplers.symptom.allocs_per_span",
            allocs_per_span(Layer::Symptom),
            "count",
        ),
        (
            "samplers.symptom.bytes_per_span",
            bytes_per_span(Layer::Symptom),
            "B",
        ),
        (
            "samplers.symptom.trigger_ratio",
            ratio(first.symptom_triggered, first.symptom_observed),
            "share",
        ),
        (
            "samplers.edge_case.ns_per_subtrace",
            per_subtrace(Layer::EdgeCase),
            "ns",
        ),
        (
            "samplers.edge_case.trigger_ratio",
            ratio(first.edge_triggered, first.edge_decisions),
            "share",
        ),
        (
            "span_parser.parse.ns_per_span",
            per_span(Layer::Parse),
            "ns",
        ),
        (
            "span_parser.parse.allocs_per_span",
            allocs_per_span(Layer::Parse),
            "count",
        ),
        (
            "span_parser.parse.bytes_per_span",
            bytes_per_span(Layer::Parse),
            "B",
        ),
        (
            "span_parser.prefilter.skip_ratio",
            ratio(
                prefilter.candidates_skipped,
                prefilter.candidates_considered,
            ),
            "share",
        ),
        (
            "span_parser.new_patterns",
            first.new_span_patterns as f64,
            "count",
        ),
        (
            "trace_parser.encode.ns_per_subtrace",
            per_subtrace(Layer::Encode),
            "ns",
        ),
        (
            "trace_parser.observe.ns_per_subtrace",
            per_subtrace(Layer::Observe),
            "ns",
        ),
        (
            "trace_parser.flushed_blooms",
            first.flushed_blooms as f64,
            "count",
        ),
        (
            "params.push.ns_per_subtrace",
            per_subtrace(Layer::Push),
            "ns",
        ),
        (
            "params.evicted_before_sampled",
            first.evicted_before_sampled as f64,
            "count",
        ),
        (
            "collector.account.ns_per_subtrace",
            per_subtrace(Layer::Account),
            "ns",
        ),
        (
            "collector.flush_ms",
            costs.get(Layer::Flush).ns as f64 / pairs / 1e6,
            "ms",
        ),
        (
            "collector.network.pattern_bytes",
            network.pattern_bytes as f64,
            "B",
        ),
        (
            "collector.network.bloom_bytes",
            network.bloom_bytes as f64,
            "B",
        ),
        (
            "collector.network.params_bytes",
            network.params_bytes as f64,
            "B",
        ),
        (
            "collector.network.other_bytes",
            network.other_bytes as f64,
            "B",
        ),
        (
            "backend.storage.pattern_bytes",
            storage.pattern_bytes as f64,
            "B",
        ),
        (
            "backend.storage.bloom_bytes",
            storage.bloom_bytes as f64,
            "B",
        ),
        (
            "backend.storage.params_bytes",
            storage.params_bytes as f64,
            "B",
        ),
    ];
    for (name, value, unit) in rows {
        m.put(name, value, unit);
    }
    m.timing("backend.query.exact", "us", &sweep.exact_us, true);
    m.timing("backend.query.approx", "us", &sweep.approx_us, true);
    m.timing("backend.query.miss", "us", &sweep.miss_us, true);
    m.put(
        "backend.bloom_segments",
        first.bloom_segments as f64,
        "count",
    );
    m.put("backend.bloom_filters", first.bloom_filters as f64, "count");
    let matched = sweep.matched_segments_per_query();
    m.put("backend.matched_segments_per_query", matched, "count");
    m.put(
        "streaming.router.ns_per_trace",
        stream.router_ns_per_trace,
        "ns",
    );
    let merge_ms = stream.merge_ms.iter().sum::<f64>() / stream.merge_ms.len().max(1) as f64;
    m.put("merge.reconcile.ms_per_epoch", merge_ms, "ms");
    let rebuilds = stream.deployment.merge_full_rebuilds() as f64;
    m.put("merge.full_rebuilds", rebuilds, "count");
    m.put("merge.new_patterns", stream.new_patterns as f64, "count");
    m.timing("snapshot.acquire", "us", &stream.acquire_us, false);
    m.timing("snapshot.query", "us", &stream.query_us, true);
    let lag = stream.lag_traces.iter().sum::<f64>() / stream.lag_traces.len().max(1) as f64;
    m.put("snapshot.lag_traces", lag, "count");
    m.put("workload.generate_s", stats::median(&setup.generate_s), "s");
    m.put("collector.warm_up_s", stats::median(&setup.warm_up_s), "s");

    // Layer sums against the untraced driver, pair by pair.
    let untraced = stats::median(&untraced_s);
    let unattributed: Vec<f64> = replays
        .iter()
        .zip(&untraced_s)
        .map(|(replay, &s)| (s - replay.costs.total_ns() as f64 / 1e9) / s)
        .collect();
    let overhead: Vec<f64> = replays
        .iter()
        .zip(&untraced_s)
        .map(|(replay, &s)| replay.wall_s / s)
        .collect();
    m.put("ingest.untraced_ns_per_span", untraced * 1e9 / spans, "ns");
    m.put("unattributed.share", stats::median(&unattributed), "share");
    // The same share within each replay alone, free of run-to-run noise.
    let replay_unattributed: Vec<f64> = replays
        .iter()
        .map(|replay| 1.0 - replay.costs.total_ns() as f64 / 1e9 / replay.wall_s)
        .collect();
    let within = stats::median(&replay_unattributed);
    m.put("unattributed.replay_share", within, "share");
    m.put("tracing.overhead", stats::median(&overhead), "ratio");

    print_layer_table(
        &costs,
        spans * pairs,
        untraced * 1e9 / spans,
        agent_ns_per_span,
    );

    let stream_vs_serial = {
        let (serial, streamed) = (report.sampled_traces, stream.report.sampled_traces);
        let why = if serial == streamed {
            Json::Null
        } else {
            Json::str(format!(
                "the unwarmed stream warms on its first {}-trace epoch, the serial driver on \
                 up to {} spans per service of the whole input: span patterns {} vs {}, \
                 topology patterns {} vs {}",
                workloads::EPOCH_TRACES,
                warmed.config().warmup_sample_size,
                stream.report.span_patterns,
                report.span_patterns,
                stream.report.topo_patterns,
                report.topo_patterns
            ))
        };
        Json::obj([
            ("serial_sampled_traces", Json::count(serial)),
            ("stream_sampled_traces", Json::count(streamed)),
            ("why_different", why),
        ])
    };
    let largest = Layer::ALL
        .into_iter()
        .max_by_key(|&layer| costs.get(layer).ns)
        .expect("layers exist");
    let detail = Json::obj([
        ("pairs", Json::count(replays.len() as u64)),
        (
            "untraced_ingest_s",
            Json::Arr(untraced_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "traced_ingest_s",
            Json::Arr(replays.iter().map(|r| Json::Num(r.wall_s)).collect()),
        ),
        (
            "largest_ingest_layer",
            Json::obj([
                ("layer", Json::str(largest.name())),
                (
                    "share_of_layers",
                    Json::Num(costs.get(largest).ns as f64 / costs.total_ns() as f64),
                ),
            ]),
        ),
        ("replay_fidelity", Json::Bool(!diverged)),
        ("stream_vs_serial", stream_vs_serial),
        ("report", report_json(&report)),
        ("stream_report", report_json(&stream.report)),
    ]);
    (m, detail)
}

/// Prints the layer table: cost per span and share of the untraced ingest.
fn print_layer_table(costs: &traced::Costs, spans: f64, untraced_ns: f64, agent_ns: f64) {
    println!(
        "{:<24} {:>12} {:>9} {:>12} {:>12}",
        "layer", "ns/span", "share", "allocs/span", "bytes/span"
    );
    for layer in Layer::ALL {
        let cost = costs.get(layer);
        let ns = cost.ns as f64 / spans;
        println!(
            "{:<24} {:>12.1} {:>8.1}% {:>12.2} {:>12.0}",
            layer.name(),
            ns,
            100.0 * ns / untraced_ns,
            cost.allocs as f64 / spans,
            cost.bytes as f64 / spans
        );
    }
    let layers = costs.total_ns() as f64 / spans;
    println!(
        "{:<24} {:>12.1} {:>8.1}%",
        "sum of layers",
        layers,
        100.0 * layers / untraced_ns
    );
    println!(
        "{:<24} {:>12.1} {:>8.1}%",
        "untraced ingest", untraced_ns, 100.0
    );
    println!("{:<24} {:>12.1}", "agent.ingest_sub_trace", agent_ns);
}

fn environment(args: &Args, input: &Input) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::count(args.seed)),
        ("seconds", Json::count(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::count(nproc as u64)),
        ("rustc", Json::str(env!("MINT_BENCH_RUSTC"))),
        ("commit", Json::str(env!("MINT_BENCH_COMMIT"))),
        ("source_fingerprint", Json::str(env!("MINT_BENCH_SOURCE"))),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("traces", Json::count(input.traces.len() as u64)),
        ("spans", Json::count(input.spans() as u64)),
        (
            "never_ingested_ids",
            Json::count(input.never_ingested.len() as u64),
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut rng = Rng::new(args.seed ^ 0x6d69_6e74_2d62_656e);
    let warm = args.trace || !args.workload.is_stream();
    let setup = set_up(args.workload, args.seed, warm);
    let (metrics, detail) = if args.trace {
        per_layer(&args, &setup, &mut rng)
    } else {
        end_to_end(&args, &setup, &mut rng)
    };

    let Metrics {
        values,
        timings,
        checks,
        ingested,
    } = metrics;
    for message in &checks.messages {
        eprintln!("check failed: {message}");
    }
    for (name, value, unit) in &values {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    let non_finite: Vec<&str> = values
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(n, _, _)| n.as_str())
        .collect();
    if !non_finite.is_empty() {
        eprintln!("non-finite metrics: {non_finite:?}");
        return ExitCode::from(1);
    }

    let report = Json::obj([
        ("environment", environment(&args, &setup.input)),
        ("detail", detail),
        ("timings", Json::Obj(timings)),
        (
            "checks",
            Json::obj([
                ("queries", Json::count(checks.queries())),
                ("wrong_answers", Json::count(checks.failed)),
                ("broken_invariants", Json::count(checks.broken)),
                ("false_hits", Json::count(checks.false_hits)),
                (
                    "messages",
                    Json::Arr(checks.messages.iter().map(Json::str).collect()),
                ),
            ]),
        ),
    ]);
    println!("report {}", report.render());
    let metrics = values.into_iter().map(|(name, value, unit)| {
        let value = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
        (name, value)
    });
    let result = Json::obj([
        ("correct", Json::Bool(checks.failures() == 0)),
        ("attempted", Json::count(checks.queries() + ingested)),
        ("failed", Json::count(checks.failures())),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
