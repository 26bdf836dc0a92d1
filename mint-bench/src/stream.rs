//! The streaming workload: the input consumed live by
//! `StreamingDeployment::process_stream_observed`, with queries issued
//! inline from the source iterator through a `QueryHandle`.

use crate::checks::{Checks, Sweep};
use crate::host::HostIndex;
use crate::serial::{repeat_within, DriverRun, Probe, MIN_REPS};
use crate::stats;
use crate::workloads::{Input, Rng};
use mint_core::{DeploymentReport, MintConfig, QueryHandle, QueryResult, StreamingDeployment};
use std::cell::RefCell;
use std::time::{Duration, Instant};
use trace_model::Trace;

/// The router issues one round of inline queries every this many pulls:
/// about 1 500 queries per stream, so a single stream supports a p99.  The
/// first query after each of the 32 publications frees the previous
/// generation; at this rate those queries are about 2% of all, so the p99
/// reads their cost instead of flipping between them and the fast path.
const QUERY_EVERY: usize = 16;
/// Ingested (already published) ids per round; one never-ingested id follows.
const INGESTED_PER_ROUND: usize = 2;

/// Router-side observations, shared by the source iterator and the epoch
/// observer (both run on the router thread, never at the same time).
#[derive(Default)]
struct Observed {
    /// When the router pulled each trace, and the calibration time spent
    /// by then.
    pulls: Vec<(Instant, Duration)>,
    /// Traces made queryable by the epochs published so far.
    published: usize,
    /// Visibility of the first epoch, which includes the warm-up.
    warm_up_visible_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    query_us: Vec<f64>,
    acquire_us: Vec<f64>,
    lag_traces: Vec<f64>,
    answers: Vec<(Probe, QueryResult)>,
    router_ns: f64,
    router_gaps: u64,
    last_exit: Option<Instant>,
    /// When each epoch was published, and the calibration time spent by
    /// then.
    published_at: Vec<(Instant, Duration)>,
    /// A calibration piece runs after each publication; its time is taken
    /// out of every interval that contains it.
    host: HostIndex,
    calibration: Duration,
    merge_ms: Vec<f64>,
    new_patterns: u64,
}

/// The source the router pulls from: the materialized input, plus the
/// inline queries and the pull timestamps.
struct Source<'a> {
    traces: std::vec::IntoIter<Trace>,
    observed: &'a RefCell<Observed>,
    handle: &'a QueryHandle,
    input: &'a Input,
    rng: Rng,
    traced: bool,
}

impl Source<'_> {
    fn ask(&mut self, observed: &mut Observed, probe: Probe) {
        let id = probe.id(self.input);
        let answer = if self.traced {
            let start = Instant::now();
            let snapshot = self.handle.snapshot();
            let acquired = Instant::now();
            let answer = snapshot.query(id);
            observed
                .acquire_us
                .push((acquired - start).as_secs_f64() * 1e6);
            observed
                .query_us
                .push(acquired.elapsed().as_secs_f64() * 1e6);
            answer
        } else {
            let start = Instant::now();
            let answer = self.handle.query(id);
            observed.query_us.push(start.elapsed().as_secs_f64() * 1e6);
            answer
        };
        observed
            .lag_traces
            .push((observed.pulls.len() - observed.published) as f64);
        observed.answers.push((probe, answer));
    }
}

impl Iterator for Source<'_> {
    type Item = Trace;

    fn next(&mut self) -> Option<Trace> {
        let entry = Instant::now();
        let observed = self.observed;
        let mut observed = observed.borrow_mut();
        if let Some(exit) = observed.last_exit {
            observed.router_ns += (entry - exit).as_nanos() as f64;
            observed.router_gaps += 1;
        }
        let published = observed.published;
        if observed.pulls.len().is_multiple_of(QUERY_EVERY) && published > 0 {
            for _ in 0..INGESTED_PER_ROUND {
                let probe = Probe::Ingested(self.rng.below(published));
                self.ask(&mut observed, probe);
            }
            let never = &self.input.never_ingested;
            let probe = Probe::Never(never[self.rng.below(never.len())]);
            self.ask(&mut observed, probe);
        }
        let trace = self.traces.next();
        let now = Instant::now();
        if trace.is_some() {
            let calibration = observed.calibration;
            observed.pulls.push((now, calibration));
        }
        observed.last_exit = Some(now);
        trace
    }
}

/// One stream over a fresh, unwarmed deployment.
pub struct StreamPass {
    pub deployment: StreamingDeployment,
    pub report: DeploymentReport,
    pub wall_s: f64,
    /// The stream's wall time cut at each epoch publication, less the
    /// calibration pieces, s: the first piece ends with the first
    /// publication, the last one with the report.
    pub pieces_s: Vec<f64>,
    /// One calibration piece per publication.
    pub host: HostIndex,
    /// Visibility latency of every trace after the first epoch, ms.
    pub visible_ms: Vec<f64>,
    /// Visibility latency of the first epoch, which waits for the warm-up.
    pub warm_up_visible_ms: Vec<f64>,
    /// Inline query latency, µs: the whole `QueryHandle::query` call in an
    /// untraced pass, the query on a pinned snapshot in a traced one.
    pub query_us: Vec<f64>,
    /// Snapshot acquisition, µs (traced passes only).
    pub acquire_us: Vec<f64>,
    /// Pulled-but-unpublished traces when each query ran.
    pub lag_traces: Vec<f64>,
    pub router_ns_per_trace: f64,
    pub merge_ms: Vec<f64>,
    pub new_patterns: u64,
    pub checks: Checks,
}

/// Streams `input` once.  The trace copy the router consumes is made here,
/// before the clock starts.
pub fn stream_once(input: &Input, config: &MintConfig, rng: Rng, traced: bool) -> StreamPass {
    let traces = input.traces.traces().to_vec();
    let mut deployment = StreamingDeployment::new(config.clone());
    let handle = deployment.query_handle();
    let observed = RefCell::new(Observed::default());
    let source = Source {
        traces: traces.into_iter(),
        observed: &observed,
        handle: &handle,
        input,
        rng,
        traced,
    };
    let start = Instant::now();
    let report = deployment.process_stream_observed(source, |epoch| {
        let now = Instant::now();
        let mut observed = observed.borrow_mut();
        let Observed {
            pulls,
            published,
            warm_up_visible_ms,
            visible_ms,
            published_at,
            host,
            calibration,
            merge_ms,
            new_patterns,
            ..
        } = &mut *observed;
        published_at.push((now, *calibration));
        let end = *published + epoch.traces as usize;
        let spent = *calibration;
        let latencies = pulls[*published..end]
            .iter()
            .map(|&(pulled, before)| (now - pulled - (spent - before)).as_secs_f64() * 1e3);
        if *published == 0 {
            warm_up_visible_ms.extend(latencies);
        } else {
            visible_ms.extend(latencies);
        }
        *published = end;
        merge_ms.push(epoch.merge_time.as_secs_f64() * 1e3);
        *new_patterns += (epoch.merge.new_span_patterns + epoch.merge.new_topo_patterns) as u64;
        *calibration += host.sample();
    });
    let end = Instant::now();
    let wall_s = (end - start).as_secs_f64();
    drop(handle);

    let mut observed = observed.into_inner();
    let cuts: Vec<(Instant, Duration)> = std::iter::once((start, Duration::ZERO))
        .chain(observed.published_at.iter().copied())
        .chain(std::iter::once((end, observed.calibration)))
        .collect();
    let pieces_s = cuts
        .windows(2)
        .map(|w| (w[1].0 - w[0].0 - (w[1].1 - w[0].1)).as_secs_f64())
        .collect();
    observed.host.end_rep();
    let mut checks = Checks::default();
    for (probe, answer) in &observed.answers {
        probe.check(input, answer, &mut checks);
    }
    if observed.published != input.traces.len() {
        checks.broken(format!(
            "{} of {} traces published by the end of the stream",
            observed.published,
            input.traces.len()
        ));
    }
    StreamPass {
        deployment,
        report,
        wall_s,
        pieces_s,
        host: observed.host,
        visible_ms: observed.visible_ms,
        warm_up_visible_ms: observed.warm_up_visible_ms,
        query_us: observed.query_us,
        acquire_us: observed.acquire_us,
        lag_traces: observed.lag_traces,
        router_ns_per_trace: observed.router_ns / observed.router_gaps.max(1) as f64,
        merge_ms: observed.merge_ms,
        new_patterns: observed.new_patterns,
        checks,
    }
}

/// Repeats the stream on fresh deployments for `seconds`.  Every
/// repetition draws the same inline queries: the router publishes at fixed
/// pull counts, so with one query seed each repetition asks the same ids at
/// the same points of the stream, and its pieces, traces and queries line
/// up with every other repetition's for [`stats::floor`].
pub fn run(input: &Input, config: &MintConfig, seconds: f64, rng: &mut Rng) -> DriverRun {
    let query_seed = rng.next();
    let mut ingest_s = Vec::new();
    let mut pieces_s = Vec::new();
    let mut reps_visible_ms = Vec::new();
    let mut warm_up_visible_ms = Vec::new();
    let mut reps_query_us = Vec::new();
    let mut checks = Checks::default();
    let mut host = HostIndex::default();
    let mut first: Option<(DeploymentReport, Sweep)> = None;
    let reps = repeat_within(seconds, MIN_REPS, |_| {
        let pass = stream_once(input, config, Rng::new(query_seed), false);
        host.absorb(pass.host);
        ingest_s.push(pass.wall_s);
        pieces_s.push(pass.pieces_s);
        reps_visible_ms.push(pass.visible_ms);
        warm_up_visible_ms.push(pass.warm_up_visible_ms);
        reps_query_us.push(pass.query_us);
        checks.absorb(pass.checks);
        let (first_report, _) = first.get_or_insert_with(|| {
            let backend = pass.deployment.backend();
            let sweep = Sweep::run(backend, &input.traces, &input.never_ingested);
            (pass.report, sweep)
        });
        if pass.report != *first_report {
            checks.broken("stream report differs between repetitions".into());
        }
    });
    let (report, sweep) = first.expect("at least one repetition ran");
    let queries = vec![
        ("inline_ingested", checks.ingested),
        ("inline_never_ingested", checks.never),
    ];
    DriverRun {
        reps,
        ingest_s,
        floor_ingest_s: stats::floor(&pieces_s).iter().sum(),
        visible_ms: stats::floor(&reps_visible_ms),
        warm_up_visible_ms: stats::floor(&warm_up_visible_ms),
        query_us: stats::floor(&reps_query_us),
        raw_query_us: reps_query_us.concat(),
        checks,
        report,
        sweep,
        queries,
        process_s: None,
        host,
    }
}
