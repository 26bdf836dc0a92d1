//! The untraced serial workloads: the whole input through the serial
//! driver, timed in pieces, then a fixed single-client query mix against
//! its backend, repeated for the run's length.

use crate::checks::{Checks, Sweep};
use crate::host::HostIndex;
use crate::stats;
use crate::workloads::{Input, Rng};
use mint_core::{DeploymentReport, MintDeployment, QueryResult};
use std::time::Instant;
use trace_model::{TraceId, TraceSet};

/// Queries per class (sampled, unsampled, never ingested) in the mix: 10 200
/// in all.  Ids are drawn with replacement, so the median does not hinge on
/// which few hundred ids were picked, and the mix lasts a second or more, so
/// its samples do not all read the machine's speed at one instant.
const MIX_PER_CLASS: usize = 3_400;

/// One query of a mix.
#[derive(Debug, Clone, Copy)]
pub enum Probe {
    /// The trace at this index of the input.
    Ingested(usize),
    Never(TraceId),
}

impl Probe {
    pub fn id(self, input: &Input) -> TraceId {
        match self {
            Probe::Ingested(index) => input.traces.traces()[index].trace_id(),
            Probe::Never(id) => id,
        }
    }

    /// Verifies `answer` against what the input says it should be.
    pub fn check(self, input: &Input, answer: &QueryResult, checks: &mut Checks) {
        match self {
            Probe::Ingested(index) => checks.ingested(&input.traces.traces()[index], answer),
            Probe::Never(_) => checks.never(answer),
        }
    }
}

/// Runs `rep` once, then again while another repetition as long as the last
/// one still fits in `seconds` from the first start.  Returns the count.
pub fn repeat_within(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut done = 0;
    loop {
        let rep_start = Instant::now();
        rep(done);
        done += 1;
        let last = rep_start.elapsed().as_secs_f64();
        if done >= min_reps && start.elapsed().as_secs_f64() + last > seconds {
            return done;
        }
    }
}

/// What an untraced run of either driver measured.
///
/// Every repetition does the same work in the same order, timed piece by
/// piece; the gated figures are built from each piece's fastest repetition
/// ([`stats::floor`]), the raw per-repetition figures go to the report.
pub struct DriverRun {
    pub reps: usize,
    /// Wall time of each repetition's ingest, s.
    pub ingest_s: Vec<f64>,
    /// Ingest time summed over each piece's fastest repetition, s.
    pub floor_ingest_s: f64,
    /// Per trace, fastest repetition: from the driver receiving it until it
    /// is queryable, ms.
    pub visible_ms: Vec<f64>,
    /// The same for the traces whose wait includes the driver's warm-up
    /// (the streaming driver's first epoch), kept out of `visible_ms`.
    pub warm_up_visible_ms: Vec<f64>,
    /// Per timed query, fastest repetition, µs.
    pub query_us: Vec<f64>,
    /// Every timed query of every repetition, µs.
    pub raw_query_us: Vec<f64>,
    pub checks: Checks,
    pub report: DeploymentReport,
    /// The sweep of every id on the reference backend.
    pub sweep: Sweep,
    /// Timed queries by class, over all repetitions.
    pub queries: Vec<(&'static str, u64)>,
    /// Wall time of the one whole-batch `process` call (serial only), s.
    pub process_s: Option<f64>,
    /// Calibration pieces taken between the pieces of every repetition.
    pub host: HostIndex,
}

/// Repetitions a run makes at least, so every piece has a floor to pick.
pub const MIN_REPS: usize = 3;

/// Traces per timed ingest piece: tens of milliseconds of work, well below
/// the seconds a burst of load from other tenants lasts.
const PIECE_TRACES: usize = 64;

/// Queries of the mix between two calibration pieces.
const QUERIES_PER_CALIBRATION: usize = 256;

/// The fixed mix: one third each of sampled, unsampled and never-ingested
/// ids, interleaved in a seeded order.
fn query_mix(sweep: &Sweep, input: &Input, rng: &mut Rng) -> (Vec<Probe>, [usize; 3]) {
    let mut mix = Vec::with_capacity(3 * MIX_PER_CLASS);
    let mut sizes = [0; 3];
    for _ in 0..MIX_PER_CLASS {
        for (class, pool) in [&sweep.sampled, &sweep.unsampled].into_iter().enumerate() {
            if !pool.is_empty() {
                mix.push(Probe::Ingested(pool[rng.below(pool.len())]));
                sizes[class] += 1;
            }
        }
        let never = &input.never_ingested;
        mix.push(Probe::Never(never[rng.below(never.len())]));
        sizes[2] += 1;
    }
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.below(i + 1));
    }
    (mix, sizes)
}

/// `rep` with the parts that depend on the batch boundary set to
/// `reference`'s: the pattern-upload bytes and the simulated duration.
fn batch_free(mut rep: DeploymentReport, reference: &DeploymentReport) -> DeploymentReport {
    rep.network.pattern_bytes = reference.network.pattern_bytes;
    rep.duration_s = reference.duration_s;
    rep
}

/// One whole-batch `process` call gives the report, the sweep and the query
/// mix.  Then each repetition warms a new deployment, untimed, and
/// feeds every trace but the last through `MintDeployment::ingest_trace`
/// (the loop inside `process`) in pieces of [`PIECE_TRACES`], and the last
/// trace through `process`, which adds the end-of-batch upload and Bloom
/// drain; then it runs the mix on that deployment.  A calibration piece
/// follows every ingest piece and every [`QUERIES_PER_CALIBRATION`] queries.
///
/// A new deployment, unlike a clone, gets new hash-map seeds, and with them
/// a new memory layout of the backend's maps.  That layout alone moved the
/// query p50 of one seed by up to 30% from one process to the next;
/// warming each repetition afresh lets the floor range over several
/// layouts.
pub fn run(input: &Input, warmed: &MintDeployment, seconds: f64, rng: &mut Rng) -> DriverRun {
    let run_start = Instant::now();
    let traces = input.traces.traces();
    let (head, last) = traces.split_at(traces.len() - 1);
    let last: TraceSet = last.iter().cloned().collect();

    let mut reference = warmed.clone();
    let process_start = Instant::now();
    let report = reference.process(&input.traces);
    let process_s = process_start.elapsed().as_secs_f64();
    let sweep = Sweep::run(reference.backend(), &input.traces, &input.never_ingested);
    drop(reference);
    let (mix, sizes) = query_mix(&sweep, input, rng);

    let mut pieces_s = Vec::new();
    let mut reps_query_us = Vec::new();
    let mut checks = Checks::default();
    let mut host = HostIndex::default();
    let remaining = seconds - run_start.elapsed().as_secs_f64();
    let reps = repeat_within(remaining, MIN_REPS, |_| {
        let mut deployment = MintDeployment::new(warmed.config().clone());
        deployment.warm_up(&input.traces);
        let mut pieces = Vec::with_capacity(head.len() / PIECE_TRACES + 2);
        for piece in head.chunks(PIECE_TRACES) {
            let start = Instant::now();
            for trace in piece {
                deployment.ingest_trace(trace);
            }
            pieces.push(start.elapsed().as_secs_f64());
            host.sample();
        }
        let start = Instant::now();
        let rep_report = deployment.process(&last);
        pieces.push(start.elapsed().as_secs_f64());
        host.sample();
        pieces_s.push(pieces);
        if batch_free(rep_report, &report) != report {
            checks.broken(format!(
                "piecewise ingest {rep_report:?} differs from process {report:?}"
            ));
        }

        let mut query_us = Vec::with_capacity(mix.len());
        for round in mix.chunks(QUERIES_PER_CALIBRATION) {
            for &probe in round {
                let id = probe.id(input);
                let start = Instant::now();
                let answer = deployment.backend().query(id);
                query_us.push(start.elapsed().as_secs_f64() * 1e6);
                probe.check(input, &answer, &mut checks);
            }
            host.sample();
        }
        reps_query_us.push(query_us);
        host.end_rep();
    });
    let floor_ingest_s: f64 = stats::floor(&pieces_s).iter().sum();
    let per_class = |class: usize| (sizes[class] * reps) as u64;
    DriverRun {
        reps,
        ingest_s: pieces_s.iter().map(|p| p.iter().sum()).collect(),
        floor_ingest_s,
        // The serial driver receives the whole batch at once, and every
        // trace of it becomes queryable when the batch is done.
        visible_ms: vec![floor_ingest_s * 1e3; traces.len()],
        warm_up_visible_ms: Vec::new(),
        query_us: stats::floor(&reps_query_us),
        raw_query_us: reps_query_us.concat(),
        checks,
        report,
        sweep,
        queries: vec![
            ("mix_sampled", per_class(0)),
            ("mix_unsampled", per_class(1)),
            ("mix_never_ingested", per_class(2)),
        ],
        process_s: Some(process_s),
        host,
    }
}
