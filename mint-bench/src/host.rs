//! The host's speed, measured beside the program's own work.
//!
//! On a shared VM the same code runs up to 50% slower for minutes at a
//! time while other tenants load the host, and a floor over repetitions
//! (`stats::floor`) cannot remove a slowdown that lasts longer than the
//! run.  So a run also times a fixed kernel, owned by the benchmark and
//! never changed by the program, in short pieces between the pieces of the
//! program's work, and takes the floor of those in the same way.  The
//! kernel's floor over its reference value is the run's slowdown; every
//! gated timing is divided by it, which expresses it at the reference
//! host speed.  A change to the program moves the program's pieces and
//! not the kernel's, so it moves the gated timings in full.

use crate::stats;
use std::time::Instant;

/// Windows sorted per calibration piece: about 1.5 ms of work.
const WINDOWS_PER_PIECE: usize = 128;
/// Values per window.
const WINDOW: usize = 512;
/// Floor of one calibration piece on the reference host, s: about the
/// lowest seen on the 2-vCPU x86-64 VM described in README.md.
pub const REFERENCE_PIECE_S: f64 = 1.4e-3;

/// The calibration kernel: sorts [`WINDOWS_PER_PIECE`] windows of
/// [`WINDOW`] pseudo-random `f64` values, the same values every time.
/// Sorting short windows of floats is branchy, cache-resident scalar work;
/// measured against the program on the reference host, its time tracked
/// the host's slow phases more closely than random-access memory kernels
/// did, for ingest and for queries alike (see README.md).
fn kernel() -> f64 {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut window = Vec::with_capacity(WINDOW);
    let mut checksum = 0.0;
    for _ in 0..WINDOWS_PER_PIECE {
        window.clear();
        for _ in 0..WINDOW {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            window.push((state >> 11) as f64);
        }
        window.sort_by(f64::total_cmp);
        checksum += window[WINDOW / 2];
    }
    checksum
}

/// Calibration pieces of a run, grouped by repetition.  Each repetition
/// must take its pieces at the same points of the same work.
#[derive(Debug, Default)]
pub struct HostIndex {
    reps: Vec<Vec<f64>>,
    current: Vec<f64>,
}

impl HostIndex {
    /// Runs and times one calibration piece; returns its duration, so a
    /// caller that timed around it can take it out.
    pub fn sample(&mut self) -> std::time::Duration {
        let start = Instant::now();
        std::hint::black_box(kernel());
        let took = start.elapsed();
        self.current.push(took.as_secs_f64());
        took
    }

    /// Closes the current repetition.
    pub fn end_rep(&mut self) {
        self.reps.push(std::mem::take(&mut self.current));
    }

    /// Adds the closed repetitions of `other`.
    pub fn absorb(&mut self, other: HostIndex) {
        self.reps.extend(other.reps);
    }

    /// Mean floor of a calibration piece, s.
    pub fn piece_floor_s(&self) -> f64 {
        let floor = stats::floor(&self.reps);
        floor.iter().sum::<f64>() / floor.len().max(1) as f64
    }

    /// How much slower than the reference host this run's host was.
    pub fn slowdown(&self) -> f64 {
        self.piece_floor_s() / REFERENCE_PIECE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        assert_eq!(kernel().to_bits(), kernel().to_bits());
    }

    #[test]
    fn slowdown_is_the_piece_floor_over_the_reference() {
        let index = HostIndex {
            reps: vec![
                vec![2.0 * REFERENCE_PIECE_S, 4.0 * REFERENCE_PIECE_S],
                vec![3.0 * REFERENCE_PIECE_S, 2.0 * REFERENCE_PIECE_S],
            ],
            current: Vec::new(),
        };
        assert!((index.slowdown() - 2.0).abs() < 1e-12);
    }
}
