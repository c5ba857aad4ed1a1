//! The reference kernel and the bracketing timer built on it.
//!
//! Host time on this sandbox moves by 1.3–2x for tens of seconds at a
//! time (a neighbour on the host; see README.md), so no raw wall time
//! repeats. Every timed section is therefore bracketed by a fixed
//! piece of work of the program's own flavour — random gathers of
//! feature-row-sized rows from a 64 MiB table — and reported as
//! `section / reference`: the neighbour slows both alike and the ratio
//! repeats.
//!
//! The reference is memory work only, on purpose. The neighbour takes
//! memory bandwidth and shared cache, not cycles: over six noisy runs
//! per workload a dependent integer chain moved by 2–5 % while the
//! gathers moved by 14–74 % and the passes by 16–110 %, and dividing by
//! gathers alone left a 5–9 % range where gathers + chain left 9–17 %.
//!
//! The kernel never changes with the program under test. Changing it
//! invalidates every recorded host-clock number.

use std::hint::black_box;
use std::time::Instant;

/// What one reference run is *declared* to cost. Normalised times are
/// `wall / measured_ref * REF_NOMINAL_S`, so they stay in seconds "at
/// reference speed"; the constant itself never enters a comparison.
pub const REF_NOMINAL_S: f64 = 0.025;

const ROW_FLOATS: usize = 128;
const TABLE_ROWS: usize = (64 << 20) / (ROW_FLOATS * 4);
const GATHERS: usize = 120_000;

/// Checksum of one run; every run must reproduce it.
pub const REF_CHECKSUM: u64 = 0x2576_bf70_9fd3_e27e;

/// The 64 MiB gather table plus the fixed work run over it.
pub struct RefKernel {
    table: Vec<f32>,
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RefKernel {
    /// Builds the table. Cells hold integers below 64, so the 120 000
    /// additions into each accumulator stay exact in `f32` and the
    /// checksum does not depend on how the compiler vectorises the sum.
    pub fn new() -> Self {
        let table = (0..TABLE_ROWS * ROW_FLOATS)
            .map(|i| ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) as f32)
            .collect();
        Self { table }
    }

    /// One run of the fixed work; returns its checksum.
    pub fn run(&self) -> u64 {
        let mut acc = [0f32; ROW_FLOATS];
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..GATHERS {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let row = (lcg >> 33) as usize % TABLE_ROWS;
            let cells = &self.table[row * ROW_FLOATS..(row + 1) * ROW_FLOATS];
            for (a, &c) in acc.iter_mut().zip(cells) {
                *a += c;
            }
        }
        acc.iter()
            .fold(0u64, |h, &a| h.rotate_left(7) ^ u64::from(a.to_bits()))
    }

    /// Times one run in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the checksum is off: the kernel did different work, so
    /// its time is no reference.
    pub fn timed(&self) -> f64 {
        let t0 = Instant::now();
        let sum = black_box(self).run();
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(sum, REF_CHECKSUM, "reference kernel checksum");
        secs
    }
}

/// `wall` seconds re-expressed at reference speed, from the reference
/// runs that bracket the section.
pub fn normalise(wall_s: f64, ref_before_s: f64, ref_after_s: f64) -> f64 {
    wall_s / (0.5 * (ref_before_s + ref_after_s)) * REF_NOMINAL_S
}

/// One timed section.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall seconds as measured.
    pub raw_s: f64,
    /// Seconds at reference speed.
    pub norm_s: f64,
}

impl Sample {
    /// What turns a raw duration measured inside this section into
    /// reference-speed time (`norm / raw`).
    pub fn factor(&self) -> f64 {
        if self.raw_s > 0.0 {
            self.norm_s / self.raw_s
        } else {
            0.0
        }
    }
}

/// Times sections, each bracketed by reference runs.
pub struct Bracket {
    kernel: RefKernel,
    last_ref_s: f64,
    last_ref_end: Instant,
    /// Every reference time taken, in order (for `host.ref_*`).
    pub ref_samples: Vec<f64>,
}

/// A reference run older than this no longer describes the machine:
/// [`Bracket::section`] takes a fresh one first.
const STALE_AFTER_S: f64 = 0.005;

impl Default for Bracket {
    fn default() -> Self {
        Self::new()
    }
}

impl Bracket {
    /// Builds the kernel and takes the first reference (after one
    /// discarded run that faults the table in).
    pub fn new() -> Self {
        let kernel = RefKernel::new();
        kernel.timed();
        let last_ref_s = kernel.timed();
        Self {
            kernel,
            last_ref_s,
            last_ref_end: Instant::now(),
            ref_samples: vec![last_ref_s],
        }
    }

    fn take_ref(&mut self) -> f64 {
        let r = self.kernel.timed();
        self.last_ref_s = r;
        self.last_ref_end = Instant::now();
        self.ref_samples.push(r);
        r
    }

    /// Runs `f` between two reference runs and returns its result with
    /// the raw and normalised time. Back-to-back sections share the
    /// reference between them.
    pub fn section<T>(&mut self, f: impl FnOnce() -> T) -> (T, Sample) {
        if self.last_ref_end.elapsed().as_secs_f64() > STALE_AFTER_S {
            self.take_ref();
        }
        let before = self.last_ref_s;
        let t0 = Instant::now();
        let out = f();
        let raw_s = t0.elapsed().as_secs_f64();
        let after = self.take_ref();
        let sample = Sample {
            raw_s,
            norm_s: normalise(raw_s, before, after),
        };
        (out, sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_pinned_and_repeats() {
        let k = RefKernel::new();
        assert_eq!(k.run(), REF_CHECKSUM);
        assert_eq!(k.run(), REF_CHECKSUM);
    }

    #[test]
    fn fixed_work_sizes() {
        assert_eq!(TABLE_ROWS * ROW_FLOATS * 4, 64 << 20);
        assert_eq!(ROW_FLOATS * 4, 512);
        assert_eq!(RefKernel::new().table.len(), TABLE_ROWS * ROW_FLOATS);
    }

    #[test]
    fn normalisation_arithmetic() {
        // A section as long as its references is one nominal reference.
        assert_eq!(normalise(0.05, 0.05, 0.05), REF_NOMINAL_S);
        // Twice-slow machine, twice-long wall: same normalised time.
        let fast = normalise(0.2, 0.025, 0.025);
        let slow = normalise(0.4, 0.05, 0.05);
        assert!((fast - slow).abs() < 1e-15);
        assert!((fast - 0.2).abs() < 1e-15);
        // The bracket is the mean of both sides.
        assert!((normalise(0.3, 0.02, 0.04) - 0.3 / 0.03 * REF_NOMINAL_S).abs() < 1e-15);
    }

    #[test]
    fn section_reports_both_clocks() {
        let mut b = Bracket::new();
        let (v, s) = b.section(|| 7);
        assert_eq!(v, 7);
        assert!(s.raw_s >= 0.0 && s.norm_s >= 0.0);
        assert!(b.ref_samples.len() >= 2);
    }
}
