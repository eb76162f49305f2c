//! Host-speed reference: op timings are reported at a fixed host speed.
//!
//! On a shared VM the op times move by up to 1.6× for seconds to minutes at
//! a time, with thread CPU time equal to wall time, no steal time and no
//! page faults: the core itself runs the program slower (a busy neighbour
//! on the same physical core, presumably).  Two runs of the same code then
//! land in different stretches, and their raw timings differ by more than
//! any useful bound.  So a run times a fixed reference kernel between its
//! ops — benchmark code that no change to the workspace touches — and
//! scales each op's time by `NOMINAL_MS` over the median of the kernel
//! samples nearest to it.  A change that slows the program slows the ops
//! and not the kernel, so it shows in the scaled figures as in raw ones; a
//! slow stretch of the host slows both and cancels.  The raw figures and the
//! run's host speed go to the stamp.
//!
//! The kernel is throughput-bound, like the simulator: four independent
//! random-update streams over an L2-sized table, with a data-dependent
//! branch.  Latency-bound chains and memory streaming were tried too; over a
//! 60 s `latency_batch` run they tracked the pass times less closely.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The reference kernel's median time, in ms, on the host the README's
/// figures come from (a 2-vCPU Intel Xeon VM) in a quiet stretch.  Scaled
/// figures are in ms at that speed.
pub const NOMINAL_MS: f64 = 1.3;
/// Kernel samples around an op whose median gives the host speed there.
const NEAREST: usize = 5;
/// Entries of the kernel's table: 512 KiB of `u32`, inside a core's L2.
const TABLE: usize = 1 << 17;
/// Steps per kernel sample (each step updates four streams).
const STEPS: u32 = 120_000;

/// The reference kernel and the samples a run took of it.
pub struct HostSpeed {
    table: Vec<u32>,
    seed: u64,
    samples: Vec<(Instant, f64)>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            table: (0..TABLE as u32).collect(),
            seed: 0x2545_f491_4f6c_dd1d,
            samples: Vec::new(),
        }
    }

    /// Time the kernel once and keep the sample.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(self.kernel());
        self.samples
            .push((start, start.elapsed().as_secs_f64() * 1000.0));
    }

    #[inline(never)]
    fn kernel(&mut self) -> u64 {
        let mask = TABLE - 1;
        let s = self.seed;
        self.seed = s.wrapping_add(1);
        let mut x = [
            s | 1,
            s ^ 0x1234_5678,
            s.rotate_left(17) | 1,
            s.wrapping_mul(3) | 1,
        ];
        let mut acc = [0u64; 4];
        for _ in 0..STEPS {
            for (x, acc) in x.iter_mut().zip(&mut acc) {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
                let i = *x as usize & mask;
                let v = self.table[i];
                self.table[i] = v.wrapping_add(*x as u32);
                *acc = acc.wrapping_add(u64::from(v).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    ^ u64::from(v >> 3);
                if v & 3 == 0 {
                    *acc ^= *x;
                }
            }
        }
        acc.iter().fold(0, |a, b| a ^ b)
    }

    /// The kernel's local time at `at`: the median of the `NEAREST`
    /// samples closest to it in time.
    fn local_ms(&self, at: Instant) -> f64 {
        let mut by_distance: Vec<(u128, f64)> = self
            .samples
            .iter()
            .map(|&(t, ms)| {
                let d = if t > at { t - at } else { at - t };
                (d.as_nanos(), ms)
            })
            .collect();
        by_distance.sort_by_key(|&(d, _)| d);
        let nearest: Vec<f64> = by_distance
            .iter()
            .take(NEAREST)
            .map(|&(_, ms)| ms)
            .collect();
        median(&nearest)
    }

    /// `ms`, measured around `at`, at the nominal host speed.
    pub fn scale(&self, at: Instant, ms: f64) -> f64 {
        ms * NOMINAL_MS / self.local_ms(at)
    }

    /// Median kernel time of the run, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
    }

    /// The run's host speed relative to nominal (above 1 is faster).
    pub fn relative(&self) -> f64 {
        NOMINAL_MS / self.median_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn scaling_uses_the_nearest_samples_in_time() {
        let t0 = Instant::now();
        let mut speed = HostSpeed::new();
        // A stretch at nominal speed, then one at half speed.
        for k in 0..20u64 {
            let ms = if k < 10 { NOMINAL_MS } else { 2.0 * NOMINAL_MS };
            speed.samples.push((t0 + Duration::from_secs(k), ms));
        }
        let fast = t0 + Duration::from_millis(2_500);
        let slow = t0 + Duration::from_millis(16_500);
        assert_eq!(speed.scale(fast, 10.0), 10.0);
        assert_eq!(speed.scale(slow, 20.0), 10.0);
        // The run's median sits between the stretches: 1.5× nominal.
        assert!((speed.relative() - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_is_deterministic_and_takes_a_sample() {
        let mut a = HostSpeed::new();
        let mut b = HostSpeed::new();
        assert_eq!(a.kernel(), b.kernel());
        a.sample();
        assert_eq!(a.samples.len(), 1);
        assert!(a.median_ms() > 0.0);
    }
}
