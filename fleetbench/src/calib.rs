//! Calibrated time: a fixed reference kernel that turns host time into
//! *reference* time.
//!
//! Wall time on a shared box is multi-modal — the same work takes 15–30 %
//! longer while the machine dwells in a slow mode (a neighbour's load,
//! a frequency step), for seconds at a stretch, and CPU time tracks wall
//! — so neither medians, minima over rounds nor CPU time repeat between
//! two sets of runs of the same code. The kernel below does the kind of
//! work the program does (ordered-map inserts and walks, float maths, a
//! sort) in a fixed amount (25–35 ms); the bench runs it next to every
//! group of samples and reports `raw × CAL_REF_US / kernel_time_nearby`.
//! A slow mode stretches both alike and cancels out.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the box the first baseline was taken on, in µs.
/// A constant of the benchmark: it only fixes the unit of "reference
/// microseconds", so changing it rescales every timing metric alike.
pub const CAL_REF_US: f64 = 30_000.0;

/// How much memory the kernel works in. Not every slow mode slows all
/// code alike: on the baseline box a mode that stretched the
/// cache-resident `paper-corpus` pass by 20 % stretched a kernel working
/// in ≈ 10 MB by 9 % and one working in ≈ 100 KB by 17 %, while the
/// fleets (MBs of jobs, placements and series) follow the large kernel
/// with a log-log slope of 0.94–0.97. So the kernel works in about what
/// the workload does. Both sizes take about the same time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Footprint {
    /// One 150 k-entry map: the fleet workloads.
    Fleet,
    /// A 2 k-entry map, rebuilt 172 times: the 4–25-node presets.
    Corpus,
}

impl Footprint {
    /// (map entries, times the map is built).
    fn shape(self) -> (u32, u32) {
        match self {
            Footprint::Fleet => (150_000, 1),
            Footprint::Corpus => (2_000, 172),
        }
    }
}

// Inserts and the sort follow the program's slow-down across machine
// modes most closely (log-log slope 0.97–1.0 against a replayed control
// cycle; ordered walks 0.93), so they are most of the kernel.
const WALKS: u32 = 2;

#[inline(never)]
fn kernel(footprint: Footprint, seed: u64) -> f64 {
    let (entries, builds) = footprint.shape();
    let mut x = seed | 1;
    let mut acc = 0.0f64;
    for _ in 0..builds {
        let mut map = BTreeMap::new();
        for i in 0..entries {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x >> 16, f64::from(i));
        }
        for _ in 0..WALKS {
            for (k, v) in &map {
                acc += (*k as f64 + *v).sqrt();
            }
        }
        let mut values: Vec<f64> = map.into_values().collect();
        values.sort_by(f64::total_cmp);
        acc += values[values.len() / 2];
    }
    acc
}

/// Run the kernel once; its host time in µs. The kernel's allocations
/// are kept out of the allocation counters.
pub fn run(footprint: Footprint) -> f64 {
    let _pause = crate::alloc::pause();
    let start = Instant::now();
    black_box(kernel(footprint, black_box(0x9E37_79B9_7F4A_7C15)));
    start.elapsed().as_secs_f64() * 1e6
}

/// Reference µs for `raw_us` of host time measured between two kernel
/// runs that took `before_us` and `after_us`.
pub fn to_ref(raw_us: f64, before_us: f64, after_us: f64) -> f64 {
    raw_us * CAL_REF_US / (0.5 * (before_us + after_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_mode_that_stretches_work_and_kernel_alike_cancels_out() {
        let _serial = crate::alloc::serial();
        let fast = to_ref(1000.0, CAL_REF_US, CAL_REF_US);
        let slow = to_ref(1300.0, 1.3 * CAL_REF_US, 1.3 * CAL_REF_US);
        assert!((fast - 1000.0).abs() < 1e-9);
        assert!((slow - fast).abs() < 1e-9);
    }

    #[test]
    fn the_kernel_does_a_fixed_amount_of_work() {
        let _serial = crate::alloc::serial();
        for footprint in [Footprint::Fleet, Footprint::Corpus] {
            assert_eq!(
                kernel(footprint, 7).to_bits(),
                kernel(footprint, 7).to_bits()
            );
        }
    }
}
