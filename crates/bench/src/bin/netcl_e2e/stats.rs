//! Sample summaries, the regression rule, and the host reference loop.

use std::time::Instant;

/// What is reported for one metric of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Summary {
    /// A count or a single measurement: every statistic is the value.
    pub fn single(v: f64) -> Summary {
        Summary { median: v, p25: v, p75: v, min: v, max: v, samples: 1 }
    }

    /// Summary of `samples` (at least one).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&s, 0.5),
            p25: quantile(&s, 0.25),
            p75: quantile(&s, 0.75),
            min: s[0],
            max: s[s.len() - 1],
            samples: s.len(),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// The `q`-quantile of ascending `sorted`, by the rule Python's
/// `statistics.quantiles` uses (exclusive method: position `q·(n+1)`,
/// linear interpolation, clamped to the sample range), so a spread computed
/// here matches one computed from the same values there.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = (q * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        sorted[n - 1]
    } else {
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The verdict on one workload × end-to-end metric pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Within,
    /// Worse than the base by more than the bound.
    Regressed,
    /// One side's own quartile spread is wider than the bound, so the
    /// pair can show neither a regression nor its absence.
    Unresolved,
}

/// How much worse `new` is than `base` as a share of `base` (negative:
/// better), in the metric's own direction.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Applies the benchmark's rule to one pair of summaries. A difference of
/// less than `floor`, in the metric's own unit, is no difference — else a
/// set-up of a few milliseconds flaps on a fraction of one.
pub fn judge(base: &Summary, new: &Summary, better: Better, bound: f64, floor: f64) -> Verdict {
    let wide = |s: &Summary| s.spread() > bound && s.p75 - s.p25 > floor;
    let worse = worsening(base.median, new.median, better);
    if wide(base) || wide(new) {
        Verdict::Unresolved
    } else if worse > bound && worse * base.median.abs() > floor {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// What [`host_ref_ms`] takes on the sandbox this benchmark was sized on
/// (Xeon 2.1 GHz, 2 vCPU) while its core is otherwise quiet.
pub const HOST_REF_NOMINAL_MS: f64 = 1.7;

/// Words in the reference loop's table: 1 MiB, the size of an L2 cache.
pub const HOST_REF_TABLE: usize = 1 << 17;

/// A fixed piece of work — 1 200 000 dependent read-modify-writes at random
/// places of a 1 MiB `table`, about 2 ms — that depends on no code of the
/// repository. The sandbox's speed steps between levels some 1.2–1.4×
/// apart every few seconds to tens of seconds (other tenants on the core
/// and its caches); of the loops tried, this cache-bound one steps most
/// like the switch and the simulator do, so timing it beside a measured
/// section tells how fast the host was for them at that moment. See
/// `Harness::timed`, and README.md ("Noise") for the measurements.
pub fn host_ref_ms(table: &mut [u64]) -> f64 {
    assert_eq!(table.len(), HOST_REF_TABLE);
    let start = Instant::now();
    let (mut a, mut sum) = (1u64, 0u64);
    for i in 0..1_200_000u64 {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        let at = (a >> 20) as usize % HOST_REF_TABLE;
        sum = sum.wrapping_add(table[at]);
        table[at] = sum ^ a;
    }
    std::hint::black_box(sum);
    start.elapsed().as_secs_f64() * 1e3
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let sum = Summary::of(&s);
        assert_eq!((sum.p25, sum.median, sum.p75), (2.75, 5.5, 8.25));
        assert_eq!((sum.min, sum.max, sum.samples), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let sum = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((sum.p25, sum.median, sum.p75), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], clamped here
        // to the sample range so a quartile is never outside what was seen.
        let sum = Summary::of(&[2.0, 1.0]);
        assert_eq!((sum.p25, sum.median, sum.p75), (1.0, 1.5, 2.0));
        assert_eq!(Summary::of(&[4.0]), Summary::single(4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let sum = Summary::of(&[90.0, 100.0, 110.0]);
        assert!((sum.spread() - 0.2).abs() < 1e-12);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }

    #[test]
    fn judge_respects_direction_and_bound() {
        let s = Summary::single;
        // Throughput: 8 % lower is within a 10 % bound, 12 % lower is not,
        // and any rise is fine.
        assert_eq!(judge(&s(100.0), &s(92.0), Better::Higher, 0.10, 0.0), Verdict::Within);
        assert_eq!(judge(&s(100.0), &s(88.0), Better::Higher, 0.10, 0.0), Verdict::Regressed);
        assert_eq!(judge(&s(100.0), &s(150.0), Better::Higher, 0.10, 0.0), Verdict::Within);
        // Time: the other way round.
        assert_eq!(judge(&s(2.0), &s(2.3), Better::Lower, 0.10, 0.0), Verdict::Regressed);
        assert_eq!(judge(&s(2.0), &s(1.0), Better::Lower, 0.10, 0.0), Verdict::Within);
    }

    #[test]
    fn a_difference_below_the_floor_is_none() {
        let s = Summary::single;
        // A 4 ms set-up that takes 6 ms is 50 % worse and 2 ms worse.
        assert_eq!(judge(&s(0.004), &s(0.006), Better::Lower, 0.25, 0.05), Verdict::Within);
        assert_eq!(judge(&s(0.4), &s(0.6), Better::Lower, 0.25, 0.05), Verdict::Regressed);
        // Nor is a spread below it too wide to judge by.
        let noisy = Summary::of(&[0.003, 0.004, 0.006]);
        assert_eq!(judge(&noisy, &s(0.004), Better::Lower, 0.25, 0.05), Verdict::Within);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = Summary::of(&[80.0, 100.0, 120.0]);
        let v = judge(&noisy, &Summary::single(100.0), Better::Higher, 0.10, 0.0);
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
