//! Monotone, continuous piecewise-linear curves with exact inverses.
//!
//! Compiled into test builds only: the SLA goals answer in closed form,
//! and this general library is the oracle they are held to, bit for bit
//! (`goal::tests::closed_form_*`).
//! Monotonicity is what makes inverse queries ("how much CPU buys utility
//! *u*?") well-defined, and the paper explicitly restricts itself to
//! monotonic and continuous utility functions.

/// Direction of monotonicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotonicity {
    /// y never decreases as x grows (e.g. utility of allocated CPU).
    NonDecreasing,
    /// y never increases as x grows (e.g. utility of completion time).
    NonIncreasing,
    /// Constant curves are both; we track them separately so inverse
    /// queries can answer conservatively.
    Constant,
}

/// A continuous piecewise-linear function defined by breakpoints
/// `(x_0, y_0), …, (x_k, y_k)` with strictly increasing `x_i`.
///
/// Evaluation clamps outside `[x_0, x_k]` (the curve is extended by
/// constants), which matches how utility saturates below/above the
/// modelled operating range.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    points: Vec<(f64, f64)>,
    mono: Monotonicity,
}

impl PiecewiseLinear {
    /// Build from breakpoints. Requirements:
    ///
    /// * at least one point;
    /// * `x` strictly increasing, all values finite;
    /// * `y` monotone (non-decreasing or non-increasing).
    ///
    /// Returns `None` if any requirement is violated.
    pub fn new(points: Vec<(f64, f64)>) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        for &(x, y) in &points {
            if !x.is_finite() || !y.is_finite() {
                return None;
            }
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return None;
            }
        }
        let mut nondec = true;
        let mut noninc = true;
        for w in points.windows(2) {
            if w[1].1 < w[0].1 {
                nondec = false;
            }
            if w[1].1 > w[0].1 {
                noninc = false;
            }
        }
        let mono = match (nondec, noninc) {
            (true, true) => Monotonicity::Constant,
            (true, false) => Monotonicity::NonDecreasing,
            (false, true) => Monotonicity::NonIncreasing,
            (false, false) => return None,
        };
        Some(PiecewiseLinear { points, mono })
    }

    /// A constant curve.
    pub fn constant(y: f64) -> Self {
        PiecewiseLinear {
            points: vec![(0.0, y)],
            mono: Monotonicity::Constant,
        }
    }

    /// Largest breakpoint x.
    pub fn x_max(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }

    /// Minimum attained y.
    pub fn y_min(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum attained y.
    pub fn y_max(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Evaluate at `x` (constant extension outside the breakpoint range).
    pub fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        let last = pts.len() - 1;
        if x >= pts[last].0 {
            return pts[last].1;
        }
        // Binary search for the segment containing x.
        let idx = pts.partition_point(|p| p.0 <= x);
        let (x0, y0) = pts[idx - 1];
        let (x1, y1) = pts[idx];
        let t = (x - x0) / (x1 - x0);
        y0 + t * (y1 - y0)
    }

    /// For a **non-increasing** curve: the largest `x` with
    /// `eval(x) ≥ y`, or `None` if `y` exceeds the maximum. For `y` at or
    /// below the minimum returns `x_max`.
    pub fn inverse_max_x(&self, y: f64) -> Option<f64> {
        match self.mono {
            Monotonicity::NonIncreasing => {}
            Monotonicity::Constant => {
                return if y <= self.points[0].1 {
                    Some(self.x_max())
                } else {
                    None
                };
            }
            Monotonicity::NonDecreasing => return None,
        }
        let pts = &self.points;
        if y > pts[0].1 {
            return None;
        }
        let last = pts.len() - 1;
        if y <= pts[last].1 {
            return Some(pts[last].0);
        }
        // Last breakpoint with y_i >= y: partition on descending y.
        let idx = pts.partition_point(|p| p.1 >= y);
        // idx >= 1 because pts[0].1 >= y; idx <= last because pts[last].1 < y.
        let (x0, y0) = pts[idx - 1];
        let (x1, y1) = pts[idx];
        if (y1 - y0).abs() < f64::EPSILON {
            return Some(x1);
        }
        let t = (y - y0) / (y1 - y0);
        Some(x0 + t * (x1 - x0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slaq_types::fcmp;

    fn ramp() -> PiecewiseLinear {
        // 0 at x<=0, 1 at x>=10, linear between.
        PiecewiseLinear::new(vec![(0.0, 0.0), (10.0, 1.0)]).unwrap()
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(PiecewiseLinear::new(vec![]).is_none());
        assert!(PiecewiseLinear::new(vec![(0.0, 0.0), (0.0, 1.0)]).is_none()); // dup x
        assert!(PiecewiseLinear::new(vec![(1.0, 0.0), (0.0, 1.0)]).is_none()); // unsorted
        assert!(PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]).is_none()); // not monotone
        assert!(PiecewiseLinear::new(vec![(f64::NAN, 0.0)]).is_none());
        assert!(PiecewiseLinear::new(vec![(0.0, f64::INFINITY)]).is_none());
    }

    #[test]
    fn eval_interpolates_and_clamps() {
        let r = ramp();
        assert_eq!(r.eval(-5.0), 0.0);
        assert_eq!(r.eval(0.0), 0.0);
        assert_eq!(r.eval(5.0), 0.5);
        assert_eq!(r.eval(10.0), 1.0);
        assert_eq!(r.eval(100.0), 1.0);
    }

    #[test]
    fn eval_handles_multi_segment_curves() {
        // A job-style utility of completion time: 1.0 until the goal,
        // then decaying to 0 and further to -0.5.
        let u = PiecewiseLinear::new(vec![(0.0, 1.0), (100.0, 1.0), (200.0, 0.0), (400.0, -0.5)])
            .unwrap();
        assert_eq!(u.eval(50.0), 1.0);
        assert_eq!(u.eval(150.0), 0.5);
        assert_eq!(u.eval(300.0), -0.25);
        assert_eq!(u.eval(1000.0), -0.5);
        assert_eq!(u.y_min(), -0.5);
        assert_eq!(u.y_max(), 1.0);
    }

    #[test]
    fn inverse_max_x_on_nonincreasing() {
        let d = PiecewiseLinear::new(vec![(0.0, 1.0), (100.0, 1.0), (200.0, 0.0)]).unwrap();
        // Latest time still achieving utility >= 1.0 is x=100.
        assert_eq!(d.inverse_max_x(1.0), Some(100.0));
        assert_eq!(d.inverse_max_x(0.5), Some(150.0));
        assert_eq!(d.inverse_max_x(0.0), Some(200.0));
        assert_eq!(d.inverse_max_x(-0.5), Some(200.0));
        assert_eq!(d.inverse_max_x(1.5), None);
    }

    #[test]
    fn inverse_direction_mismatch_returns_none() {
        assert_eq!(ramp().inverse_max_x(0.5), None);
    }

    #[test]
    fn constant_curve_inverses() {
        let c = PiecewiseLinear::constant(0.3);
        assert_eq!(c.inverse_max_x(0.2), Some(0.0));
    }

    proptest! {
        #[test]
        fn prop_eval_within_y_range(
            xs in proptest::collection::vec(-1e3..1e3f64, 1..8),
            q in -2e3..2e3f64,
        ) {
            // Build a sorted, deduped, non-decreasing curve from raw xs.
            let mut xs = xs;
            xs.sort_by(|a, b| fcmp(*a, *b));
            xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            let pts: Vec<(f64, f64)> =
                xs.iter().enumerate().map(|(i, &x)| (x, i as f64)).collect();
            if let Some(c) = PiecewiseLinear::new(pts) {
                let y = c.eval(q);
                prop_assert!(y >= c.y_min() - 1e-9 && y <= c.y_max() + 1e-9);
            }
        }

        #[test]
        fn prop_eval_is_monotone(
            q1 in -50.0..50.0f64,
            q2 in -50.0..50.0f64,
        ) {
            let c = PiecewiseLinear::new(
                vec![(-10.0, -1.0), (0.0, 0.0), (10.0, 0.2), (30.0, 1.0)],
            ).unwrap();
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(c.eval(lo) <= c.eval(hi) + 1e-12);
        }
    }
}
