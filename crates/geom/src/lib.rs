//! Planar geometry primitives used throughout the `popflow` workspace.
//!
//! Indoor floor plans in this reproduction are axis-aligned: partitions are
//! rectangles, doors are points on partition boundaries, and positioning
//! reference points are lattice points. The types here are deliberately
//! small and `Copy` where possible so the indoor space model in
//! `indoor-model` and the simulators in `indoor-sim` can pass them around
//! freely.
//!
//! The only curved shape is [`Ellipse`], which models the uncertainty
//! regions of the UR comparator (Lu et al., EDBT 2016) reproduced for the
//! paper's Table 7.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod ellipse;
mod point;
mod rect;
mod segment;

pub use ellipse::Ellipse;
pub use point::Point;
pub use rect::Rect;
pub use segment::Segment;

/// Numerical tolerance used by containment / equality helpers.
///
/// Floor-plan coordinates are in meters; 1e-9 m is far below any physical
/// feature size, so treating distances under this threshold as zero is safe.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` when two floating-point values are equal within [`EPSILON`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}

/// Linear interpolation between `a` and `b` with parameter `t` in `[0, 1]`.
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_respects_tolerance() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(1.0, 1.0 + EPSILON / 2.0));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        assert_eq!(lerp(2.0, 4.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 4.0, 1.0), 4.0);
        assert_eq!(lerp(2.0, 4.0, 0.5), 3.0);
    }
}
