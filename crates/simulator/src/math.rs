//! Small geometry helpers shared by the simulator.

/// A 2-D vector / point in cartesian world coordinates (metres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// East coordinate in metres.
    pub x: f64,
    /// North coordinate in metres.
    pub y: f64,
}

impl Vec2 {
    /// Creates a vector from its components.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean norm.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Euclidean distance to another point.
    #[must_use]
    pub fn distance(self, other: Self) -> f64 {
        (self - other).norm()
    }

    /// Dot product.
    #[must_use]
    pub fn dot(self, other: Self) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Rotates the vector by `angle` radians counter-clockwise.
    #[must_use]
    pub fn rotated(self, angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Self::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }
}

impl std::ops::Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

/// Clamps `value` into `[lo, hi]`.
///
/// # Panics
///
/// Panics (in debug builds) if `lo > hi`.
#[must_use]
pub fn clamp(value: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
    value.max(lo).min(hi)
}

/// Wraps an angle into `(-π, π]`.
#[must_use]
pub fn wrap_angle(angle: f64) -> f64 {
    let mut a = angle % std::f64::consts::TAU;
    if a <= -std::f64::consts::PI {
        a += std::f64::consts::TAU;
    } else if a > std::f64::consts::PI {
        a -= std::f64::consts::TAU;
    }
    a
}

/// Moves `current` towards `target` at a maximum rate of `max_delta` per call.
///
/// Used for actuator lag and bounded-rate driver inputs.
#[must_use]
pub fn approach(current: f64, target: f64, max_delta: f64) -> f64 {
    debug_assert!(max_delta >= 0.0);
    if (target - current).abs() <= max_delta {
        target
    } else {
        current + max_delta * (target - current).signum()
    }
}

/// Linear interpolation between `a` and `b` with `t` clamped into `[0, 1]`.
#[must_use]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    let t = clamp(t, 0.0, 1.0);
    a + (b - a) * t
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(b - a, Vec2::new(2.0, -3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert!((a.dot(b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_norm() {
        let v = Vec2::new(3.0, 4.0);
        let r = v.rotated(1.234);
        assert!((r.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rotate_quarter_turn() {
        let v = Vec2::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!(v.x.abs() < 1e-12 && (v.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn approach_reaches_and_saturates() {
        assert_eq!(approach(0.0, 1.0, 0.25), 0.25);
        assert_eq!(approach(0.9, 1.0, 0.25), 1.0);
        assert_eq!(approach(1.0, 0.0, 0.4), 0.6);
    }

    #[test]
    fn lerp_clamps() {
        assert_eq!(lerp(0.0, 10.0, -1.0), 0.0);
        assert_eq!(lerp(0.0, 10.0, 0.5), 5.0);
        assert_eq!(lerp(0.0, 10.0, 2.0), 10.0);
    }

    proptest! {
        #[test]
        fn wrap_angle_in_range(a in -100.0f64..100.0) {
            let w = wrap_angle(a);
            prop_assert!(w > -std::f64::consts::PI - 1e-9);
            prop_assert!(w <= std::f64::consts::PI + 1e-9);
            // Same direction modulo 2π.
            prop_assert!(((a - w) / std::f64::consts::TAU).round() * std::f64::consts::TAU - (a - w) < 1e-6);
        }

        #[test]
        fn clamp_within_bounds(v in -1e6f64..1e6, lo in -10.0f64..0.0, hi in 0.0f64..10.0) {
            let c = clamp(v, lo, hi);
            prop_assert!(c >= lo && c <= hi);
        }

        #[test]
        fn approach_never_overshoots(c in -10.0f64..10.0, t in -10.0f64..10.0, d in 0.0f64..5.0) {
            let n = approach(c, t, d);
            prop_assert!((n - c).abs() <= d + 1e-12);
            // Monotone towards the target.
            prop_assert!((t - n).abs() <= (t - c).abs() + 1e-12);
        }
    }
}
