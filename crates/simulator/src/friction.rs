//! Road-surface friction model.
//!
//! The paper's weather experiment (Table VIII) varies MetaDrive's friction
//! parameter to emulate rain and ice: "default", and 25 %, 50 % and 75 %
//! reductions. Friction caps both longitudinal (accelerating/braking) and
//! lateral (cornering) tyre force in the vehicle model.

use adas_codec::{DecodeError, Encode, Reader, Writer};

/// Friction conditions used in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FrictionCondition {
    /// Dry highway (the default environment: bright dry morning).
    #[default]
    Default,
    /// 25 % reduction — light rain.
    Off25,
    /// 50 % reduction — heavy rain.
    Off50,
    /// 75 % reduction — icy road.
    Off75,
    /// Arbitrary friction scale in `(0, 1]` of the dry coefficient.
    Custom(f64),
}

impl FrictionCondition {
    /// All the named conditions swept by Table VIII, in paper order.
    pub const TABLE_VIII: [FrictionCondition; 4] = [
        FrictionCondition::Default,
        FrictionCondition::Off25,
        FrictionCondition::Off50,
        FrictionCondition::Off75,
    ];

    /// Fraction of the dry friction coefficient that remains.
    #[must_use]
    pub fn scale(self) -> f64 {
        match self {
            FrictionCondition::Default => 1.0,
            FrictionCondition::Off25 => 0.75,
            FrictionCondition::Off50 => 0.50,
            FrictionCondition::Off75 => 0.25,
            FrictionCondition::Custom(s) => s.clamp(0.01, 1.0),
        }
    }

    /// Stable wire code (0 default, 1–3 the Table VIII reductions, 4
    /// custom; the custom scale travels separately, see [`Encode`]).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            FrictionCondition::Default => 0,
            FrictionCondition::Off25 => 1,
            FrictionCondition::Off50 => 2,
            FrictionCondition::Off75 => 3,
            FrictionCondition::Custom(_) => 4,
        }
    }

    /// Inverse of [`Self::code`]; `custom` is the scale of code 4 and is
    /// ignored otherwise. `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u8, custom: f64) -> Option<Self> {
        match code {
            0 => Some(FrictionCondition::Default),
            1 => Some(FrictionCondition::Off25),
            2 => Some(FrictionCondition::Off50),
            3 => Some(FrictionCondition::Off75),
            4 => Some(FrictionCondition::Custom(custom)),
            _ => None,
        }
    }

    /// Decodes [`Encode`] output.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let at = r.pos();
        let code = r.u8()?;
        let custom = r.f64()?;
        Self::from_code(code, custom).ok_or(DecodeError {
            offset: at,
            needed: 0,
        })
    }

    /// Human-readable label matching the paper's table header.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FrictionCondition::Default => "Default",
            FrictionCondition::Off25 => "25% off",
            FrictionCondition::Off50 => "50% off",
            FrictionCondition::Off75 => "75% off",
            FrictionCondition::Custom(_) => "custom",
        }
    }
}

/// Code byte, then the custom scale (0.0 for the named conditions).
impl Encode for FrictionCondition {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.code());
        w.f64(match *self {
            FrictionCondition::Custom(s) => s,
            _ => 0.0,
        });
    }
}

impl std::fmt::Display for FrictionCondition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrictionCondition::Custom(s) => write!(f, "custom({s:.2})"),
            other => f.write_str(other.label()),
        }
    }
}

/// A localised friction band along the road — a wet patch, an icy bridge
/// deck, a gravel stretch. Scenario files attach zones to road segments or
/// declare them standalone; inside `[start_s, end_s)` the world's base
/// friction coefficient is multiplied by `scale`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrictionZone {
    /// Arc length where the band begins, metres.
    pub start_s: f64,
    /// Arc length where the band ends (exclusive), metres.
    pub end_s: f64,
    /// Multiplier applied to the base friction coefficient inside the band.
    pub scale: f64,
}

impl FrictionZone {
    /// Whether arc length `s` falls inside the band.
    #[must_use]
    pub fn contains(&self, s: f64) -> bool {
        s >= self.start_s && s < self.end_s
    }
}

/// The effective surface at arc length `s`: the base surface scaled by the
/// first zone containing `s` (zones are checked in declaration order).
/// Returns `base` unchanged — bitwise — when no zone matches, so worlds
/// without zones behave exactly as before zones existed.
#[must_use]
pub fn surface_in_zones(base: SurfaceFriction, zones: &[FrictionZone], s: f64) -> SurfaceFriction {
    for zone in zones {
        if zone.contains(s) {
            return SurfaceFriction {
                mu: base.mu * zone.scale,
            };
        }
    }
    base
}

/// Physical friction limits derived from a [`FrictionCondition`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceFriction {
    /// Effective tyre-road friction coefficient.
    pub mu: f64,
}

impl SurfaceFriction {
    /// Dry-asphalt friction coefficient for a passenger car.
    pub const DRY_MU: f64 = 0.9;

    /// Builds the surface limits for a condition.
    #[must_use]
    pub fn new(condition: FrictionCondition) -> Self {
        Self {
            mu: Self::DRY_MU * condition.scale(),
        }
    }

    /// Maximum achievable deceleration magnitude, m/s².
    #[must_use]
    pub fn max_brake_decel(&self) -> f64 {
        self.mu * crate::units::GRAVITY
    }

    /// Maximum achievable drive acceleration, m/s² (engine-limited on dry
    /// roads, traction-limited when slippery).
    #[must_use]
    pub fn max_drive_accel(&self, engine_limit: f64) -> f64 {
        engine_limit.min(self.mu * crate::units::GRAVITY)
    }

    /// Maximum lateral acceleration available for cornering, m/s².
    ///
    /// A small utilisation margin keeps the combined-slip budget simple while
    /// still producing understeer on icy curves.
    #[must_use]
    pub fn max_lateral_accel(&self) -> f64 {
        0.95 * self.mu * crate::units::GRAVITY
    }
}

impl Default for SurfaceFriction {
    fn default() -> Self {
        Self::new(FrictionCondition::Default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_match_paper_conditions() {
        assert_eq!(FrictionCondition::Default.scale(), 1.0);
        assert_eq!(FrictionCondition::Off25.scale(), 0.75);
        assert_eq!(FrictionCondition::Off50.scale(), 0.5);
        assert_eq!(FrictionCondition::Off75.scale(), 0.25);
    }

    #[test]
    fn custom_scale_clamped() {
        assert_eq!(FrictionCondition::Custom(2.0).scale(), 1.0);
        assert!(FrictionCondition::Custom(-1.0).scale() > 0.0);
    }

    #[test]
    fn dry_braking_close_to_reported_limits() {
        let f = SurfaceFriction::default();
        // ~0.9 g — enough for the AEBS full brake to be meaningful.
        assert!(f.max_brake_decel() > 8.0 && f.max_brake_decel() < 9.5);
    }

    #[test]
    fn ice_cuts_braking_to_a_quarter() {
        let dry = SurfaceFriction::new(FrictionCondition::Default);
        let ice = SurfaceFriction::new(FrictionCondition::Off75);
        assert!((ice.max_brake_decel() / dry.max_brake_decel() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn drive_accel_engine_limited_on_dry() {
        let dry = SurfaceFriction::default();
        assert_eq!(dry.max_drive_accel(3.0), 3.0);
        let ice = SurfaceFriction::new(FrictionCondition::Custom(0.1));
        assert!(ice.max_drive_accel(3.0) < 1.0);
    }

    #[test]
    fn lateral_budget_below_mu_g() {
        let f = SurfaceFriction::default();
        assert!(f.max_lateral_accel() < f.mu * crate::units::GRAVITY);
    }

    #[test]
    fn zones_scale_only_inside_their_band() {
        let base = SurfaceFriction::default();
        let zones = [
            FrictionZone {
                start_s: 100.0,
                end_s: 200.0,
                scale: 0.5,
            },
            FrictionZone {
                start_s: 150.0,
                end_s: 300.0,
                scale: 0.25,
            },
        ];
        assert_eq!(surface_in_zones(base, &zones, 50.0), base);
        assert!((surface_in_zones(base, &zones, 100.0).mu - base.mu * 0.5).abs() < 1e-12);
        // Overlap: first declared zone wins.
        assert!((surface_in_zones(base, &zones, 160.0).mu - base.mu * 0.5).abs() < 1e-12);
        assert!((surface_in_zones(base, &zones, 250.0).mu - base.mu * 0.25).abs() < 1e-12);
        // end_s is exclusive.
        assert_eq!(surface_in_zones(base, &zones, 300.0), base);
        // No zones: bitwise identity.
        assert_eq!(surface_in_zones(base, &[], 160.0), base);
    }

    #[test]
    fn table_viii_order() {
        let labels: Vec<_> = FrictionCondition::TABLE_VIII
            .iter()
            .map(|c| c.label())
            .collect();
        assert_eq!(labels, ["Default", "25% off", "50% off", "75% off"]);
    }
}
