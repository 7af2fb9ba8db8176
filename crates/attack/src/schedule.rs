//! Context-aware attack scheduling.
//!
//! The paper's faults activate on fixed spatial/range triggers (the ego
//! reaches the road patch, the lead enters the RD patch's range). Strategic
//! attackers do better: "Strategic Safety-Critical Attacks Against an ADAS"
//! (Zhou et al.) shows that triggering the perturbation when the world
//! state is most vulnerable — small time-to-collision, mid-curve, already
//! drifted — defeats interventions that comfortably absorb a naively-timed
//! attack. [`AttackScheduler`] is that timing policy: the default
//! [`AttackScheduler::Immediate`] reproduces the paper's behaviour exactly,
//! while [`AttackScheduler::Context`] holds every fault channel back until
//! a configurable vulnerability predicate first fires, then latches.

use adas_codec::{DecodeError, Encode, Reader, Writer};

/// A conjunction of world-state vulnerability conditions. Disabled atoms
/// (`None`) are ignored; all enabled atoms must hold simultaneously, and
/// nothing fires before [`ContextTrigger::arm_after`] seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextTrigger {
    /// Fire once ground-truth TTC to the lead drops to this many seconds
    /// or below. A missing lead (no TTC) never satisfies the atom.
    pub ttc_below: Option<f64>,
    /// Fire once the ego's absolute lateral offset from its lane center
    /// reaches this many metres.
    pub lane_excursion_above: Option<f64>,
    /// Fire once the road's absolute reference-line curvature at the ego
    /// reaches this value (1/m) — i.e. on curve entry.
    pub curvature_above: Option<f64>,
    /// Earliest firing time, seconds. With every atom disabled this makes
    /// the trigger a pure delay timer.
    pub arm_after: f64,
}

impl Default for ContextTrigger {
    fn default() -> Self {
        Self {
            ttc_below: None,
            lane_excursion_above: None,
            curvature_above: None,
            arm_after: 0.0,
        }
    }
}

impl ContextTrigger {
    /// A trigger on ground-truth TTC alone.
    #[must_use]
    pub fn ttc(threshold: f64) -> Self {
        Self {
            ttc_below: Some(threshold),
            ..Self::default()
        }
    }

    /// Whether the vulnerability predicate holds for this world state.
    #[must_use]
    pub fn fires(&self, time: f64, ttc: Option<f64>, ego_d: f64, road_curvature: f64) -> bool {
        if time < self.arm_after {
            return false;
        }
        if let Some(limit) = self.ttc_below {
            match ttc {
                Some(t) if t <= limit => {}
                _ => return false,
            }
        }
        if let Some(limit) = self.lane_excursion_above {
            if ego_d.abs() < limit {
                return false;
            }
        }
        if let Some(limit) = self.curvature_above {
            if road_curvature.abs() < limit {
                return false;
            }
        }
        true
    }
}

/// When the injector is allowed to perturb perception.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AttackScheduler {
    /// The paper's fixed policy: fault channels are live from the first
    /// step and activate on their own spatial/range conditions alone.
    #[default]
    Immediate,
    /// Zhou et al.-style strategic policy: every channel is held back
    /// until the context predicate first fires, then stays armed for the
    /// rest of the run (a one-shot latch).
    Context(ContextTrigger),
}

/// Tag byte 0 for immediate; tag 1 followed by the trigger's three
/// optional atoms and its arming time.
impl Encode for AttackScheduler {
    fn encode(&self, w: &mut Writer) {
        match self {
            AttackScheduler::Immediate => w.u8(0),
            AttackScheduler::Context(ContextTrigger {
                ttc_below,
                lane_excursion_above,
                curvature_above,
                arm_after,
            }) => {
                w.u8(1);
                w.opt_f64(*ttc_below);
                w.opt_f64(*lane_excursion_above);
                w.opt_f64(*curvature_above);
                w.f64(*arm_after);
            }
        }
    }
}

impl AttackScheduler {
    /// Decodes [`Encode`] output, rejecting an unknown tag, a non-finite
    /// atom, or a negative or non-finite arming time.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let at = r.pos();
        let invalid = DecodeError {
            offset: at,
            needed: 0,
        };
        match r.u8()? {
            0 => Ok(AttackScheduler::Immediate),
            1 => {
                let trigger = ContextTrigger {
                    ttc_below: r.opt_f64()?,
                    lane_excursion_above: r.opt_f64()?,
                    curvature_above: r.opt_f64()?,
                    arm_after: r.f64()?,
                };
                let atoms = [
                    trigger.ttc_below,
                    trigger.lane_excursion_above,
                    trigger.curvature_above,
                ];
                let finite = atoms.iter().flatten().all(|v| v.is_finite())
                    && trigger.arm_after.is_finite()
                    && trigger.arm_after >= 0.0;
                if finite {
                    Ok(AttackScheduler::Context(trigger))
                } else {
                    Err(invalid)
                }
            }
            _ => Err(invalid),
        }
    }

    /// True for the legacy fixed-offset policy.
    #[must_use]
    pub fn is_immediate(&self) -> bool {
        matches!(self, AttackScheduler::Immediate)
    }

    /// Compact human label, e.g. `immediate` or `ttc<2.50,arm>10.0`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            AttackScheduler::Immediate => "immediate".to_owned(),
            AttackScheduler::Context(t) => {
                let mut parts = Vec::new();
                if let Some(v) = t.ttc_below {
                    parts.push(format!("ttc<{v}"));
                }
                if let Some(v) = t.lane_excursion_above {
                    parts.push(format!("lane>{v}"));
                }
                if let Some(v) = t.curvature_above {
                    parts.push(format!("curv>{v}"));
                }
                if t.arm_after > 0.0 {
                    parts.push(format!("arm>{}", t.arm_after));
                }
                if parts.is_empty() {
                    "context".to_owned()
                } else {
                    parts.join(",")
                }
            }
        }
    }

    /// Parses the `ADAS_ATTACK` knob syntax: `immediate`, or a
    /// comma-separated list of `ttc<S`, `lane>M`, `curv>K`, `arm>S` atoms
    /// (e.g. `ttc<2.5,arm>10`). `None` on any unrecognised atom or
    /// non-finite threshold.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        let text = text.trim();
        if text.is_empty() || text.eq_ignore_ascii_case("immediate") {
            return Some(AttackScheduler::Immediate);
        }
        let mut trig = ContextTrigger::default();
        for atom in text.split(',') {
            let atom = atom.trim();
            let value_of = |rest: &str| -> Option<f64> {
                let v = rest.trim().parse::<f64>().ok()?;
                v.is_finite().then_some(v)
            };
            if let Some(rest) = atom.strip_prefix("ttc<") {
                trig.ttc_below = Some(value_of(rest)?);
            } else if let Some(rest) = atom.strip_prefix("lane>") {
                trig.lane_excursion_above = Some(value_of(rest)?);
            } else if let Some(rest) = atom.strip_prefix("curv>") {
                trig.curvature_above = Some(value_of(rest)?);
            } else if let Some(rest) = atom.strip_prefix("arm>") {
                trig.arm_after = value_of(rest)?;
            } else {
                return None;
            }
        }
        Some(AttackScheduler::Context(trig))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_is_the_default() {
        assert_eq!(AttackScheduler::default(), AttackScheduler::Immediate);
        assert!(AttackScheduler::Immediate.is_immediate());
        assert!(!AttackScheduler::Context(ContextTrigger::ttc(2.0)).is_immediate());
    }

    #[test]
    fn ttc_atom_requires_a_closing_lead() {
        let t = ContextTrigger::ttc(3.0);
        assert!(t.fires(1.0, Some(2.5), 0.0, 0.0));
        assert!(t.fires(1.0, Some(3.0), 0.0, 0.0));
        assert!(!t.fires(1.0, Some(3.1), 0.0, 0.0));
        // No lead / not closing: never vulnerable by TTC.
        assert!(!t.fires(1.0, None, 0.0, 0.0));
        assert!(!t.fires(1.0, Some(f64::INFINITY), 0.0, 0.0));
    }

    #[test]
    fn atoms_are_a_conjunction() {
        let t = ContextTrigger {
            ttc_below: Some(3.0),
            curvature_above: Some(1e-3),
            ..ContextTrigger::default()
        };
        assert!(!t.fires(0.0, Some(2.0), 0.0, 0.0)); // straight road
        assert!(!t.fires(0.0, Some(9.0), 0.0, 2e-3)); // TTC too large
        assert!(t.fires(0.0, Some(2.0), 0.0, 2e-3));
        assert!(t.fires(0.0, Some(2.0), 0.0, -2e-3)); // curve direction agnostic
    }

    #[test]
    fn arm_after_delays_every_atom() {
        let t = ContextTrigger {
            arm_after: 10.0,
            ..ContextTrigger::ttc(3.0)
        };
        assert!(!t.fires(9.99, Some(1.0), 0.0, 0.0));
        assert!(t.fires(10.0, Some(1.0), 0.0, 0.0));
        // Pure delay timer when no atom is enabled.
        let delay = ContextTrigger {
            arm_after: 5.0,
            ..ContextTrigger::default()
        };
        assert!(!delay.fires(4.0, None, 0.0, 0.0));
        assert!(delay.fires(5.0, None, 0.0, 0.0));
    }

    #[test]
    fn lane_excursion_is_side_agnostic() {
        let t = ContextTrigger {
            lane_excursion_above: Some(0.6),
            ..ContextTrigger::default()
        };
        assert!(t.fires(0.0, None, 0.7, 0.0));
        assert!(t.fires(0.0, None, -0.7, 0.0));
        assert!(!t.fires(0.0, None, 0.5, 0.0));
    }

    #[test]
    fn parse_round_trips_the_env_syntax() {
        assert_eq!(
            AttackScheduler::parse("immediate"),
            Some(AttackScheduler::Immediate)
        );
        assert_eq!(AttackScheduler::parse(""), Some(AttackScheduler::Immediate));
        let parsed = AttackScheduler::parse("ttc<2.5, lane>0.6 ,curv>0.002,arm>10").unwrap();
        assert_eq!(
            parsed,
            AttackScheduler::Context(ContextTrigger {
                ttc_below: Some(2.5),
                lane_excursion_above: Some(0.6),
                curvature_above: Some(0.002),
                arm_after: 10.0,
            })
        );
        assert_eq!(AttackScheduler::parse("ttc<oops"), None);
        assert_eq!(AttackScheduler::parse("banana"), None);
        assert_eq!(AttackScheduler::parse("ttc<inf"), None);
    }

    #[test]
    fn labels_are_compact_and_distinct() {
        assert_eq!(AttackScheduler::Immediate.label(), "immediate");
        let a = AttackScheduler::parse("ttc<2.5,arm>10").unwrap();
        assert_eq!(a.label(), "ttc<2.5,arm>10");
        assert_eq!(
            AttackScheduler::Context(ContextTrigger::default()).label(),
            "context"
        );
    }
}
