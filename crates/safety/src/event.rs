//! Intervention tagging shared with the flight recorder.
//!
//! Every safety mechanism in this crate can "fire" during a run; the flight
//! recorder (`adas-recorder`) records those firings as discrete events so a
//! hazard can be reconstructed as a timeline (fault onset → perception error
//! → intervention firings → outcome). This module gives each intervention a
//! stable tag with a wire code and a human-readable label, so the recorder's
//! binary format and its `explain` output never drift apart from the safety
//! stack's own vocabulary.

/// The intervention channels a recorded event can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterventionKind {
    /// Forward-collision warning (alert only, no actuation).
    Fcw,
    /// Automatic emergency braking.
    Aeb,
    /// Human driver, longitudinal channel (brake).
    DriverBrake,
    /// Human driver, lateral channel (corrective steering).
    DriverSteer,
    /// ML recovery mode (Algorithm 1).
    Ml,
    /// Firmware safety check clamping a command.
    SafetyCheck,
}

impl InterventionKind {
    /// All kinds in wire-code order.
    pub const ALL: [InterventionKind; 6] = [
        InterventionKind::Fcw,
        InterventionKind::Aeb,
        InterventionKind::DriverBrake,
        InterventionKind::DriverSteer,
        InterventionKind::Ml,
        InterventionKind::SafetyCheck,
    ];

    /// Stable wire code (used by the flight-recorder binary format; never
    /// renumber).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            InterventionKind::Fcw => 0,
            InterventionKind::Aeb => 1,
            InterventionKind::DriverBrake => 2,
            InterventionKind::DriverSteer => 3,
            InterventionKind::Ml => 4,
            InterventionKind::SafetyCheck => 5,
        }
    }

    /// Inverse of [`Self::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Human-readable label used in timelines and divergence reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InterventionKind::Fcw => "FCW alert",
            InterventionKind::Aeb => "AEB braking",
            InterventionKind::DriverBrake => "driver brake",
            InterventionKind::DriverSteer => "driver steer",
            InterventionKind::Ml => "ML recovery",
            InterventionKind::SafetyCheck => "safety-check clamp",
        }
    }
}

impl std::fmt::Display for InterventionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_are_dense() {
        for (i, kind) in InterventionKind::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(kind.code()), i);
            assert_eq!(InterventionKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(InterventionKind::from_code(99), None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            InterventionKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), InterventionKind::ALL.len());
    }
}
