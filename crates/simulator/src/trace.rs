//! Time-series trace recording for figures and debugging.
//!
//! The paper's Figs. 5 and 6 are time series (ego speed, distance to lane
//! lines, actual vs. perceived relative distance). The closed-loop platform
//! emits one [`TraceSample`] per step; [`samples_to_csv`] renders a run's
//! samples for plotting.

/// One recorded simulation step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceSample {
    /// Simulation time, seconds.
    pub time: f64,
    /// Ego arc length, metres.
    pub ego_s: f64,
    /// Ego lateral offset, metres.
    pub ego_d: f64,
    /// Ego speed, m/s.
    pub ego_v: f64,
    /// Ego realised acceleration, m/s².
    pub ego_accel: f64,
    /// Commanded gas fraction.
    pub gas: f64,
    /// Commanded brake fraction.
    pub brake: f64,
    /// Commanded steering angle, radians.
    pub steer: f64,
    /// Ground-truth bumper-to-bumper distance to the lead vehicle, metres
    /// (`f64::INFINITY` when there is none).
    pub true_rd: f64,
    /// Perceived relative distance after any fault injection, metres
    /// (`f64::INFINITY` when no lead is reported).
    pub perceived_rd: f64,
    /// Lead vehicle speed, m/s (`f64::NAN` when there is no lead — 0 would
    /// be indistinguishable from a genuinely stopped vehicle).
    pub lead_v: f64,
    /// Distance from the ego's body edge to the nearest lane line, metres.
    pub lane_line_distance: f64,
    /// Ground-truth time to collision, seconds (`f64::INFINITY` if opening).
    pub ttc: f64,
    /// Whether an FCW alert was active this step.
    pub fcw_alert: bool,
    /// Whether AEB braking was active this step.
    pub aeb_active: bool,
    /// Whether the driver model was braking this step.
    pub driver_braking: bool,
    /// Whether the driver model was steering this step.
    pub driver_steering: bool,
    /// Whether ML recovery mode was active this step.
    pub ml_active: bool,
    /// Whether a fault was being injected this step.
    pub fault_active: bool,
}

/// Serialises samples as CSV (with header) into a string; pass
/// `samples.iter().step_by(n)` to keep every `n`-th step.
///
/// Non-finite values (infinite relative distances / TTC, NaN lead speed
/// when there is no lead) are emitted as empty cells so plotting tools skip
/// them.
///
/// Rows are streamed with [`std::fmt::Write`] straight into one output
/// buffer — no per-row `format!` allocations (the figure harnesses export
/// traces with 10⁴ rows each).
#[must_use]
pub fn samples_to_csv<'a>(samples: impl IntoIterator<Item = &'a TraceSample>) -> String {
    use std::fmt::Write as _;

    let samples = samples.into_iter();
    // ~110 bytes per rendered row; headroom avoids the doubling steps.
    let mut out = String::with_capacity(128 * (samples.size_hint().0 + 1));
    out.push_str(
        "time,ego_s,ego_d,ego_v,ego_accel,gas,brake,steer,true_rd,perceived_rd,lead_v,\
         lane_line_distance,ttc,fcw,aeb,driver_brake,driver_steer,ml,fault\n",
    );
    // Writing to a String cannot fail, so the write! results are
    // discarded.
    let write_opt = |out: &mut String, v: f64| {
        if v.is_finite() {
            let _ = write!(out, "{v:.4}");
        }
    };
    for s in samples {
        let _ = write!(
            out,
            "{:.2},{:.3},{:.4},{:.4},{:.4},{:.4},{:.4},{:.5},",
            s.time, s.ego_s, s.ego_d, s.ego_v, s.ego_accel, s.gas, s.brake, s.steer,
        );
        write_opt(&mut out, s.true_rd);
        out.push(',');
        write_opt(&mut out, s.perceived_rd);
        out.push(',');
        write_opt(&mut out, s.lead_v);
        let _ = write!(out, ",{:.4},", s.lane_line_distance);
        write_opt(&mut out, s.ttc);
        let _ = writeln!(
            out,
            ",{},{},{},{},{},{}",
            u8::from(s.fcw_alert),
            u8::from(s.aeb_active),
            u8::from(s.driver_braking),
            u8::from(s.driver_steering),
            u8::from(s.ml_active),
            u8::from(s.fault_active),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64) -> TraceSample {
        TraceSample {
            time: t,
            ego_v: 20.0,
            true_rd: 55.0,
            perceived_rd: f64::INFINITY,
            lead_v: f64::NAN,
            ttc: f64::INFINITY,
            ..TraceSample::default()
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = samples_to_csv(&[sample(0.0), sample(0.01)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("time,ego_s"));
        let cells: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(cells.len(), 19);
        // Infinite perceived_rd and NaN lead_v render as empty cells.
        assert_eq!(cells[9], "");
        assert_eq!(cells[10], "");
        assert_eq!(cells[8], "55.0000");
        assert_eq!(cells[12], "");
        assert_eq!(cells[18], "0");
    }

    #[test]
    fn present_lead_speed_renders_numeric() {
        let csv = samples_to_csv(&[TraceSample {
            lead_v: 17.5,
            ..sample(0.0)
        }]);
        let row = csv.lines().nth(1).expect("one data row");
        assert_eq!(row.split(',').nth(10), Some("17.5000"));
    }

    #[test]
    fn step_by_keeps_every_nth_step_from_the_first() {
        let samples: Vec<TraceSample> = (0..10).map(|i| sample(f64::from(i))).collect();
        let csv = samples_to_csv(samples.iter().step_by(4));
        let times: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|row| row.split(',').next().unwrap_or_default())
            .collect();
        assert_eq!(times, ["0.00", "4.00", "8.00"]);
    }

    #[test]
    fn no_samples_renders_the_header_only() {
        assert_eq!(samples_to_csv(&[]).lines().count(), 1);
    }
}
