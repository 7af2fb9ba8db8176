//! Time-series trace recording for figures and debugging.
//!
//! The paper's Figs. 5 and 6 are time series (ego speed, distance to lane
//! lines, actual vs. perceived relative distance). The recorder collects one
//! [`TraceSample`] per step; the physical fields are filled by the world and
//! the perception/intervention fields by the closed-loop platform.

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

/// A growable recording of [`TraceSample`]s with CSV export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecorder {
    samples: Vec<TraceSample>,
    /// Record every `stride`-th step (1 = every step).
    stride: usize,
    counter: usize,
}

impl TraceRecorder {
    /// A recorder that keeps every step.
    #[must_use]
    pub fn new() -> Self {
        Self {
            samples: Vec::new(),
            stride: 1,
            counter: 0,
        }
    }

    /// A recorder that keeps one sample every `stride` steps (for long
    /// campaigns where full traces would be wasteful).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn with_stride(stride: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        Self {
            samples: Vec::new(),
            stride,
            counter: 0,
        }
    }

    /// A recorder (stride 1) that reuses an existing sample buffer's
    /// allocation — the complement of [`into_samples`]: a campaign worker
    /// can cycle one buffer through thousands of runs without re-faulting
    /// fresh pages each time. The buffer is cleared first.
    ///
    /// [`into_samples`]: TraceRecorder::into_samples
    #[must_use]
    pub fn from_buffer(mut samples: Vec<TraceSample>) -> Self {
        samples.clear();
        Self {
            samples,
            stride: 1,
            counter: 0,
        }
    }

    /// Offers a sample; it is stored if the stride allows.
    pub fn record(&mut self, sample: TraceSample) {
        // `stride == 1` short-circuit: the common every-step configuration
        // must not pay a hardware divide per simulation step.
        if self.stride == 1 || self.counter.is_multiple_of(self.stride) {
            self.samples.push(sample);
        }
        self.counter += 1;
    }

    /// Discards all stored samples and resets the stride counter, keeping
    /// the allocation — lets one recorder be reused across runs without
    /// re-growing its buffer.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.counter = 0;
    }

    /// Pre-sizes the sample store for `steps` upcoming [`record`] offers
    /// (the stride is accounted for), so a run of known length records
    /// without reallocation.
    ///
    /// [`record`]: TraceRecorder::record
    pub fn reserve(&mut self, steps: usize) {
        self.samples.reserve(steps.div_ceil(self.stride));
    }

    /// All stored samples in order.
    #[must_use]
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Consumes the recorder, returning the sample buffer — a zero-copy
    /// hand-off to downstream consumers (the flight-recorder writer adopts
    /// it wholesale instead of copying sample-by-sample).
    #[must_use]
    pub fn into_samples(self) -> Vec<TraceSample> {
        self.samples
    }

    /// Number of stored samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Serialises the trace as CSV (with header) into a string.
    ///
    /// Non-finite values (infinite relative distances / TTC, NaN lead
    /// speed when there is no lead) are emitted as empty cells so plotting
    /// tools skip them.
    ///
    /// Rows are streamed with [`std::fmt::Write`] straight into one output
    /// buffer — no per-row `format!` allocations (the figure harnesses
    /// export traces with 10⁴ rows each).
    #[must_use]
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;

        // ~110 bytes per rendered row; headroom avoids the doubling steps.
        let mut out = String::with_capacity(128 * (self.samples.len() + 1));
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
        for s in &self.samples {
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
    fn records_every_step_by_default() {
        let mut rec = TraceRecorder::new();
        for i in 0..10 {
            rec.record(sample(i as f64 * 0.01));
        }
        assert_eq!(rec.len(), 10);
    }

    #[test]
    fn stride_subsamples() {
        let mut rec = TraceRecorder::with_stride(4);
        for i in 0..10 {
            rec.record(sample(i as f64));
        }
        assert_eq!(rec.len(), 3); // steps 0, 4, 8
        assert_eq!(rec.samples()[1].time, 4.0);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let _ = TraceRecorder::with_stride(0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut rec = TraceRecorder::new();
        rec.record(sample(0.0));
        rec.record(sample(0.01));
        let csv = rec.to_csv();
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
        let mut rec = TraceRecorder::new();
        rec.record(TraceSample {
            lead_v: 17.5,
            ..sample(0.0)
        });
        let csv = rec.to_csv();
        let row = csv.lines().nth(1).expect("one data row");
        assert_eq!(row.split(',').nth(10), Some("17.5000"));
    }

    #[test]
    fn clear_resets_samples_and_stride_phase() {
        let mut rec = TraceRecorder::with_stride(3);
        for i in 0..5 {
            rec.record(sample(i as f64)); // keeps steps 0, 3
        }
        assert_eq!(rec.len(), 2);
        rec.clear();
        assert!(rec.is_empty());
        // After clear the stride phase restarts: the next offer is stored.
        rec.record(sample(9.0));
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.samples()[0].time, 9.0);
    }

    #[test]
    fn reserve_accounts_for_stride() {
        let mut rec = TraceRecorder::with_stride(4);
        rec.reserve(10); // stores ceil(10/4) = 3 samples
        let cap = rec.samples.capacity();
        assert!(cap >= 3, "capacity {cap}");
        for i in 0..10 {
            rec.record(sample(i as f64));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.samples.capacity(), cap, "no reallocation");
    }

    #[test]
    fn empty_recorder_reports_empty() {
        let rec = TraceRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.to_csv().lines().count(), 1);
    }
}
