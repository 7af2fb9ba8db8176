//! The on-disk trace format: magic, step-record codec, and errors.
//!
//! A trace file is a single little-endian binary blob written with the
//! workspace codec ([`adas_codec`]):
//!
//! ```text
//! magic "ADASTRC" + schema version (8 bytes)
//! attack scheduler (tag byte; tag 1 adds the trigger fields)
//! header          (run identity, config/model fingerprints, record mode)
//! n_samples × fixed-width step records (13 × f64 + 1 flag byte)
//! n_events  × event records            (f64 time + kind byte + f64 value)
//! outcome footer  (end reason, accident, summary metrics)
//! FNV-1a checksum over everything above (8 bytes)
//! ```
//!
//! Every enum is encoded through its stable wire code — never through
//! `as`-casts of Rust discriminants — so reordering a Rust enum can not
//! silently change the format. Decoding is total: any structural mismatch
//! returns a [`TraceError`] instead of panicking, and no count in the file
//! is allocated for before the bytes behind it are known to be present, so
//! a damaged or hostile trace can never take down a harness.

use adas_codec::{DecodeError, Reader, Writer};
use adas_simulator::TraceSample;

/// Magic prefix + schema version byte. Bump the last byte on any layout
/// change; old files then fail with [`TraceError::BadMagic`] instead of
/// decoding to garbage.
pub const TRACE_MAGIC: &[u8; 8] = b"ADASTRC\x03";

/// Why a trace failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The magic/version prefix did not match [`TRACE_MAGIC`].
    BadMagic,
    /// The structure was truncated or held an invalid value (an unknown
    /// wire code, a count the file cannot hold, trailing bytes); offsets
    /// are relative to the start of the file.
    Malformed(DecodeError),
    /// The stored checksum did not match the recomputed one (bit rot,
    /// truncation at a record boundary, or a tampered file).
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The file could not be read at all.
    Io(String),
}

impl From<DecodeError> for TraceError {
    fn from(e: DecodeError) -> Self {
        TraceError::Malformed(e)
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a trace file (bad magic/version)"),
            TraceError::Malformed(e) => write!(f, "malformed trace: {e}"),
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

// ---------------------------------------------------------------------------
// Step-record codec.
// ---------------------------------------------------------------------------

/// Serialised size of one step record, bytes: 13 `f64` fields + 1 flag byte.
pub const SAMPLE_WIRE_SIZE: usize = 13 * 8 + 1;

/// Serialised size of one event record, bytes: `f64` time, kind byte,
/// `f64` value.
pub const EVENT_WIRE_SIZE: usize = 8 + 1 + 8;

/// Encodes one [`TraceSample`] as a fixed-width record.
pub fn encode_sample(w: &mut Writer, s: &TraceSample) {
    for v in [
        s.time,
        s.ego_s,
        s.ego_d,
        s.ego_v,
        s.ego_accel,
        s.gas,
        s.brake,
        s.steer,
        s.true_rd,
        s.perceived_rd,
        s.lead_v,
        s.lane_line_distance,
        s.ttc,
    ] {
        w.f64(v);
    }
    let mut flags = 0u8;
    for (bit, on) in [
        s.fcw_alert,
        s.aeb_active,
        s.driver_braking,
        s.driver_steering,
        s.ml_active,
        s.fault_active,
    ]
    .into_iter()
    .enumerate()
    {
        if on {
            flags |= 1 << bit;
        }
    }
    w.u8(flags);
}

/// Decodes one step record.
pub fn decode_sample(r: &mut Reader<'_>) -> Result<TraceSample, DecodeError> {
    let mut f = || r.f64();
    let time = f()?;
    let ego_s = f()?;
    let ego_d = f()?;
    let ego_v = f()?;
    let ego_accel = f()?;
    let gas = f()?;
    let brake = f()?;
    let steer = f()?;
    let true_rd = f()?;
    let perceived_rd = f()?;
    let lead_v = f()?;
    let lane_line_distance = f()?;
    let ttc = f()?;
    let flags = r.code(|f| (f & !0b11_1111 == 0).then_some(f))?;
    Ok(TraceSample {
        time,
        ego_s,
        ego_d,
        ego_v,
        ego_accel,
        gas,
        brake,
        steer,
        true_rd,
        perceived_rd,
        lead_v,
        lane_line_distance,
        ttc,
        fcw_alert: flags & 1 != 0,
        aeb_active: flags & 2 != 0,
        driver_braking: flags & 4 != 0,
        driver_steering: flags & 8 != 0,
        ml_active: flags & 16 != 0,
        fault_active: flags & 32 != 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_round_trip_preserves_nan_bits() {
        let s = TraceSample {
            time: 1.23,
            lead_v: f64::NAN,
            true_rd: f64::INFINITY,
            aeb_active: true,
            fault_active: true,
            ..TraceSample::default()
        };
        let mut w = Writer::new();
        encode_sample(&mut w, &s);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), SAMPLE_WIRE_SIZE);
        let d = decode_sample(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(d.time.to_bits(), s.time.to_bits());
        assert_eq!(d.lead_v.to_bits(), s.lead_v.to_bits());
        assert!(d.true_rd.is_infinite());
        assert!(d.aeb_active && d.fault_active && !d.ml_active);
    }

    #[test]
    fn truncated_sample_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        encode_sample(&mut w, &TraceSample::default());
        let bytes = w.into_bytes();
        let err = decode_sample(&mut Reader::new(&bytes[..bytes.len() - 3])).unwrap_err();
        assert!(err.needed > 0);
    }

    #[test]
    fn invalid_flag_bits_rejected() {
        let mut w = Writer::new();
        encode_sample(&mut w, &TraceSample::default());
        let mut bytes = w.into_bytes();
        *bytes.last_mut().unwrap() = 0x80;
        assert_eq!(
            decode_sample(&mut Reader::new(&bytes)),
            Err(DecodeError {
                offset: SAMPLE_WIRE_SIZE - 1,
                needed: 0
            })
        );
    }
}
