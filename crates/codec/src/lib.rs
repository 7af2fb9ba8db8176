//! The workspace's one canonical byte encoding, its one hash, and its one
//! text reader.
//!
//! Every wire format (the serve protocol, campaign specs, farm findings),
//! every file format (flight-recorder traces, cached cell statistics and
//! model weights, store segments) and every content address (artifact
//! cache keys, trace config fingerprints, repro file names) is built from
//! the pieces here:
//!
//! * [`Writer`] / [`Reader`] — fixed-width little-endian primitives. The
//!   reader never panics and never allocates on a declared count it has
//!   not checked against the bytes actually present ([`Reader::fits`]);
//!   every failure is one [`DecodeError`] carrying the offset and how many
//!   more bytes were needed.
//! * [`Encode`] — a type's canonical bytes. Implementations destructure
//!   `let Self { .. } = self` without `..`, so adding a field is a compile
//!   error at the impl instead of a silent gap in a cache key.
//! * [`Fingerprint`] — 64-bit FNV-1a over explicitly fed bytes, the stable
//!   (cross-process, cross-compiler) hash behind every key and checksum.
//! * [`text`] — the TOML subset of `.scn` scenario documents and fuzz repro
//!   files: ordered tables, one escape set, line-numbered errors.

use std::fmt;

pub mod text;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A type's canonical byte encoding: the bytes that go on the wire, into
/// files, and into fingerprints.
pub trait Encode {
    /// Appends the canonical bytes of `self`.
    fn encode(&self, w: &mut Writer);
}

/// A stable 64-bit content fingerprint (FNV-1a), built by feeding in the
/// values that determine an artifact.
///
/// Builder-style: every `write_*` consumes and returns the fingerprint, so
/// keys read as one expression:
///
/// ```
/// use adas_codec::Fingerprint;
/// let key = Fingerprint::new()
///     .write_str("table-vi-cell")
///     .write_u64(2025)
///     .write_f64(2.5);
/// assert_eq!(key, key);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The empty fingerprint (FNV offset basis).
    #[must_use]
    pub const fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Feeds raw bytes.
    #[inline]
    #[must_use]
    pub fn write_bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds one `u64` (little-endian).
    #[inline]
    #[must_use]
    pub fn write_u64(self, v: u64) -> Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Feeds one `f64` by bit pattern (so `-0.0` and `0.0` differ, and the
    /// key is exact rather than printed-precision).
    #[inline]
    #[must_use]
    pub fn write_f64(self, v: f64) -> Self {
        self.write_bytes(&v.to_bits().to_le_bytes())
    }

    /// Feeds a string with a terminator, so `("ab", "c")` and `("a", "bc")`
    /// produce different keys.
    #[must_use]
    pub fn write_str(self, s: &str) -> Self {
        self.write_bytes(s.as_bytes()).write_bytes(&[0xFF])
    }

    /// Feeds a value's canonical [`Encode`] bytes.
    #[must_use]
    pub fn write<T: Encode + ?Sized>(self, v: &T) -> Self {
        let mut w = Writer::new();
        v.encode(&mut w);
        self.write_bytes(&w.0)
    }

    /// The raw 64-bit value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Fixed-width lowercase hex, used as the on-disk file name.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self(Vec::new())
    }

    /// An empty writer with room for `cap` bytes.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self(Vec::with_capacity(cap))
    }

    /// The bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Consumes the writer, yielding the accumulated bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Appends a value's canonical encoding.
    #[inline]
    pub fn put<T: Encode + ?Sized>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Appends raw bytes (length is the caller's contract).
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.0.push(u8::from(v));
    }

    /// Appends a `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by bit pattern (NaN and infinities round-trip).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends an optional `f64` as a presence byte plus the value (0.0
    /// when absent).
    #[inline]
    pub fn opt_f64(&mut self, v: Option<f64>) {
        self.bool(v.is_some());
        self.f64(v.unwrap_or(0.0));
    }

    /// Appends a `u32` length prefix followed by the bytes.
    ///
    /// # Panics
    ///
    /// Panics on a blob over 4 GiB (no wire message comes close).
    pub fn blob(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("blob ≤ 4 GiB"));
        self.bytes(v);
    }
}

/// Why a decode failed: the byte offset of the failing read and how many
/// more bytes it needed. `needed == 0` means the bytes were there but held
/// an invalid value (an unknown enum code, a bool that is neither 0 nor 1,
/// trailing bytes where the layout ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which the failing read started.
    pub offset: usize,
    /// Additional bytes the read needed; 0 for an invalid value.
    pub needed: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.needed == 0 {
            write!(f, "invalid value at byte {}", self.offset)
        } else {
            write!(
                f,
                "truncated at byte {}: {} more bytes needed",
                self.offset, self.needed
            )
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bounds-checked little-endian cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current offset.
    #[inline]
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte was consumed.
    #[inline]
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// An invalid-value error at the current offset (for decoders that
    /// validate a field they just read).
    #[must_use]
    pub fn invalid(&self) -> DecodeError {
        DecodeError {
            offset: self.pos,
            needed: 0,
        }
    }

    /// `Ok` when every byte was consumed; codecs require exact length, so
    /// trailing bytes are an error, not padding.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.exhausted() {
            Ok(())
        } else {
            Err(self.invalid())
        }
    }

    /// Checks that `count` records of `width` bytes each are present
    /// before anything is allocated for them, and returns `count`. The
    /// product is overflow-checked, so a hostile count can neither wrap
    /// past the check nor provoke a huge allocation.
    #[inline]
    pub fn fits(&self, count: u64, width: usize) -> Result<usize, DecodeError> {
        let count = usize::try_from(count).map_err(|_| self.invalid())?;
        let bytes = count.checked_mul(width).ok_or(DecodeError {
            offset: self.pos,
            needed: usize::MAX,
        })?;
        if bytes > self.remaining() {
            return Err(DecodeError {
                offset: self.pos,
                needed: bytes - self.remaining(),
            });
        }
        Ok(count)
    }

    /// Takes `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let Some(out) = self.buf[self.pos..].get(..n) else {
            return Err(self.short(n));
        };
        self.pos += n;
        Ok(out)
    }

    #[cold]
    fn short(&self, n: usize) -> DecodeError {
        DecodeError {
            offset: self.pos,
            needed: n - self.remaining(),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool encoded as exactly 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError {
                offset: at,
                needed: 0,
            }),
        }
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a `u64` that must fit a `usize`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let at = self.pos;
        usize::try_from(self.u64()?).map_err(|_| DecodeError {
            offset: at,
            needed: 0,
        })
    }

    /// Reads an `f64` by bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads an optional `f64` written by [`Writer::opt_f64`].
    #[inline]
    pub fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        let present = self.bool()?;
        let v = self.f64()?;
        Ok(present.then_some(v))
    }

    /// Reads a `u32`-length-prefixed blob, bounds-checked against the
    /// remaining input before any allocation.
    pub fn blob(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()?;
        let len = self.fits(u64::from(len), 1)?;
        self.take(len)
    }

    /// Reads a one-byte enum code through the type's `from_code`.
    #[inline]
    pub fn code<T>(&mut self, from_code: impl FnOnce(u8) -> Option<T>) -> Result<T, DecodeError> {
        let at = self.pos;
        from_code(self.u8()?).ok_or(DecodeError {
            offset: at,
            needed: 0,
        })
    }

    /// Reads a one-byte code where 0 means `None` and any other value goes
    /// through the type's `from_code`.
    #[inline]
    pub fn opt_code<T>(
        &mut self,
        from_code: impl FnOnce(u8) -> Option<T>,
    ) -> Result<Option<T>, DecodeError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(None),
            c => from_code(c).map(Some).ok_or(DecodeError {
                offset: at,
                needed: 0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_and_boundary_sensitive() {
        let a = Fingerprint::new().write_str("ab").write_str("c");
        let b = Fingerprint::new().write_str("a").write_str("bc");
        assert_ne!(a, b);
        let c = Fingerprint::new().write_u64(1).write_u64(2);
        let d = Fingerprint::new().write_u64(2).write_u64(1);
        assert_ne!(c, d);
        assert_ne!(
            Fingerprint::new().write_f64(0.0),
            Fingerprint::new().write_f64(-0.0)
        );
    }

    #[test]
    fn fingerprint_is_textbook_fnv1a() {
        // Keys and checksums must survive recompiles: check against the
        // published FNV-1a test vectors.
        assert_eq!(Fingerprint::new().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Fingerprint::new().write_bytes(b"a").value(),
            0xaf63_dc4c_8601_ec8c
        );
        assert_eq!(
            Fingerprint::new().write_bytes(b"foobar").value(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn write_feeds_the_canonical_bytes() {
        struct Pair(u8, f64);
        impl Encode for Pair {
            fn encode(&self, w: &mut Writer) {
                let Self(a, b) = self;
                w.u8(*a);
                w.f64(*b);
            }
        }
        let mut bytes = vec![7];
        bytes.extend_from_slice(&2.5f64.to_bits().to_le_bytes());
        assert_eq!(
            Fingerprint::new().write(&Pair(7, 2.5)),
            Fingerprint::new().write_bytes(&bytes)
        );
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(1);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(7);
        w.u64(u64::MAX);
        w.f64(f64::NAN);
        w.opt_f64(Some(-0.0));
        w.opt_f64(None);
        w.blob(b"abc");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(
            r.opt_f64().unwrap().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(r.opt_f64(), Ok(None));
        assert_eq!(r.blob(), Ok(&b"abc"[..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reader_reports_offset_and_shortfall() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u16(), Ok(0x0201));
        assert_eq!(
            r.u32(),
            Err(DecodeError {
                offset: 2,
                needed: 3
            })
        );
        assert_eq!(r.u8(), Ok(3));
        assert!(r.exhausted());
        let mut r = Reader::new(&[2]);
        assert_eq!(
            r.bool(),
            Err(DecodeError {
                offset: 0,
                needed: 0
            })
        );
        // Trailing bytes are an error at the first unread byte.
        let mut r = Reader::new(&[0, 0]);
        r.u8().unwrap();
        assert_eq!(
            r.finish(),
            Err(DecodeError {
                offset: 1,
                needed: 0
            })
        );
    }

    #[test]
    fn hostile_counts_never_wrap_or_allocate() {
        let r = Reader::new(&[0; 16]);
        assert_eq!(r.fits(2, 8), Ok(2));
        assert_eq!(
            r.fits(3, 8),
            Err(DecodeError {
                offset: 0,
                needed: 8
            })
        );
        // 105⁻¹ mod 2⁶⁴: the product wraps to 1 under unchecked arithmetic.
        let inverse = 0x8fd8_fd8f_d8fd_8fd9u64;
        assert_eq!(inverse.wrapping_mul(105), 1);
        assert!(r.fits(inverse, 105).is_err());
        assert!(r.fits(u64::MAX, 1).is_err());
        // An oversized blob length is rejected before the take.
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 1]);
        assert_eq!(
            r.blob(),
            Err(DecodeError {
                offset: 4,
                needed: 0xFFFF_FFFE
            })
        );
    }

    #[test]
    fn enum_codes_decode_through_from_code() {
        let from_code = |c: u8| (c < 3).then_some(c);
        let mut r = Reader::new(&[2, 9, 0, 1, 9]);
        assert_eq!(r.code(from_code), Ok(2));
        assert_eq!(
            r.code(from_code),
            Err(DecodeError {
                offset: 1,
                needed: 0
            })
        );
        assert_eq!(r.opt_code(from_code), Ok(None));
        assert_eq!(r.opt_code(from_code), Ok(Some(1)));
        assert_eq!(
            r.opt_code(from_code),
            Err(DecodeError {
                offset: 4,
                needed: 0
            })
        );
    }
}
