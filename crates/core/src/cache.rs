//! Content-addressed artifact cache shared by the bench binaries.
//!
//! Expensive artifacts — the trained LSTM weights and completed campaign
//! cells — are stored under `results/cache/` keyed by a stable fingerprint
//! of everything that determines them (dataset content, hyper-parameters,
//! seed, platform configuration). Any harness that needs the same artifact
//! loads it instead of recomputing, so `table_vi`, `table_vii`,
//! `ml_ablation` … train the default model once between them and a repeated
//! invocation replays a whole campaign from cache.
//!
//! Keys are [`Fingerprint`]s (FNV-1a, from `adas-codec`) over the
//! canonical [`Encode`](adas_codec::Encode) bytes of everything that
//! determines an artifact, never over `Debug` renderings: `DefaultHasher` is
//! documented as unstable across releases and `Debug` output is not a
//! format, while cache keys must survive recompiles. Fingerprints are
//! content addresses: change a hyper-parameter, a seed, the dataset, or
//! add a config field and the key changes, which *is* the invalidation
//! story (stale entries are simply never addressed again;
//! `rm -r results/cache` reclaims the space).
//!
//! Environment knobs:
//!
//! * `ADAS_CACHE=0` (or `off`/`false`/`no`) disables the cache entirely —
//!   every lookup misses and nothing is written.
//! * `ADAS_CACHE_DIR=<path>` overrides the default `results/cache`
//!   location.
//!
//! Writes are atomic (temp file + rename) so concurrent harnesses never
//! observe a torn artifact.

pub use adas_codec::Fingerprint;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Hit/miss/write/bypass counters for one [`ArtifactCache`] instance.
///
/// Invariant (when every consumer accounts honestly): each successful
/// store follows either a miss (read-through population) or a declared
/// bypass (a consumer that recomputed without consulting the cache), so
/// `writes <= misses + bypasses` up to store failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Successful loads.
    pub hits: u64,
    /// Lookups that found nothing (or an unreadable entry).
    pub misses: u64,
    /// Successful stores.
    pub writes: u64,
    /// Computations that skipped the lookup on purpose (e.g. a traced
    /// campaign must re-execute to capture traces even when the aggregate
    /// is cached) and stored their result directly.
    pub bypasses: u64,
}

/// A content-addressed blob store on disk (see module docs).
///
/// Counters use atomics so a cache shared by reference across worker
/// threads keeps honest statistics.
#[derive(Debug)]
pub struct ArtifactCache {
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    bypasses: AtomicU64,
}

impl ArtifactCache {
    /// Cache rooted at `dir` (tests point this at a temp directory).
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: Some(dir.into()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// A cache that never hits and never writes.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        }
    }

    /// The standard process-wide configuration: `results/cache`, overridden
    /// by `ADAS_CACHE_DIR`, disabled by `ADAS_CACHE=0|off|false|no`.
    #[must_use]
    pub fn from_env() -> Self {
        if crate::env::switch("ADAS_CACHE") == Some(false) {
            return Self::disabled();
        }
        Self::at(crate::env::path_or(
            "ADAS_CACHE_DIR",
            Path::new("results").join("cache"),
        ))
    }

    /// Whether lookups can ever hit.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// On-disk path for an artifact, if the cache is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `kind` contains anything but `[a-z0-9_-]` — kinds are
    /// compile-time literals, not data.
    #[must_use]
    pub fn entry_path(&self, kind: &str, key: Fingerprint) -> Option<PathBuf> {
        assert!(
            !kind.is_empty()
                && kind.bytes().all(|b| b.is_ascii_lowercase()
                    || b.is_ascii_digit()
                    || b == b'_'
                    || b == b'-'),
            "artifact kind {kind:?} must be [a-z0-9_-]+"
        );
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{kind}-{}.bin", key.hex())))
    }

    /// Loads an artifact; `None` is a miss (absent, disabled, or
    /// unreadable).
    #[must_use]
    pub fn load(&self, kind: &str, key: Fingerprint) -> Option<Vec<u8>> {
        let loaded = self
            .entry_path(kind, key)
            .and_then(|p| std::fs::read(p).ok());
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    /// Stores an artifact atomically (temp file + fsync + rename). Returns
    /// whether the entry landed; failures are reported on stderr and
    /// otherwise ignored — the cache is an accelerator, never a correctness
    /// dependency.
    ///
    /// The fsync before the rename matters for long-lived processes
    /// (`adas-serve`): without it, a crash or power loss shortly after the
    /// rename can leave the *name* durable but the *contents* torn, and a
    /// torn-but-present entry would poison every later warm start. (The
    /// entry codecs all carry checksums as a second line of defence, but a
    /// poisoned entry still costs the recompute on every lookup.)
    pub fn store(&self, kind: &str, key: Fingerprint, bytes: &[u8]) -> bool {
        let Some(path) = self.entry_path(kind, key) else {
            return false;
        };
        let Some(dir) = path.parent() else {
            return false;
        };
        let tmp = dir.join(format!(".tmp-{kind}-{}-{}", key.hex(), std::process::id()));
        let write_synced = |tmp: &Path| -> std::io::Result<()> {
            use std::io::Write;
            let mut file = std::fs::File::create(tmp)?;
            file.write_all(bytes)?;
            file.sync_all()
        };
        let result = std::fs::create_dir_all(dir)
            .and_then(|()| write_synced(&tmp))
            .and_then(|()| std::fs::rename(&tmp, &path));
        match result {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                eprintln!("[cache] cannot store {}: {e}", path.display());
                false
            }
        }
    }

    /// Loads and decodes an artifact; `None` is a miss. `decode` may reject
    /// a cached blob (wrong version, truncation…), which counts as a miss.
    pub fn load_decoded<T>(
        &self,
        kind: &str,
        key: Fingerprint,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let value = decode(&self.load(kind, key)?);
        if value.is_none() {
            // Undecodable entry: the hit was already counted; correct the
            // books.
            self.hits.fetch_sub(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Declares one deliberate cache bypass: the caller recomputed a
    /// cacheable artifact without a prior [`Self::load`] (because the
    /// computation has side effects the cached aggregate cannot replay —
    /// e.g. trace capture) and will [`Self::store`] the fresh result.
    /// Without this, such stores would read as `writes > hits + misses`,
    /// which looks like corrupt accounting.
    pub fn note_bypass(&self) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
        }
    }
}

/// Stable fingerprint of a model's exact weights: keys every campaign cell
/// that runs the model, and labels its traces.
#[must_use]
pub fn model_fingerprint(model: &adas_ml::LstmPredictor) -> Fingerprint {
    Fingerprint::new()
        .write_str("lstm-weights")
        .write_bytes(&model.to_bytes())
}

/// Stable content fingerprint of a training dataset: every sample's window
/// and target, bit-exact, plus the shape.
#[must_use]
pub fn fingerprint_dataset(data: &adas_ml::Dataset) -> Fingerprint {
    let mut fp = Fingerprint::new()
        .write_str("dataset-v1")
        .write_u64(data.len() as u64);
    for sample in &data.samples {
        fp = fp.write_u64(sample.window.len() as u64);
        for frame in &sample.window {
            for &v in frame {
                fp = fp.write_f64(v);
            }
        }
        for &v in &sample.target {
            fp = fp.write_f64(v);
        }
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adas-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_store_load() {
        let dir = temp_dir("roundtrip");
        let cache = ArtifactCache::at(&dir);
        let key = Fingerprint::new().write_str("k1");
        assert!(cache.load("model", key).is_none());
        assert!(cache.store("model", key, b"payload"));
        assert_eq!(cache.load("model", key).as_deref(), Some(&b"payload"[..]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bypass_accounting_balances_the_books() {
        let dir = temp_dir("bypass");
        let cache = ArtifactCache::at(&dir);
        // A traced-grid-shaped interaction: recompute without a lookup,
        // declare the bypass, store the fresh aggregate.
        for i in 0..3u64 {
            let key = Fingerprint::new().write_u64(i);
            cache.note_bypass();
            assert!(cache.store("cell", key, &i.to_le_bytes()));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!((stats.writes, stats.bypasses), (3, 3));
        assert!(stats.writes <= stats.misses + stats.bypasses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_never_hits_or_writes() {
        let cache = ArtifactCache::disabled();
        let key = Fingerprint::new().write_str("k");
        assert!(!cache.store("cell", key, b"x"));
        assert!(cache.load("cell", key).is_none());
        assert!(!cache.is_enabled());
        assert_eq!(cache.stats().writes, 0);
    }

    #[test]
    fn undecodable_entry_is_a_miss() {
        let dir = temp_dir("corrupt");
        let cache = ArtifactCache::at(&dir);
        let key = Fingerprint::new().write_str("bad");
        let decode = |b: &[u8]| b.try_into().ok().map(u64::from_le_bytes);
        assert!(cache.store("memo", key, b"xyz"));
        assert_eq!(cache.load_decoded("memo", key, decode), None);
        assert!(cache.store("memo", key, &7u64.to_le_bytes()));
        assert_eq!(cache.load_decoded("memo", key, decode), Some(7));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "must be [a-z0-9_-]+")]
    fn bad_kind_rejected() {
        let _ = ArtifactCache::disabled().entry_path("../evil", Fingerprint::new());
    }
}
