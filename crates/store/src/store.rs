//! The content-addressed on-disk artifact store.

use crate::codec::CODEC_VERSION;
use crate::hash::{fnv1a64, ArtifactKey};
use ndetect_chaos::{failpoint, Injected};
use ndetect_obs::trace;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::SystemTime;

/// File-format magic for artifact entries.
const MAGIC: [u8; 4] = *b"NDST";
/// Bytes before the payload: magic + version + kind + length + checksum.
const HEADER_LEN: usize = 4 + 2 + 2 + 8 + 8;
/// Name of the persisted hit/miss counter file in the store root.
const COUNTERS_FILE: &str = "counters.bin";
/// Directory (under the store root) where [`Store::repair`] moves
/// undecodable entries, next to its `MANIFEST` log.
const QUARANTINE_DIR: &str = "quarantine";
/// Distinguishes temp names when one process opens several stores.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The artifact kind tag carried in every entry header, so one key space
/// can hold several artifact flavours without collisions. Consumers pick
/// their own tags; the store only compares them.
pub type ArtifactKind = u16;

/// Cumulative store statistics: what is on disk plus the hit/miss/write
/// counters accumulated across *all* processes that used this cache
/// directory (persisted in `counters.bin`, merged best-effort).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of entry files currently on disk.
    pub entries: u64,
    /// Total size of entry files in bytes.
    pub total_bytes: u64,
    /// Number of fan-out shard subdirectories holding at least one
    /// entry.
    pub shards: u64,
    /// Cumulative successful loads.
    pub hits: u64,
    /// Cumulative failed loads (absent, corrupt, or version-mismatched).
    pub misses: u64,
    /// Cumulative stores.
    pub writes: u64,
    /// Cumulative failed writes that were absorbed (computation
    /// proceeded uncached instead of failing the request).
    pub write_errors: u64,
}

/// Result of a full-store integrity scan ([`Store::verify`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Entries whose header and checksum validated.
    pub valid: u64,
    /// Files that failed validation, with the reason.
    pub corrupt: Vec<(PathBuf, String)>,
}

/// Result of a quarantine pass ([`Store::repair`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Entries whose header and checksum validated (left in place).
    pub valid: u64,
    /// Entries moved into `quarantine/`, with their original path and
    /// the validation failure that condemned them.
    pub quarantined: Vec<(PathBuf, String)>,
}

/// Result of a garbage-collection pass ([`Store::gc`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries removed.
    pub evicted: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Entries kept.
    pub kept: u64,
    /// Bytes still on disk after the pass.
    pub kept_bytes: u64,
}

/// A content-addressed artifact cache rooted at one directory.
///
/// Layout:
///
/// ```text
/// <root>/objects/<hh>/<key-hex16>-k<kind>.art  one file per artifact,
///                                              fanned out over 256 shard
///                                              dirs by the first key byte
/// <root>/tmp/                                  staging for atomic writes
/// <root>/counters.bin                          cumulative hit/miss/write counters
/// ```
///
/// Entries are sharded into 256 fan-out subdirectories (the first two
/// hex digits of the key) so directories stay short even for
/// ~10^5-entry corpora. An entry is a file inside a shard dir and
/// nowhere else: anything directly under `objects/` (where stores
/// written before sharding kept their entries) is never loaded,
/// counted, verified, evicted or repaired — only [`Store::clear`]
/// removes it. The store is a disposable accelerator, so an old
/// directory simply reads as empty.
///
/// Every entry carries a `NDST` magic, the codec version, an artifact
/// kind tag, the payload length, and an FNV-1a checksum; anything that
/// fails validation — truncation, bit flips, a version bump — is treated
/// as a **miss**, never an error. Writes stage into `tmp/` and publish
/// with an atomic rename, so concurrent `ndet` processes sharing one
/// cache directory can only ever observe complete entries.
///
/// The store is `Sync`: session counters are atomics, so one `Store`
/// can be shared across server worker threads. Hit/miss counters are
/// tracked per process and merged into `counters.bin` on drop (or
/// [`Store::flush_counters`]); the merge is a read-modify-rename, so
/// concurrent writers may lose increments — the counters are
/// diagnostics, not ledger data.
///
/// The session counters are [`ndetect_obs::Counter`] cells, so callers
/// can register them into a metrics registry
/// ([`Store::register_metrics`]) and have `cache stats` and the
/// Prometheus exposition read the same atomics.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    tmp_tag: u64,
    session_hits: Arc<ndetect_obs::Counter>,
    session_misses: Arc<ndetect_obs::Counter>,
    session_writes: Arc<ndetect_obs::Counter>,
    session_write_errors: Arc<ndetect_obs::Counter>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory tree cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("tmp"))?;
        Ok(Store {
            root,
            tmp_tag: TMP_SEQ.fetch_add(1, Ordering::Relaxed),
            session_hits: Arc::new(ndetect_obs::Counter::new()),
            session_misses: Arc::new(ndetect_obs::Counter::new()),
            session_writes: Arc::new(ndetect_obs::Counter::new()),
            session_write_errors: Arc::new(ndetect_obs::Counter::new()),
        })
    }

    /// Registers this store's session counters into `registry` under
    /// `store_hits` / `store_misses` / `store_writes` — the exposition
    /// then reads the very cells `cache stats` already reports.
    pub fn register_metrics(&self, registry: &ndetect_obs::Registry) {
        registry.register_counter("store_hits", Arc::clone(&self.session_hits));
        registry.register_counter("store_misses", Arc::clone(&self.session_misses));
        registry.register_counter("store_writes", Arc::clone(&self.session_writes));
        registry.register_counter(
            "store_write_errors_total",
            Arc::clone(&self.session_write_errors),
        );
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The location of an entry: fanned out by the first key byte, i.e.
    /// the first two hex digits of the key.
    fn entry_path(&self, key: ArtifactKey, kind: ArtifactKind) -> PathBuf {
        let hex = key.to_hex();
        self.root
            .join("objects")
            .join(&hex[..2])
            .join(format!("{hex}-k{kind}.art"))
    }

    /// Loads an artifact payload, or `None` on any kind of miss: entry
    /// absent, unreadable, truncated, checksum mismatch, or written
    /// under a different codec version. Never fails loudly — a corrupt
    /// cache degrades to recomputation.
    ///
    /// A hit refreshes the entry's mtime (best effort) so that
    /// [`Store::gc`]'s least-recently-used eviction sees real usage.
    #[must_use]
    pub fn load(&self, key: ArtifactKey, kind: ArtifactKind) -> Option<Vec<u8>> {
        let mut span = trace::span("store.load");
        // Chaos hook: an injected read failure is just a miss, like any
        // real unreadable entry.
        if failpoint!("store.load").is_some() {
            self.session_misses.inc();
            span.field("outcome", "miss");
            return None;
        }
        let path = self.entry_path(key, kind);
        let Ok(payload) = read_entry(&path, Some(kind)) else {
            self.session_misses.inc();
            span.field("outcome", "miss");
            return None;
        };
        self.session_hits.inc();
        if let Ok(f) = fs::File::open(&path) {
            let _ = f.set_modified(SystemTime::now());
        }
        span.field("outcome", "hit");
        span.field("bytes", payload.len());
        Some(payload)
    }

    /// Stores an artifact payload under `key`, atomically replacing any
    /// existing entry.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if staging or renaming fails. Callers on
    /// the analysis fast path typically treat failure as best-effort
    /// (the computation already succeeded).
    pub fn save(&self, key: ArtifactKey, kind: ArtifactKind, payload: &[u8]) -> io::Result<()> {
        let mut span = trace::span("store.save");
        span.field("bytes", payload.len());
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        bytes.extend_from_slice(&kind.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);

        let tmp = self.root.join("tmp").join(format!(
            "{}-{}-{}.part",
            process::id(),
            self.tmp_tag,
            key.to_hex()
        ));
        if failpoint!("store.save.create").is_some() {
            return Err(ndetect_chaos::io_error("store.save.create"));
        }
        {
            let mut f = fs::File::create(&tmp)?;
            match failpoint!("store.save.write") {
                // Torn write: persist a truncated prefix of the staged
                // bytes and fail — the crash-mid-write shape. The torn
                // file stays in `tmp/` (it was never renamed into
                // `objects/`, so no reader can ever see it) until
                // `sweep_tmp` collects it.
                Some(Injected::TornWrite) => {
                    f.write_all(&bytes[..bytes.len() / 2])?;
                    f.sync_all()?;
                    return Err(ndetect_chaos::io_error("store.save.write"));
                }
                Some(Injected::ReturnErr) => {
                    return Err(ndetect_chaos::io_error("store.save.write"));
                }
                None => {}
            }
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        let dest = self.entry_path(key, kind);
        if let Some(dir) = dest.parent() {
            // Shard dirs are created on demand; create_dir_all is safe
            // under concurrent writers racing into the same shard.
            fs::create_dir_all(dir)?;
        }
        let result = if failpoint!("store.save.rename").is_some() {
            Err(ndetect_chaos::io_error("store.save.rename"))
        } else {
            fs::rename(&tmp, &dest)
        };
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result?;
        self.session_writes.inc();
        Ok(())
    }

    /// Stores an artifact, absorbing any failure: the error is counted
    /// (`store_write_errors_total`), logged once per process, and the
    /// caller proceeds uncached. This is the analysis fast path's
    /// contract — a full or read-only cache directory can slow requests
    /// down (everything recomputes) but can never fail one.
    pub fn save_best_effort(&self, key: ArtifactKey, kind: ArtifactKind, payload: &[u8]) {
        if let Err(err) = self.save(key, kind, payload) {
            self.record_write_error("save", &err);
        }
    }

    /// Counts an absorbed write failure and logs the first one per
    /// process (later ones only tick the counter — a dead disk would
    /// otherwise flood stderr once per request).
    fn record_write_error(&self, what: &str, err: &io::Error) {
        self.session_write_errors.inc();
        static LOGGED: Once = Once::new();
        LOGGED.call_once(|| {
            eprintln!(
                "ndet: cache {what} failed ({err}); continuing uncached \
                 (further cache write errors are counted, not logged)"
            );
        });
    }

    /// Hits recorded by this process since the store was opened.
    #[must_use]
    pub fn session_hits(&self) -> u64 {
        self.session_hits.get()
    }

    /// Misses recorded by this process since the store was opened.
    #[must_use]
    pub fn session_misses(&self) -> u64 {
        self.session_misses.get()
    }

    /// Writes recorded by this process since the store was opened.
    #[must_use]
    pub fn session_writes(&self) -> u64 {
        self.session_writes.get()
    }

    /// Absorbed write failures recorded by this process since the store
    /// was opened.
    #[must_use]
    pub fn session_write_errors(&self) -> u64 {
        self.session_write_errors.get()
    }

    /// Merges this process's counters into `counters.bin` and resets
    /// them. Called automatically on drop. A flush failure is itself
    /// absorbed (counted and logged once) — dropping a store on a
    /// read-only cache directory must stay silent-but-observable, never
    /// fatal.
    pub fn flush_counters(&self) {
        let (h, m, w, e) = (
            self.session_hits.take(),
            self.session_misses.take(),
            self.session_writes.take(),
            self.session_write_errors.take(),
        );
        if h == 0 && m == 0 && w == 0 && e == 0 {
            return;
        }
        let (ph, pm, pw, pe) = self.read_persisted_counters();
        let mut payload = Vec::with_capacity(32);
        payload.extend_from_slice(&(ph + h).to_le_bytes());
        payload.extend_from_slice(&(pm + m).to_le_bytes());
        payload.extend_from_slice(&(pw + w).to_le_bytes());
        payload.extend_from_slice(&(pe + e).to_le_bytes());
        // Same atomic-rename discipline as entries; losing a race just
        // loses counter increments, never corrupts the file.
        let tmp =
            self.root
                .join("tmp")
                .join(format!("{}-{}-counters.part", process::id(), self.tmp_tag));
        let write = if failpoint!("store.counters.flush").is_some() {
            Err(ndetect_chaos::io_error("store.counters.flush"))
        } else {
            fs::write(&tmp, &payload).and_then(|()| {
                let res = fs::rename(&tmp, self.root.join(COUNTERS_FILE));
                if res.is_err() {
                    let _ = fs::remove_file(&tmp);
                }
                res
            })
        };
        if let Err(err) = write {
            // Put the taken counts back so a later flush (or the drop
            // flush) can retry; only increments raced away by another
            // process are ever truly lost.
            self.session_hits.add(h);
            self.session_misses.add(m);
            self.session_writes.add(w);
            self.session_write_errors.add(e);
            self.record_write_error("counter flush", &err);
        }
    }

    /// Reads `(hits, misses, writes, write_errors)` from `counters.bin`.
    /// A file that is not exactly four words reads as zeros; the next
    /// flush rewrites it.
    fn read_persisted_counters(&self) -> (u64, u64, u64, u64) {
        let bytes = fs::read(self.root.join(COUNTERS_FILE)).unwrap_or_default();
        let Ok(words) = <[u8; 32]>::try_from(bytes.as_slice()) else {
            return (0, 0, 0, 0);
        };
        let word = |i: usize| u64::from_le_bytes(words[i * 8..(i + 1) * 8].try_into().expect("8"));
        (word(0), word(1), word(2), word(3))
    }

    /// Every entry on disk: the files one level down inside the fan-out
    /// shard dirs. Nothing else under `objects/` is an entry.
    fn entry_files(&self) -> io::Result<Vec<(PathBuf, u64, SystemTime)>> {
        let mut files = Vec::new();
        for shard in fs::read_dir(self.root.join("objects"))? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for entry in fs::read_dir(shard.path())? {
                let entry = entry?;
                let meta = entry.metadata()?;
                if meta.is_file() {
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    files.push((entry.path(), meta.len(), mtime));
                }
            }
        }
        Ok(files)
    }

    /// Current on-disk shape plus cumulative counters (including this
    /// process's unflushed session counts).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the objects directory cannot be scanned.
    pub fn stats(&self) -> io::Result<StoreStats> {
        let files = self.entry_files()?;
        let (hits, misses, writes, write_errors) = self.read_persisted_counters();
        Ok(StoreStats {
            entries: files.len() as u64,
            total_bytes: files.iter().map(|(_, len, _)| len).sum(),
            shards: shard_counts(&files).len() as u64,
            hits: hits + self.session_hits(),
            misses: misses + self.session_misses(),
            writes: writes + self.session_writes(),
            write_errors: write_errors + self.session_write_errors(),
        })
    }

    /// Per-shard entry counts: how the fan-out layout is filling up.
    /// `(shard name, entry count)` for every shard holding at least one
    /// entry, sorted by shard name.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the objects directory cannot be scanned.
    pub fn shard_histogram(&self) -> io::Result<Vec<(String, u64)>> {
        Ok(shard_counts(&self.entry_files()?))
    }

    /// Validates every entry's header and checksum.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the objects directory cannot be scanned
    /// (individual unreadable entries are reported as corrupt instead).
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for (path, _, _) in self.entry_files()? {
            // The expected kind is embedded in the file name; validate
            // the header against it when parseable, else against the
            // header's own kind (checksum still applies).
            match read_entry(&path, kind_from_file_name(&path)) {
                Ok(_) => report.valid += 1,
                Err(reason) => report.corrupt.push((path, reason)),
            }
        }
        Ok(report)
    }

    /// Quarantines every entry that fails validation. Where
    /// [`Store::verify`] only reports, repair *moves* each corrupt file
    /// into `<root>/quarantine/` and appends a tab-separated line to
    /// `quarantine/MANIFEST` — quarantined name, original path, failure
    /// reason — so the bytes stay inspectable for debugging while the
    /// store itself ends the pass holding only valid entries.
    ///
    /// Note a repaired store is not necessarily a *smaller* failure
    /// domain: corrupt entries were already misses. Repair exists so
    /// operators can distinguish "cache churn" from "disk eating
    /// bytes", with the evidence preserved.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the scan, a move, or a manifest append
    /// fails.
    pub fn repair(&self) -> io::Result<RepairReport> {
        let mut report = RepairReport::default();
        for (path, _, _) in self.entry_files()? {
            match read_entry(&path, kind_from_file_name(&path)) {
                Ok(_) => report.valid += 1,
                Err(reason) => {
                    let dest = self.quarantine_dest(&path)?;
                    fs::rename(&path, &dest)?;
                    let mut manifest = fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(self.root.join(QUARANTINE_DIR).join("MANIFEST"))?;
                    writeln!(
                        manifest,
                        "{}\t{}\t{reason}",
                        dest.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
                        path.display()
                    )?;
                    report.quarantined.push((path, reason));
                }
            }
        }
        if !report.quarantined.is_empty() {
            self.prune_empty_shards();
        }
        Ok(report)
    }

    /// Picks a free file name inside `quarantine/` for `path`, creating
    /// the directory on first use. An entry that is rebuilt and
    /// corrupted again arrives under the name its first copy already
    /// holds, so collisions get a numeric prefix.
    fn quarantine_dest(&self, path: &Path) -> io::Result<PathBuf> {
        let dir = self.root.join(QUARANTINE_DIR);
        fs::create_dir_all(&dir)?;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("entry")
            .to_string();
        let mut dest = dir.join(&name);
        let mut n = 1u32;
        while dest.exists() {
            dest = dir.join(format!("{n}-{name}"));
            n += 1;
        }
        Ok(dest)
    }

    /// Removes the whole `objects/` tree (entries, and any file a store
    /// written before sharding left outside the shards), the counters
    /// file, and all staging files (including partial writes left
    /// behind by crashed processes).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered.
    pub fn clear(&self) -> io::Result<()> {
        let objects = self.root.join("objects");
        match fs::remove_dir_all(&objects) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        fs::create_dir_all(&objects)?;
        let _ = fs::remove_file(self.root.join(COUNTERS_FILE));
        self.sweep_tmp(std::time::Duration::ZERO);
        let _ = self.session_hits.take();
        let _ = self.session_misses.take();
        let _ = self.session_writes.take();
        let _ = self.session_write_errors.take();
        Ok(())
    }

    /// Removes shard directories left empty by eviction (best effort —
    /// `remove_dir` refuses non-empty dirs, so racing writers are safe).
    fn prune_empty_shards(&self) {
        let Ok(entries) = fs::read_dir(self.root.join("objects")) else {
            return;
        };
        for entry in entries.filter_map(Result::ok) {
            if entry.file_type().is_ok_and(|t| t.is_dir()) {
                let _ = fs::remove_dir(entry.path());
            }
        }
    }

    /// Removes staging files older than `min_age` (best effort). Live
    /// writers stage and rename within the same call, so anything old
    /// in `tmp/` is an orphan from a crashed process.
    fn sweep_tmp(&self, min_age: std::time::Duration) {
        let Ok(entries) = fs::read_dir(self.root.join("tmp")) else {
            return;
        };
        let now = SystemTime::now();
        for entry in entries.filter_map(Result::ok) {
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .map(|mtime| now.duration_since(mtime).is_ok_and(|age| age >= min_age))
                .unwrap_or(true);
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// Size-bounded least-recently-used eviction: removes the oldest
    /// entries (by mtime — [`Store::load`] refreshes it on hits) until
    /// the total size is at most `max_bytes`. Also sweeps staging files
    /// orphaned by crashed processes (older than one hour).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the objects directory cannot be scanned
    /// or an eviction fails.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        self.sweep_tmp(std::time::Duration::from_secs(3600));
        let mut files = self.entry_files()?;
        files.sort_by_key(|(_, _, mtime)| *mtime);
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        let mut report = GcReport::default();
        for (path, len, _) in &files {
            if total <= max_bytes {
                report.kept += 1;
                report.kept_bytes += len;
                continue;
            }
            fs::remove_file(path)?;
            total -= len;
            report.evicted += 1;
            report.freed_bytes += len;
        }
        if report.evicted > 0 {
            self.prune_empty_shards();
        }
        Ok(report)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.flush_counters();
    }
}

/// Where [`read_through`] got its artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// Decoded from a store entry that `accept` took.
    Loaded,
    /// Built: no store, no valid entry, or an entry `accept` rejected.
    Built,
}

/// The store read-through every stored artifact goes through. A valid
/// entry under `(key, kind)` that `accept` turns into a value is
/// returned as [`Origin::Loaded`]. Anything else — no store, a missing
/// or damaged entry, an entry `accept` rejects — is a miss: `build`
/// runs, its value is saved best effort ([`Store::save_best_effort`])
/// through `encode`, and it is returned as [`Origin::Built`].
///
/// # Errors
///
/// Returns `build`'s error; a failed build saves nothing.
pub fn read_through<T, E>(
    store: Option<&Store>,
    key: ArtifactKey,
    kind: ArtifactKind,
    accept: impl FnOnce(&[u8]) -> Option<T>,
    build: impl FnOnce() -> Result<T, E>,
    encode: impl FnOnce(&T) -> Vec<u8>,
) -> Result<(T, Origin), E> {
    let payload = store.and_then(|store| store.load(key, kind));
    if let Some(value) = payload.and_then(|payload| accept(&payload)) {
        return Ok((value, Origin::Loaded));
    }
    let value = build()?;
    if let Some(store) = store {
        store.save_best_effort(key, kind, &encode(&value));
    }
    Ok((value, Origin::Built))
}

/// Entry counts per shard directory, sorted by shard name.
fn shard_counts(files: &[(PathBuf, u64, SystemTime)]) -> Vec<(String, u64)> {
    let mut counts = BTreeMap::<String, u64>::new();
    for (path, _, _) in files {
        let shard = path.parent().and_then(Path::file_name).unwrap_or_default();
        *counts
            .entry(shard.to_string_lossy().into_owned())
            .or_default() += 1;
    }
    counts.into_iter().collect()
}

/// Parses the `-k<kind>` tag out of an entry file name.
fn kind_from_file_name(path: &Path) -> Option<ArtifactKind> {
    let stem = path.file_stem()?.to_str()?;
    let (_, kind) = stem.rsplit_once("-k")?;
    kind.parse().ok()
}

/// Reads and fully validates one entry file, returning the payload or a
/// human-readable failure reason. `expected_kind = None` accepts any
/// kind tag (integrity scans where the caller has no expectation).
fn read_entry(path: &Path, expected_kind: Option<ArtifactKind>) -> Result<Vec<u8>, String> {
    let mut f = fs::File::open(path).map_err(|e| format!("open: {e}"))?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)
        .map_err(|e| format!("read: {e}"))?;
    if bytes.len() < HEADER_LEN {
        return Err(format!("truncated header ({} bytes)", bytes.len()));
    }
    if bytes[0..4] != MAGIC {
        return Err("bad magic".into());
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2"));
    if version != CODEC_VERSION {
        return Err(format!("codec version {version}, expected {CODEC_VERSION}"));
    }
    let kind = u16::from_le_bytes(bytes[6..8].try_into().expect("2"));
    if expected_kind.is_some_and(|expected| kind != expected) {
        return Err(format!(
            "kind {kind}, expected {}",
            expected_kind.expect("checked")
        ));
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8"));
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(format!(
            "payload length {} != declared {payload_len}",
            payload.len()
        ));
    }
    if fnv1a64(payload) != checksum {
        return Err("checksum mismatch".into());
    }
    // Strip the header in place — no second allocation for the payload.
    bytes.drain(..HEADER_LEN);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("ndetect-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn save_load_round_trip_and_counters() {
        let store = temp_store("roundtrip");
        let key = ArtifactKey(0xdead_beef);
        assert!(store.load(key, 1).is_none()); // miss
        store.save(key, 1, b"payload bytes").unwrap();
        assert_eq!(store.load(key, 1).unwrap(), b"payload bytes");
        // Same key, different kind: distinct entry.
        assert!(store.load(key, 2).is_none());
        let stats = store.stats().unwrap();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.writes, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn counters_persist_across_store_instances() {
        let store = temp_store("counters");
        let root = store.root().to_path_buf();
        let key = ArtifactKey(7);
        store.save(key, 1, b"x").unwrap();
        assert!(store.load(key, 1).is_some());
        drop(store); // flushes counters

        let store2 = Store::open(&root).unwrap();
        let stats = store2.stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.writes, 1);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn corrupt_entries_are_misses_and_verify_flags_them() {
        let store = temp_store("corrupt");
        let key = ArtifactKey(1);
        store.save(key, 1, b"hello world").unwrap();
        let path = store.entry_path(key, 1);

        // Flip one payload byte.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(key, 1).is_none());

        // Truncate mid-payload.
        store.save(key, 1, b"hello world").unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(store.load(key, 1).is_none());

        // Wrong codec version.
        store.save(key, 1, b"hello world").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(key, 1).is_none());

        let report = store.verify().unwrap();
        assert_eq!(report.valid, 0);
        assert_eq!(report.corrupt.len(), 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn clear_removes_everything() {
        let store = temp_store("clear");
        store.save(ArtifactKey(1), 1, b"a").unwrap();
        store.save(ArtifactKey(2), 1, b"b").unwrap();
        store.clear().unwrap();
        let stats = store.stats().unwrap();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_evicts_oldest_first_until_under_budget() {
        let store = temp_store("gc");
        let payload = vec![0u8; 100];
        for i in 0..4u64 {
            store.save(ArtifactKey(i), 1, &payload).unwrap();
            // Force distinct mtimes (filesystem granularity permitting)
            // by backdating earlier entries.
            let age = std::time::Duration::from_secs(100 - i * 10);
            let f = fs::File::open(store.entry_path(ArtifactKey(i), 1)).unwrap();
            f.set_modified(SystemTime::now() - age).unwrap();
        }
        let per_entry = (HEADER_LEN + payload.len()) as u64;
        let report = store.gc(2 * per_entry).unwrap();
        assert_eq!(report.evicted, 2);
        assert_eq!(report.kept, 2);
        // Oldest (keys 0 and 1) evicted; newest survive.
        assert!(store.load(ArtifactKey(0), 1).is_none());
        assert!(store.load(ArtifactKey(1), 1).is_none());
        assert!(store.load(ArtifactKey(2), 1).is_some());
        assert!(store.load(ArtifactKey(3), 1).is_some());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_equal_mtime_ties_still_respect_the_byte_budget() {
        // Entries sharing one mtime (coarse filesystems, batch imports)
        // have no LRU order between them; gc must still evict exactly
        // enough of them to get under budget and report consistently.
        let store = temp_store("gc-ties");
        let payload = vec![0u8; 100];
        let shared = SystemTime::now() - std::time::Duration::from_secs(500);
        for i in 0..4u64 {
            store.save(ArtifactKey(i), 1, &payload).unwrap();
            let f = fs::File::open(store.entry_path(ArtifactKey(i), 1)).unwrap();
            f.set_modified(shared).unwrap();
        }
        let per_entry = (HEADER_LEN + payload.len()) as u64;
        let report = store.gc(per_entry).unwrap();
        assert_eq!(report.evicted, 3);
        assert_eq!(report.kept, 1);
        assert_eq!(report.kept_bytes, per_entry);
        assert_eq!(report.freed_bytes, 3 * per_entry);
        let stats = store.stats().unwrap();
        assert_eq!(stats.entries, 1);
        assert!(stats.total_bytes <= per_entry);
        // Exactly one of the four tied entries survived.
        let survivors = (0..4u64)
            .filter(|&i| store.load(ArtifactKey(i), 1).is_some())
            .count();
        assert_eq!(survivors, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_keeps_an_old_entry_that_was_hit_over_an_unused_newer_one() {
        // LRU is by *use*, not by creation: a load refreshes the
        // entry's mtime, so an old-but-hot entry must outlive a
        // newer-but-cold one.
        let store = temp_store("gc-hit-refresh");
        let payload = vec![0u8; 100];
        let hot = ArtifactKey(1);
        let cold = ArtifactKey(2);
        store.save(hot, 1, &payload).unwrap();
        store.save(cold, 1, &payload).unwrap();
        // Backdate both: hot is the *older* entry on disk.
        for (key, age) in [(hot, 900u64), (cold, 300)] {
            let f = fs::File::open(store.entry_path(key, 1)).unwrap();
            f.set_modified(SystemTime::now() - std::time::Duration::from_secs(age))
                .unwrap();
        }
        // A hit refreshes hot's recency past cold's.
        assert!(store.load(hot, 1).is_some());
        let per_entry = (HEADER_LEN + payload.len()) as u64;
        let report = store.gc(per_entry).unwrap();
        assert_eq!(report.evicted, 1);
        assert!(store.load(hot, 1).is_some(), "hit entry must survive gc");
        assert!(
            store.load(cold, 1).is_none(),
            "least-recently-used entry must be evicted"
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn orphaned_tmp_files_are_swept_by_clear_and_gc() {
        let store = temp_store("tmp-sweep");
        // Simulate a crashed writer's leftover staging file.
        let orphan = store.root().join("tmp").join("999-0-deadbeef.part");
        fs::write(&orphan, b"partial").unwrap();

        // gc only sweeps stale orphans (>1h); a fresh file survives.
        store.gc(u64::MAX).unwrap();
        assert!(orphan.exists());
        let f = fs::File::open(&orphan).unwrap();
        f.set_modified(SystemTime::now() - std::time::Duration::from_secs(7200))
            .unwrap();
        store.gc(u64::MAX).unwrap();
        assert!(!orphan.exists());

        // clear sweeps regardless of age.
        fs::write(&orphan, b"partial").unwrap();
        store.clear().unwrap();
        assert!(!orphan.exists());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn entries_land_in_fanout_shards() {
        let store = temp_store("shards");
        // 0x00.. and 0xff.. land in different shards; same first byte
        // shares one.
        store
            .save(ArtifactKey(0x00ab_0000_0000_0001), 1, b"a")
            .unwrap();
        store
            .save(ArtifactKey(0x00cd_0000_0000_0002), 1, b"b")
            .unwrap();
        store
            .save(ArtifactKey(0xff00_0000_0000_0003), 1, b"c")
            .unwrap();
        assert!(store.root().join("objects/00").is_dir());
        assert!(store.root().join("objects/ff").is_dir());
        let stats = store.stats().unwrap();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.shards, 2);
        assert_eq!(
            store.shard_histogram().unwrap(),
            vec![("00".to_string(), 2), ("ff".to_string(), 1)]
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn files_outside_the_shards_are_not_entries() {
        // A store written before sharding kept its entries directly
        // under objects/. Such files are not entries: nothing loads,
        // counts, verifies, evicts or repairs them; only clear removes
        // them.
        let store = temp_store("outside-shards");
        let key = ArtifactKey(0xaa00_0000_0000_0042);
        store.save(key, 1, b"payload").unwrap();
        let sharded = store.entry_path(key, 1);
        let objects = store.root().join("objects");
        let moved = objects.join(sharded.file_name().unwrap());
        fs::rename(&sharded, &moved).unwrap();
        store.prune_empty_shards();
        let garbage = objects.join("0000000000000001-k1.art");
        fs::write(&garbage, b"garbage").unwrap();

        assert!(store.load(key, 1).is_none());
        let stats = store.stats().unwrap();
        assert_eq!((stats.entries, stats.shards), (0, 0));
        assert!(store.shard_histogram().unwrap().is_empty());
        assert_eq!(store.verify().unwrap(), VerifyReport::default());
        assert_eq!(store.gc(0).unwrap(), GcReport::default());
        assert_eq!(store.repair().unwrap(), RepairReport::default());
        assert!(moved.is_file() && garbage.is_file());

        store.clear().unwrap();
        assert!(!moved.exists() && !garbage.exists());
        assert!(objects.is_dir());
        assert_eq!(fs::read_dir(&objects).unwrap().count(), 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_orders_lru_across_shards() {
        // LRU eviction must interleave entries from different shard
        // dirs purely by recency.
        let store = temp_store("gc-across-shards");
        let payload = vec![0u8; 100];
        let keys = [
            ArtifactKey(0x1100_0000_0000_0001), // shard 11, oldest
            ArtifactKey(0x2200_0000_0000_0002), // shard 22
            ArtifactKey(0x3300_0000_0000_0003), // shard 33
            ArtifactKey(0x4400_0000_0000_0004), // shard 44, newest
        ];
        // Save newest first, so that creation order and recency differ.
        for (i, &key) in keys.iter().enumerate().rev() {
            store.save(key, 1, &payload).unwrap();
            let age = std::time::Duration::from_secs(1000 - 100 * i as u64);
            let f = fs::File::open(store.entry_path(key, 1)).unwrap();
            f.set_modified(SystemTime::now() - age).unwrap();
        }
        let per_entry = (HEADER_LEN + payload.len()) as u64;
        let report = store.gc(2 * per_entry).unwrap();
        assert_eq!(report.evicted, 2);
        // The two oldest (shards 11 and 22) are gone; shards 33 and 44
        // survive. Emptied shard dirs are pruned.
        assert!(store.load(keys[0], 1).is_none());
        assert!(store.load(keys[1], 1).is_none());
        assert!(store.load(keys[2], 1).is_some());
        assert!(store.load(keys[3], 1).is_some());
        assert!(!store.root().join("objects/11").exists());
        assert!(!store.root().join("objects/22").exists());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn clear_prunes_shard_directories() {
        let store = temp_store("clear-shards");
        store
            .save(ArtifactKey(0x0500_0000_0000_0001), 1, b"a")
            .unwrap();
        store
            .save(ArtifactKey(0x9900_0000_0000_0002), 1, b"b")
            .unwrap();
        store.clear().unwrap();
        assert_eq!(store.stats().unwrap().entries, 0);
        assert!(!store.root().join("objects/05").exists());
        assert!(!store.root().join("objects/99").exists());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn repair_quarantines_corrupt_entries_with_a_manifest() {
        let store = temp_store("repair");
        let good = ArtifactKey(0x1100_0000_0000_0001);
        let bad = ArtifactKey(0x2200_0000_0000_0002);
        store.save(good, 1, b"intact").unwrap();
        store.save(bad, 1, b"doomed").unwrap();
        let bad_path = store.entry_path(bad, 1);
        let mut bytes = fs::read(&bad_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&bad_path, &bytes).unwrap();

        let report = store.repair().unwrap();
        assert_eq!(report.valid, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, bad_path);
        assert!(report.quarantined[0].1.contains("checksum"));
        // The corrupt file left the data path but not the disk.
        assert!(!bad_path.exists());
        let qdir = store.root().join(QUARANTINE_DIR);
        assert!(qdir.join(bad_path.file_name().unwrap()).is_file());
        let manifest = fs::read_to_string(qdir.join("MANIFEST")).unwrap();
        assert!(manifest.contains("checksum mismatch"), "{manifest}");
        // After repair the store verifies clean and a second repair is
        // a no-op; the good entry still loads.
        assert!(store.verify().unwrap().corrupt.is_empty());
        assert!(store.repair().unwrap().quarantined.is_empty());
        assert_eq!(store.load(good, 1).unwrap(), b"intact");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn repairing_the_same_entry_twice_keeps_both_copies() {
        // An entry that is rebuilt and corrupted again reaches
        // quarantine under the name its first copy already holds; both
        // copies must survive, each with its own MANIFEST line.
        let store = temp_store("repair-twice");
        let key = ArtifactKey(0x3300_0000_0000_0009);
        let path = store.entry_path(key, 1);
        for garbage in [&b"first"[..], b"second"] {
            store.save(key, 1, b"entry").unwrap();
            fs::write(&path, garbage).unwrap();
            assert_eq!(store.repair().unwrap().quarantined.len(), 1);
        }
        let qdir = store.root().join(QUARANTINE_DIR);
        let name = path.file_name().unwrap().to_str().unwrap();
        assert_eq!(fs::read(qdir.join(name)).unwrap(), b"first");
        assert_eq!(fs::read(qdir.join(format!("1-{name}"))).unwrap(), b"second");
        let manifest = fs::read_to_string(qdir.join("MANIFEST")).unwrap();
        assert_eq!(manifest.lines().count(), 2, "{manifest}");
        assert!(manifest.contains(&format!("\n1-{name}\t")), "{manifest}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn kind_tag_parsing() {
        assert_eq!(
            kind_from_file_name(Path::new("/x/objects/0011223344556677-k2.art")),
            Some(2)
        );
        assert_eq!(
            kind_from_file_name(Path::new("/x/objects/garbage.art")),
            None
        );
    }

    /// The read-through of a one-byte artifact that `accept` takes only
    /// when the payload is exactly one byte.
    fn read_byte(
        store: Option<&Store>,
        built: Result<u8, &'static str>,
    ) -> Result<(u8, Origin), &'static str> {
        let accept = |payload: &[u8]| match payload {
            [byte] => Some(*byte),
            _ => None,
        };
        read_through(store, ArtifactKey(0x44), 1, accept, || built, |b| vec![*b])
    }

    #[test]
    fn read_through_without_a_store_builds() {
        assert_eq!(read_byte(None, Ok(7)), Ok((7, Origin::Built)));
        assert_eq!(read_byte(None, Err("boom")), Err("boom"));
        let no_encode = |_: &u8| -> Vec<u8> { unreachable!("nothing is saved without a store") };
        let built = read_through(
            None,
            ArtifactKey(1),
            1,
            |_| None,
            || Ok::<_, ()>(3),
            no_encode,
        );
        assert_eq!(built, Ok((3, Origin::Built)));
    }

    #[test]
    fn read_through_loads_an_accepted_entry() {
        let store = temp_store("read-through-hit");
        store.save(ArtifactKey(0x44), 1, &[9]).unwrap();
        assert_eq!(
            read_byte(Some(&store), Err("unused")),
            Ok((9, Origin::Loaded))
        );
        assert_eq!(store.session_writes(), 1, "a load writes nothing");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn read_through_rebuilds_and_overwrites_a_rejected_entry() {
        let store = temp_store("read-through-rejected");
        let key = ArtifactKey(0x44);
        store.save(key, 1, b"junk").unwrap();
        assert_eq!(store.session_misses(), 0);
        assert_eq!(read_byte(Some(&store), Ok(5)), Ok((5, Origin::Built)));
        assert_eq!(
            store.session_hits(),
            1,
            "the junk entry is a valid store hit"
        );
        assert_eq!(store.load(key, 1).as_deref(), Some(&[5u8][..]));
        assert_eq!(read_byte(Some(&store), Ok(6)), Ok((5, Origin::Loaded)));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn read_through_saves_nothing_when_the_build_fails() {
        let store = temp_store("read-through-error");
        assert_eq!(read_byte(Some(&store), Err("boom")), Err("boom"));
        assert_eq!(store.session_writes(), 0);
        assert_eq!(store.session_write_errors(), 0);
        assert_eq!(store.stats().unwrap().entries, 0);
        assert_eq!(read_byte(Some(&store), Ok(2)), Ok((2, Origin::Built)));
        let _ = fs::remove_dir_all(store.root());
    }
}
