//! Persistent content-addressed stage store (DESIGN.md §11).
//!
//! A disk tier under the in-memory [`crate::StageCache`]: each stage
//! output — the Internet plan, the columnar attack stream, the eleven
//! observation streams, the raw Netscout alert stream, and the three
//! honeypots' detections the carpet pass reads — is
//! serialized through the hand-rolled wire codecs (`netmodel::wire`,
//! `attackgen::wire`) into one *cell* file at
//! `<dir>/<stage>/<fingerprint>`, keyed by the same chained
//! fingerprints the memory cache uses. Repeated CLI invocations and
//! cross-process sweeps therefore share warm stages: a second process
//! loads the plan and attack stream from disk instead of recomputing
//! them.
//!
//! **Integrity contract:** a load is served only if the cell passes
//! every header check (magic, version, payload kind, length) *and* its
//! word-folded FNV-1a payload checksum *and* wire decoding. Any failure —
//! truncation, byte flip, version skew, a structurally lying payload —
//! is rejected with a `warn!`, counted as `stage.<name>.disk_reject`,
//! and answered with `None`: the caller recomputes and rewrites the
//! cell. Corruption can cost time, never correctness.
//!
//! **Crash consistency:** cells are published through
//! [`obs::store::publish`], the same tmp-then-rename sequence the
//! run-history store uses: written to a same-directory temporary
//! sibling unique to the writer, then atomically renamed into place.
//! A reader never observes a torn cell — it sees the old bytes, the
//! new bytes, or no file — and concurrent writers of one cell, threads
//! or processes, never share a temporary. A writer that dies between
//! the write and the rename leaves its temporary behind; [`DiskStore::gc`]
//! removes temporaries older than an hour.
//!
//! One generic [`DiskStore::load`] / [`DiskStore::store`] pair serves
//! all four stage output types through their [`StageOutput`] codec.
//!
//! Telemetry lands in the global `obs` registry as
//! `stage.<plan|attacks|observations>.disk_{hit,miss,write,reject}`
//! and therefore in every run manifest. Loads deliberately do *not*
//! advance `stage.<name>.computed` — that counter means "stage
//! executions", and a disk load is precisely the absence of one.

use crate::scenario::StudyConfig;
use crate::stagecache::{Stage, StageOutput};
use attackgen::{AttackColumns, ObservationColumns};
use flowmon::AlertColumns;
use netmodel::InternetPlan;
use obs::metrics::Counter;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default store directory the CLI's bare `--store` flag resolves to,
/// relative to the working directory.
pub const DEFAULT_STORE_DIR: &str = ".ddoscovery/store";

/// Magic bytes opening every cell file.
pub const CELL_MAGIC: [u8; 4] = *b"DDSC";

/// Cell format version. Bumped on any wire-codec change; cells of
/// another version are rejected (recompute-and-rewrite), never
/// migrated in place.
pub const CELL_VERSION: u16 = 1;

/// Fixed header: magic (4) + version u16 + payload kind u8 +
/// payload length u64 + word-folded FNV-1a payload checksum u64 (see
/// [`cell_checksum`]), all little-endian.
pub const CELL_HEADER_LEN: usize = 4 + 2 + 1 + 8 + 8;

/// Payload checksum: FNV-1a folded over little-endian u64 words —
/// the standard offset basis is first bound to the payload length,
/// then each 8-byte word (tail zero-padded) goes through the usual
/// xor-then-multiply round. Identical mixing to byte-wise FNV-1a with
/// one round per word instead of eight, which matters on multi-MB
/// attack cells: the checksum runs on every load, and verifying a
/// cell must stay far cheaper than recomputing the stage. Binding the
/// length first keeps zero-padded tails of different lengths distinct.
fn cell_checksum(payload: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let round = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let mut h = round(OFFSET, payload.len() as u64);
    let mut words = payload.chunks_exact(8);
    for w in &mut words {
        h = round(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = round(h, u64::from_le_bytes(tail));
    }
    h
}

/// The effective store directory for a config: the
/// [`StudyConfig::disk_store`] directory, or no store when the knob is
/// `None`, empty or `off`.
pub fn resolve_dir(config: &StudyConfig) -> Option<PathBuf> {
    let dir = config.disk_store.as_deref()?.trim();
    if dir.is_empty() || dir.eq_ignore_ascii_case("off") {
        None
    } else {
        Some(PathBuf::from(dir))
    }
}

/// The disk store a run should use, if any (see [`resolve_dir`]).
pub fn resolve(config: &StudyConfig) -> Option<DiskStore> {
    resolve_dir(config).map(DiskStore::open)
}

/// Frame a payload into cell bytes: header (see [`CELL_HEADER_LEN`])
/// followed by the payload verbatim. `tag` is the payload kind,
/// [`StageOutput::KIND`].
fn encode_cell(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CELL_HEADER_LEN + payload.len());
    out.extend_from_slice(&CELL_MAGIC);
    out.extend_from_slice(&CELL_VERSION.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&cell_checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate cell bytes against the expected payload kind. Returns the
/// payload slice, or a description of the first violated check.
fn check_cell(bytes: &[u8], tag: u8) -> Result<&[u8], String> {
    if bytes.len() < CELL_HEADER_LEN {
        return Err(format!(
            "truncated header: {} bytes, need {CELL_HEADER_LEN}",
            bytes.len()
        ));
    }
    if bytes[..4] != CELL_MAGIC {
        return Err(format!("bad magic {:02x?}", &bytes[..4]));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != CELL_VERSION {
        return Err(format!("version {version}, expected {CELL_VERSION}"));
    }
    if bytes[6] != tag {
        return Err(format!("payload kind {}, expected {tag}", bytes[6]));
    }
    let len = u64::from_le_bytes(
        bytes[7..15].try_into().expect("8-byte slice of a checked header"),
    );
    let payload = &bytes[CELL_HEADER_LEN..];
    if len != payload.len() as u64 {
        return Err(format!(
            "payload length {} does not match header {len}",
            payload.len()
        ));
    }
    let checksum = u64::from_le_bytes(
        bytes[15..23].try_into().expect("8-byte slice of a checked header"),
    );
    let actual = cell_checksum(payload);
    if checksum != actual {
        return Err(format!("checksum {actual:016x}, header says {checksum:016x}"));
    }
    Ok(payload)
}

/// Handle on one store directory, with per-stage telemetry counters.
/// Opening never touches the filesystem — directories are created
/// lazily on the first write, and a missing directory just means every
/// load misses.
pub struct DiskStore {
    dir: PathBuf,
    hit: [Arc<Counter>; 3],
    miss: [Arc<Counter>; 3],
    write: [Arc<Counter>; 3],
    reject: [Arc<Counter>; 3],
}

/// One cell on disk, as surfaced by [`DiskStore::list`].
#[derive(Debug, Clone)]
pub struct CellInfo {
    /// Stage directory name (`plan` / `attacks` / `observations`).
    pub stage: String,
    /// Cell file name: the stage fingerprint as 16 hex digits.
    pub key: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Modification time in whole seconds since the Unix epoch (0 when
    /// the filesystem cannot say) — the LRU axis of [`DiskStore::gc`].
    pub mtime_secs: u64,
    /// Full path, for removal.
    pub path: PathBuf,
}

/// Age past which [`DiskStore::gc`] removes a publish temporary. A
/// live publish holds its temporary only for the milliseconds between
/// its write and its rename, so an older one belongs to a writer that
/// died in between.
const STALE_TMP_SECS: u64 = 3600;

/// What [`DiskStore::gc`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Cells removed (oldest first).
    pub removed: usize,
    /// Bytes those cells occupied.
    pub freed_bytes: u64,
    /// Cells surviving.
    pub kept: usize,
    /// Bytes they occupy.
    pub kept_bytes: u64,
    /// Crashed writers' temporaries removed (older than an hour).
    pub stale_tmp: usize,
}

impl DiskStore {
    /// A store rooted at `dir`. Registers the twelve
    /// `stage.<name>.disk_*` counters so they appear (as zeros) in
    /// every manifest of a store-enabled run.
    pub fn open(dir: PathBuf) -> DiskStore {
        let handle = |kind: &str| {
            Stage::ALL.map(|s| obs::metrics::counter(&format!("stage.{}.disk_{kind}", s.name())))
        };
        DiskStore {
            dir,
            hit: handle("hit"),
            miss: handle("miss"),
            write: handle("write"),
            reject: handle("reject"),
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn cell_path(&self, stage: Stage, key: u64) -> PathBuf {
        self.dir.join(stage.name()).join(format!("{key:016x}"))
    }

    /// The stored output for `key`, if present and intact. `None` is
    /// either a clean miss (no file, counted `disk_miss`) or a
    /// rejection (anything else — unreadable file, failed header or
    /// checksum check, payload the wire codec refuses — counted
    /// `disk_reject` and warned).
    pub fn load<T: StageOutput>(&self, key: u64) -> Option<Arc<T>> {
        let i = T::STAGE.index();
        let path = self.cell_path(T::STAGE, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.miss[i].inc();
                return None;
            }
            Err(e) => {
                obs::warn!("disk store: reading {} failed: {e}; recomputing", path.display());
                self.reject[i].inc();
                return None;
            }
        };
        let decoded = check_cell(&bytes, T::KIND)
            .and_then(|payload| T::from_wire(payload).map_err(|why| format!("payload: {why}")));
        match decoded {
            Ok(v) => {
                self.hit[i].inc();
                Some(Arc::new(v))
            }
            Err(why) => {
                obs::warn!("disk store: rejecting {}: {why}; recomputing", path.display());
                self.reject[i].inc();
                None
            }
        }
    }

    /// Persist `value` as the cell for `key` (see
    /// [`obs::store::publish`]). IO errors warn and drop the write —
    /// the store is a cache, not a system of record.
    pub fn store<T: StageOutput>(&self, key: u64, value: &T) {
        let path = self.cell_path(T::STAGE, key);
        let Some(parent) = path.parent() else { return };
        if let Err(e) = fs::create_dir_all(parent) {
            obs::warn!("disk store: creating {} failed: {e}", parent.display());
            return;
        }
        match obs::store::publish(&path, &encode_cell(T::KIND, &value.to_wire())) {
            Ok(()) => self.write[T::STAGE.index()].inc(),
            Err(e) => obs::warn!("disk store: {e}"),
        }
    }

    // Typed delegations kept for `benchmark/`, which drives the disk
    // tier directly; everything else goes through `load` / `store`.

    pub fn load_plan(&self, key: u64) -> Option<Arc<InternetPlan>> {
        self.load(key)
    }

    pub fn store_plan(&self, key: u64, v: &InternetPlan) {
        self.store(key, v)
    }

    pub fn load_attacks(&self, key: u64) -> Option<Arc<AttackColumns>> {
        self.load(key)
    }

    pub fn store_attacks(&self, key: u64, v: &AttackColumns) {
        self.store(key, v)
    }

    pub fn load_observations(&self, key: u64) -> Option<Arc<ObservationColumns>> {
        self.load(key)
    }

    pub fn store_observations(&self, key: u64, v: &ObservationColumns) {
        self.store(key, v)
    }

    pub fn load_alerts(&self, key: u64) -> Option<Arc<AlertColumns>> {
        self.load(key)
    }

    pub fn store_alerts(&self, key: u64, v: &AlertColumns) {
        self.store(key, v)
    }

    /// Every cell currently on disk, sorted by stage then key.
    /// In-flight temporaries (dotfiles) are skipped; unreadable
    /// entries are silently dropped — `gc` and `list` must work on a
    /// store another process is writing to.
    pub fn list(&self) -> Vec<CellInfo> {
        let mut cells = Vec::new();
        for stage in Stage::ALL {
            let dir = self.dir.join(stage.name());
            let Ok(entries) = fs::read_dir(&dir) else { continue };
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(key) = name.to_str() else { continue };
                if key.starts_with('.') {
                    continue;
                }
                let Ok(meta) = entry.metadata() else { continue };
                if !meta.is_file() {
                    continue;
                }
                let mtime_secs = meta
                    .modified()
                    .ok()
                    .and_then(|m| m.duration_since(std::time::UNIX_EPOCH).ok())
                    .map(|d| d.as_secs())
                    .unwrap_or(0);
                cells.push(CellInfo {
                    stage: stage.name().to_string(),
                    key: key.to_string(),
                    bytes: meta.len(),
                    mtime_secs,
                    path: entry.path(),
                });
            }
        }
        cells.sort_by(|a, b| (&a.stage, &a.key).cmp(&(&b.stage, &b.key)));
        cells
    }

    /// Shrink the store to at most `max_bytes` by removing
    /// least-recently-modified cells first (path order breaks mtime
    /// ties so the victim sequence is deterministic). Also removes
    /// publish temporaries older than an hour, which [`DiskStore::list`]
    /// never shows.
    pub fn gc(&self, max_bytes: u64) -> GcReport {
        let stale_tmp = self.remove_stale_temporaries();
        let mut cells = self.list();
        cells.sort_by(|a, b| (a.mtime_secs, &a.path).cmp(&(b.mtime_secs, &b.path)));
        let mut remaining: u64 = cells.iter().map(|c| c.bytes).sum();
        let mut report = GcReport {
            removed: 0,
            freed_bytes: 0,
            kept: cells.len(),
            kept_bytes: remaining,
            stale_tmp,
        };
        for cell in &cells {
            if remaining <= max_bytes {
                break;
            }
            match fs::remove_file(&cell.path) {
                Ok(()) => {
                    remaining -= cell.bytes;
                    report.removed += 1;
                    report.freed_bytes += cell.bytes;
                    report.kept -= 1;
                    report.kept_bytes -= cell.bytes;
                }
                Err(e) => {
                    obs::warn!("disk store: gc removing {} failed: {e}", cell.path.display());
                }
            }
        }
        report
    }

    /// Remove the `.<key>.tmp.<pid>.<seq>` siblings that
    /// [`obs::store::publish`] left more than [`STALE_TMP_SECS`] ago.
    /// The age is the one wall-clock reading in the store; it decides
    /// only which leftovers to delete and never feeds a run.
    fn remove_stale_temporaries(&self) -> usize {
        let mut removed = 0;
        for stage in Stage::ALL {
            let Ok(entries) = fs::read_dir(self.dir.join(stage.name())) else {
                continue;
            };
            for entry in entries.flatten() {
                let name = entry.file_name();
                let is_tmp = name
                    .to_str()
                    .is_some_and(|n| n.starts_with('.') && n.contains(".tmp."));
                let stale = || {
                    let modified = entry.metadata().and_then(|m| m.modified()).ok()?;
                    Some(modified.elapsed().ok()?.as_secs() >= STALE_TMP_SECS)
                };
                if !is_tmp || stale() != Some(true) {
                    continue;
                }
                match fs::remove_file(entry.path()) {
                    Ok(()) => removed += 1,
                    Err(e) => obs::warn!(
                        "disk store: gc removing {} failed: {e}",
                        entry.path().display()
                    ),
                }
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "ddoscovery-diskstore-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_obs() -> ObservationColumns {
        use attackgen::AttackId;
        use simcore::SimTime;
        let mut v = ObservationColumns::new();
        v.push_row(AttackId(1), SimTime(100), &[netmodel::Ipv4::new(10, 0, 0, 1)]);
        v.push_row(
            AttackId(2),
            SimTime(200),
            &[netmodel::Ipv4::new(10, 0, 0, 2), netmodel::Ipv4::new(10, 0, 0, 3)],
        );
        v
    }

    #[test]
    fn cell_round_trips_and_is_framed() {
        let payload = b"hello stage store".to_vec();
        let bytes = encode_cell(InternetPlan::KIND, &payload);
        assert_eq!(bytes.len(), CELL_HEADER_LEN + payload.len());
        assert_eq!(check_cell(&bytes, InternetPlan::KIND).unwrap(), &payload[..]);
        // Wrong expected kind is a type confusion, rejected.
        assert!(check_cell(&bytes, AttackColumns::KIND).is_err());
    }

    #[test]
    fn cell_checksum_distinguishes_padded_tails() {
        // The word fold zero-pads the tail; binding the length keeps
        // payloads that differ only by trailing zero bytes distinct.
        assert_ne!(cell_checksum(b"ab"), cell_checksum(b"ab\0"));
        assert_ne!(cell_checksum(b""), cell_checksum(b"\0\0\0\0\0\0\0\0"));
        // Word-aligned single-bit differences are caught too.
        assert_ne!(cell_checksum(&[0u8; 16]), cell_checksum(&[1u8; 16]));
        assert_eq!(cell_checksum(b"stage"), cell_checksum(b"stage"));
    }

    #[test]
    fn every_truncation_and_flip_is_rejected() {
        let kind = ObservationColumns::KIND;
        let bytes = encode_cell(kind, &sample_obs().to_wire_bytes());
        for cut in 0..bytes.len() {
            assert!(
                check_cell(&bytes[..cut], kind).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                check_cell(&bad, kind).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn store_and_load_round_trip_on_disk() {
        let dir = scratch_dir("roundtrip");
        let store = DiskStore::open(dir.clone());
        let v = sample_obs();

        let load = |key| store.load::<ObservationColumns>(key);

        // Cold: clean miss.
        assert!(load(0xAB).is_none());

        store.store(0xAB, &v);
        let back = load(0xAB).expect("stored cell loads");
        assert_eq!(back.to_wire_bytes(), v.to_wire_bytes());

        // The alert kind does not alias the observation kind even
        // under an (artificial) identical key.
        assert!(store.load::<AlertColumns>(0xAB).is_none());

        // Corrupt the cell body: rejected, then rewritable.
        let path = store.cell_path(Stage::Observations, 0xAB);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(load(0xAB).is_none());
        store.store(0xAB, &v);
        assert!(load(0xAB).is_some());

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_and_gc_evict_oldest_first() {
        let dir = scratch_dir("gc");
        let store = DiskStore::open(dir.clone());
        let v = sample_obs();
        for key in 1..=3 {
            store.store(key, &v);
        }
        let cells = store.list();
        assert_eq!(cells.len(), 3);
        assert!(cells.iter().all(|c| c.stage == "observations" && c.bytes > 0));
        let total: u64 = cells.iter().map(|c| c.bytes).sum();

        // Keep roughly one cell's worth: two oldest go. Equal mtimes
        // (coarse clocks) fall back to path order, so the survivor set
        // is still deterministic: exactly one cell remains.
        let keep = total / 3;
        let report = store.gc(keep);
        assert_eq!(report.removed, 2);
        assert_eq!(report.kept, 1);
        assert_eq!(report.kept_bytes + report.freed_bytes, total);
        assert!(report.kept_bytes <= keep);
        assert_eq!(store.list().len(), 1);

        // gc to zero empties the store.
        let report = store.gc(0);
        assert_eq!(report.kept, 0);
        assert!(store.list().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_only_stale_temporaries() {
        let dir = scratch_dir("tmp");
        let store = DiskStore::open(dir.clone());
        store.store(1, &sample_obs());
        let stage_dir = dir.join(Stage::Observations.name());
        let plant = |name: &str| {
            let path = stage_dir.join(name);
            fs::write(&path, b"half a cell").unwrap();
            path
        };
        let crashed = plant(".0000000000000001.tmp.4242.0");
        let live = plant(".0000000000000001.tmp.4242.1");
        // Age the crashed writer's temporary to two hours before it
        // was written.
        let written = fs::metadata(&crashed).unwrap().modified().unwrap();
        let aged = written - std::time::Duration::from_secs(2 * STALE_TMP_SECS);
        let file = fs::File::options().write(true).open(&crashed).unwrap();
        file.set_modified(aged).unwrap();

        let report = store.gc(u64::MAX);
        assert_eq!(report.stale_tmp, 1);
        assert_eq!((report.removed, report.kept), (0, 1));
        assert!(!crashed.exists(), "the stale temporary survived");
        assert!(live.exists(), "a fresh temporary was removed");
        assert_eq!(store.list().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolution_prefers_config_and_honors_off() {
        let mut cfg = StudyConfig::quick();
        cfg.disk_store = Some("/tmp/somewhere".into());
        assert_eq!(resolve_dir(&cfg), Some(PathBuf::from("/tmp/somewhere")));
        cfg.disk_store = Some("off".into());
        assert_eq!(resolve_dir(&cfg), None);
        cfg.disk_store = Some("  ".into());
        assert_eq!(resolve_dir(&cfg), None);
        cfg.disk_store = None;
        assert_eq!(resolve_dir(&cfg), None);
    }
}
