//! Persistent run history: the `.ddoscovery/runs/` store.
//!
//! Every telemetry-enabled run appends its [`RunManifest`] as
//! `<config-fingerprint>-<seq>.json` (16 hex digits of the config
//! FNV-1a fingerprint, then a monotonically increasing store-wide
//! sequence number), so longitudinal comparison survives the process —
//! the paper's whole methodology is lining up two measurements and
//! quantifying the delta, and that starts with keeping the first one.
//!
//! [`RunStore`] is deliberately dumb storage: flat JSON files, no
//! index, no locking beyond the atomicity of a single `write`. Reads
//! are resilient by construction — a corrupt or truncated manifest
//! becomes an `Err` entry the caller skips with a warning, never a
//! panic (the same discipline as the fault-injection layer).
//!
//! [`diff`] compares two manifests the way DESIGN.md says they should
//! be compared: counters and stage fingerprints exactly — counters
//! alone gate CI via `--gate <pct>` — and gauges and wall-clock
//! histogram p50/p99 only as reported magnitudes, never gated. The
//! program's gauges (`pool.imbalance`, `run.peak_rss*`) move between
//! identical runs, as latency does on shared hardware.

use crate::manifest::{quantile, RunManifest};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default store location, relative to the working directory.
pub const DEFAULT_RUNS_DIR: &str = ".ddoscovery/runs";

/// A flat directory of stored run manifests.
#[derive(Debug, Clone)]
pub struct RunStore {
    dir: PathBuf,
}

/// One file in the store. `manifest` is `Err` for corrupt or truncated
/// entries — present so callers can warn and skip rather than die.
#[derive(Debug)]
pub struct StoreEntry {
    pub path: PathBuf,
    /// File stem, e.g. `91ab…f3-0007` — the name `runs show`/`diff`
    /// resolve.
    pub stem: String,
    /// Parsed sequence suffix; `u64::MAX` when the stem has none.
    pub seq: u64,
    pub manifest: Result<RunManifest, String>,
}

impl RunStore {
    pub fn new(dir: impl Into<PathBuf>) -> RunStore {
        RunStore { dir: dir.into() }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Next store-wide sequence number: one past the highest on disk.
    /// Only conforming stems steer it — a stray `backup-99.json` in
    /// the directory is warned about and skipped, not treated as run
    /// ninety-nine.
    fn next_seq(&self) -> u64 {
        let mut max = 0u64;
        for stem in self.stems() {
            match parse_seq(&stem) {
                Some(seq) => max = max.max(seq),
                None => crate::warn!(
                    "run store: ignoring non-conforming entry {stem}.json in {}",
                    self.dir.display()
                ),
            }
        }
        max.saturating_add(1)
    }

    fn stems(&self) -> Vec<String> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut stems: Vec<String> = dir
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                if path.extension().and_then(|e| e.to_str()) != Some("json") {
                    return None;
                }
                Some(path.file_stem()?.to_str()?.to_string())
            })
            .collect();
        stems.sort();
        stems
    }

    /// Append `manifest` as `<config-fingerprint>-<seq>.json`,
    /// returning the written path.
    ///
    /// Claim-then-publish: the final name is claimed atomically with
    /// `create_new` (two processes scanning the same highest sequence
    /// race to *distinct* numbers instead of overwriting each other —
    /// the loser of the claim retries one higher), and [`publish`]
    /// writes the full JSON to a temporary sibling and renames it over
    /// the claim. A reader or a crash therefore never observes a torn
    /// manifest: the worst case is an empty claimed file, which lists
    /// as a corrupt `Err` entry rather than silently passing for data.
    pub fn append(&self, manifest: &RunManifest) -> Result<PathBuf, String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("run store: create {}: {e}", self.dir.display()))?;
        let json = manifest.to_json();
        let base = self.next_seq();
        // Bounded claim loop: each attempt tries one sequence number
        // higher, so losing a race is `AlreadyExists` and retryable.
        // The budget (64) is far past any plausible number of sibling
        // processes scanning the same highest sequence concurrently;
        // exhausting it means something is recreating files pathologically
        // and deserves an error, not a spin.
        let path = crate::retry::with_backoff(
            "run-store claim",
            64,
            |e| e.kind() == std::io::ErrorKind::AlreadyExists,
            |attempt| {
                let seq = base.saturating_add(u64::from(attempt));
                let stem = format!("{:016x}-{:04}", manifest.run.config_hash, seq);
                let path = self.dir.join(format!("{stem}.json"));
                std::fs::OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(&path)
                    .map(|_| path)
            },
        )
        .map_err(|e| format!("run store: claim in {}: {e}", self.dir.display()))?;
        if let Err(e) = publish(&path, json.as_bytes()) {
            // Withdraw the empty claim so a failed append leaves no
            // debris behind (`publish` already removed its temporary).
            let _ = std::fs::remove_file(&path);
            return Err(format!("run store: {e}"));
        }
        Ok(path)
    }

    /// Every entry in the store, ordered by sequence number (ties and
    /// unnumbered stems sort by name). Corrupt files come back as
    /// `Err` manifests, not errors of the listing itself.
    pub fn entries(&self) -> Vec<StoreEntry> {
        let mut entries: Vec<StoreEntry> = self
            .stems()
            .into_iter()
            .map(|stem| {
                let path = self.dir.join(format!("{stem}.json"));
                let manifest = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))
                    .and_then(|text| RunManifest::from_json(&text));
                StoreEntry {
                    seq: parse_seq(&stem).unwrap_or(u64::MAX),
                    path,
                    stem,
                    manifest,
                }
            })
            .collect();
        entries.sort_by(|a, b| a.seq.cmp(&b.seq).then_with(|| a.stem.cmp(&b.stem)));
        entries
    }

    /// Resolve `name` to a manifest: an existing file path is read
    /// directly; otherwise it must match a stored stem exactly or be
    /// an unambiguous prefix of one.
    pub fn load(&self, name: &str) -> Result<(String, RunManifest), String> {
        let as_path = Path::new(name);
        if as_path.is_file() {
            let text = std::fs::read_to_string(as_path)
                .map_err(|e| format!("read {name}: {e}"))?;
            return RunManifest::from_json(&text)
                .map(|m| (name.to_string(), m))
                .map_err(|e| format!("{name}: {e}"));
        }
        let stems = self.stems();
        let resolved = if stems.iter().any(|s| s == name) {
            name.to_string()
        } else {
            let matches: Vec<&String> = stems.iter().filter(|s| s.starts_with(name)).collect();
            match matches.as_slice() {
                [unique] => (*unique).clone(),
                [] => {
                    return Err(format!(
                        "no run `{name}` in {} ({} stored)",
                        self.dir.display(),
                        stems.len()
                    ))
                }
                many => {
                    return Err(format!(
                        "run `{name}` is ambiguous: {}",
                        many.iter()
                            .map(|s| s.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                }
            }
        };
        let path = self.dir.join(format!("{resolved}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        RunManifest::from_json(&text)
            .map(|m| (resolved.clone(), m))
            .map_err(|e| format!("{resolved}: {e}"))
    }
}

/// Publish `bytes` as `path` atomically: write them to a temporary
/// dotfile sibling in the same directory, then rename it over `path`,
/// so a reader or a crash sees the old file, the new file, or none —
/// never a torn one. Transient errors get a bounded retry; on failure
/// the temporary is removed. The sibling's name is unique to this
/// writer (pid plus a process-wide sequence), so concurrent publishes
/// of one path, from threads or processes, never share a temporary:
/// each rename installs one complete file and the last one wins.
/// The run store and the stage store (`ddoscovery::diskstore`) both
/// publish through here.
pub fn publish(path: &Path, bytes: &[u8]) -> Result<(), String> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("publish");
    let tmp = path.with_file_name(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let transient = crate::retry::is_transient;
    let published = crate::retry::with_backoff("publish write", 3, transient, |_| {
        std::fs::write(&tmp, bytes)
    })
    .map_err(|e| format!("write {}: {e}", tmp.display()))
    .and_then(|()| {
        crate::retry::with_backoff("publish rename", 3, transient, |_| std::fs::rename(&tmp, path))
            .map_err(|e| format!("publish {}: {e}", path.display()))
    });
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    published
}

/// Parse the sequence number out of a conforming store stem:
/// exactly `<16 hex digits>-<decimal seq>`. Anything else — a stray
/// `backup-99`, a 15-digit hash, a non-numeric suffix — is `None`, so
/// foreign files in the store directory can never steer the sequence
/// or masquerade as runs.
fn parse_seq(stem: &str) -> Option<u64> {
    let (hash, seq) = stem.split_once('-')?;
    if hash.len() != 16 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    if seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    seq.parse().ok()
}

// ---------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------

/// What kind of value a [`MetricDelta`] compares. Only counters,
/// which are deterministic in the seed, participate in `--gate`;
/// gauges and histogram quantiles are report-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    Counter,
    Gauge,
    HistP50,
    HistP99,
}

impl DeltaKind {
    fn label(self) -> &'static str {
        match self {
            DeltaKind::Counter => "counter",
            DeltaKind::Gauge => "gauge",
            DeltaKind::HistP50 => "p50",
            DeltaKind::HistP99 => "p99",
        }
    }
}

/// One metric compared across two runs. A side is `None` when the
/// metric exists only in the other run.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    pub kind: DeltaKind,
    pub name: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
}

impl MetricDelta {
    /// Relative change `(b - a) / a`, when both sides are present and
    /// comparable. `a == 0, b != 0` reports `+inf`; NaN gauges (masked
    /// non-finite values) compare as unchanged when both are NaN.
    pub fn rel_change(&self) -> Option<f64> {
        let (a, b) = (self.a?, self.b?);
        if a.is_nan() && b.is_nan() {
            return Some(0.0);
        }
        if a == 0.0 {
            return Some(if b == 0.0 { 0.0 } else { f64::INFINITY });
        }
        Some((b - a) / a)
    }

    /// Did the value change at all (including appearing/disappearing)?
    pub fn changed(&self) -> bool {
        match (self.a, self.b) {
            (Some(a), Some(b)) => !(a == b || (a.is_nan() && b.is_nan())),
            (None, None) => false,
            _ => true,
        }
    }

    /// May this delta trip `--gate`? Counters only, and only when the
    /// counter exists on both sides — a metric added or removed by a
    /// code change is reported, not gated.
    pub fn gateable(&self) -> bool {
        self.kind == DeltaKind::Counter && self.a.is_some() && self.b.is_some()
    }
}

/// The full comparison of two runs.
#[derive(Debug)]
pub struct RunDiff {
    pub a_label: String,
    pub b_label: String,
    pub seed_changed: bool,
    pub config_changed: bool,
    /// Per-stage fingerprints: `(stage, a, b)`; `None` = stage absent.
    pub stages: Vec<(String, Option<u64>, Option<u64>)>,
    pub deltas: Vec<MetricDelta>,
}

/// Compare manifests `a` and `b` metric by metric.
pub fn diff(a_label: &str, a: &RunManifest, b_label: &str, b: &RunManifest) -> RunDiff {
    let mut deltas = Vec::new();
    let mut keys: Vec<&String> = a.metrics.counters.keys().chain(b.metrics.counters.keys()).collect();
    keys.sort();
    keys.dedup();
    for name in keys {
        deltas.push(MetricDelta {
            kind: DeltaKind::Counter,
            name: name.clone(),
            a: a.metrics.counters.get(name).map(|v| *v as f64),
            b: b.metrics.counters.get(name).map(|v| *v as f64),
        });
    }
    let mut keys: Vec<&String> = a.metrics.gauges.keys().chain(b.metrics.gauges.keys()).collect();
    keys.sort();
    keys.dedup();
    for name in keys {
        deltas.push(MetricDelta {
            kind: DeltaKind::Gauge,
            name: name.clone(),
            a: a.metrics.gauges.get(name).copied(),
            b: b.metrics.gauges.get(name).copied(),
        });
    }
    let mut keys: Vec<&String> = a
        .metrics
        .histograms
        .keys()
        .chain(b.metrics.histograms.keys())
        .collect();
    keys.sort();
    keys.dedup();
    for name in keys {
        for (kind, q) in [(DeltaKind::HistP50, 0.50), (DeltaKind::HistP99, 0.99)] {
            deltas.push(MetricDelta {
                kind,
                name: name.clone(),
                a: a.metrics
                    .histograms
                    .get(name)
                    .and_then(|h| quantile(h, q))
                    .map(|v| v as f64),
                b: b.metrics
                    .histograms
                    .get(name)
                    .and_then(|h| quantile(h, q))
                    .map(|v| v as f64),
            });
        }
    }
    let mut stage_names: Vec<&String> = a
        .run
        .stages
        .iter()
        .map(|(n, _)| n)
        .chain(b.run.stages.iter().map(|(n, _)| n))
        .collect();
    stage_names.sort();
    stage_names.dedup();
    let stages = stage_names
        .into_iter()
        .map(|name| {
            let find = |m: &RunManifest| {
                m.run
                    .stages
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, fp)| *fp)
            };
            (name.clone(), find(a), find(b))
        })
        .collect();
    RunDiff {
        a_label: a_label.to_string(),
        b_label: b_label.to_string(),
        seed_changed: a.run.seed != b.run.seed,
        config_changed: a.run.config_hash != b.run.config_hash,
        stages,
        deltas,
    }
}

impl RunDiff {
    /// Deltas whose absolute relative change exceeds `gate_pct`
    /// percent, among the gateable ones (counters).
    pub fn breaches(&self, gate_pct: f64) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.gateable())
            .filter(|d| {
                d.rel_change()
                    .is_some_and(|rel| rel.abs() * 100.0 > gate_pct)
            })
            .collect()
    }

    /// Human-readable report: header, changed stage fingerprints, then
    /// every changed metric with both values and the relative delta.
    /// Unchanged metrics are summarized as a single count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== runs diff: {} -> {} ==\n", self.a_label, self.b_label));
        if self.seed_changed {
            out.push_str("!! seeds differ: deterministic metrics are expected to diverge\n");
        }
        if self.config_changed {
            out.push_str("!! config fingerprints differ: comparing different scenarios\n");
        }
        for (name, a, b) in &self.stages {
            let fmt = |v: &Option<u64>| match v {
                Some(fp) => format!("{fp:016x}"),
                None => "-".to_string(),
            };
            if a != b {
                out.push_str(&format!(
                    "stage {:<12} changed {} -> {}\n",
                    name,
                    fmt(a),
                    fmt(b)
                ));
            }
        }
        let changed: Vec<&MetricDelta> = self.deltas.iter().filter(|d| d.changed()).collect();
        let unchanged = self.deltas.len() - changed.len();
        if changed.is_empty() {
            out.push_str(&format!("no metric changes ({unchanged} metrics identical)\n"));
            return out;
        }
        out.push_str(&format!(
            "{:<8} {:<38} {:>14} {:>14} {:>10}\n",
            "kind", "metric", self.a_label_short(), self.b_label_short(), "delta"
        ));
        for d in changed {
            out.push_str(&format!(
                "{:<8} {:<38} {:>14} {:>14} {:>10}\n",
                d.kind.label(),
                d.name,
                fmt_opt(d.a),
                fmt_opt(d.b),
                match d.rel_change() {
                    Some(rel) if rel.is_finite() => format!("{:+.2}%", rel * 100.0),
                    Some(_) => "new".into(),
                    None => if d.a.is_none() { "added".into() } else { "removed".into() },
                },
            ));
        }
        out.push_str(&format!("({unchanged} metrics unchanged)\n"));
        out
    }

    fn a_label_short(&self) -> &str {
        short(&self.a_label)
    }

    fn b_label_short(&self) -> &str {
        short(&self.b_label)
    }
}

/// Last path-ish component of a label, truncated for table headers.
fn short(label: &str) -> &str {
    let tail = label.rsplit('/').next().unwrap_or(label);
    &tail[tail.len().saturating_sub(14)..]
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        None => "-".into(),
        Some(v) if v.is_nan() => "NaN".into(),
        Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{}", v as i64),
        Some(v) => format!("{v:.3}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{RunInfo, SCHEMA};
    use crate::metrics::MetricsSnapshot;

    fn manifest(seed: u64, counters: &[(&str, u64)], gauges: &[(&str, f64)]) -> RunManifest {
        let mut metrics = MetricsSnapshot::default();
        for (k, v) in counters {
            metrics.counters.insert(k.to_string(), *v);
        }
        for (k, v) in gauges {
            metrics.gauges.insert(k.to_string(), *v);
        }
        RunManifest {
            schema: SCHEMA,
            version: "0.1.0".into(),
            describe: "test".into(),
            run: RunInfo {
                scenario: "quick".into(),
                seed,
                workers: Some(2),
                config_hash: 0xABCD,
                stages: vec![("plan".into(), 1), ("attacks".into(), 2)],
                degraded_weeks: Vec::new(),
            },
            metrics,
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ddoscovery-store-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_numbers_sequentially_and_lists_in_order() {
        let dir = scratch_dir("seq");
        let store = RunStore::new(&dir);
        assert!(store.entries().is_empty(), "missing dir lists as empty");
        let m = manifest(1, &[("x", 1)], &[]);
        let p1 = store.append(&m).expect("first append");
        let p2 = store.append(&m).expect("second append");
        assert!(p1.to_str().expect("utf8 path").ends_with("000000000000abcd-0001.json"));
        assert!(p2.to_str().expect("utf8 path").ends_with("000000000000abcd-0002.json"));
        let entries = store.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].seq, 1);
        assert_eq!(entries[1].seq, 2);
        assert!(entries.iter().all(|e| e.manifest.is_ok()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_resolves_stems_prefixes_and_paths() {
        let dir = scratch_dir("load");
        let store = RunStore::new(&dir);
        let p = store.append(&manifest(7, &[("x", 1)], &[])).expect("append");
        let stem = p.file_stem().expect("stem").to_str().expect("utf8").to_string();
        // Exact stem, unique prefix, and raw path all resolve.
        assert_eq!(store.load(&stem).expect("by stem").1.run.seed, 7);
        assert_eq!(store.load(&stem[..6]).expect("by prefix").1.run.seed, 7);
        assert_eq!(
            store.load(p.to_str().expect("utf8")).expect("by path").1.run.seed,
            7
        );
        assert!(store.load("nope").is_err());
        // A second entry makes the shared prefix ambiguous.
        store.append(&manifest(8, &[], &[])).expect("append 2");
        let err = store.load(&stem[..6]).expect_err("ambiguous prefix");
        assert!(err.contains("ambiguous"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_surface_as_err_without_panicking() {
        let dir = scratch_dir("corrupt");
        let store = RunStore::new(&dir);
        store.append(&manifest(1, &[], &[])).expect("append");
        std::fs::write(dir.join("000000000000abcd-0002.json"), "{\"schema\": 1, trunc")
            .expect("write corrupt");
        let entries = store.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].manifest.is_ok());
        assert!(entries[1].manifest.is_err());
        assert!(store.load("000000000000abcd-0002").is_err());
        // Sequence numbering keeps advancing past the corrupt file.
        let p3 = store.append(&manifest(1, &[], &[])).expect("append 3");
        assert!(p3.to_str().expect("utf8").ends_with("-0003.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_seq_requires_the_full_stem_shape() {
        assert_eq!(parse_seq("000000000000abcd-0001"), Some(1));
        assert_eq!(parse_seq("ABCDEF0123456789-12"), Some(12));
        // Regression: any trailing `-<digits>` used to parse, so a
        // stray `backup-notes-99.json` steered the sequence to 100.
        assert_eq!(parse_seq("backup-notes-99"), None);
        assert_eq!(parse_seq("notes-123"), None);
        assert_eq!(parse_seq("000000000000abcd"), None);
        assert_eq!(parse_seq("000000000000abcd-"), None);
        assert_eq!(parse_seq("000000000000abcd-12a"), None);
        assert_eq!(parse_seq("00000000000abcd-1"), None);
        assert_eq!(parse_seq("000000000000abcdf-1"), None);
        assert_eq!(parse_seq("-5"), None);
        assert_eq!(parse_seq(""), None);
    }

    #[test]
    fn stray_files_do_not_steer_the_sequence() {
        let dir = scratch_dir("stray");
        let store = RunStore::new(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("backup-99.json"), "{}").expect("stray file");
        let p = store.append(&manifest(1, &[], &[])).expect("append");
        assert!(
            p.to_str().expect("utf8").ends_with("-0001.json"),
            "sequence must start at 1, not past the stray file's 99: {p:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two-process append race: each process scans the same highest
    /// sequence, but `create_new` claims make the loser retry one
    /// higher — every append lands under a distinct name and no
    /// manifest is overwritten or torn. (Regression for the bare
    /// `fs::write` + read-then-write sequence scan this store shipped
    /// with.)
    #[test]
    fn concurrent_appends_from_two_processes_get_distinct_names() {
        const DIR_VAR: &str = "DDOSCOVERY_STORE_RACE_DIR";
        const APPENDS_PER_PROCESS: usize = 8;
        // Helper branch: with the env var set, this test *is* a child
        // process — append and exit.
        if let Ok(dir) = std::env::var(DIR_VAR) {
            let store = RunStore::new(dir);
            for _ in 0..APPENDS_PER_PROCESS {
                store.append(&manifest(2, &[("child", 1)], &[])).expect("child append");
            }
            return;
        }
        let dir = scratch_dir("race");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let exe = std::env::current_exe().expect("test binary path");
        let mut children: Vec<std::process::Child> = (0..2)
            .map(|_| {
                std::process::Command::new(&exe)
                    .arg("store::tests::concurrent_appends_from_two_processes_get_distinct_names")
                    .arg("--exact")
                    .env(DIR_VAR, dir.as_os_str())
                    .stdout(std::process::Stdio::null())
                    .stderr(std::process::Stdio::null())
                    .spawn()
                    .expect("spawn child test process")
            })
            .collect();
        // The parent races its own appends against both children.
        let store = RunStore::new(&dir);
        for _ in 0..APPENDS_PER_PROCESS {
            store.append(&manifest(1, &[("parent", 1)], &[])).expect("parent append");
        }
        for child in &mut children {
            assert!(child.wait().expect("child exit").success(), "child process failed");
        }
        let entries = store.entries();
        let expected = 3 * APPENDS_PER_PROCESS;
        assert_eq!(entries.len(), expected, "every append must land in its own file");
        let mut seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), expected, "no two appends may share a sequence number");
        for entry in &entries {
            assert!(
                entry.manifest.is_ok(),
                "{} must be a complete manifest, got {:?}",
                entry.stem,
                entry.manifest
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diff_reports_relative_deltas_and_gates() {
        let a = manifest(
            1,
            &[("gen.attacks", 1000), ("only_a", 5)],
            &[("rss", 100.0)],
        );
        let mut b = manifest(
            1,
            &[("gen.attacks", 1100), ("only_b", 9)],
            &[("rss", 130.0)],
        );
        b.run.stages[1].1 = 99;
        let d = diff("a", &a, "b", &b);
        assert!(!d.seed_changed && !d.config_changed);
        // gen.attacks moved 10%; the rss gauge 30%; only_a/only_b
        // one-sided.
        let gen = d
            .deltas
            .iter()
            .find(|x| x.name == "gen.attacks")
            .expect("gen.attacks delta");
        assert!((gen.rel_change().expect("both sides") - 0.10).abs() < 1e-12);
        let breaches = d.breaches(5.0);
        assert_eq!(breaches.len(), 1, "only the 10% counter move breaches");
        assert_eq!(breaches[0].name, "gen.attacks");
        assert!(d.breaches(15.0).is_empty());
        // Gauges are reported, never gated: the 30% rss move stays
        // under every gate.
        let rss = d.deltas.iter().find(|x| x.name == "rss").expect("rss");
        assert!(rss.changed() && !rss.gateable());
        assert!(d.breaches(0.0).iter().all(|x| x.name != "rss"));
        assert!(d.render().contains("+30.00%"));
        // One-sided metrics are reported but never gate.
        let one_sided = d.deltas.iter().find(|x| x.name == "only_a").expect("only_a");
        assert!(one_sided.changed() && !one_sided.gateable());
        let report = d.render();
        assert!(report.contains("gen.attacks"));
        assert!(report.contains("+10.00%"));
        assert!(report.contains("stage attacks"), "changed stage fingerprint reported");
        assert!(!report.contains("stage plan"), "unchanged stage omitted");
    }
}
