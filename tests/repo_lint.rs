//! The repo's source lint (`make lint`; the workspace test run includes
//! it), twelve rules:
//!
//! 1. No wall-clock or OS-entropy primitives anywhere in simulation
//!    code: every stochastic draw must fork from the study seed and
//!    every timestamp must be SimTime, or runs stop being bitwise
//!    reproducible.
//! 2. Wall-clock *timing* is quarantined in `crates/obs` (the
//!    telemetry layer, DESIGN.md §5) and `crates/serve` (the IO
//!    boundary, DESIGN.md §12, whose socket deadlines and drain budget
//!    are wall-clock by nature and never feed simulation state):
//!    simulation crates measure elapsed time only through
//!    `obs::Stopwatch` / `obs::span!`. The CLI binary is user-facing
//!    and exempt.
//! 3. Library sources never print: stdout is reserved for
//!    machine-readable output and stderr goes through the leveled
//!    `obs` logger. Allowlist: the CLI binary and the logger itself.
//! 4. Library sources never call bare unwrap (DESIGN.md §6): failure
//!    paths return the typed `ddoscovery::Error`, degrade to
//!    `None`/NaN, or justify an impossible failure with
//!    `expect("why")`. This also bans the NaN-panicking
//!    `partial_cmp(..)` + unwrap comparator idiom — use `total_cmp`.
//!    Only lines before a file's first test-module marker are in
//!    scope; tests and benches may unwrap freely.
//! 5. Unwind capture (the std panic-catching primitive) is confined to
//!    `crates/simcore/src/recover.rs`, the designated recovery module
//!    (DESIGN.md §8): every caught panic flows through
//!    `recover::capture` so retry budgets and `fault.*` counters stay
//!    consistent.
//! 6. Chrome trace-event emission (the `traceEvents` document key) is
//!    confined to `crates/obs/src/trace.rs`, the flight recorder
//!    (DESIGN.md §10): one exporter owns the event schema. Consumers
//!    outside library sources (tests, `examples/trace_check.rs`) may
//!    parse the format freely.
//! 7. Stage-cell IO (the cell magic constant and the default store
//!    directory) is confined to `crates/core/src/diskstore.rs`, the
//!    persistent stage store (DESIGN.md §11): one module owns the
//!    checksummed wire layout, so every load is integrity-checked and
//!    every reject is counted. The CLI binary may name the default
//!    directory in its usage text; tests and benches may poke cells.
//! 8. Socket IO (the TCP listener/stream types) is confined to
//!    `crates/serve/src`, the query-service boundary (DESIGN.md §12):
//!    one crate owns accept loops, deadlines, and load shedding, so a
//!    socket anywhere else would dodge the admission control and the
//!    `http.*` counters. Tests and benches may open client sockets.
//! 9. Environment variables become settings only in the CLI binary
//!    (`crates/core/src/bin/ddoscovery.rs`), plus the logger's
//!    `DDOSCOVERY_LOG` in `crates/obs/src/log.rs`: library code reads
//!    the `StudyConfig` it is handed, so a run is decided by its
//!    config. Test modules, tests and examples may read variables.
//! 10. Target and attack joins are sorted merges or dense indexes, not
//!     hash tables: no `HashMap`/`HashSet` keyed by a `TargetTuple`, an
//!     `(i64, …)` tuple or a `u64` attack id in the experiments
//!     (`crates/core/src/experiments/`), in `analytics`' `upset` and
//!     `overlap` modules, or in the `flowmon` crate (DESIGN.md §4).
//!     They read the run's memoized membership column and attack-row
//!     index instead (`flowmon::rtbh_stats` takes a lookup built on
//!     it). Test modules are out of scope.
//! 11. Every public library item has a caller outside tests: a `pub`
//!     fn, struct, enum, trait, type, const or static on a library line
//!     of `crates/*/src` whose name is defined once there must be named
//!     on another line of program code (the library lines of
//!     `crates/*/src`, `examples/`, `src/` and `benchmark/src`; comments,
//!     `pub use` re-exports, `mod` declarations and module path segments
//!     such as `upset::` do not count), and every library file
//!     but a crate root, a `mod.rs` or the CLI binary must have a
//!     top-level item named in another file, unless it exports a macro.
//!     Items only tests need are listed in `TEST_SUPPORT` with a reason;
//!     a stale entry fails too. Code that no program calls is deleted
//!     with its tests, not kept alive by them.
//! 12. Serde impls are derived: no `impl … Serialize for` or `impl …
//!     Deserialize for` on a program line (rule 11's lines; `vendor/` is
//!     not scanned). A hand-written impl is a second JSON codec beside
//!     the derive, and the vendored serde already writes string-keyed
//!     maps as JSON objects (DESIGN.md §4).

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == "vendor" {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

struct Rule {
    /// Shown in violation reports.
    name: &'static str,
    /// Substrings that must not appear (built by concatenation so this
    /// file passes its own scan).
    patterns: Vec<String>,
    /// Directories (relative to the repo root) the rule scans.
    dirs: &'static [&'static str],
    /// Returns true when the repo-relative path is exempt.
    allow: fn(&str) -> bool,
    /// Stop scanning each file at its first test-module marker —
    /// inline `mod tests` blocks are not library code.
    library_lines_only: bool,
}

fn scan(root: &Path, rule: &Rule) -> Vec<String> {
    // Built by concatenation so this file passes its own scan.
    let test_marker = ["#[cfg(te", "st)]"].concat();
    let mut files = Vec::new();
    for dir in rule.dirs {
        rust_sources(&root.join(dir), &mut files);
    }
    let mut violations = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        if (rule.allow)(&rel) {
            continue;
        }
        let Ok(text) = fs::read_to_string(file) else { continue };
        for (lineno, line) in text.lines().enumerate() {
            if rule.library_lines_only && line.contains(test_marker.as_str()) {
                break;
            }
            for pat in &rule.patterns {
                if line.contains(pat.as_str()) {
                    violations.push(format!(
                        "{rel}:{}: [{}] {}",
                        lineno + 1,
                        rule.name,
                        line.trim()
                    ));
                }
            }
        }
    }
    violations
}

/// Rule 11's exemptions: public items that tests and no program code
/// call, each kept for the reason given. An entry that program code
/// calls, or that names no such item, is itself a violation.
#[rustfmt::skip]
const TEST_SUPPORT: &[(&str, &str)] = &[
    ("lagged_spearman", "the reference `best_lag` is checked against"),
    ("projection_stats", "projection-cache tests count projections with it"),
    ("StageStats", "the counts stage-cache tests read"),
    ("run_all", "the experiment golden hashes every artifact it returns"),
    ("in_study", "time tests check the study window with it"),
    ("STUDY_END", "time tests bound the study window with it"),
    ("live_flows", "the mid-stream expiry test reads the detector's flow table"),
    ("merge_sensor_flows", "the §5 CCC merging `tests/packet_fidelity.rs` validates"),
    ("upset", "`prop_stats`, `no_panic_fuzz`, `end_to_end` and `robustness` call it"),
];

/// The name a line defines if it opens a `pub` fn, struct, enum, trait,
/// type, const or static.
fn pub_item_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = ["const ", "unsafe ", "async "]
        .iter()
        .find_map(|q| rest.strip_prefix(q).filter(|r| r.starts_with("fn ")))
        .unwrap_or(rest);
    let (kind, rest) = rest.split_once(' ')?;
    if !matches!(
        kind,
        "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static"
    ) {
        return None;
    }
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end]).filter(|name| !name.is_empty())
}

/// The identifiers on a program line that can name an item: every word
/// but a lowercase one before `::`, which names a module (`upset::` in
/// `use crate::upset::{..}`). A turbofish, `f::<T>`, still names `f`.
fn item_names(line: &str) -> Vec<&str> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut names = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find(ident) {
        let word = &rest[start..];
        let (word, after) = word.split_at(word.find(|c| !ident(c)).unwrap_or(word.len()));
        let module_path = word.starts_with(char::is_lowercase)
            && after.starts_with("::")
            && !after.starts_with("::<");
        if !module_path {
            names.push(word);
        }
        rest = after;
    }
    names
}

/// One program source as rules 11 and 12 read it.
struct Source {
    rel: String,
    /// Under `crates/*/src`, where the rule looks for items.
    library: bool,
    exports_macro: bool,
    /// The lines before the first test-module marker.
    lines: Vec<String>,
}

/// The program sources rules 11 and 12 read: the library lines of
/// `crates/*/src` (the CLI binary included), `examples/`, `src/` and
/// `benchmark/src`.
fn program_sources(root: &Path) -> Vec<Source> {
    let test_marker = ["#[cfg(te", "st)]"].concat();
    let mut paths = Vec::new();
    for dir in ["crates", "examples", "src", "benchmark/src"] {
        rust_sources(&root.join(dir), &mut paths);
    }
    let mut files = Vec::new();
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let parts: Vec<&str> = rel.split('/').collect();
        let library = matches!(parts[..], ["crates", _, "src", ..]);
        if !(library
            || matches!(
                parts[..],
                ["examples" | "src", ..] | ["benchmark", "src", ..]
            ))
        {
            continue;
        }
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let lines = text
            .lines()
            .take_while(|line| !line.contains(test_marker.as_str()))
            .map(str::to_owned)
            .collect();
        let exports_macro = text.contains("#[macro_export]");
        files.push(Source {
            rel,
            library,
            exports_macro,
            lines,
        });
    }
    files
}

/// Rule 11: every public library item has a caller in program code.
/// Comments, `pub use` re-exports, `mod` declarations and module path
/// segments name nothing. An item whose name is defined once must be
/// named on another line; a library file (other than a crate root, a
/// `mod.rs` or the binary) must have a top-level item named in another
/// file, unless it exports a macro.
fn uncalled_public_items(files: &[Source]) -> Vec<String> {
    // Every identifier on a program line, with where it stands.
    let mut named: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (f, file) in files.iter().enumerate() {
        let mut in_reexport = false;
        for (l, line) in file.lines.iter().enumerate() {
            let code = line.trim_start();
            if code.starts_with("pub use ") {
                in_reexport = true;
            }
            if in_reexport {
                in_reexport = !line.contains(';');
                continue;
            }
            if code.starts_with("//") || code.starts_with("mod ") || code.starts_with("pub mod ") {
                continue;
            }
            for word in item_names(line) {
                named.entry(word).or_default().push((f, l));
            }
        }
    }

    let mut defs = Vec::new();
    let mut definitions: HashMap<&str, usize> = HashMap::new();
    for (f, file) in files.iter().enumerate().filter(|(_, file)| file.library) {
        for (l, line) in file.lines.iter().enumerate() {
            if let Some(name) = pub_item_name(line) {
                defs.push((f, l, name, !line.starts_with(char::is_whitespace)));
                *definitions.entry(name).or_default() += 1;
            }
        }
    }
    let sites = |name: &str| named.get(name).map_or(&[][..], Vec::as_slice);
    let uncalled: Vec<_> = defs
        .iter()
        .filter(|&&(f, l, name, _)| {
            definitions[name] == 1 && sites(name).iter().all(|&at| at == (f, l))
        })
        .collect();

    let mut violations = Vec::new();
    for &&(f, l, name, _) in &uncalled {
        if !TEST_SUPPORT.iter().any(|(kept, _)| *kept == name) {
            let (rel, line) = (&files[f].rel, files[f].lines[l].trim());
            violations.push(format!(
                "{rel}:{}: [public item without a caller] {line}",
                l + 1
            ));
        }
    }
    for (kept, _) in TEST_SUPPORT {
        if !uncalled.iter().any(|&&(_, _, name, _)| name == *kept) {
            violations.push(format!(
                "tests/repo_lint.rs: [stale TEST_SUPPORT entry] `{kept}` has a caller or no definition"
            ));
        }
    }
    for (f, file) in files.iter().enumerate() {
        let rel = &file.rel;
        let file_name = rel.rsplit('/').next().unwrap_or("");
        if !file.library
            || file.exports_macro
            || matches!(file_name, "lib.rs" | "mod.rs")
            || rel.contains("/src/bin/")
        {
            continue;
        }
        let called = defs.iter().any(|&(df, _, name, top_level)| {
            df == f && top_level && sites(name).iter().any(|&(sf, _)| sf != f)
        });
        if !called {
            violations.push(format!(
                "{rel}:1: [module without a caller] no pub item of the file is named outside it"
            ));
        }
    }
    violations
}

/// Rule 12: a hand-written `impl … Serialize for` or `impl …
/// Deserialize for` on a program line.
fn hand_written_serde_impls(files: &[Source]) -> Vec<String> {
    // Built by concatenation so this file passes its own scan.
    let traits = [
        ["Serial", "ize for "].concat(),
        ["Deserial", "ize for "].concat(),
    ];
    let mut violations = Vec::new();
    for file in files {
        for (l, line) in file.lines.iter().enumerate() {
            let code = line.trim_start();
            if code.starts_with("impl") && traits.iter().any(|t| code.contains(t.as_str())) {
                violations.push(format!(
                    "{}:{}: [hand-written serde impl; derive it] {code}",
                    file.rel,
                    l + 1
                ));
            }
        }
    }
    violations
}

#[test]
fn repo_lint_rules_hold() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Sanity: the directory layout still holds a real code base.
    let mut all = Vec::new();
    for dir in ["crates", "src", "examples", "tests"] {
        rust_sources(&root.join(dir), &mut all);
    }
    assert!(
        all.len() > 50,
        "lint scanned only {} files — directory layout changed?",
        all.len()
    );

    // Rule 10's patterns: each hashed container × each banned key type.
    let hashed_joins: Vec<String> = ["HashMap<", "HashSet<"]
        .iter()
        .flat_map(|container| {
            ["TargetTuple", "analytics::TargetTuple", "(i64", "u64"]
                .iter()
                .map(move |key| [container, *key].concat())
        })
        .collect();

    let rules = [
        Rule {
            name: "nondeterminism primitive",
            patterns: vec![["thread_", "rng"].concat(), ["System", "Time"].concat()],
            dirs: &["crates", "src", "examples", "tests"],
            allow: |_| false,
            library_lines_only: false,
        },
        Rule {
            name: "wall-clock timing outside crates/obs",
            patterns: vec![["Inst", "ant"].concat()],
            dirs: &["crates", "src", "tests"],
            allow: |rel| {
                rel.starts_with("crates/obs/")
                    || rel.starts_with("crates/serve/")
                    || rel.starts_with("crates/core/src/bin/")
            },
            library_lines_only: false,
        },
        Rule {
            name: "raw print in library code",
            patterns: vec![["print", "ln!"].concat(), ["eprint", "ln!"].concat()],
            dirs: &["crates", "src"],
            allow: |rel| {
                // Only library sources are in scope — crate tests and
                // benches sit outside src/ and may print freely.
                !(rel.starts_with("src/") || rel.contains("/src/"))
                    || rel.starts_with("crates/core/src/bin/")
                    || rel == "crates/obs/src/log.rs"
            },
            library_lines_only: false,
        },
        Rule {
            name: "bare unwrap in library code",
            patterns: vec![[".unwr", "ap()"].concat()],
            dirs: &["crates", "src"],
            // Same library scope as the print rule; the CLI binary is
            // NOT exempt here — its failure paths carry exit codes.
            allow: |rel| !(rel.starts_with("src/") || rel.contains("/src/")),
            library_lines_only: true,
        },
        Rule {
            name: "unwind boundary outside the recovery module",
            patterns: vec![["catch_", "unwind"].concat()],
            dirs: &["crates", "src", "examples", "tests"],
            allow: |rel| rel == "crates/simcore/src/recover.rs",
            library_lines_only: false,
        },
        Rule {
            name: "trace-event emission outside the flight recorder",
            patterns: vec![["traceEv", "ents"].concat()],
            dirs: &["crates", "src"],
            // Same library scope as the print rule: only src/ files are
            // emitters; tests and examples merely parse the format.
            allow: |rel| {
                !(rel.starts_with("src/") || rel.contains("/src/"))
                    || rel == "crates/obs/src/trace.rs"
            },
            library_lines_only: false,
        },
        Rule {
            name: "stage-cell IO outside the disk store module",
            patterns: vec![
                ["CELL_", "MAGIC"].concat(),
                [".ddoscovery", "/store"].concat(),
            ],
            dirs: &["crates", "src"],
            // Same library scope as the print rule; the CLI binary only
            // names the default directory in its usage text.
            allow: |rel| {
                !(rel.starts_with("src/") || rel.contains("/src/"))
                    || rel == "crates/core/src/diskstore.rs"
                    || rel.starts_with("crates/core/src/bin/")
            },
            library_lines_only: false,
        },
        Rule {
            name: "socket IO outside the serve crate",
            patterns: vec![["TcpList", "ener"].concat(), ["TcpStr", "eam"].concat()],
            dirs: &["crates", "src"],
            // Same library scope as the print rule: only src/ files are
            // in scope, and only crates/serve may touch sockets.
            allow: |rel| {
                !(rel.starts_with("src/") || rel.contains("/src/"))
                    || rel.starts_with("crates/serve/src/")
            },
            library_lines_only: false,
        },
        Rule {
            name: "environment read outside the CLI front door",
            patterns: vec![["env::", "var("].concat()],
            dirs: &["crates", "src"],
            // Same library scope as the print rule; inline test modules
            // (e.g. the two-process race helper in obs::store) are out.
            allow: |rel| {
                !(rel.starts_with("src/") || rel.contains("/src/"))
                    || rel == "crates/core/src/bin/ddoscovery.rs"
                    || rel == "crates/obs/src/log.rs"
            },
            library_lines_only: true,
        },
        Rule {
            name: "hashed target/attack join (use the sorted index)",
            patterns: hashed_joins,
            dirs: &[
                "crates/core/src/experiments",
                "crates/analytics/src",
                "crates/flowmon/src",
            ],
            allow: |rel| {
                !(rel.starts_with("crates/core/src/experiments/")
                    || rel.starts_with("crates/flowmon/src/")
                    || rel == "crates/analytics/src/upset.rs"
                    || rel == "crates/analytics/src/overlap.rs")
            },
            library_lines_only: true,
        },
    ];

    let mut violations: Vec<String> = rules.iter().flat_map(|r| scan(root, r)).collect();
    let program = program_sources(root);
    violations.extend(uncalled_public_items(&program));
    violations.extend(hand_written_serde_impls(&program));
    assert!(
        violations.is_empty(),
        "repo lint violations:\n{}",
        violations.join("\n")
    );
}

#[test]
fn item_names_skip_module_paths() {
    assert_eq!(
        item_names("use crate::upset::{membership, Member};"),
        ["use", "membership", "Member"]
    );
    assert_eq!(item_names("upset::upset(&sets)"), ["upset", "sets"]);
    assert_eq!(item_names("Ipv4::new(1)"), ["Ipv4", "new", "1"]);
    assert_eq!(
        item_names("xs.collect::<Vec<u8>>()"),
        ["xs", "collect", "Vec", "u8"]
    );
}
