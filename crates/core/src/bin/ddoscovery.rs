//! `ddoscovery` — command-line front end for the reproduction.
//!
//! ```text
//! ddoscovery list                         # experiment ids + titles
//! ddoscovery run [--quick] [--seed N] [--out DIR] [IDS...]
//! ddoscovery config                       # dump the study config JSON
//! ddoscovery trends [--quick] [--seed N]  # one-screen Table-1 summary
//! ddoscovery runs list|show R|diff A B    # persistent run history
//! ddoscovery store list|gc --max-bytes N  # persistent stage store
//! ```
//!
//! Stream discipline: stdout carries machine-readable experiment
//! output only; every status line goes to stderr through the `obs`
//! logger (`DDOSCOVERY_LOG=error|warn|info|debug`). `--telemetry PATH`
//! additionally writes a JSON run manifest, prints its summary table
//! on stderr, and appends the manifest to the persistent run store
//! (`.ddoscovery/runs/`, override with `--runs-dir`) for later `runs
//! diff`. `--trace PATH` arms the flight recorder and writes a Chrome
//! trace-event timeline of the run.
//!
//! This binary is the one front door for settings: apart from the
//! logger's `DDOSCOVERY_LOG`, it is the only code that reads
//! `DDOSCOVERY_*` variables. Six flags fall back to one when absent
//! ([`parse_options`]), through the flag's own parser; the library
//! reads only the [`StudyConfig`] it is handed.
//!
//! Exit codes: 0 on success, 1 for runtime failures (I/O, analytics),
//! 2 for usage and config errors — mirroring
//! [`ddoscovery::Error::exit_code`].

use ddoscovery::{all_ids, run_experiment, ChaosPlan, Error, FaultPlan, StudyConfig, StudyRun};
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    obs::log::raw_stderr(
        "usage: ddoscovery <command> [options]\n\n\
         commands:\n\
         \u{20}  list                         list experiment ids\n\
         \u{20}  run [opts] [IDS...]          run experiments (default: all)\n\
         \u{20}  trends [opts]                print the Table-1 trend summary\n\
         \u{20}  config                       print the default study config as JSON\n\
         \u{20}  runs list                    list stored run manifests\n\
         \u{20}  runs show RUN                print one stored manifest (stem,\n\
         \u{20}                               unambiguous prefix, or path)\n\
         \u{20}  runs diff A B [--gate PCT]   compare two stored runs; with\n\
         \u{20}                               --gate, exit 1 when any\n\
         \u{20}                               counter moves more than PCT\n\
         \u{20}                               percent\n\
         \u{20}  store list                   list persistent stage-store cells\n\
         \u{20}  store gc --max-bytes N       shrink the stage store to at most\n\
         \u{20}                               N bytes (oldest cells first)\n\
         \u{20}  serve [opts] [--addr A]      warm the study (through --store,\n\
         \u{20}                               if set) and serve it over HTTP\n\
         \u{20}                               until /admin/drain; prints the\n\
         \u{20}                               bound address on stdout\n\n\
         options:\n\
         \u{20}  --quick            scaled-down study (~1/8 volume)\n\
         \u{20}  --seed N           master seed: decimal, or hex with an\n\
         \u{20}                     explicit 0x prefix (default 0xDD05C0DE)\n\
         \u{20}  --out DIR          CSV output directory (default: results)\n\
         \u{20}  --workers N        execution-pool worker count (default one\n\
         \u{20}                     per core; env: DDOSCOVERY_WORKERS;\n\
         \u{20}                     output is identical for every setting)\n\
         \u{20}  --telemetry PATH   write a JSON run manifest to PATH and\n\
         \u{20}                     print a summary table on stderr (env:\n\
         \u{20}                     DDOSCOVERY_TELEMETRY)\n\
         \u{20}  --stage-cache V    cross-run stage cache: `off` to bypass,\n\
         \u{20}                     or an entry bound N (env:\n\
         \u{20}                     DDOSCOVERY_STAGE_CACHE; output is\n\
         \u{20}                     identical for every setting)\n\
         \u{20}  --faults PATH      JSON fault plan: per-source outage\n\
         \u{20}                     windows, honeypot fleet churn, flow\n\
         \u{20}                     sampling degradation (validated like\n\
         \u{20}                     any config; degraded weeks land in the\n\
         \u{20}                     telemetry manifest)\n\
         \u{20}  --chaos P          inject recoverable control-plane faults\n\
         \u{20}                     with probability P per site; output is\n\
         \u{20}                     identical with or without the flag\n\
         \u{20}  --trace PATH       arm the flight recorder and write a\n\
         \u{20}                     Chrome trace-event timeline (Perfetto-\n\
         \u{20}                     loadable) to PATH (env: DDOSCOVERY_TRACE;\n\
         \u{20}                     output is identical with or without it)\n\
         \u{20}  --runs-dir DIR     run-history store for --telemetry and\n\
         \u{20}                     the runs subcommands (default\n\
         \u{20}                     .ddoscovery/runs; env: DDOSCOVERY_RUNS_DIR)\n\
         \u{20}  --store [DIR]      persistent stage store: warm stages are\n\
         \u{20}                     loaded from DIR (integrity-checked) and\n\
         \u{20}                     fresh stages written back, sharing work\n\
         \u{20}                     across processes (default DIR\n\
         \u{20}                     .ddoscovery/store; env: DDOSCOVERY_STORE;\n\
         \u{20}                     `--store off` forces it off; output is\n\
         \u{20}                     identical with or without it)\n\
         \u{20}  --addr A           with serve: numeric listen address\n\
         \u{20}                     IP:PORT (default 127.0.0.1:8080; port 0\n\
         \u{20}                     picks a free port)\n\
         \u{20}  --max-bytes N      with store gc: the size to shrink to\n\
         \u{20}  --gate PCT         with runs diff: fail (exit 1) when a\n\
         \u{20}                     counter moves more than PCT%\n\n\
         environment:\n\
         \u{20}  an absent flag marked `env:` falls back to that variable\n\
         \u{20}  (blank = unset, malformed = usage error)\n\
         \u{20}  DDOSCOVERY_LOG=error|warn|info|debug   log level (default info)\n\n\
         exit codes:\n\
         \u{20}  0  success\n\
         \u{20}  1  runtime failure (I/O, analytics)\n\
         \u{20}  2  usage or config error",
    );
    ExitCode::from(2)
}

/// Parse a `--seed` value. Decimal by default; hexadecimal only with an
/// explicit `0x`/`0X` prefix. (An earlier version tried hex *first*, so
/// `--seed 100` silently became 256 — every digit string is valid hex.)
fn parse_seed(v: &str) -> Result<u64, String> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
            .map_err(|_| format!("bad hex seed {v:?} (expected 0x followed by hex digits)"))
    } else {
        v.parse()
            .map_err(|_| format!("bad seed {v:?} (decimal, or 0x-prefixed hex)"))
    }
}

#[derive(Debug, PartialEq)]
struct Options {
    quick: bool,
    seed: Option<u64>,
    out: String,
    workers: Option<usize>,
    telemetry: Option<String>,
    stage_cache: Option<usize>,
    faults: Option<String>,
    chaos: Option<f64>,
    trace: Option<String>,
    runs_dir: Option<String>,
    gate: Option<f64>,
    store: Option<String>,
    max_bytes: Option<u64>,
    addr: Option<String>,
    ids: Vec<String>,
}

/// Parse a `--workers` value: a worker count of at least 1.
fn parse_workers(v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(0) | Err(_) => Err(format!("bad worker count {v:?} (expected at least 1)")),
        Ok(n) => Ok(n),
    }
}

/// Parse a `--stage-cache` value: `off` (any case) or `0` bypasses the
/// cache, an integer bounds it.
fn parse_stage_cache(v: &str) -> Result<usize, String> {
    if v.eq_ignore_ascii_case("off") {
        return Ok(0);
    }
    v.parse()
        .map_err(|_| format!("bad stage-cache value {v:?} (expected `off` or an entry count)"))
}

/// A path-valued option takes its value as given.
fn parse_path(v: &str) -> Result<String, String> {
    Ok(v.to_string())
}

/// Fill `knob`, when its flag left it unset, from variable `name`
/// through the flag's parser. A blank value counts as unset and
/// surrounding blanks are ignored; a malformed value is a usage error
/// that names the variable.
fn env_fallback<T>(
    knob: &mut Option<T>,
    name: &str,
    env: &impl Fn(&str) -> Option<String>,
    parse: fn(&str) -> Result<T, String>,
) -> Result<(), String> {
    if knob.is_none() {
        if let Some(v) = env(name).filter(|v| !v.trim().is_empty()) {
            *knob = Some(parse(v.trim()).map_err(|e| format!("{name}: {e}"))?);
        }
    }
    Ok(())
}

/// Parse the options after the command word. `env` looks a variable
/// up (`main` passes the process environment): after the flags, each
/// knob still unset falls back to its variable.
fn parse_options(args: &[String], env: impl Fn(&str) -> Option<String>) -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        seed: None,
        out: "results".into(),
        workers: None,
        telemetry: None,
        stage_cache: None,
        faults: None,
        chaos: None,
        trace: None,
        runs_dir: None,
        gate: None,
        store: None,
        max_bytes: None,
        addr: None,
        ids: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = Some(parse_seed(v)?);
            }
            "--out" => opts.out = it.next().ok_or("--out needs a value")?.clone(),
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                opts.workers = Some(parse_workers(v)?);
            }
            "--telemetry" => {
                opts.telemetry = Some(it.next().ok_or("--telemetry needs a value")?.clone());
            }
            "--stage-cache" => {
                let v = it.next().ok_or("--stage-cache needs a value")?;
                opts.stage_cache = Some(parse_stage_cache(v)?);
            }
            "--faults" => {
                opts.faults = Some(it.next().ok_or("--faults needs a value")?.clone());
            }
            "--chaos" => {
                let v = it.next().ok_or("--chaos needs a value")?;
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("bad chaos probability {v:?}"))?;
                opts.chaos = Some(p);
            }
            "--trace" => {
                opts.trace = Some(it.next().ok_or("--trace needs a value")?.clone());
            }
            "--runs-dir" => {
                opts.runs_dir = Some(it.next().ok_or("--runs-dir needs a value")?.clone());
            }
            // The store directory is optional: a bare `--store` means
            // the default dir, `--store DIR` (or `--store=DIR`) pins
            // one, `--store off` forces the store off. The next token
            // is taken as the directory unless it looks like a flag.
            "--store" => {
                let dir = match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        it.next().expect("peeked value exists").clone()
                    }
                    _ => ddoscovery::diskstore::DEFAULT_STORE_DIR.to_string(),
                };
                opts.store = Some(dir);
            }
            "--addr" => {
                opts.addr = Some(it.next().ok_or("--addr needs a value")?.clone());
            }
            "--max-bytes" => {
                let v = it.next().ok_or("--max-bytes needs a value")?;
                opts.max_bytes =
                    Some(v.parse().map_err(|_| format!("bad byte count {v:?}"))?);
            }
            "--gate" => {
                let v = it.next().ok_or("--gate needs a value")?;
                let pct: f64 = v
                    .parse()
                    .map_err(|_| format!("bad gate percentage {v:?}"))?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(format!("--gate must be a non-negative percentage, got {v}"));
                }
                opts.gate = Some(pct);
            }
            other if other.starts_with("--store=") => {
                opts.store = Some(other["--store=".len()..].to_string());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}"));
            }
            id => opts.ids.push(id.to_string()),
        }
    }
    env_fallback(&mut opts.workers, "DDOSCOVERY_WORKERS", &env, parse_workers)?;
    env_fallback(
        &mut opts.stage_cache,
        "DDOSCOVERY_STAGE_CACHE",
        &env,
        parse_stage_cache,
    )?;
    env_fallback(&mut opts.store, "DDOSCOVERY_STORE", &env, parse_path)?;
    env_fallback(
        &mut opts.telemetry,
        "DDOSCOVERY_TELEMETRY",
        &env,
        parse_path,
    )?;
    env_fallback(&mut opts.trace, "DDOSCOVERY_TRACE", &env, parse_path)?;
    env_fallback(&mut opts.runs_dir, "DDOSCOVERY_RUNS_DIR", &env, parse_path)?;
    Ok(opts)
}

/// The run-history store: `--runs-dir`, else `.ddoscovery/runs`.
fn runs_store(opts: &Options) -> obs::store::RunStore {
    let dir = opts.runs_dir.as_deref();
    obs::store::RunStore::new(dir.unwrap_or(obs::store::DEFAULT_RUNS_DIR))
}

/// Arm the flight recorder when a trace path was requested.
fn arm_trace(opts: &Options) {
    if opts.trace.is_some() {
        obs::trace::enable(obs::trace::DEFAULT_LANE_CAPACITY);
    }
}

/// Export the armed flight recorder to the requested path.
fn export_trace(opts: &Options) -> Result<(), Error> {
    let Some(path) = &opts.trace else {
        return Ok(());
    };
    obs::trace::disable();
    obs::trace::export_to_file(path).map_err(|e| Error::io(path.clone(), &e))?;
    obs::info!(
        "trace timeline written to {path} ({} events dropped)",
        obs::trace::dropped()
    );
    Ok(())
}

fn build_config(opts: &Options) -> Result<StudyConfig, Error> {
    let mut cfg = if opts.quick {
        StudyConfig::quick()
    } else {
        StudyConfig::paper()
    };
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    cfg.workers = opts.workers;
    cfg.stage_cache = opts.stage_cache;
    cfg.disk_store = opts.store.clone();
    if let Some(path) = &opts.faults {
        let text = fs::read_to_string(path).map_err(|e| Error::io(path.clone(), &e))?;
        let plan: FaultPlan = serde_json::from_str(&text)
            .map_err(|e| Error::config("faults", format!("cannot parse {path}: {e}")))?;
        cfg.faults = plan;
    }
    if let Some(p) = opts.chaos {
        // The CLI flag injects *recoverable* chaos (failures below the
        // retry budget) so a flagged run still produces byte-identical
        // output — the point is exercising the recovery path.
        cfg.chaos = Some(ChaosPlan::recoverable(p, cfg.seed));
    }
    cfg.validate()?;
    Ok(cfg)
}

/// Scenario label recorded in run manifests.
fn scenario_label(opts: &Options) -> &'static str {
    match (opts.quick, opts.seed.is_some()) {
        (true, false) => "quick",
        (false, false) => "paper",
        (true, true) => "quick-reseeded",
        (false, true) => "paper-reseeded",
    }
}

/// Write the run manifest (if requested), print its summary table, and
/// append the manifest to the persistent run store for `runs diff`. A
/// store failure only warns: history is a convenience, the run's own
/// output must not fail because `.ddoscovery/` is unwritable.
fn emit_telemetry(opts: &Options, cfg: &StudyConfig) -> Result<(), String> {
    let Some(path) = &opts.telemetry else {
        return Ok(());
    };
    let config_json = serde_json::to_string(cfg).map_err(|e| e.to_string())?;
    let manifest = obs::manifest::RunManifest::capture(obs::manifest::RunInfo {
        scenario: scenario_label(opts).to_string(),
        seed: cfg.seed,
        workers: cfg.workers,
        config_hash: obs::manifest::fnv1a(config_json.as_bytes()),
        stages: ddoscovery::StageFingerprints::of(cfg).manifest_entries(),
        degraded_weeks: cfg.faults.degraded_weeks(),
    });
    fs::write(path, manifest.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    obs::log::raw_stderr(manifest.summary_table().trim_end());
    obs::info!("telemetry manifest written to {path}");
    match runs_store(opts).append(&manifest) {
        Ok(stored) => obs::info!("run recorded in store: {}", stored.display()),
        Err(e) => obs::warn!("{e}"),
    }
    Ok(())
}

fn cmd_list() -> ExitCode {
    // Titles need a run for some experiments; print ids with the static
    // descriptions from the registry docs instead.
    for id in all_ids() {
        println!("{id}");
    }
    ExitCode::SUCCESS
}

fn cmd_config() -> ExitCode {
    match serde_json::to_string_pretty(&StudyConfig::paper()) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            obs::error!("serialization failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(opts: &Options) -> ExitCode {
    let wanted: Vec<&str> = if opts.ids.is_empty() {
        all_ids().to_vec()
    } else {
        opts.ids.iter().map(|s| s.as_str()).collect()
    };
    for id in &wanted {
        if !all_ids().contains(id) {
            obs::error!("unknown experiment {id:?}; known: {:?}", all_ids());
            return ExitCode::from(2);
        }
    }
    let cfg = match build_config(opts) {
        Ok(cfg) => cfg,
        Err(e) => return fail(&e),
    };
    arm_trace(opts);
    obs::info!(
        "running {} study (seed {:#x}, workers {}) ...",
        scenario_label(opts),
        cfg.seed,
        cfg.workers.map(|w| w.to_string()).unwrap_or_else(|| "default".into()),
    );
    let run_span = obs::span!("run");
    let watch = obs::Stopwatch::start();
    let run = match StudyRun::try_execute(&cfg) {
        Ok(run) => run,
        Err(e) => return fail(&e),
    };
    obs::info!(
        "{} attacks observed in {:.1}s",
        run.attacks.len(),
        watch.elapsed_ns() as f64 / 1e9
    );
    let out_dir = Path::new(&opts.out);
    if let Err(e) = fs::create_dir_all(out_dir) {
        return fail(&Error::io(out_dir.display().to_string(), &e));
    }
    let analyze_span = obs::span!("analyze");
    for id in wanted {
        // `wanted` is pre-checked against `all_ids`, but a registry
        // mismatch should surface as a diagnostic, not a panic.
        let Some(result) = run_experiment(&run, id) else {
            return fail(&Error::analytics(id, "experiment id not in the registry"));
        };
        println!("== [{}] {} ==\n{}", result.id, result.title, result.body);
        for (name, contents) in &result.csv {
            let path = out_dir.join(name);
            if let Err(e) = fs::write(&path, contents) {
                return fail(&Error::io(path.display().to_string(), &e));
            }
            obs::info!("wrote {}", path.display());
        }
    }
    drop(analyze_span);
    drop(run_span);
    // Projections all ran inside the analyze stage above.
    ddoscovery::pipeline::record_peak_rss("project");
    if let Err(e) = emit_telemetry(opts, &cfg) {
        obs::error!("{e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = export_trace(opts) {
        return fail(&e);
    }
    ExitCode::SUCCESS
}

/// Log a typed error and map it to its process exit code.
fn fail(e: &Error) -> ExitCode {
    obs::error!("{e}");
    ExitCode::from(e.exit_code())
}

fn cmd_trends(opts: &Options) -> ExitCode {
    let cfg = match build_config(opts) {
        Ok(cfg) => cfg,
        Err(e) => return fail(&e),
    };
    arm_trace(opts);
    let run_span = obs::span!("run");
    let run = match StudyRun::try_execute(&cfg) {
        Ok(run) => run,
        Err(e) => return fail(&e),
    };
    let project_span = obs::span!("project");
    // Shared with the HTTP service's /v1/trends so the two renderings
    // stay byte-identical (crates/core/tests/http_service.rs).
    print!("{}", ddoscovery::render::trends_table(&run));
    drop(project_span);
    drop(run_span);
    ddoscovery::pipeline::record_peak_rss("project");
    if let Err(e) = emit_telemetry(opts, &cfg) {
        obs::error!("{e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = export_trace(opts) {
        return fail(&e);
    }
    ExitCode::SUCCESS
}

/// Map a socket-layer error onto the workspace error taxonomy: invalid
/// operator input (a bad `--addr`, a zero worker count) is usage-class
/// `Error::Config` (exit 2); an OS refusal (`EADDRINUSE`, permission)
/// is `Error::Io` (exit 1). Never a panic.
fn serve_error(e: serve::ServeError) -> Error {
    match e {
        serve::ServeError::Config { field, message } => {
            Error::config("serve", format!("{field}: {message}"))
        }
        serve::ServeError::Io { addr, message } => Error::Io { path: addr, message },
    }
}

fn cmd_serve(opts: &Options) -> ExitCode {
    let cfg = match build_config(opts) {
        Ok(cfg) => cfg,
        Err(e) => return fail(&e),
    };
    arm_trace(opts);
    // Warm boot: with --store set, intact stages load from the
    // persistent store (integrity-rejected cells recompute and are
    // rewritten), so a fresh service answers its first query without
    // redoing the study.
    let run_span = obs::span!("run");
    let run = match StudyRun::try_execute(&cfg) {
        Ok(run) => run,
        Err(e) => return fail(&e),
    };
    drop(run_span);
    ddoscovery::pipeline::record_peak_rss("serve.warm");
    let service = Arc::new(ddoscovery::StudyService::new(run, &cfg, scenario_label(opts)));
    let mut serve_cfg = serve::ServeConfig::default();
    if let Some(addr) = &opts.addr {
        serve_cfg.addr = addr.clone();
    }
    let server = match serve::Server::bind(serve_cfg, service.clone()) {
        Ok(server) => server,
        Err(e) => return fail(&serve_error(e)),
    };
    service.attach_shutdown(server.shutdown_handle());
    // The bound address is this command's one machine-readable stdout
    // line (it resolves a requested port 0); logs go to stderr.
    println!("http://{}", server.local_addr());
    let _ = std::io::stdout().flush();
    let report = server.run();
    obs::info!(
        "serve: drained={} accepted={} served={} shed={}",
        report.drained,
        report.accepted,
        report.served,
        report.shed
    );
    if let Err(e) = emit_telemetry(opts, &cfg) {
        obs::error!("{e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = export_trace(opts) {
        return fail(&e);
    }
    if report.drained {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// Run history: `ddoscovery runs list|show|diff`
// ---------------------------------------------------------------------

/// List the store: one line per run on stdout, corrupt entries skipped
/// with a warning on stderr (never a panic, never a failure).
fn cmd_runs_list(store: &obs::store::RunStore) -> ExitCode {
    let entries = store.entries();
    if entries.is_empty() {
        obs::info!("run store {} is empty", store.dir().display());
        return ExitCode::SUCCESS;
    }
    println!(
        "{:<24} {:<16} {:>12} {:>8} {:>8}",
        "run", "scenario", "seed", "workers", "metrics"
    );
    for entry in entries {
        match &entry.manifest {
            Ok(m) => println!(
                "{:<24} {:<16} {:>#12x} {:>8} {:>8}",
                entry.stem,
                m.run.scenario,
                m.run.seed,
                m.run
                    .workers
                    .map(|w| w.to_string())
                    .unwrap_or_else(|| "-".into()),
                m.metrics.counters.len() + m.metrics.gauges.len() + m.metrics.histograms.len(),
            ),
            Err(e) => obs::warn!("skipping corrupt run {}: {e}", entry.stem),
        }
    }
    ExitCode::SUCCESS
}

/// Print one stored manifest: JSON on stdout, summary table on stderr.
fn cmd_runs_show(store: &obs::store::RunStore, name: &str) -> ExitCode {
    match store.load(name) {
        Ok((stem, manifest)) => {
            obs::info!("run {stem} from {}", store.dir().display());
            obs::log::raw_stderr(manifest.summary_table().trim_end());
            println!("{}", manifest.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&Error::io(name.to_string(), &std::io::Error::other(e))),
    }
}

/// Diff two stored runs; with `--gate PCT`, exit 1 when any counter
/// moved more than PCT percent. Gauges and histogram quantiles are
/// reported, never gated: they move between identical runs.
fn cmd_runs_diff(store: &obs::store::RunStore, a: &str, b: &str, gate: Option<f64>) -> ExitCode {
    let load = |name: &str| match store.load(name) {
        Ok(loaded) => Ok(loaded),
        Err(e) => {
            obs::error!("{e}");
            Err(())
        }
    };
    let (Ok((a_stem, a_run)), Ok((b_stem, b_run))) = (load(a), load(b)) else {
        return ExitCode::FAILURE;
    };
    let d = obs::store::diff(&a_stem, &a_run, &b_stem, &b_run);
    println!("{}", d.render().trim_end());
    if let Some(pct) = gate {
        let breaches = d.breaches(pct);
        if !breaches.is_empty() {
            for breach in &breaches {
                obs::error!(
                    "gate breach: {} moved {} (> {pct}%)",
                    breach.name,
                    breach
                        .rel_change()
                        .map(|rel| format!("{:+.2}%", rel * 100.0))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            obs::error!("{} counter(s) beyond the {pct}% gate", breaches.len());
            return ExitCode::FAILURE;
        }
        obs::info!("gate ok: no counter moved more than {pct}%");
    }
    ExitCode::SUCCESS
}

fn cmd_runs(opts: &Options) -> ExitCode {
    let store = runs_store(opts);
    let ids: Vec<&str> = opts.ids.iter().map(String::as_str).collect();
    match ids.as_slice() {
        [] | ["list"] => cmd_runs_list(&store),
        ["show", name] => cmd_runs_show(&store, name),
        ["diff", a, b] => cmd_runs_diff(&store, a, b, opts.gate),
        other => {
            obs::error!(
                "usage: ddoscovery runs list | show RUN | diff A B [--gate PCT] (got {other:?})"
            );
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Persistent stage store: `ddoscovery store list|gc`
// ---------------------------------------------------------------------

/// The stage store the `store` subcommand operates on: `--store [DIR]`,
/// else the default directory. (Unlike a run, the subcommand needs
/// *some* directory to inspect, so "unset" falls through to the
/// default instead of off.)
fn stage_store(opts: &Options) -> Result<ddoscovery::DiskStore, String> {
    let dir = opts
        .store
        .as_deref()
        .unwrap_or(ddoscovery::diskstore::DEFAULT_STORE_DIR);
    if dir.trim().eq_ignore_ascii_case("off") {
        return Err("stage store is off (give --store DIR to pick one)".into());
    }
    Ok(ddoscovery::DiskStore::open(dir.into()))
}

/// One line per cell on stdout, plus a totals line.
fn cmd_store_list(store: &ddoscovery::DiskStore) -> ExitCode {
    let cells = store.list();
    if cells.is_empty() {
        obs::info!("stage store {} is empty", store.dir().display());
        return ExitCode::SUCCESS;
    }
    println!("{:<13} {:<16} {:>12} {:>12}", "stage", "key", "bytes", "mtime");
    let mut total = 0u64;
    for cell in &cells {
        total += cell.bytes;
        println!(
            "{:<13} {:<16} {:>12} {:>12}",
            cell.stage, cell.key, cell.bytes, cell.mtime_secs
        );
    }
    println!("total {} cell(s), {total} bytes in {}", cells.len(), store.dir().display());
    ExitCode::SUCCESS
}

/// Shrink the store to `--max-bytes`, oldest cells first, and remove
/// crashed writers' temporaries.
fn cmd_store_gc(store: &ddoscovery::DiskStore, opts: &Options) -> ExitCode {
    let Some(max_bytes) = opts.max_bytes else {
        obs::error!("store gc needs --max-bytes N");
        return ExitCode::from(2);
    };
    let report = store.gc(max_bytes);
    println!(
        "removed {} cell(s) ({} bytes) and {} stale temporary file(s); {} cell(s) ({} bytes) remain in {}",
        report.removed,
        report.freed_bytes,
        report.stale_tmp,
        report.kept,
        report.kept_bytes,
        store.dir().display()
    );
    ExitCode::SUCCESS
}

fn cmd_store(opts: &Options) -> ExitCode {
    let store = match stage_store(opts) {
        Ok(store) => store,
        Err(e) => {
            obs::error!("{e}");
            return ExitCode::from(2);
        }
    };
    let ids: Vec<&str> = opts.ids.iter().map(String::as_str).collect();
    match ids.as_slice() {
        [] | ["list"] => cmd_store_list(&store),
        ["gc"] => cmd_store_gc(&store, opts),
        other => {
            obs::error!(
                "usage: ddoscovery store list | gc --max-bytes N (got {other:?})"
            );
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let opts = match parse_options(rest, |name| std::env::var(name).ok()) {
        Ok(o) => o,
        Err(e) => {
            obs::error!("{e}");
            return usage();
        }
    };
    match command.as_str() {
        "list" => cmd_list(),
        "config" => cmd_config(),
        "run" => cmd_run(&opts),
        "trends" => cmd_trends(&opts),
        "runs" => cmd_runs(&opts),
        "store" => cmd_store(&opts),
        "serve" => cmd_serve(&opts),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `args` against an environment holding exactly `vars`.
    fn parse_env(args: &[&str], vars: &[(&str, &str)]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let vars: std::collections::HashMap<&str, &str> = vars.iter().copied().collect();
        parse_options(&owned, |name| vars.get(name).map(|v| v.to_string()))
    }

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_env(args, &[])
    }

    #[test]
    fn seed_is_decimal_by_default() {
        // Regression: hex used to be tried first, so `--seed 100`
        // silently became 0x100 = 256.
        let opts = parse(&["--seed", "100"]).unwrap();
        assert_eq!(opts.seed, Some(100));
    }

    #[test]
    fn seed_hex_needs_explicit_prefix() {
        assert_eq!(parse(&["--seed", "0x64"]).unwrap().seed, Some(100));
        assert_eq!(parse(&["--seed", "0X64"]).unwrap().seed, Some(100));
        assert_eq!(
            parse(&["--seed", "0xDD05C0DE"]).unwrap().seed,
            Some(0xDD05_C0DE)
        );
        // Bare hex digits are not a decimal number: reject rather than
        // guess a radix.
        assert!(parse(&["--seed", "beef"]).is_err());
    }

    #[test]
    fn seed_rejects_garbage() {
        assert!(parse(&["--seed", "0x"]).is_err());
        assert!(parse(&["--seed", "0xZZ"]).is_err());
        assert!(parse(&["--seed", "12.5"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--seed", ""]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn workers_flag_parses_and_rejects_zero() {
        let opts = parse(&["--quick", "--workers", "3"]).unwrap();
        assert_eq!(opts.workers, Some(3));
        assert!(parse(&["--workers", "0"]).is_err());
        assert!(parse(&["--workers", "lots"]).is_err());
        assert!(parse(&["--workers"]).is_err());
    }

    #[test]
    fn variables_fill_unset_knobs_through_the_flag_parsers() {
        let vars = [
            ("DDOSCOVERY_WORKERS", "3"),
            ("DDOSCOVERY_STAGE_CACHE", "off"),
            ("DDOSCOVERY_STORE", "warm"),
            ("DDOSCOVERY_TELEMETRY", "m.json"),
            ("DDOSCOVERY_TRACE", "t.json"),
            ("DDOSCOVERY_RUNS_DIR", "history"),
        ];
        let args = |line: &'static str| line.split(' ').collect::<Vec<_>>();
        // Each variable fills its unset knob exactly as its flag does,
        // and the knobs reach the config.
        let opts = parse_env(&["--quick"], &vars).unwrap();
        let flags = args(
            "--quick --workers 3 --stage-cache off --store warm --telemetry m.json \
             --trace t.json --runs-dir history",
        );
        assert_eq!(opts, parse(&flags).unwrap());
        let cfg = build_config(&opts).unwrap();
        assert_eq!((cfg.workers, cfg.stage_cache), (Some(3), Some(0)));
        assert_eq!(cfg.disk_store.as_deref(), Some("warm"));

        // The flag wins over the variable.
        let other = args(
            "--workers 2 --stage-cache 64 --store cold --telemetry f.json \
             --trace f.trace --runs-dir runs",
        );
        assert_eq!(parse_env(&other, &vars).unwrap(), parse(&other).unwrap());

        // A malformed value is refused, naming the variable, where the
        // flag refuses it too.
        for (name, flag, bad) in [
            ("DDOSCOVERY_WORKERS", "--workers", "0"),
            ("DDOSCOVERY_WORKERS", "--workers", "lots"),
            ("DDOSCOVERY_STAGE_CACHE", "--stage-cache", "some"),
        ] {
            let err = parse_env(&[], &[(name, bad)]).unwrap_err();
            assert!(err.starts_with(name), "{name}={bad}: {err}");
            assert!(parse(&[flag, bad]).is_err());
        }

        // A blank value counts as unset; with nothing set anywhere the
        // config's `None`s stay.
        let blank: Vec<(&str, &str)> = vars.iter().map(|&(name, _)| (name, " ")).collect();
        let opts = parse_env(&["--quick"], &blank).unwrap();
        assert_eq!(opts, parse(&["--quick"]).unwrap());
        let cfg = build_config(&opts).unwrap();
        assert_eq!(cfg.workers.or(cfg.stage_cache), None);
        assert_eq!(cfg.disk_store, None);
        assert_eq!(opts.telemetry.or(opts.trace).or(opts.runs_dir), None);
    }

    #[test]
    fn stage_cache_flag_parses() {
        assert_eq!(parse(&["--stage-cache", "off"]).unwrap().stage_cache, Some(0));
        assert_eq!(parse(&["--stage-cache", "OFF"]).unwrap().stage_cache, Some(0));
        assert_eq!(parse(&["--stage-cache", "64"]).unwrap().stage_cache, Some(64));
        assert!(parse(&["--stage-cache", "some"]).is_err());
        assert!(parse(&["--stage-cache"]).is_err());
        // The flag lands in the config.
        let cfg = build_config(&parse(&["--quick", "--stage-cache", "off"]).unwrap()).unwrap();
        assert_eq!(cfg.stage_cache, Some(0));
        assert_eq!(ddoscovery::stagecache::resolve_bound(&cfg), 0);
    }

    #[test]
    fn faults_flag_loads_and_validates_a_plan() {
        let dir = std::env::temp_dir();
        let good = dir.join("ddoscovery-faults-good.json");
        fs::write(
            &good,
            r#"{"outages":[{"source":"ucsd","start_week":10,"end_week":20}],
                "honeypot_churn":null,"flow_degradation":null,"seed":9}"#,
        )
        .unwrap();
        let opts = parse(&["--quick", "--faults", good.to_str().unwrap()]).unwrap();
        let cfg = build_config(&opts).unwrap();
        assert_eq!(cfg.faults.outages.len(), 1);
        assert_eq!(cfg.faults.outages[0].source, "ucsd");

        // A plan naming an unknown source fails validation with the
        // typed config error, not a panic deep in the pipeline.
        let bad = dir.join("ddoscovery-faults-bad.json");
        fs::write(
            &bad,
            r#"{"outages":[{"source":"atlantis","start_week":10,"end_week":20}],
                "honeypot_churn":null,"flow_degradation":null,"seed":9}"#,
        )
        .unwrap();
        let opts = parse(&["--quick", "--faults", bad.to_str().unwrap()]).unwrap();
        let err = build_config(&opts).unwrap_err();
        assert_eq!(err.exit_code(), 2);

        // A missing file is an I/O error, exit code 1.
        let opts = parse(&["--quick", "--faults", "/nonexistent/plan.json"]).unwrap();
        assert_eq!(build_config(&opts).unwrap_err().exit_code(), 1);
        assert!(parse(&["--faults"]).is_err());
    }

    #[test]
    fn chaos_flag_builds_a_recoverable_plan() {
        let opts = parse(&["--quick", "--chaos", "0.2"]).unwrap();
        let cfg = build_config(&opts).unwrap();
        let plan = cfg.chaos.unwrap();
        assert_eq!(plan.probability, 0.2);
        assert!(plan.failures_per_site < simcore::recover::MAX_ATTEMPTS);
        // An out-of-range probability is a typed config error.
        let opts = parse(&["--quick", "--chaos", "1.5"]).unwrap();
        assert_eq!(build_config(&opts).unwrap_err().exit_code(), 2);
        assert!(parse(&["--chaos", "plenty"]).is_err());
        assert!(parse(&["--chaos"]).is_err());
    }

    #[test]
    fn telemetry_flag_parses() {
        let opts = parse(&["--telemetry", "m.json", "t1"]).unwrap();
        assert_eq!(opts.telemetry.as_deref(), Some("m.json"));
        assert_eq!(opts.ids, ["t1"]);
        assert!(parse(&["--telemetry"]).is_err());
    }

    #[test]
    fn store_flag_takes_an_optional_directory() {
        // Bare flag → default directory.
        let opts = parse(&["--store"]).unwrap();
        assert_eq!(
            opts.store.as_deref(),
            Some(ddoscovery::diskstore::DEFAULT_STORE_DIR)
        );
        // Explicit directory, both spellings.
        assert_eq!(parse(&["--store", "warm"]).unwrap().store.as_deref(), Some("warm"));
        assert_eq!(parse(&["--store=warm"]).unwrap().store.as_deref(), Some("warm"));
        // A following flag is not swallowed as the directory.
        let opts = parse(&["--store", "--quick"]).unwrap();
        assert_eq!(
            opts.store.as_deref(),
            Some(ddoscovery::diskstore::DEFAULT_STORE_DIR)
        );
        assert!(opts.quick);
        // `off` lands in the config and resolves to no store.
        let cfg = build_config(&parse(&["--quick", "--store", "off"]).unwrap()).unwrap();
        assert_eq!(cfg.disk_store.as_deref(), Some("off"));
        assert!(ddoscovery::diskstore::resolve_dir(&cfg).is_none());
        // A real directory resolves to it.
        let cfg = build_config(&parse(&["--quick", "--store", "warm"]).unwrap()).unwrap();
        assert_eq!(
            ddoscovery::diskstore::resolve_dir(&cfg),
            Some(std::path::PathBuf::from("warm"))
        );
    }

    #[test]
    fn max_bytes_flag_parses() {
        assert_eq!(parse(&["--max-bytes", "4096"]).unwrap().max_bytes, Some(4096));
        assert!(parse(&["--max-bytes", "much"]).is_err());
        assert!(parse(&["--max-bytes"]).is_err());
    }

    #[test]
    fn scenario_labels() {
        let mut opts = parse(&["--quick"]).unwrap();
        assert_eq!(scenario_label(&opts), "quick");
        opts.seed = Some(7);
        assert_eq!(scenario_label(&opts), "quick-reseeded");
        opts.quick = false;
        assert_eq!(scenario_label(&opts), "paper-reseeded");
    }
}
