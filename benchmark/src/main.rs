//! `benchmark` — measure the ddoscovery reproduction end to end.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
//!           [--out DIR] [--smoke]
//! benchmark compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! Prints one `workload metric value unit` line per metric and, as the
//! last line, a JSON result object. Exits 1 when an output check fails.
//!
//! A run lasts `run_seconds` of `BENCHMARK.json`, so that results taken
//! at different times compare; `--seconds` is accepted only with that
//! value. `--smoke` runs a fixed short slice instead.

use ddosbench::report;
use ddosbench::spec::Spec;
use ddosbench::stats::Host;
use ddosbench::traced;
use ddosbench::workloads::{self, Params, Workload, DEFAULT_SEED, SMOKE_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace [0|1]] [--out DIR] [--smoke]\n       \
                     benchmark compare PARENT.json... -- CHANGE.json...";

struct Options {
    workloads: Vec<Workload>,
    params: Params,
    trace: bool,
}

fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse(args: &[String], spec: &Spec) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        params: Params {
            seed: DEFAULT_SEED,
            seconds: spec.run_seconds as f64,
            smoke: false,
            out: PathBuf::from("target/benchmark"),
        },
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                o.workloads
                    .push(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                o.params.seed = parse_seed(&v).ok_or(format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                if v.parse::<u64>().ok() != Some(spec.run_seconds) {
                    return Err(format!(
                        "--seconds {v:?}: runs last run_seconds = {} of BENCHMARK.json",
                        spec.run_seconds
                    ));
                }
            }
            "--out" => o.params.out = PathBuf::from(value("--out")?),
            "--smoke" => {
                o.params.smoke = true;
                o.params.seconds = SMOKE_SECONDS;
            }
            // `--trace 0`, `--trace 1`, or a bare `--trace`.
            "--trace" => {
                o.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    Ok(o)
}

fn run(o: &Options, spec: &Spec) -> Result<bool, String> {
    let host = Host::detect();
    println!(
        "# host: nproc={} cpu={:?} llc={} B profile={} seed={:#x} seconds={} trace={}",
        host.nproc,
        host.cpu_model,
        host.llc_bytes,
        host.profile,
        o.params.seed,
        o.params.seconds,
        o.trace
    );
    let mut lines = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut combined = Vec::new();
    for &w in &o.workloads {
        let outcome = if o.trace {
            traced::measure(w, &o.params)
        } else {
            workloads::measure(w, &o.params)
        };
        let metrics = report::ordered(spec, o.trace, &outcome)?;
        for (m, v) in &metrics {
            println!("{} {} {v} {}", w.name(), m.name, m.unit);
        }
        for (name, s) in &outcome.summaries {
            println!("# {} {name}: {}", w.name(), s.describe());
        }
        if let Some(d) = outcome.digest {
            println!("# {} digest {d:016x}", w.name());
        }
        for note in &outcome.notes {
            println!("# {note}");
        }
        let path = report::write_results(
            &o.params.out,
            o.params.seed,
            o.trace,
            &host,
            &outcome,
            &metrics,
        )
        .map_err(|e| format!("cannot write results: {e}"))?;
        println!("# {} results: {}", w.name(), path.display());
        let ok = outcome.correct && !metrics.is_empty();
        let named: Vec<(String, f64, String)> = metrics
            .iter()
            .map(|(m, v)| (m.name.clone(), *v, m.unit.clone()))
            .collect();
        lines.push(report::result_json(
            ok,
            outcome.attempted,
            outcome.failed,
            &named,
        ));
        combined.extend(
            named
                .into_iter()
                .map(|(n, v, u)| (format!("{}.{n}", w.name()), v, u)),
        );
        correct &= ok;
        attempted += outcome.attempted;
        failed += outcome.failed;
    }
    let _ = std::fs::remove_dir_all(o.params.out.join("work"));
    if lines.len() == 1 {
        println!("{}", lines[0]);
    } else {
        println!(
            "{}",
            report::result_json(correct, attempted, failed, &combined)
        );
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        return match workloads::child_main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let spec = Spec::load();
    if args.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(ddosbench::compare::main(&args[1..], &spec) as u8);
    }
    let options = match parse(&args, &spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options, &spec) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
