//! `ledger` — the repository's benchmark: a closed-loop load harness
//! over the real `optrules serve|coord` processes, five named
//! workloads, and per-layer numbers that add up to what the client
//! sees. `bench/README.md` is the manual; `bench/run.sh` builds
//! everything and calls this binary.
//!
//! ```text
//! ledger run --workload W --seed N --seconds S --trace 0|1 [--smoke 1]
//! ledger all [--seed N] [--seconds S] [--smoke 1] [--out FILE]
//! ledger compare A.json B.json
//! ```

mod loadgen;
mod micro;
mod procs;
mod registry;
mod replay;
mod report;
mod run;
mod scrape;
mod stream;
mod trace;

use optrules_core::json::Json;
use run::{Env, Options, Outcome};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Window length of `ledger all` when `--seconds` is absent: the
/// `run_seconds` of `BENCHMARK.json`, so both report the same numbers.
const DEFAULT_SECONDS: f64 = 12.0;
const SMOKE_SECONDS: f64 = 2.0;
/// Untraced runs per workload in `ledger all`; the ledger keeps each
/// metric's median, so one run in a bad scheduling regime (they
/// happen: a whole `warm_serve` window at half speed, about one run
/// in twenty-five on the reference box) does not trip `compare`.
const RUNS: usize = 3;

const USAGE: &str = "usage:
  ledger run --workload W --seed N --seconds S --trace 0|1 [--smoke 1]
  ledger all [--seed N] [--seconds S] [--smoke 1] [--out FILE]
  ledger compare A.json B.json";

fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut flags = HashMap::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let value = rest
            .next()
            .ok_or_else(|| format!("flag --{key} expects a value"))?;
        flags.insert(key, value.as_str());
    }
    Ok(flags)
}

fn parsed<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match (flags.get(key), default) {
        (Some(raw), _) => raw
            .parse()
            .map_err(|_| format!("--{key}: cannot read {raw:?}")),
        (None, Some(default)) => Ok(default),
        (None, None) => Err(format!("--{key} is required")),
    }
}

fn switch(flags: &HashMap<&str, &str>, key: &str) -> Result<bool, String> {
    match flags.get(key).copied() {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("--{key} expects 0 or 1, got {other:?}")),
    }
}

/// The binary under test sits beside this one (both build into one
/// target directory); `LEDGER_OPTRULES` and `LEDGER_OUT` override.
fn env() -> Result<Env, String> {
    let optrules = match std::env::var_os("LEDGER_OPTRULES") {
        Some(path) => PathBuf::from(path),
        None => std::env::current_exe()
            .map_err(|e| format!("locating the ledger binary: {e}"))?
            .with_file_name("optrules"),
    };
    if !optrules.is_file() {
        return Err(format!(
            "no optrules binary at {} (run bench/run.sh, which builds it)",
            optrules.display()
        ));
    }
    let out =
        std::env::var_os("LEDGER_OUT").map_or_else(|| PathBuf::from("bench/out"), PathBuf::from);
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    Ok(Env { optrules, out })
}

/// Every span of the traced replay plus the per-name self-time table,
/// written once the run is over.
fn write_trace(env: &Env, workload: &str, outcome: &Outcome) -> Result<(), String> {
    let path = env.out.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace::to_json(workload, &outcome.spans).encode())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let workload: String = parsed(&flags, "workload", None)?;
    if registry::workload(&workload).is_none() {
        let names: Vec<&str> = registry::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        ));
    }
    let opts = Options {
        workload,
        seed: parsed(&flags, "seed", None)?,
        seconds: parsed(&flags, "seconds", None)?,
        trace: switch(&flags, "trace")?,
        smoke: switch(&flags, "smoke")?,
    };
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let env = env()?;
    let outcome = run::run(&env, &opts)?;
    if opts.trace {
        write_trace(&env, &opts.workload, &outcome)?;
    }
    eprint!("{}", report::table(&opts.workload, &outcome));
    println!("{}", report::result_line(&outcome));
    Ok(true)
}

fn cmd_all(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let smoke = switch(&flags, "smoke")?;
    let seed: u64 = parsed(&flags, "seed", Some(1))?;
    let seconds: f64 = parsed(
        &flags,
        "seconds",
        Some(if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
    )?;
    let env = env()?;
    let out: PathBuf = parsed(&flags, "out", Some(env.out.join("ledger.json")))?;
    let mut workloads = Vec::new();
    let mut clean = true;
    for w in &registry::WORKLOADS {
        println!("## {}: {}", w.name, w.why);
        let options = |trace| Options {
            workload: w.name.into(),
            seed,
            seconds,
            trace,
            smoke,
        };
        let runs = if smoke { 1 } else { RUNS };
        let untraced = (0..runs)
            .map(|_| run::run(&env, &options(false)))
            .collect::<Result<Vec<_>, _>>()?;
        let e2e = report::median_outcome(untraced);
        print!("{}", report::table(w.name, &e2e));
        let layers = run::run(&env, &options(true))?;
        print!("{}", report::table(w.name, &layers));
        write_trace(&env, w.name, &layers)?;
        clean &= e2e.correct && layers.correct;
        workloads.push((w.name.to_string(), report::workload_value(&e2e, &layers)));
    }
    let tier = if smoke { "smoke" } else { "full" };
    std::fs::write(
        &out,
        report::ledger_value(tier, seed, seconds, workloads).encode(),
    )
    .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(clean)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two ledger files".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Json::parse(&raw).map_err(|e| format!("{path}: {e}"))
    };
    let (report, within) = report::compare(&load(a)?, &load(b)?)?;
    print!("{report}");
    println!(
        "{}",
        if within {
            "within every bound"
        } else {
            "beyond a bound"
        }
    );
    Ok(within)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "all" => cmd_all(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ledger: {msg}");
            ExitCode::from(2)
        }
    }
}
