//! `wsf-benchmark`: the repository's benchmark (contract: `BENCHMARK.json`).
//!
//! ```text
//! wsf-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! wsf-benchmark setup --workload W [--seed N]
//! wsf-benchmark compare --base A[,A2,A3] --new B[,B2,B3]
//! ```
//!
//! With `--workload`, `run` measures that workload in this process and
//! prints, as its last line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with tracing off, the per-layer ones with it on.
//! Without `--workload` it re-executes itself once per workload and tracing
//! mode, each in a fresh process, and prints one object holding everything
//! plus the run's metadata: the input of `compare`. `setup` sets the
//! workload up once, tears it down and prints the seconds the set-up took.

mod adapter;
mod compare;
mod json;
mod loadgen;
mod pool;
mod serve;
mod spec;
mod stats;
mod tables;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use spec::{Metric, Spec};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Windows too short for a tail percentile are tolerated.
    pub smoke: bool,
}

/// What one workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Windows measured again because the load generator was late or busy.
    pub discarded_windows: u64,
    metrics: BTreeMap<String, f64>,
    errors: Vec<String>,
    /// Facts about the run that are not metrics (sample counts, digests).
    info: Vec<(String, Json)>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// A tail percentile. `None` means the window held too few samples for
    /// one, which fails the run: a 0 would read as "this layer is not on the
    /// workload's path". Only `--smoke`, whose windows are too short by
    /// design and whose values nobody reads, records the 0.
    pub fn put_tail(&mut self, name: &str, value: Option<f64>, args: &Args) -> Result<(), String> {
        match value {
            Some(v) => self.put(name, v),
            None if args.smoke => self.put(name, 0.0),
            None => return Err(format!("{name}: the window holds too few samples")),
        }
        Ok(())
    }

    pub fn note(&mut self, name: &str, value: Json) {
        self.info.push((name.to_owned(), value));
    }

    /// Records why the run's outputs are not correct (or the run not valid).
    pub fn fail(&mut self, why: String) {
        self.errors.push(why);
    }
}

/// Extra set-ups of a workload, each in a fresh process.
const COLD_SETUPS: usize = 2;

/// Set-up seconds of `COLD_SETUPS` fresh child processes (`wsf-benchmark
/// setup`), measured before this process sets itself up. `setup_s` is the
/// median of these and the process's own set-up, so every sample pays what a
/// cold process pays, once-per-process initialisation included. A traced run
/// does not report `setup_s` and makes none.
pub fn cold_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let count = if args.trace { 0 } else { COLD_SETUPS };
    (0..count)
        .map(|_| {
            let output = Command::new(&exe)
                .args(["setup", "--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("re-executing {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            match stdout.trim().parse::<f64>() {
                Ok(seconds) if output.status.success() => Ok(seconds),
                _ => Err(format!("child set-up: {} {stdout:?}", output.status)),
            }
        })
        .collect()
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run(&argv[1..]),
        Some("setup") => setup(&argv[1..]),
        Some("compare") => compare::main(&argv[1..]),
        _ => Err(
            "usage: wsf-benchmark run [--workload W] [--seed N] [--seconds S] \
                  [--trace 0|1] [--smoke] | setup --workload W [--seed N] \
                  | compare --base A[,..] --new B[,..]"
                .to_owned(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wsf-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs and bare `--flag`s.
pub fn options(argv: &[String], flags: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut opts = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {arg}"))?;
        let value = if flags.contains(&key) {
            "1".to_owned()
        } else {
            it.next().ok_or(format!("--{key} needs a value"))?.clone()
        };
        opts.insert(key.to_owned(), value);
    }
    Ok(opts)
}

fn seed_option(opts: &BTreeMap<String, String>) -> Result<u64, String> {
    match opts.get("seed") {
        Some(v) => v.parse().map_err(|_| format!("--seed {v}: not a u64")),
        None => Ok(1),
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load();
    let opts = options(argv, &["smoke"])?;
    let number = |key: &str, default: f64| match opts.get(key) {
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("--{key} {v}: not a number")),
        None => Ok(default),
    };
    let smoke = opts.contains_key("smoke");
    let seed = seed_option(&opts)?;
    let seconds = number("seconds", if smoke { 1.0 } else { spec.run_seconds })?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds}: out of range"));
    }
    match opts.get("workload") {
        Some(workload) => {
            let args = Args {
                workload: workload.clone(),
                seed,
                seconds,
                trace: number("trace", 0.0)? != 0.0,
                smoke,
            };
            run_one(&spec, &args)
        }
        None => run_all(&spec, seed, seconds, smoke),
    }
}

/// One set-up of a workload in this process, torn down again; prints the
/// seconds it took.
fn setup(argv: &[String]) -> Result<ExitCode, String> {
    let opts = options(argv, &[])?;
    let workload = opts.get("workload").ok_or("setup needs --workload")?;
    let seed = seed_option(&opts)?;
    let seconds = match workload.as_str() {
        "tables" => tables::setup_once(),
        "pool_dags" => pool::setup_once(),
        name => match serve::workload(name) {
            Some(served) => serve::setup_once(&served, seed),
            None => Err(format!("unknown workload {name}")),
        },
    }?;
    println!("{seconds:.9}");
    Ok(ExitCode::SUCCESS)
}

fn run_one(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let outcome = match args.workload.as_str() {
        "tables" => tables::run(args),
        "pool_dags" => pool::run(args),
        name => match serve::workload(name) {
            Some(served) => serve::run(&served, args),
            None => Err(format!(
                "unknown workload {name} (know {:?})",
                spec.all_workloads().collect::<Vec<_>>()
            )),
        },
    }?;
    if outcome.attempted == 0 {
        return Err(format!("{}: nothing was attempted", args.workload));
    }
    for e in &outcome.errors {
        eprintln!("wsf-benchmark: {}: {e}", args.workload);
    }

    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    for Metric { name, unit, .. } in declared {
        let value = match outcome.metrics.get(name) {
            Some(&v) if v.is_finite() => v,
            Some(v) => return Err(format!("{name} measured {v}")),
            None if args.trace => 0.0, // the layer is not on this workload's path
            None => return Err(format!("{name} was not measured")),
        };
        metrics.push((
            name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(unit.as_str())),
            ]),
        ));
    }
    let measured: Vec<Json> = outcome.metrics.keys().map(Json::str).collect();
    let discarded = Json::Num(outcome.discarded_windows as f64);
    let info = Json::obj(
        [
            ("measured".to_owned(), Json::Arr(measured)),
            ("discarded_windows".to_owned(), discarded),
        ]
        .into_iter()
        .chain(outcome.info),
    );
    println!("{}", Json::obj([("info", info)]).encode());
    // A refused (shed) request is a failed operation, not a wrong output.
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .encode()
    );
    Ok(ExitCode::SUCCESS)
}

/// Every workload, tracing off then on, each in a fresh child process.
fn run_all(spec: &Spec, seed: u64, seconds: f64, smoke: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workloads = Vec::new();
    let mut measured = std::collections::BTreeSet::new();
    let (mut all_correct, mut failed) = (true, 0.0);
    for workload in spec.all_workloads() {
        let mut merged: Vec<(String, Json)> = Vec::new();
        let mut metrics: Vec<(String, Json)> = Vec::new();
        for trace in ["0", "1"] {
            eprintln!("wsf-benchmark: {workload} --trace {trace}");
            let output = Command::new(&exe)
                .args(["run", "--workload", workload, "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(smoke.then_some("--smoke"))
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("re-executing {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!("{workload} --trace {trace}: {}", output.status));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines().rev();
            let result = Json::parse(lines.next().unwrap_or(""))?;
            let info = Json::parse(lines.next().unwrap_or("{}"))?;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            let names = info.get("info").and_then(|i| i.get("measured"));
            for name in names.and_then(Json::as_arr).unwrap_or(&[]) {
                measured.extend(name.as_str().map(str::to_owned));
            }
            let key = if trace == "0" { "end_to_end" } else { "traced" };
            merged.push((
                key.to_owned(),
                Json::obj(
                    ["correct", "attempted", "failed"]
                        .map(|k| (k, result.get(k).cloned().unwrap_or(Json::Null)))
                        .into_iter()
                        .chain([("info", info.get("info").cloned().unwrap_or(Json::Null))]),
                ),
            ));
            metrics.extend(
                result
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .unwrap_or(&[])
                    .iter()
                    .cloned(),
            );
        }
        merged.push(("metrics".to_owned(), Json::Obj(metrics)));
        workloads.push((workload.to_owned(), Json::Obj(merged)));
    }

    if smoke {
        // Every declared metric is measured by some workload (not merely
        // defaulted to 0), and nothing failed.
        let missing: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .filter(|name| !measured.contains(*name))
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "declared in BENCHMARK.json but never measured: {missing:?}"
            ));
        }
        if !all_correct || failed > 0.0 {
            return Err(format!(
                "smoke run: {failed} failed operations, all correct: {all_correct}"
            ));
        }
    }

    let shell = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let meta = Json::obj([
        ("commit", Json::str(shell("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(shell("rustc", &["--version"]))),
        (
            "date",
            Json::str(shell("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("seed", Json::Num(seed as f64)),
        ("window_seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
    ]);
    println!(
        "{}",
        Json::obj([("meta", meta), ("workloads", Json::Obj(workloads))]).encode()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
