//! `compare`: two sets of result files, one verdict per workload and
//! end-to-end metric, judged by the bounds in `BENCHMARK.json`.
//!
//! A set is one to three outputs of `run` (no `--workload`), compared by
//! median. Workloads that `BENCHMARK.json` does not list ([`UNGATED`]) get a
//! verdict too, marked as such, which never fails the comparison. Verdicts:
//!
//! * `ok` — the new median is not worse than the base's by more than the
//!   bound;
//! * `regressed` — it is (exit status 1);
//! * `unresolved` — a set's own spread, (max − min) / median, is wider than
//!   the bound, so the sets cannot tell a change that size from noise. The
//!   exception is full separation: when every new reading is better (or
//!   every one worse, past the bound) than every base reading, the verdict
//!   is `ok` (or `regressed`) whatever the spread.

use std::process::ExitCode;

use crate::json::Json;
use crate::options;
use crate::spec::{Metric, Spec, UNGATED};
use crate::stats::median;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// How much worse `new` is than `base`, as a share of `base` (negative when
/// it is better).
fn worsening(metric: &Metric, base: f64, new: f64) -> f64 {
    let delta = if metric.higher_is_better {
        base - new
    } else {
        new - base
    };
    delta / base.abs()
}

fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (hi - lo) / median(&mut values.to_vec()).abs()
}

pub fn judge(metric: &Metric, base: &[f64], new: &[f64]) -> (Verdict, f64, f64) {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    let worse = worsening(
        metric,
        median(&mut base.to_vec()),
        median(&mut new.to_vec()),
    );
    let noise = spread(base).max(spread(new));
    let every_pair = |f: &dyn Fn(f64) -> bool| {
        base.iter()
            .all(|&b| new.iter().all(|&n| f(worsening(metric, b, n))))
    };
    let verdict = if noise > bound {
        if every_pair(&|w| w < 0.0) {
            Verdict::Ok
        } else if every_pair(&|w| w > bound) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse, noise)
}

struct RunFile {
    nproc: f64,
    root: Json,
}

fn load(paths: &str) -> Result<Vec<RunFile>, String> {
    paths
        .split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            // `run` logs above its result; the result is the last line.
            let root = Json::parse(text.lines().last().unwrap_or(""))
                .map_err(|e| format!("{path}: {e}"))?;
            let nproc = root
                .get("meta")
                .and_then(|m| m.get("nproc"))
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: not an output of `run` (no meta.nproc)"))?;
            Ok(RunFile { nproc, root })
        })
        .collect()
}

/// The metric's reading in each file; `None` when a file lacks it or its
/// untraced run of the workload was not correct (wrong outputs, or an
/// invalid run: its numbers measured something else).
fn readings(files: &[RunFile], workload: &str, metric: &str) -> Option<Vec<f64>> {
    files
        .iter()
        .map(|f| {
            let run = f.root.get("workloads")?.get(workload)?;
            let correct = run.get("end_to_end")?.get("correct")?;
            (correct == &Json::Bool(true)).then_some(())?;
            run.get("metrics")?.get(metric)?.get("value")?.as_f64()
        })
        .collect()
}

pub fn main(argv: &[String]) -> Result<ExitCode, String> {
    let opts = options(argv, &[])?;
    let set = |key: &str| load(opts.get(key).ok_or(format!("compare needs --{key}"))?);
    let (base, new) = (set("base")?, set("new")?);
    // Thread counts, and with them every rate here, follow the core count.
    let nproc = base[0].nproc;
    if base.iter().chain(&new).any(|f| f.nproc != nproc) {
        return Err("refusing to compare runs made with different nproc".to_owned());
    }

    let spec = Spec::load();
    let mut regressed = false;
    println!(
        "{:<13} {:<17} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse", "bound", "spread"
    );
    for workload in spec.all_workloads() {
        // Reported all the same, but never the reason for a failing exit.
        let gated = !UNGATED.contains(&workload);
        for metric in &spec.end_to_end {
            let (Some(b), Some(n)) = (
                readings(&base, workload, &metric.name),
                readings(&new, workload, &metric.name),
            ) else {
                return Err(format!(
                    "{workload}/{}: missing from a result file, or its run was not correct",
                    metric.name
                ));
            };
            let (verdict, worse, noise) = judge(metric, &b, &n);
            regressed |= gated && verdict == Verdict::Regressed;
            println!(
                "{:<13} {:<17} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}{}",
                workload,
                metric.name,
                median(&mut b.clone()),
                median(&mut n.clone()),
                worse * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                noise * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                if gated { "" } else { " (ungated)" }
            );
        }
    }
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let lower = metric(false, 0.1);
        assert_eq!(judge(&lower, &[100.0], &[105.0]).0, Verdict::Ok);
        assert_eq!(judge(&lower, &[100.0], &[111.0]).0, Verdict::Regressed);
        assert_eq!(judge(&lower, &[100.0], &[50.0]).0, Verdict::Ok);
        let higher = metric(true, 0.05);
        assert_eq!(judge(&higher, &[100.0], &[96.0]).0, Verdict::Ok);
        assert_eq!(judge(&higher, &[100.0], &[94.0]).0, Verdict::Regressed);
        assert_eq!(judge(&higher, &[100.0], &[200.0]).0, Verdict::Ok);
    }

    #[test]
    fn sets_compare_by_median_and_wide_spread_is_unresolved() {
        let m = metric(false, 0.1);
        // Medians 100 vs 104, both sets tight: ok.
        assert_eq!(
            judge(&m, &[99.0, 100.0, 101.0], &[103.0, 104.0, 105.0]).0,
            Verdict::Ok
        );
        // Same medians, but the base wanders by 30 %: cannot tell.
        assert_eq!(
            judge(&m, &[85.0, 100.0, 115.0], &[103.0, 104.0, 105.0]).0,
            Verdict::Unresolved
        );
        // Wide spread, yet every new reading beats every base reading.
        assert_eq!(
            judge(&m, &[85.0, 100.0, 115.0], &[60.0, 70.0, 80.0]).0,
            Verdict::Ok
        );
        // Wide spread, and every new reading is past the bound.
        assert_eq!(
            judge(&m, &[85.0, 100.0, 115.0], &[140.0, 150.0, 160.0]).0,
            Verdict::Regressed
        );
    }
}
