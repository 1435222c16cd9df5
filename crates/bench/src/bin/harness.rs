//! The experiment harness: regenerates every table of
//! `docs/EXPERIMENTS.md`.
//!
//! ```text
//! harness [--quick] [--threads N] [--schedulers S1,S2,...]
//!         [--patience P1,P2,...] [all|e1|e2|...|e21]...
//! ```
//!
//! With no experiment ids, all experiments run. `--quick` uses the reduced
//! parameter sweeps (the sizes the test-suite uses); the default is the
//! full sweep reported in `docs/EXPERIMENTS.md`. `--threads N` shards the
//! sweeps across N worker threads (default: the machine's available
//! parallelism); the tables are byte-identical at every thread count.
//! `--schedulers` narrows the E19 tournament to an explicit policy list
//! (`PolicySpec` syntax: `ws-half`, `loaded+half+p16`, `random@7+cache`,
//! …); `--patience` instead re-enumerates the full grid over a
//! caller-chosen patience axis. The two compose last-one-wins, and any set
//! narrower than the default 80-point grid is flagged with a truncation
//! note. Any other `--flag`, and any id the registry does not list, is
//! rejected before anything runs (exit status 2).
//!
//! The tables are counts, not timings: speed numbers come from the
//! standalone `benchmark/` crate (`BENCHMARK.json`), never from here.

use wsf_analysis::{
    experiments, policy_space, policy_space_with, registry, set_threads, PolicySpec, Scale,
};

const USAGE: &str = "usage: harness [--quick] [--threads N] [--schedulers S1,S2,...] \
                     [--patience P1,P2,...] [all|e1|e2|...|e21]...";

/// What the command line asked for.
#[derive(Debug, PartialEq)]
struct Options {
    scale: Scale,
    threads: Option<usize>,
    /// The E19 policy set, when `--schedulers`/`--patience` chose one.
    specs: Option<Vec<PolicySpec>>,
    /// Lower-cased experiment ids; empty means all.
    wanted: Vec<String>,
}

/// Parses the `--patience` axis: a non-empty comma-separated `u32` list.
fn parse_patience(s: &str) -> Result<Vec<u32>, String> {
    s.split(',')
        .map(|tok| {
            let tok = tok.trim();
            tok.parse::<u32>()
                .map_err(|e| format!("bad patience {tok:?}: {e}"))
        })
        .collect()
}

/// Parses the arguments after the program name. Valued flags take the
/// next argument (last occurrence wins); an unknown flag is an error
/// rather than something to skip — its value would otherwise be taken for
/// an experiment id.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        scale: Scale::Full,
        threads: None,
        specs: None,
        wanted: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" | "-q" => options.scale = Scale::Quick,
            "--threads" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => options.threads = Some(n),
                _ => return Err("--threads requires a positive integer".into()),
            },
            "--schedulers" => {
                let list = iter.next().ok_or(
                    "--schedulers requires a comma-separated policy list, e.g. \
                     ws-random,ws-half,loaded+half+p16",
                )?;
                options.specs = Some(PolicySpec::parse_list(list)?);
            }
            "--patience" => {
                let axis = iter
                    .next()
                    .ok_or("--patience requires a comma-separated list, e.g. 0,1,4,16")?;
                let axis = parse_patience(axis).map_err(|e| format!("--patience: {e}"))?;
                options.specs = Some(policy_space_with(&axis));
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            id => options.wanted.push(id.to_lowercase()),
        }
    }
    Ok(options)
}

/// The wanted ids the registry does not list (`all` aside). Checked before
/// anything runs: a typo must fail the command line, not quietly drop an
/// experiment from it.
fn unknown_ids(wanted: &[String]) -> Vec<&str> {
    let known = registry();
    wanted
        .iter()
        .map(String::as_str)
        .filter(|w| *w != "all" && !known.iter().any(|(id, _, _)| id == w))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        scale,
        threads,
        specs,
        wanted,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let unknown = unknown_ids(&wanted);
    if !unknown.is_empty() {
        eprintln!("unknown experiment id(s) {unknown:?}; known ids:");
        for (id, description, _) in registry() {
            eprintln!("  {id:4} {description}");
        }
        std::process::exit(2);
    }
    if let Some(n) = threads {
        set_threads(n);
    }
    let run_all = wanted.is_empty() || wanted.iter().any(|w| w == "all");

    println!("# Well-Structured Futures and Cache Locality — experiment harness");
    println!(
        "# scale: {:?}; run `harness --quick` for the reduced sweeps\n",
        scale
    );
    if let Some(s) = specs.as_ref() {
        // A set narrower than the default grid cannot silently pose as
        // the full tournament.
        let default_points = policy_space().len();
        if s.len() < default_points {
            eprintln!(
                "note: policy set truncated to {} point(s) (default grid sweeps {}); \
                 the E19 tables are not the full tournament",
                s.len(),
                default_points
            );
        }
    }

    for (id, description, runner) in registry() {
        if !run_all && !wanted.iter().any(|w| w == id) {
            continue;
        }
        println!("## {} — {}\n", id.to_uppercase(), description);
        // The tournament takes the policy set as a parameter; every other
        // experiment ignores `--schedulers`/`--patience`.
        let tables = match (&specs, id) {
            (Some(s), "e19") => experiments::e19_scheduler_tournament_with_specs(scale, s),
            _ => runner(scale),
        };
        for table in tables {
            println!("{table}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_to_every_experiment_at_full_scale() {
        let options = parse(&[]).expect("no arguments is valid");
        assert_eq!(
            options,
            Options {
                scale: Scale::Full,
                threads: None,
                specs: None,
                wanted: vec![],
            }
        );
    }

    #[test]
    fn flags_and_ids_may_interleave() {
        let options = parse(&["E15", "--threads", "4", "-q", "e2"]).expect("valid");
        assert_eq!(options.scale, Scale::Quick);
        assert_eq!(options.threads, Some(4));
        assert_eq!(options.wanted, ["e15", "e2"]);
        assert_eq!(parse(&["--quick"]).expect("valid").scale, Scale::Quick);
    }

    #[test]
    fn policy_flags_compose_last_one_wins() {
        let listed = parse(&["--patience", "0,4", "--schedulers", "ws-random,ws-half"])
            .expect("valid")
            .specs
            .expect("a policy set");
        assert_eq!(listed, [PolicySpec::ws_random(), PolicySpec::ws_half()]);
        let axis = parse(&["--schedulers", "ws-half", "--patience", "0,4"])
            .expect("valid")
            .specs
            .expect("a policy set");
        assert_eq!(axis, policy_space_with(&[0, 4]));
    }

    #[test]
    fn unknown_flags_are_rejected_not_skipped() {
        // Before the fix `--thread 4` ran experiment "4" (nothing), and a
        // stale `--capacities 16,256` was silently ignored.
        for args in [
            &["--thread", "4"][..],
            &["--capacities", "16,256", "e15"],
            &["e1", "-x"],
        ] {
            let err = parse(args).expect_err("unknown flag");
            assert!(err.starts_with("unknown flag"), "{err}");
        }
    }

    #[test]
    fn unknown_ids_are_reported_before_anything_runs() {
        // Before the fix `e1 e99` ran e1 and exited 0: the only check was
        // "did anything run at all".
        let wanted = |args: &[&str]| parse(args).expect("valid").wanted;
        assert_eq!(unknown_ids(&wanted(&["e1", "e99"])), ["e99"]);
        assert_eq!(unknown_ids(&wanted(&["e01", "-q", "4"])), ["e01", "4"]);
        assert!(unknown_ids(&wanted(&["all", "E10", "e21"])).is_empty());
        assert!(unknown_ids(&wanted(&[])).is_empty());
    }

    #[test]
    fn valued_flags_need_well_formed_values() {
        for args in [
            &["--threads"][..],
            &["--threads", "0"],
            &["--threads", "many"],
            &["--schedulers"],
            &["--schedulers", "no-such-policy"],
            &["--patience"],
            &["--patience", "1,x"],
            &["--patience", ""],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
