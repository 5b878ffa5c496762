//! The repo benchmark: four workloads (two service shapes, Algorithm 1 at
//! N = 64, the parallel service under attack), end-to-end metrics from an
//! untraced timed pass, per-layer metrics and a span trace from a traced
//! pass. See `README.md` beside this package for what is measured and why.
//!
//! The program under test is reached only through the public items of the
//! `opr-*` crates; nothing outside this directory knows the benchmark exists.

pub mod alloc;
pub mod json;
pub mod ops;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod timed;
pub mod trace;
pub mod traced;

use spec::{DEFAULT_SECONDS, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use suite::{SuiteOptions, EXIT_USAGE};

const USAGE: &str = "\
usage: run.sh [--seed S] [--seconds T] [--sets K]   every workload, both passes, result.json
       run.sh --quick [--seed S]                   one short block each: checks only, no numbers
       run.sh --compare a.json b.json              baseline a against candidate b
       run.sh --workload W --seed S --seconds T --trace 0|1   one pass of one workload
options: --out DIR   where result.json and trace-<workload>.json go (default benchmark/out)";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
    count_allocs: bool,
    sets: usize,
    compare: Option<(String, String)>,
    out_dir: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
        count_allocs: false,
        sets: 1,
        compare: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(flag, value()?)?,
            "--seconds" => args.seconds = number(flag, value()?)?,
            "--sets" => args.sets = number(flag, value()?)?,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--count-allocs" => args.count_allocs = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name:?}; known: {known:?}"));
        }
    }
    Ok(args)
}

/// Runs the sibling traced binary with this process's arguments, passing its
/// output and exit code through.
fn hand_over_to_traced_binary(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name(timed::TRACED_BIN),
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `status` waits for the child to end.
    match Command::new(&exe).args(raw).status() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cannot run {}: {e}", exe.display());
            ExitCode::FAILURE
        }
    }
}

/// The entry point of both binaries. `counting` says whether this binary
/// installed the counting allocator (the traced one) or not (the timed one).
pub fn main_with(counting: bool) -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if let Some((a, b)) = &args.compare {
        return suite::compare(a, b);
    }
    let Some(spec) = args.workload.as_deref().and_then(spec::workload) else {
        return suite::run_suite(&SuiteOptions {
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
            sets: args.sets,
            out_dir: &args.out_dir,
        });
    };
    // Passes that count allocations belong to the traced binary, the timed
    // pass to the one on the system allocator.
    let needs_counting = args.traced || args.count_allocs;
    if needs_counting && !counting {
        return hand_over_to_traced_binary(&raw);
    }
    if !needs_counting && counting {
        eprintln!("the timed pass runs on the system allocator: use the timed binary");
        return ExitCode::from(EXIT_USAGE);
    }
    let correct = if args.count_allocs {
        timed::count_allocs(spec, args.seed, args.quick).failed == 0
    } else {
        let pass = if args.traced {
            traced::traced_pass(spec, args.seed, args.quick, &args.out_dir)
        } else {
            timed::timed_pass(spec, args.seed, args.seconds as f64, args.quick)
        };
        pass.print();
        pass.correct
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "svc-n7-churn",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("svc-n7-churn"));
        assert_eq!((args.seed, args.seconds, args.traced), (7, 3, true));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }

    /// `BENCHMARK.json` and the tables in `spec.rs` name the same workloads
    /// and metrics, with the same units, directions and bounds.
    #[test]
    fn manifest_names_exactly_what_the_benchmark_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        suite::check_manifest(&text).unwrap();
        let allowed = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let mut names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(spec::END_TO_END.iter().map(|m| m.name));
        names.extend(spec::PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| allowed(n)), "{names:?}");
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used once");
    }
}
