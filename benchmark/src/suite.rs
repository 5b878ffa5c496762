//! The one command: every workload, both passes, each pass in a process of
//! its own, every check, `result.json` — and `--quick` and `--compare`.

use crate::json::Json;
use crate::report::{parse_pass, ParsedPass};
use crate::spec::{Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Exit code for a usage or input-file error, as opposed to a failed check.
pub const EXIT_USAGE: u8 = 2;

pub struct SuiteOptions<'a> {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    /// Timed passes per workload; a metric's value is their median and all
    /// of them are kept, which is where `--compare` takes its spread from.
    pub sets: usize,
    pub out_dir: &'a Path,
}

/// Runs one pass of one workload in a child process of this executable,
/// echoing what it prints.
fn run_pass(workload: &str, traced: bool, opts: &SuiteOptions<'_>) -> Result<ParsedPass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(opts.out_dir)
        .stdout(Stdio::piped());
    if opts.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end; its stderr goes to ours.
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let pass = parse_pass(&stdout)?;
    if !output.status.success() && pass.correct {
        return Err(format!("the {workload} pass exited with {}", output.status));
    }
    Ok(pass)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("loadavg", Json::Str(loadavg)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "pool_workers",
            Json::obj(
                WORKLOADS
                    .iter()
                    .map(|w| (w.name, Json::Num(w.jobs() as f64))),
            ),
        ),
    ])
}

fn metric_value(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

/// `names` must be exactly the keys of `metrics`.
fn same_names(metrics: &Json, table: &[MetricSpec]) -> bool {
    metrics.as_object().is_some_and(|pairs| {
        pairs.len() == table.len() && table.iter().all(|m| metrics.get(m.name).is_some())
    })
}

/// Checks `BENCHMARK.json` (in the working directory, the repository root)
/// lists exactly the workloads and metrics this program reports.
///
/// # Errors
///
/// Returns the first name set that differs.
pub fn check_manifest(text: &str) -> Result<(), String> {
    let manifest = Json::parse(text)?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        manifest
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json lacks {key}"))?
            .iter()
            .map(|entry| {
                entry
                    .get("name")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("a {key} entry lacks its name"))
            })
            .collect()
    };
    let expect = |key: &str, ours: Vec<&str>| -> Result<(), String> {
        let theirs = names(key)?;
        if theirs == ours {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json {key} are {theirs:?}, the benchmark reports {ours:?}"
            ))
        }
    };
    expect("workloads", WORKLOADS.iter().map(|w| w.name).collect())?;
    expect("end_to_end", END_TO_END.iter().map(|m| m.name).collect())?;
    expect("per_layer", PER_LAYER.iter().map(|m| m.name).collect())?;
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for (entry, ours) in manifest
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .zip(table)
        {
            let unit = entry.get("unit").and_then(Json::as_str);
            let better = entry.get("better").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            let bound_ok = key == "per_layer" || bound == Some(ours.bound);
            if unit != Some(ours.unit) || better != Some(ours.better.label()) || !bound_ok {
                return Err(format!(
                    "BENCHMARK.json disagrees with the benchmark about {}",
                    ours.name
                ));
            }
        }
    }
    Ok(())
}

/// Runs the whole suite and writes `result.json`.
pub fn run_suite(opts: &SuiteOptions<'_>) -> ExitCode {
    let mut all_correct = true;
    let mut problems: Vec<String> = Vec::new();
    let mut workloads = Vec::new();
    for spec in &WORKLOADS {
        let mut timed: Vec<ParsedPass> = Vec::new();
        for _ in 0..opts.sets.max(1) {
            match run_pass(spec.name, false, opts) {
                Ok(pass) => timed.push(pass),
                Err(why) => problems.push(format!("{} timed pass: {why}", spec.name)),
            }
        }
        let traced = run_pass(spec.name, true, opts)
            .map_err(|why| problems.push(format!("{} traced pass: {why}", spec.name)))
            .ok();
        let (Some(first), Some(traced)) = (timed.first(), traced) else {
            continue;
        };

        let digest = |pass: &ParsedPass| pass.detail.get("digest").cloned();
        let digests_agree =
            timed.iter().all(|p| digest(p) == digest(first)) && digest(&traced) == digest(first);
        if !digests_agree {
            problems.push(format!(
                "{}: digest differs between the timed and the traced pass",
                spec.name
            ));
        }
        let correct = digests_agree && traced.correct && timed.iter().all(|p| p.correct);
        all_correct &= correct;
        if !timed.iter().all(|p| same_names(&p.metrics, &END_TO_END))
            || !same_names(&traced.metrics, &PER_LAYER)
        {
            problems.push(format!(
                "{}: metric names differ from the tables",
                spec.name
            ));
        }

        let end_to_end = END_TO_END.iter().map(|m| {
            let values: Vec<f64> = timed
                .iter()
                .filter_map(|p| metric_value(&p.metrics, m.name))
                .collect();
            let mut entry = vec![
                ("value", Json::Num(median(&values))),
                ("unit", Json::str(m.unit)),
                (
                    "values",
                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ];
            if let Some(spread) = quartile_spread(&values) {
                entry.push(("spread", Json::Num(spread)));
            }
            (m.name, Json::obj(entry))
        });
        let attempted: f64 = timed.iter().map(|p| p.attempted).sum();
        let failed: f64 = timed.iter().map(|p| p.failed).sum();
        workloads.push((
            spec.name,
            Json::obj([
                ("why", Json::str(spec.why)),
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_share", Json::Num(failed / attempted.max(1.0))),
                ("traced_attempted", Json::Num(traced.attempted)),
                ("traced_failed", Json::Num(traced.failed)),
                ("digest", digest(first).unwrap_or(Json::Null)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", traced.metrics.clone()),
                ("timed_detail", first.detail.clone()),
                ("traced_detail", traced.detail.clone()),
            ]),
        ));
    }

    if opts.quick {
        match std::fs::read_to_string("BENCHMARK.json") {
            Ok(text) => {
                if let Err(why) = check_manifest(&text) {
                    problems.push(why);
                }
            }
            Err(e) => problems.push(format!("cannot read BENCHMARK.json: {e}")),
        }
    }

    let result = Json::obj([
        ("schema", Json::Num(1.0)),
        // A quick run checks correctness and names only.
        ("valid_for_numbers", Json::Bool(!opts.quick)),
        ("seed", Json::Str(opts.seed.to_string())),
        ("seconds", Json::Num(opts.seconds as f64)),
        ("sets", Json::Num(opts.sets.max(1) as f64)),
        ("env", environment()),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = opts.out_dir.join("result.json");
    if let Err(e) = std::fs::create_dir_all(opts.out_dir)
        .and_then(|()| std::fs::write(&path, result.render_pretty()))
    {
        problems.push(format!("cannot write {}: {e}", path.display()));
    } else {
        println!("wrote {}", path.display());
    }
    if opts.quick {
        println!("--quick: correctness, digests and names only; the numbers above mean nothing");
    }
    for problem in &problems {
        eprintln!("FAILED: {problem}");
    }
    if all_correct && problems.is_empty() {
        println!("all checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load_result(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("workloads").is_none() {
        return Err(format!("{path} is not a result file"));
    }
    Ok(doc)
}

fn values_of(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `--compare a.json b.json`: `a` is the baseline, `b` the candidate. One
/// row per workload × end-to-end metric; exits non-zero on `regressed` and
/// when any exact count or digest differs.
pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load_result(a_path), load_result(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(why), _) | (_, Err(why)) => {
            eprintln!("{why}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    for (path, doc) in [(a_path, &a), (b_path, &b)] {
        if doc.get("valid_for_numbers").and_then(Json::as_bool) != Some(true) {
            eprintln!("{path} comes from a --quick run: never valid for numbers");
            return ExitCode::from(EXIT_USAGE);
        }
    }
    let same_seed = a.get("seed") == b.get("seed");
    if !same_seed {
        println!("seeds differ: exact counts and digests are not compared");
    }

    let mut failed = false;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "spread", "bound"
    );
    for spec in &WORKLOADS {
        for metric in &END_TO_END {
            let (Some(av), Some(bv)) = (
                values_of(&a, spec.name, metric.name),
                values_of(&b, spec.name, metric.name),
            ) else {
                println!("{:<18} {:<16} missing", spec.name, metric.name);
                failed = true;
                continue;
            };
            let (am, bm) = (median(&av), median(&bv));
            let worse = worsening(metric.better, am, bm);
            // Below four sets there are no quartiles: the verdict rests on
            // the medians alone and says so.
            let spread = match (quartile_spread(&av), quartile_spread(&bv)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let every_b_better = bv
                .iter()
                .all(|&y| av.iter().all(|&x| worsening(metric.better, x, y) < 0.0));
            let verdict = if spread.is_some_and(|s| s > metric.bound) && !every_b_better {
                "unresolved"
            } else if worse > metric.bound {
                failed = true;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{:<18} {:<16} {:>14.6} {:>14.6} {:>+7.2}% {:>8} {:>5.1}%  {verdict}",
                spec.name,
                metric.name,
                am,
                bm,
                worse * 100.0,
                spread.map_or("n/a".to_owned(), |s| format!("{:.2}%", s * 100.0)),
                metric.bound * 100.0,
            );
        }
        let field = |doc: &Json, key: &str| {
            doc.get("workloads")
                .and_then(|w| w.get(spec.name))
                .and_then(|w| w.get(key))
                .cloned()
        };
        for (path, doc) in [(a_path, &a), (b_path, &b)] {
            if field(doc, "correct") != Some(Json::Bool(true)) {
                println!("{:<18} failed its checks in {path}", spec.name);
                failed = true;
            }
        }
        if !same_seed {
            continue;
        }
        if field(&a, "digest") != field(&b, "digest") {
            println!("{:<18} digest differs", spec.name);
            failed = true;
        }
        for metric in PER_LAYER.iter().filter(|m| m.exact) {
            let value = |doc: &Json| {
                field(doc, "per_layer").and_then(|layers| metric_value(&layers, metric.name))
            };
            if value(&a) != value(&b) {
                println!(
                    "{:<18} {:<32} exact count differs: {:?} vs {:?}",
                    spec.name,
                    metric.name,
                    value(&a),
                    value(&b)
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
