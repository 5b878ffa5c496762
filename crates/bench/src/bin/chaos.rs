//! Chaos campaign driver: randomized fault-schedule exploration with
//! paper-invariant oracles, shrinking and replayable repro files.
//!
//! ```text
//! # A 500-run mixed-budget campaign on both backends, 4 executor workers:
//! cargo run --release -p opr-bench --bin chaos -- --seed 42 --runs 500 --budget mixed --backend both --jobs 4
//!
//! # Replay a repro file captured by a failing campaign:
//! cargo run --release -p opr-bench --bin chaos -- --repro chaos-repro.json
//!
//! # Replay a repro with the protocol recorder attached and print every
//! # process's decision waterfall (optionally exporting the event stream):
//! cargo run --release -p opr-bench --bin chaos -- explain chaos-repro.json \
//!     --events events.jsonl --perfetto trace.json
//! ```
//!
//! Service specs are driven by the `service` binary; the shrink→repro
//! pipeline on an injected failure is pinned by `tests/chaos_campaign.rs`.
//!
//! Exit status: 0 when the campaign passes or a replay reproduces its
//! failure, 1 otherwise, 2 on usage errors and refused repro files.

use opr_bench::Flags;
use opr_chaos::engine::{
    digests_overlap, per_run_seed, run_campaign, BackendChoice, CampaignConfig,
};
use opr_chaos::explain::explain_repro;
use opr_chaos::generator::generate_schedule;
use opr_chaos::oracle::standard_suite;
use opr_chaos::repro::Repro;
use opr_chaos::schedule::BudgetRegime;
use opr_obs::{render_jsonl, render_trace_json};

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seed S] [--runs K] [--budget in|at|over|mixed]\n\
         \x20            [--backend sim|pooled|both]\n\
         \x20            [--jobs N] [--repro-out <file>] [--events <file>]\n\
         \x20      chaos explain <file> [--events <file>] [--perfetto <file>]\n\
         \x20                                replay a repro with the recorder attached and\n\
         \x20                                print the per-process decision waterfall\n\
         \x20      chaos --repro <file>      replay a captured failure"
    );
    std::process::exit(2);
}

struct Args {
    seed: u64,
    runs: usize,
    budget: Option<BudgetRegime>,
    backend: BackendChoice,
    jobs: usize,
    repro: Option<String>,
    repro_out: String,
    events_out: Option<String>,
}

/// `chaos explain <file> [--events <file>] [--perfetto <file>]`.
struct ExplainArgs {
    repro: String,
    events_out: Option<String>,
    perfetto_out: Option<String>,
}

fn parse_explain_args(raw: Vec<String>) -> ExplainArgs {
    let mut args = ExplainArgs {
        repro: String::new(),
        events_out: None,
        perfetto_out: None,
    };
    let mut flags = Flags::new(raw, usage);
    while let Some(flag) = flags.next_arg() {
        match flag.as_str() {
            "--events" => args.events_out = Some(flags.value(&flag)),
            "--perfetto" => args.perfetto_out = Some(flags.value(&flag)),
            path if args.repro.is_empty() && !path.starts_with("--") => args.repro = flag,
            _ => flags.unknown(&flag),
        }
    }
    if args.repro.is_empty() {
        usage();
    }
    args
}

fn parse_args(raw: Vec<String>) -> Args {
    let mut args = Args {
        seed: 42,
        runs: 200,
        budget: None,
        backend: BackendChoice::Both,
        jobs: 1,
        repro: None,
        repro_out: "chaos-repro.json".to_string(),
        events_out: None,
    };
    let mut flags = Flags::new(raw, usage);
    while let Some(flag) = flags.next_arg() {
        match flag.as_str() {
            "--seed" => args.seed = flags.value(&flag),
            "--runs" => args.runs = flags.value(&flag),
            "--budget" => {
                args.budget = flags.label(&flag, |label| match label {
                    "mixed" => Some(None),
                    label => BudgetRegime::parse(label).map(Some),
                })
            }
            "--backend" => args.backend = flags.label(&flag, BackendChoice::parse),
            "--jobs" => args.jobs = flags.value(&flag),
            "--repro" => args.repro = Some(flags.value(&flag)),
            "--repro-out" => args.repro_out = flags.value(&flag),
            "--events" => args.events_out = Some(flags.value(&flag)),
            _ => flags.unknown(&flag),
        }
    }
    args
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("explain") {
        std::process::exit(explain(&parse_explain_args(raw.split_off(1))));
    }
    let args = parse_args(raw);
    let oracles = standard_suite();
    let exit = if let Some(path) = &args.repro {
        replay(path, &oracles)
    } else {
        campaign(&args, &oracles)
    };
    std::process::exit(exit);
}

/// Replays a repro file with the protocol recorder attached and prints the
/// per-process decision waterfall; optionally exports the event stream as
/// JSONL and/or Chrome trace-event JSON (loadable in Perfetto).
fn explain(args: &ExplainArgs) -> i32 {
    let text = match std::fs::read_to_string(&args.repro) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("chaos: cannot read {}: {e}", args.repro);
            return 2;
        }
    };
    let repro = match Repro::from_json(&text) {
        Ok(repro) => repro,
        Err(e) => {
            eprintln!("chaos: {e}");
            return 2;
        }
    };
    let explained = match explain_repro(&repro) {
        Ok(explained) => explained,
        Err(e) => {
            eprintln!("chaos: replay refused: {e}");
            return 1;
        }
    };
    print!("{}", explained.text);
    let log = match &explained.run.events {
        Some(log) => log,
        None => {
            eprintln!("chaos: replay produced no event log");
            return 1;
        }
    };
    for (path, payload) in [
        (
            &args.events_out,
            args.events_out.as_ref().map(|_| render_jsonl(log)),
        ),
        (
            &args.perfetto_out,
            args.perfetto_out
                .as_ref()
                .map(|_| render_trace_json(log, None)),
        ),
    ] {
        if let (Some(path), Some(payload)) = (path, payload) {
            match std::fs::write(path, payload) {
                Ok(()) => eprintln!("chaos: wrote {path}"),
                Err(e) => {
                    eprintln!("chaos: could not write {path}: {e}");
                    return 1;
                }
            }
        }
    }
    0
}

/// Re-runs campaign run #0's schedule with the recorder attached and writes
/// the merged protocol event stream as JSONL — the campaign's exported
/// telemetry artifact (CI uploads it from the smoke campaign).
fn write_campaign_events(args: &Args, path: &str) {
    let budget = args.budget.unwrap_or(BudgetRegime::ALL[0]);
    let schedule = generate_schedule(per_run_seed(args.seed, 0), budget);
    let (reference, _) = args.backend.backends();
    match schedule.run_observed(reference) {
        Ok(run) => match run.events {
            Some(log) => match std::fs::write(path, render_jsonl(&log)) {
                Ok(()) => eprintln!("chaos: wrote {path} ({} events)", log.len()),
                Err(e) => eprintln!("chaos: could not write {path}: {e}"),
            },
            None => eprintln!("chaos: run #0 produced no event log"),
        },
        Err(e) => eprintln!("chaos: could not observe run #0: {e}"),
    }
}

fn campaign(args: &Args, oracles: &[Box<dyn opr_chaos::Oracle>]) -> i32 {
    let config = CampaignConfig {
        seed: args.seed,
        runs: args.runs,
        budget: args.budget,
        backend: args.backend,
        jobs: args.jobs,
    };
    let budget_label = args.budget.map(|b| b.label()).unwrap_or("mixed");
    eprintln!(
        "chaos: seed={} runs={} budget={} backend={} jobs={}",
        args.seed, args.runs, budget_label, args.backend, args.jobs
    );
    let report = run_campaign(&config, oracles);
    eprintln!("chaos: {report}");
    if let Some(path) = &args.events_out {
        write_campaign_events(args, path);
    }
    if report.passed() {
        return 0;
    }
    // Shrink and persist the first failure.
    let failure = &report.failures[0];
    eprintln!(
        "chaos: run #{} failed [{}] — {}",
        failure.index,
        failure.verdict.digest(),
        failure.schedule.describe()
    );
    let (repro, result) = failure.shrink_to_repro(args.seed, args.backend, oracles);
    eprintln!(
        "chaos: shrunk {} → {} events in {} attempts",
        result.original_events, result.events, result.attempts
    );
    match std::fs::write(&args.repro_out, repro.to_json()) {
        Ok(()) => eprintln!("chaos: wrote {}", args.repro_out),
        Err(e) => eprintln!("chaos: could not write {}: {e}", args.repro_out),
    }
    1
}

fn replay(path: &str, oracles: &[Box<dyn opr_chaos::Oracle>]) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("chaos: cannot read {path}: {e}");
            return 2;
        }
    };
    let repro = match Repro::from_json(&text) {
        Ok(repro) => repro,
        Err(e) => {
            eprintln!("chaos: {e}");
            return 2;
        }
    };
    eprintln!(
        "chaos: replaying {} (campaign seed {}, run #{}, recorded digest '{}')",
        repro.schedule.describe(),
        repro.campaign_seed,
        repro.run_index,
        repro.digest
    );
    let verdict = repro.replay(oracles);
    let digest = verdict.digest();
    eprintln!("chaos: replay digest '{digest}'");
    if !digests_overlap(&digest, &repro.digest) {
        eprintln!("chaos: failure did NOT reproduce (fixed, or environment drift)");
        return 1;
    }
    eprintln!("chaos: recorded digest reproduced");
    0
}
