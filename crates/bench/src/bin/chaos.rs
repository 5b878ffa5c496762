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
//!
//! # Prove the shrink/repro pipeline end-to-end on an injected failure:
//! cargo run --release -p opr-bench --bin chaos -- --self-test
//!
//! # Service-layer smoke: seeded multi-epoch service specs judged by the
//! # ledger oracle suite, with a jobs-determinism cross-check per spec:
//! cargo run --release -p opr-bench --bin chaos -- --service --seed 42 --runs 20
//!
//! # Replay a service repro captured by a failing smoke:
//! cargo run --release -p opr-bench --bin chaos -- --service --repro service-repro.json
//! ```
//!
//! Exit status: 0 when the campaign (or replay, or self-test) passes,
//! 1 on failure, 2 on usage errors.

use opr_bench::Flags;
use opr_chaos::engine::{
    execute_schedule, judge_schedule, per_run_seed, run_campaign, BackendChoice, CampaignConfig,
};
use opr_chaos::explain::explain_repro;
use opr_chaos::fitness::{evaluate, FitnessKind};
use opr_chaos::generator::generate_schedule;
use opr_chaos::oracle::standard_suite;
use opr_chaos::repro::Repro;
use opr_chaos::schedule::{BudgetRegime, ChaosSchedule};
use opr_chaos::search::{random_search_on, render_search_json, repro_for, run_search_on};
use opr_chaos::shrink::shrink;
use opr_chaos::SearchConfig;
use opr_exec::RunPool;
use opr_obs::{render_jsonl, render_trace_json};
use opr_sim::RunMetrics;
use opr_types::math::mix64;

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seed S] [--runs K] [--budget in|at|over|mixed]\n\
         \x20            [--backend sim|pooled|both]\n\
         \x20            [--jobs N] [--repro-out <file>] [--events <file>]\n\
         \x20      chaos explain <file> [--events <file>] [--perfetto <file>]\n\
         \x20                                replay a repro with the recorder attached and\n\
         \x20                                print the per-process decision waterfall\n\
         \x20      chaos --repro <file>      replay a captured failure\n\
         \x20      chaos --self-test         inject a failure, shrink it, round-trip the repro\n\
         \x20      chaos --service [--seed S] [--runs K] [--repro-out <file>]\n\
         \x20                                service-layer smoke: seeded epoch-engine specs\n\
         \x20                                judged by the ledger oracles + jobs determinism\n\
         \x20      chaos --service --repro <file>  replay a captured service failure\n\
         \x20      chaos --search [--seed S] [--budget in|at|over]\n\
         \x20                     [--backend sim|pooled|both]\n\
         \x20                     [--jobs N] [--fitness margin|rounds|namespace|spread|drops]\n\
         \x20                     [--beam B] [--generations G] [--evals E] [--init I] [--top-k K]\n\
         \x20                     [--out-dir DIR] [--search-report <file>] [--baseline]\n\
         \x20                                guided adversary search: optimize attack schedules,\n\
         \x20                                emit the top-K as replayable repro files\n\
         \x20      chaos --search --service  hill-climb over service-spec seeds, judged by\n\
         \x20                                ledger-oracle shard-pressure margins"
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
    self_test: bool,
    service: bool,
    events_out: Option<String>,
    search: bool,
    fitness: FitnessKind,
    beam: usize,
    generations: usize,
    evals: usize,
    init: usize,
    top_k: usize,
    out_dir: String,
    search_report: Option<String>,
    baseline: bool,
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
        self_test: false,
        service: false,
        events_out: None,
        search: false,
        fitness: FitnessKind::Margin,
        beam: 4,
        generations: 6,
        evals: 96,
        init: 24,
        top_k: 3,
        out_dir: ".".to_string(),
        search_report: None,
        baseline: false,
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
            "--self-test" => args.self_test = true,
            "--service" => args.service = true,
            "--events" => args.events_out = Some(flags.value(&flag)),
            "--search" => args.search = true,
            "--fitness" => args.fitness = flags.label(&flag, FitnessKind::parse),
            "--beam" => args.beam = flags.value(&flag),
            "--generations" => args.generations = flags.value(&flag),
            "--evals" => args.evals = flags.value(&flag),
            "--init" => args.init = flags.value(&flag),
            "--top-k" => args.top_k = flags.value(&flag),
            "--out-dir" => args.out_dir = flags.value(&flag),
            "--search-report" => args.search_report = Some(flags.value(&flag)),
            "--baseline" => args.baseline = true,
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
    let mut args = parse_args(raw);
    if args.service {
        if args.repro_out == "chaos-repro.json" {
            args.repro_out = "service-repro.json".to_string();
        }
        let exit = match (&args.repro, args.search) {
            (Some(path), _) => service_replay(path),
            (None, true) => service_search(&args),
            (None, false) => service_smoke(&args),
        };
        std::process::exit(exit);
    }
    let oracles = standard_suite();
    let exit = if let Some(path) = &args.repro {
        replay(path, &oracles)
    } else if args.search {
        search_cmd(&args)
    } else if args.self_test {
        self_test(&args, &oracles)
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

/// The reference-backend metrics of one (contained) execution of
/// `schedule`, for embedding into a written repro file. Panicking
/// schedules yield `None` — the repro still round-trips.
fn capture_metrics(schedule: &ChaosSchedule, backend: BackendChoice) -> Option<RunMetrics> {
    execute_schedule(schedule, backend)
        .ok()
        .map(|run| run.reference.metrics)
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
    let digest = failure.verdict.digest();
    let backend = args.backend;
    let result = shrink(&failure.schedule, |candidate| {
        let verdict = judge_schedule(candidate, backend, oracles);
        verdict.is_failure(failure.budget) && digests_overlap(&verdict.digest(), &digest)
    });
    eprintln!(
        "chaos: shrunk {} → {} events in {} attempts",
        result.original_events, result.events, result.attempts
    );
    let metrics = capture_metrics(&result.schedule, args.backend);
    let repro = Repro {
        campaign_seed: args.seed,
        run_index: failure.index,
        budget: failure.budget,
        backend: args.backend,
        digest,
        schedule: result.schedule,
        metrics,
        fitness: None,
    };
    match std::fs::write(&args.repro_out, repro.to_json()) {
        Ok(()) => eprintln!("chaos: wrote {}", args.repro_out),
        Err(e) => eprintln!("chaos: could not write {}: {e}", args.repro_out),
    }
    1
}

/// Two digests overlap when they share at least one violation kind — the
/// shrink predicate's notion of "the same failure".
fn digests_overlap(a: &str, b: &str) -> bool {
    a.split('+').any(|kind| b.split('+').any(|k| k == kind))
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
    // Search-found repros also record a fitness score; the replay must
    // reproduce it exactly (the regression contract of worst-*.json seeds).
    if let Some(record) = &repro.fitness {
        let (reference, _) = repro.backend.backends();
        match repro.schedule.run_observed(reference) {
            Ok(run) => {
                let got = evaluate(record.kind, &repro.schedule, &run, reference).0;
                if got != record.score {
                    eprintln!(
                        "chaos: recorded fitness {}={} but replay scored {got}",
                        record.kind, record.score
                    );
                    return 1;
                }
                eprintln!("chaos: fitness {}={} reproduced", record.kind, record.score);
            }
            Err(e) => {
                eprintln!("chaos: could not re-observe for fitness check: {e}");
                return 1;
            }
        }
    }
    eprintln!("chaos: recorded digest reproduced");
    0
}

/// Injects a real failure (an over-budget schedule judged under at-budget
/// rules), shrinks it, round-trips it through the repro format, and checks
/// the replay reproduces the digest — the full pipeline in one command.
fn self_test(args: &Args, oracles: &[Box<dyn opr_chaos::Oracle>]) -> i32 {
    let injected_budget = BudgetRegime::AtBudget;
    for index in 0..1000usize {
        let seed = per_run_seed(args.seed, index);
        let schedule = generate_schedule(seed, BudgetRegime::OverBudget);
        let verdict = judge_schedule(&schedule, args.backend, oracles);
        if !verdict.is_failure(injected_budget) {
            continue;
        }
        let digest = verdict.digest();
        eprintln!(
            "chaos: injected failure at seed {seed} [{digest}] — {}",
            schedule.describe()
        );
        let backend = args.backend;
        let result = shrink(&schedule, |candidate| {
            let v = judge_schedule(candidate, backend, oracles);
            v.is_failure(injected_budget) && digests_overlap(&v.digest(), &digest)
        });
        eprintln!(
            "chaos: shrunk {} → {} events in {} attempts — {}",
            result.original_events,
            result.events,
            result.attempts,
            result.schedule.describe()
        );
        let metrics = capture_metrics(&result.schedule, args.backend);
        let repro = Repro {
            campaign_seed: args.seed,
            run_index: index,
            budget: injected_budget,
            backend: args.backend,
            digest: digest.clone(),
            schedule: result.schedule,
            metrics,
            fitness: None,
        };
        let text = repro.to_json();
        let reread = match Repro::from_json(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("chaos: self-test round-trip failed: {e}");
                return 1;
            }
        };
        if reread != repro {
            eprintln!("chaos: self-test round-trip altered the repro");
            return 1;
        }
        let replayed = reread.replay(oracles).digest();
        if !digests_overlap(&replayed, &digest) {
            eprintln!("chaos: self-test replay digest '{replayed}' does not match '{digest}'");
            return 1;
        }
        if let Err(e) = std::fs::write(&args.repro_out, text) {
            eprintln!("chaos: could not write {}: {e}", args.repro_out);
        } else {
            eprintln!("chaos: self-test passed; repro at {}", args.repro_out);
        }
        return 0;
    }
    eprintln!("chaos: self-test could not provoke a failure in 1000 schedules");
    1
}

/// Guided adversary search over protocol schedule space: beam-search the
/// configured fitness signal, print per-generation progress, emit the
/// top-K finds as replayable repro files and (optionally) the report JSON.
/// Exit 1 when the search surfaces a genuine budget-respecting failure.
fn search_cmd(args: &Args) -> i32 {
    let config = SearchConfig {
        seed: args.seed,
        budget: args.budget.unwrap_or(BudgetRegime::AtBudget),
        backend: args.backend,
        fitness: args.fitness,
        beam: args.beam,
        generations: args.generations,
        evals: args.evals,
        init: args.init,
        top_k: args.top_k,
        jobs: args.jobs,
    };
    eprintln!(
        "chaos: search: seed={} budget={} backend={} fitness={} beam={} generations={} evals={} jobs={}",
        config.seed,
        config.budget,
        config.backend,
        config.fitness,
        config.beam,
        config.generations,
        config.evals,
        config.jobs
    );
    let pool = RunPool::new(args.jobs);
    let report = run_search_on(&pool, &config);
    for g in &report.outcome.generations {
        eprintln!(
            "chaos: gen {:>2}: best {:>12} after {:>4} evals ({} duplicates skipped)",
            g.generation, g.best, g.evaluated, g.deduped
        );
    }
    let random = if args.baseline {
        let baseline = random_search_on(&pool, &config);
        let best = baseline.best().map_or(i64::MIN, |s| s.fitness.0);
        let guided = report.best().map_or(i64::MIN, |s| s.fitness.0);
        eprintln!(
            "chaos: random baseline best {best} vs guided {guided} at {} evals",
            baseline.outcome.evaluated
        );
        if guided < best {
            eprintln!("chaos: guided search lost to random at equal budget — selection bug");
            return 1;
        }
        Some(baseline)
    } else {
        None
    };
    for (rank, scored) in report.outcome.top.iter().enumerate() {
        let repro = repro_for(&config, rank, scored);
        let path = format!("{}/chaos-search-top-{rank}.json", args.out_dir);
        match std::fs::write(&path, repro.to_json()) {
            Ok(()) => eprintln!(
                "chaos: wrote {path} (fitness {}, digest '{}')",
                scored.fitness.0, scored.digest
            ),
            Err(e) => {
                eprintln!("chaos: could not write {path}: {e}");
                return 1;
            }
        }
    }
    if let Some(path) = &args.search_report {
        let payload = render_search_json(&report, random.as_ref());
        match std::fs::write(path, payload) {
            Ok(()) => eprintln!("chaos: wrote {path}"),
            Err(e) => {
                eprintln!("chaos: could not write {path}: {e}");
                return 1;
            }
        }
    }
    eprintln!(
        "chaos: search done: {} evaluated, {} deduped, {:.1} evals/sec",
        report.outcome.evaluated,
        report.outcome.deduped,
        report.evals_per_sec()
    );
    if report.found_failure() {
        eprintln!("chaos: search surfaced a genuine failure — inspect the top repro files");
        return 1;
    }
    0
}

/// Draws a small legal service spec from a run seed: 1–4 shards, every
/// regime at `t = 1`, 0–1 Byzantine actors under a regime-legal adversary,
/// both backends, a tiny client universe (so clients wrap around and
/// produce duplicate-acquire/re-acquire traffic) and holds short enough to
/// recycle names within the schedule.
fn service_spec_for(seed: u64) -> opr_service::ServiceSpec {
    use opr_adversary::AdversarySpec;
    use opr_transport::BackendKind;
    use opr_types::{Regime, SystemConfig};
    let regime = Regime::ALL[(seed % 3) as usize];
    let n = 4 + ((seed >> 8) % 3) as usize; // 4..=6, legal for every regime at t = 1
    let byzantine = ((seed >> 16) % 2) as usize;
    let suite = AdversarySpec::suite(regime);
    let adversary = suite[((seed >> 24) as usize) % suite.len()];
    let backend = if (seed >> 32).is_multiple_of(2) {
        BackendKind::Sim
    } else {
        BackendKind::Pooled
    };
    let shards = 1 + (seed % 4) as usize;
    opr_service::ServiceSpec {
        service: opr_service::ServiceConfig {
            shards,
            epoch_cfg: SystemConfig::new(n, 1).expect("legal config"),
            regime,
            byzantine,
            adversary,
            backend,
            queue_capacity: 64,
            shard_span: 16,
            seed,
        },
        workload: opr_workload::ServiceWorkload {
            clients: 20,
            epochs: 10,
            arrivals_per_epoch: 2 * shards + 1,
            max_hold: 1 + ((seed >> 40) % 3),
            seed: seed ^ 0x0073_6d6f_6b65,
        },
        jobs: 1,
    }
}

/// splitmix64: the deterministic seed-mixing step the service search uses
/// to derive child seeds (no RNG dependency in the binary).
fn splitmix(x: u64) -> u64 {
    mix64(x.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// Guided search over service-spec seed space: hill-climb toward the spec
/// whose ledger comes closest to exhausting a shard namespace, judged by
/// [`opr_service::ledger_margin`]. A spec whose ledger *violates* an
/// oracle outranks every near-miss and fails the search (exit 1), with
/// the offending spec written as a replayable service repro.
fn service_search(args: &Args) -> i32 {
    use opr_service::{judge_ledger, ledger_margin, ServiceRepro};
    eprintln!(
        "chaos: service search: seed={} beam={} generations={} evals={}",
        args.seed, args.beam, args.generations, args.evals
    );
    // One scored candidate: (fitness, seed). Higher fitness = more
    // adversarial: oracle violations dominate, then lower shard margin.
    let evaluate_seed = |seed: u64| -> (i64, usize) {
        let spec = service_spec_for(seed);
        match spec.run() {
            Ok(report) => {
                let violations = judge_ledger(&spec.service, &report.ledger);
                if !violations.is_empty() {
                    return (i64::MAX, violations.len());
                }
                match ledger_margin(&spec.service, &report.ledger) {
                    Some(margin) => (-margin, 0),
                    None => (i64::MIN, 0),
                }
            }
            // A spec that refuses to run exercises nothing.
            Err(_) => (i64::MIN, 0),
        }
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut scored: Vec<(i64, usize, u64)> = Vec::new();
    let mut evaluated = 0usize;
    let mut admit = |seed: u64, scored: &mut Vec<(i64, usize, u64)>, evaluated: &mut usize| {
        if seen.insert(seed) && *evaluated < args.evals {
            *evaluated += 1;
            let (fitness, violations) = evaluate_seed(seed);
            scored.push((fitness, violations, seed));
        }
    };
    for index in 0..args.init.min(args.evals) {
        admit(per_run_seed(args.seed, index), &mut scored, &mut evaluated);
    }
    let rank = |scored: &mut Vec<(i64, usize, u64)>| {
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.2.cmp(&b.2)));
    };
    rank(&mut scored);
    for generation in 1..=args.generations {
        if evaluated >= args.evals || scored.is_empty() {
            break;
        }
        let beam: Vec<u64> = scored.iter().take(args.beam.max(1)).map(|s| s.2).collect();
        for (slot, parent) in beam.iter().cycle().take(args.beam.max(1) * 4).enumerate() {
            let child = splitmix(parent ^ splitmix((generation as u64) << 32 | slot as u64));
            admit(child, &mut scored, &mut evaluated);
        }
        rank(&mut scored);
        let best = scored.first().expect("non-empty");
        eprintln!(
            "chaos: service gen {generation:>2}: best fitness {} after {evaluated} evals",
            best.0
        );
    }
    scored.truncate(args.top_k.max(1));
    let mut violated = false;
    for (rank, (fitness, violations, seed)) in scored.iter().enumerate() {
        let spec = service_spec_for(*seed);
        let margin = *violations == 0 && *fitness > i64::MIN;
        eprintln!(
            "chaos: service top {rank}: seed {seed}, {}",
            if *violations > 0 {
                violated = true;
                format!("{violations} ledger violation(s)")
            } else if margin {
                format!("shard margin {}", -fitness)
            } else {
                "no grants exercised".to_string()
            }
        );
        let repro = ServiceRepro {
            spec,
            campaign_seed: args.seed,
            run_index: rank,
        };
        let path = format!("{}/service-search-top-{rank}.json", args.out_dir);
        match std::fs::write(&path, repro.to_json()) {
            Ok(()) => eprintln!("chaos: wrote {path}"),
            Err(e) => {
                eprintln!("chaos: could not write {path}: {e}");
                return 1;
            }
        }
    }
    if violated {
        eprintln!("chaos: service search surfaced ledger violations — inspect the repro files");
        return 1;
    }
    eprintln!("chaos: service search done: {evaluated} specs evaluated");
    0
}

/// The service-layer smoke: `--runs` seeded specs, each executed serially
/// and at 4 workers, judged by the ledger oracle suite, with the two
/// reports compared bit for bit. The first failure is captured as a
/// replayable `service-repro.json`.
fn service_smoke(args: &Args) -> i32 {
    use opr_service::{judge_ledger, ServiceRepro};
    eprintln!(
        "chaos: service smoke: seed={} runs={}",
        args.seed, args.runs
    );
    let started = std::time::Instant::now();
    let mut grants = 0u64;
    let mut recycled = 0u64;
    let fail = |spec: opr_service::ServiceSpec, index: usize, why: &str| -> i32 {
        eprintln!("chaos: service spec #{index} failed: {why}");
        let repro = ServiceRepro {
            spec,
            campaign_seed: args.seed,
            run_index: index,
        };
        match std::fs::write(&args.repro_out, repro.to_json()) {
            Ok(()) => eprintln!("chaos: wrote {}", args.repro_out),
            Err(e) => eprintln!("chaos: could not write {}: {e}", args.repro_out),
        }
        1
    };
    for index in 0..args.runs {
        let spec = service_spec_for(per_run_seed(args.seed, index));
        let serial = match spec.run() {
            Ok(report) => report,
            Err(e) => return fail(spec, index, &format!("run error: {e}")),
        };
        let violations = judge_ledger(&spec.service, &serial.ledger);
        if !violations.is_empty() {
            let (oracle, first) = &violations[0];
            return fail(
                spec,
                index,
                &format!(
                    "{} violation(s), first [{oracle}] {first}",
                    violations.len()
                ),
            );
        }
        let parallel_spec = opr_service::ServiceSpec { jobs: 4, ..spec };
        match parallel_spec.run() {
            Ok(report) if report == serial => {}
            Ok(_) => return fail(parallel_spec, index, "jobs=4 report diverged from serial"),
            Err(e) => return fail(parallel_spec, index, &format!("jobs=4 run error: {e}")),
        }
        grants += serial.grants;
        recycled += serial.recycled;
    }
    eprintln!(
        "chaos: service smoke passed: {} specs, {grants} grants ({recycled} recycled) in {:.1}s",
        args.runs,
        started.elapsed().as_secs_f64()
    );
    0
}

/// Replays a captured service repro: re-runs the spec and re-judges the
/// ledger. Exit 0 when the behaviour reproduces deterministically.
fn service_replay(path: &str) -> i32 {
    use opr_service::ServiceRepro;
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("chaos: cannot read {path}: {e}");
            return 2;
        }
    };
    let repro = match ServiceRepro::from_json(&text) {
        Ok(repro) => repro,
        Err(e) => {
            eprintln!("chaos: {e}");
            return 2;
        }
    };
    eprintln!(
        "chaos: replaying service spec (campaign seed {}, run #{})",
        repro.campaign_seed, repro.run_index
    );
    match repro.replay() {
        Ok((report, violations)) => {
            eprintln!(
                "chaos: service replay: {} grants, {} recycled, {} violation(s)",
                report.grants,
                report.recycled,
                violations.len()
            );
            for (oracle, violation) in violations.iter().take(10) {
                eprintln!("chaos: service replay: [{oracle}] {violation}");
            }
            0
        }
        Err(e) => {
            eprintln!("chaos: service replay failed to run: {e}");
            1
        }
    }
}
