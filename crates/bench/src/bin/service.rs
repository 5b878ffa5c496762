//! Renaming-as-a-service driver: soak gate and service-level Perfetto
//! traces for the multi-tenant epoch engine.
//!
//! ```text
//! # Quickstart: a small seeded service run with an oracle verdict:
//! cargo run --release -p opr-bench --bin service
//!
//! # The CI soak gate: ≥1000 epochs across 4 shards with recycling,
//! # oracle-clean and bit-identical across --jobs {1,4}:
//! cargo run --release -p opr-bench --bin service -- --soak --epochs 1000
//!
//! # Service-level wall-clock spans (admission / per-shard protocol /
//! # grant publication per epoch) as Chrome trace-event JSON for Perfetto:
//! cargo run --release -p opr-bench --bin service -- --perfetto service-trace.json
//!
//! # Replay a service repro captured by a failing soak:
//! cargo run --release -p opr-bench --bin service -- --repro service-repro.json
//!
//! # Prometheus exposition of the run's metrics (wall + deterministic):
//! cargo run --release -p opr-bench --bin service -- --metrics out.prom
//!
//! # Live ANSI dashboard on stderr every few epochs:
//! cargo run --release -p opr-bench --bin service -- --watch
//! ```
//!
//! Every judged run carries a flight recorder: the last `--flight K`
//! (default 32) epoch summaries are dumped to stderr on any oracle
//! violation or failed run, so the run-up to a failure is visible without
//! re-running under instrumentation.
//!
//! Exit status: 0 on pass, 1 on gate failure, 2 on usage errors or a
//! refused repro file; `--repro` exits 0 when the failure reproduces and 1
//! when it does not, as `chaos --repro` does.

use opr_adversary::AdversarySpec;
use opr_bench::Flags;
use opr_metrics::{render_prometheus, shared_flight_recorder, MetricsRegistry};
use opr_obs::{render_trace_json, shared_span_log, RunLog};
use opr_service::{
    judge_ledger, ServiceConfig, ServiceObs, ServiceReport, ServiceRepro, ServiceSpec,
};
use opr_transport::BackendKind;
use opr_types::{Regime, SystemConfig};
use opr_workload::ServiceWorkload;
use std::time::Instant;

/// Dashboard refresh period for `--watch`, in epochs.
const WATCH_EVERY: u64 = 5;

fn usage() -> ! {
    eprintln!(
        "usage: service [--seed S] [--epochs E] [--shards K]\n\
         \x20       service --soak [--seed S] [--epochs E] [--shards K] [--repro-out <file>]\n\
         \x20                                 oracle + determinism gate across jobs {{1,4}}\n\
         \x20                                 (exit 1 on failure)\n\
         \x20       service --perfetto <file> export service-level spans as a Perfetto trace\n\
         \x20       service --repro <file>    replay a captured service failure: exit 0 if it\n\
         \x20                                 reproduces, 1 if the replay is clean\n\
         \x20       service --metrics <file>  write a Prometheus exposition of the run's metrics\n\
         \x20       service --watch           print the ANSI metrics dashboard every few epochs\n\
         \x20       service --flight <K>      flight-recorder ring size (default 32)"
    );
    std::process::exit(2);
}

struct Args {
    seed: u64,
    epochs: u64,
    shards: usize,
    soak: bool,
    perfetto: Option<String>,
    repro: Option<String>,
    repro_out: String,
    metrics: Option<String>,
    watch: bool,
    flight: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 0x5eed,
        epochs: 1000,
        shards: 4,
        soak: false,
        perfetto: None,
        repro: None,
        repro_out: "service-repro.json".to_string(),
        metrics: None,
        watch: false,
        flight: 32,
    };
    let mut flags = Flags::from_env(usage);
    while let Some(flag) = flags.next_arg() {
        match flag.as_str() {
            "--seed" => args.seed = flags.value(&flag),
            "--epochs" => args.epochs = flags.value(&flag),
            "--shards" => args.shards = flags.value(&flag),
            "--soak" => args.soak = true,
            "--perfetto" => args.perfetto = Some(flags.value(&flag)),
            "--repro" => args.repro = Some(flags.value(&flag)),
            "--repro-out" => args.repro_out = flags.value(&flag),
            "--metrics" => args.metrics = Some(flags.value(&flag)),
            "--watch" => args.watch = true,
            "--flight" => args.flight = flags.value(&flag),
            _ => flags.unknown(&flag),
        }
    }
    // Every non-replay mode runs the soak spec these flags shape: refuse one
    // the engine could never run before any run, dump or repro file.
    if args.repro.is_none() {
        let spec = soak_spec(args.seed, args.epochs, args.shards, 1);
        if let Err(e) = spec.service.validate() {
            eprintln!("service: {e}");
            std::process::exit(2);
        }
    }
    args
}

/// The canonical soak/demo spec: `(N, t) = (7, 2)` log-time instances with
/// 2 silent Byzantine actors, an open-loop workload over a 4000-client
/// universe with 1–3-epoch holds, shards and epochs from the flags.
fn soak_spec(seed: u64, epochs: u64, shards: usize, jobs: usize) -> ServiceSpec {
    ServiceSpec {
        service: ServiceConfig {
            shards,
            epoch_cfg: SystemConfig::new(7, 2).expect("legal config"),
            regime: Regime::LogTime,
            byzantine: 2,
            adversary: AdversarySpec::Silent,
            backend: BackendKind::Sim,
            queue_capacity: 64,
            shard_span: 64,
            seed,
        },
        workload: ServiceWorkload {
            clients: 4000,
            epochs,
            arrivals_per_epoch: 4 * shards.max(1),
            max_hold: 3,
            seed: seed ^ 0x776f_726b,
        },
        jobs,
    }
}

fn summarize(label: &str, report: &ServiceReport) {
    let a = report.admission;
    eprintln!(
        "service: {label}: {} epochs, {} grants, {} releases, {} recycled, backlog-rejects {} \
         (duplicates {}, id-overflows {}, unknown-releases {}, cancelled-pending {})",
        report.epochs,
        report.grants,
        report.releases,
        report.recycled,
        a.rejected_queue_full,
        a.rejected_duplicate,
        a.rejected_id_overflow,
        a.rejected_unknown_release,
        a.cancelled_pending,
    );
}

fn write_repro(spec: &ServiceSpec, args: &Args) {
    let repro = ServiceRepro {
        spec: *spec,
        campaign_seed: args.seed,
        run_index: 0,
    };
    match std::fs::write(&args.repro_out, repro.to_json()) {
        Ok(()) => eprintln!("service: wrote {}", args.repro_out),
        Err(e) => eprintln!("service: could not write {}: {e}", args.repro_out),
    }
}

/// Runs one spec and judges its ledger; on violations, prints them, dumps
/// the flight recorder and writes a repro. Returns the report on success.
/// When `registry` is given the engine runs fully instrumented (and
/// `--watch` prints the dashboard as epochs pass).
fn run_judged(
    spec: &ServiceSpec,
    label: &str,
    args: &Args,
    registry: Option<&MetricsRegistry>,
) -> Result<ServiceReport, ()> {
    let flight = shared_flight_recorder(args.flight);
    let obs = ServiceObs {
        spans: None,
        metrics: registry.cloned(),
        flight: Some(flight.clone()),
        watch_every: (args.watch && registry.is_some()).then_some(WATCH_EVERY),
    };
    let report = match spec.run_observed(&obs) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("service: {label}: run failed: {e}");
            eprint!(
                "{}",
                flight.lock().expect("flight poisoned").render("run failed")
            );
            write_repro(spec, args);
            return Err(());
        }
    };
    let violations = judge_ledger(&spec.service, &report.ledger);
    if !violations.is_empty() {
        for (oracle, violation) in violations.iter().take(10) {
            eprintln!("service: {label}: [{oracle}] {violation}");
        }
        eprintln!(
            "service: {label}: {} oracle violation(s); writing repro",
            violations.len()
        );
        eprint!(
            "{}",
            flight
                .lock()
                .expect("flight poisoned")
                .render("oracle violation")
        );
        write_repro(spec, args);
        return Err(());
    }
    Ok(report)
}

/// Builds the registry when `--metrics` or `--watch` asked for one.
fn metrics_registry(args: &Args) -> Option<MetricsRegistry> {
    (args.metrics.is_some() || args.watch).then(MetricsRegistry::new)
}

/// Overlays the deterministic plane of `report` under the live registry's
/// snapshot (no double counting of names the engine tracked live) and
/// writes the merged Prometheus exposition to `--metrics <path>` if given.
fn write_metrics(args: &Args, registry: &MetricsRegistry, report: &ServiceReport) -> i32 {
    let Some(path) = &args.metrics else {
        return 0;
    };
    let mut snap = registry.snapshot();
    snap.merge_missing(&report.metrics_snapshot());
    let text = render_prometheus(&snap);
    match std::fs::write(path, &text) {
        Ok(()) => {
            eprintln!("service: wrote {path}");
            0
        }
        Err(e) => {
            eprintln!("service: could not write {path}: {e}");
            1
        }
    }
}

/// The soak gate: the reference run (serial) must be oracle-clean and
/// actually recycle names, and the same spec at jobs 4 must reproduce it
/// bit for bit.
fn soak(args: &Args) -> i32 {
    let reference_spec = soak_spec(args.seed, args.epochs, args.shards, 1);
    eprintln!(
        "service: soak: {} epochs x {} shards, seed {}",
        args.epochs, args.shards, args.seed
    );
    let start = Instant::now();
    let registry = metrics_registry(args);
    let Ok(reference) = run_judged(&reference_spec, "jobs1", args, registry.as_ref()) else {
        return 1;
    };
    summarize("jobs1", &reference);
    if let Some(registry) = &registry {
        if write_metrics(args, registry, &reference) != 0 {
            return 1;
        }
    }
    if reference.recycled == 0 {
        eprintln!("service: soak: no name was ever recycled — the gate is vacuous");
        write_repro(&reference_spec, args);
        return 1;
    }
    let spec = soak_spec(args.seed, args.epochs, args.shards, 4);
    let Ok(report) = run_judged(&spec, "jobs4", args, None) else {
        return 1;
    };
    if report != reference {
        eprintln!("service: soak: jobs4 diverged from the jobs1 reference");
        write_repro(&spec, args);
        return 1;
    }
    eprintln!(
        "service: soak passed in {:.1}s (jobs 1 and 4 bit-identical, oracle-clean)",
        start.elapsed().as_secs_f64()
    );
    0
}

/// Runs a short service schedule with the span log attached and exports the
/// service-level timing (per-epoch admission / per-shard protocol / grant
/// publication spans) as Chrome trace-event JSON loadable in Perfetto.
fn perfetto(args: &Args, path: &str) -> i32 {
    let spec = soak_spec(args.seed, args.epochs.clamp(1, 8), args.shards, 2);
    let spans = shared_span_log();
    let obs = ServiceObs {
        spans: Some(spans.clone()),
        ..ServiceObs::default()
    };
    let report = match spec.run_observed(&obs) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("service: perfetto run failed: {e}");
            return 1;
        }
    };
    summarize("perfetto", &report);
    let spans = spans.lock().expect("span log poisoned").spans().to_vec();
    eprintln!("service: {} spans recorded", spans.len());
    // No protocol event stream here — the trace carries the wall lane only.
    let trace = render_trace_json(&RunLog::default(), Some(&spans));
    match std::fs::write(path, trace) {
        Ok(()) => {
            eprintln!("service: wrote {path}");
            0
        }
        Err(e) => {
            eprintln!("service: could not write {path}: {e}");
            1
        }
    }
}

fn replay(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("service: cannot read {path}: {e}");
            return 2;
        }
    };
    let repro = match ServiceRepro::from_json(&text) {
        Ok(repro) => repro,
        Err(e) => {
            eprintln!("service: {e}");
            return 2;
        }
    };
    let s = repro.spec.service;
    eprintln!(
        "service: replaying shards={} n={} t={} {} byz={} {} jobs={} \
         (campaign seed {}, run #{})",
        s.shards,
        s.epoch_cfg.n(),
        s.epoch_cfg.t(),
        s.regime.label(),
        s.byzantine,
        s.adversary.label(),
        repro.spec.jobs,
        repro.campaign_seed,
        repro.run_index,
    );
    let replay = match repro.replay() {
        Ok(replay) => replay,
        Err(e) => {
            eprintln!("service: failure reproduced: the replay failed to run: {e}");
            return 0;
        }
    };
    let report = &replay.report;
    eprintln!(
        "service: replay: {} grants, {} releases, {} recycled, {} violation(s)",
        report.grants,
        report.releases,
        report.recycled,
        replay.violations.len()
    );
    for (oracle, violation) in replay.violations.iter().take(10) {
        eprintln!("service: replay: [{oracle}] {violation}");
    }
    if replay.diverged {
        eprintln!("service: replay: report differs from the same spec at jobs=1");
    }
    if replay.violations.is_empty() && !replay.diverged {
        eprintln!("service: failure did NOT reproduce (replay clean)");
        return 1;
    }
    eprintln!("service: failure reproduced");
    0
}

/// The quickstart: one small seeded run, summarized and judged.
fn demo(args: &Args) -> i32 {
    let spec = soak_spec(args.seed, args.epochs.clamp(1, 50), args.shards, 2);
    let registry = metrics_registry(args);
    match run_judged(&spec, "demo", args, registry.as_ref()) {
        Ok(report) => {
            summarize("demo", &report);
            eprintln!("service: oracle-clean");
            if let Some(registry) = &registry {
                if write_metrics(args, registry, &report) != 0 {
                    return 1;
                }
            }
            0
        }
        Err(()) => 1,
    }
}

fn main() {
    let args = parse_args();
    let exit = if let Some(path) = &args.repro {
        replay(path)
    } else if args.soak {
        soak(&args)
    } else if let Some(path) = args.perfetto.clone() {
        perfetto(&args, &path)
    } else {
        demo(&args)
    };
    std::process::exit(exit);
}
