//! Gates for the telemetry layer's external artifacts.
//!
//! * The `chaos explain` waterfall for the committed repro file is pinned
//!   byte-for-byte against `tests/data/chaos-explain.golden` — the
//!   waterfall is a pure function of the repro, so any drift is either a
//!   deliberate renderer change (re-bless with `BLESS_EXPLAIN=1`) or a
//!   determinism regression.
//! * Both exporters must emit well-formed JSON: every JSONL line and the
//!   whole Perfetto trace-event document parse with the workspace's strict
//!   JSON reader.
//! * Wall-clock spans stay out of every deterministic artifact.

use opr::chaos::{explain_repro, render_waterfall, Repro};
use opr::obs::Json;
use opr::obs::{render_jsonl, render_trace_json, shared_span_log, RunLog};
use opr::transport::BackendKind;

const REPRO_PATH: &str = "tests/data/chaos-repro.json";
const GOLDEN_PATH: &str = "tests/data/chaos-explain.golden";

fn committed_repro() -> Repro {
    let text = std::fs::read_to_string(REPRO_PATH).expect("committed repro file");
    Repro::from_json(&text).expect("committed repro parses")
}

fn observed_log() -> RunLog {
    committed_repro()
        .schedule
        .run_observed(BackendKind::Sim)
        .expect("committed repro replays")
        .events
        .expect("recorder attached")
}

/// The decision waterfall for the committed repro, byte-for-byte.
/// Re-bless after a deliberate renderer change with
/// `BLESS_EXPLAIN=1 cargo test --test observability`.
#[test]
fn explain_waterfall_matches_the_committed_golden() {
    let explained = explain_repro(&committed_repro()).expect("committed repro replays");
    if std::env::var_os("BLESS_EXPLAIN").is_some() {
        std::fs::write(GOLDEN_PATH, &explained.text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file committed (bless with BLESS_EXPLAIN=1)");
    assert_eq!(
        explained.text, golden,
        "waterfall drifted from {GOLDEN_PATH}; re-bless with BLESS_EXPLAIN=1 if deliberate"
    );
}

/// The waterfall is a pure function of (repro, run): rendering twice from
/// independent replays is byte-identical, on either backend.
#[test]
fn explain_waterfall_is_replay_invariant() {
    let repro = committed_repro();
    let render = |backend: BackendKind| {
        let run = repro.schedule.run_observed(backend).unwrap();
        render_waterfall(&repro, &run)
    };
    // The header names the reference backend, so compare each backend's
    // rendering against itself across replays; the event sections must
    // also agree across backends (strip the 'replayed:' header line).
    assert_eq!(render(BackendKind::Sim), render(BackendKind::Sim));
    let body = |text: String| -> String {
        text.lines()
            .filter(|line| !line.starts_with("replayed: "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        body(render(BackendKind::Sim)),
        body(render(BackendKind::Pooled))
    );
}

/// Every JSONL line is a standalone JSON object with the envelope fields.
#[test]
fn jsonl_export_is_line_wise_valid_json() {
    let rendered = render_jsonl(&observed_log());
    assert!(!rendered.is_empty());
    assert!(rendered.ends_with('\n'));
    for line in rendered.lines() {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line}: {e}"));
        for key in ["step", "process", "pid", "seq"] {
            assert!(
                doc.get(key).and_then(Json::as_u64).is_some(),
                "missing {key} in {line}"
            );
        }
        assert!(doc.get("kind").and_then(Json::as_str).is_some(), "{line}");
    }
}

/// The Perfetto export is one valid JSON document in trace-event shape:
/// a `traceEvents` array whose entries carry `ph`/`pid`/`name`, protocol
/// instants on pid 1 and (when spans are supplied) wall spans on pid 2.
#[test]
fn perfetto_export_is_valid_trace_event_json() {
    let log = observed_log();
    let spans = shared_span_log();
    spans
        .lock()
        .unwrap()
        .record_since("round 1", std::time::Instant::now());
    let span_vec = spans.lock().unwrap().spans().to_vec();
    let rendered = render_trace_json(&log, Some(&span_vec));
    let doc = Json::parse(&rendered).unwrap_or_else(|e| panic!("bad trace JSON: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut protocol_instants = 0usize;
    let mut wall_spans = 0usize;
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("ph field");
        let pid = event.get("pid").and_then(Json::as_u64).expect("pid field");
        assert!(event.get("name").and_then(Json::as_str).is_some());
        match ph {
            "M" => assert_eq!(pid, 1, "metadata rides the protocol pid"),
            "i" => {
                assert_eq!(pid, 1, "protocol instants live on pid 1");
                protocol_instants += 1;
            }
            "X" => {
                assert_eq!(pid, 2, "wall spans live on pid 2");
                wall_spans += 1;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(protocol_instants, log.len());
    assert_eq!(wall_spans, 1);
}

/// The deterministic exports never contain wall-clock material: rendering
/// the same log twice (with a fresh replay in between) is byte-identical.
#[test]
fn deterministic_exports_are_stable_across_replays() {
    let first = observed_log();
    let second = observed_log();
    assert_eq!(render_jsonl(&first), render_jsonl(&second));
    assert_eq!(
        render_trace_json(&first, None),
        render_trace_json(&second, None)
    );
}

/// Every entry point honours every attachment: `.spans(log)` and
/// `.metrics(registry)` record one wall span and one `opr_round_ns` sample
/// per executed round on the plain `run()` path exactly as on
/// `run_diagnosed()`, in both runner arms (Alg1 and the 2-step algorithm)
/// and through `ChaosSchedule::to_run`, with the outcome untouched.
#[test]
fn plain_and_diagnosed_runs_record_the_same_round_spans() {
    use opr::prelude::*;
    let check = |what: &str, backend: BackendKind, build: &dyn Fn() -> RenamingRun| {
        let what = format!("{what} on {backend}");
        let attached = || {
            let (log, registry) = (shared_span_log(), MetricsRegistry::new());
            let run = build().spans(log.clone()).metrics(registry.clone());
            (run, log, registry)
        };
        let recorded = |log: &opr::obs::SharedSpanLog, registry: &MetricsRegistry| {
            let log = log.lock().unwrap();
            let spans = log.spans().iter().filter(|s| s.name == "round").count();
            let samples = registry
                .snapshot()
                .histogram(&format!("opr_round_ns{{backend=\"{backend}\"}}"))
                .map_or(0, |hist| hist.count);
            (spans, samples as usize)
        };
        let (run, log, registry) = attached();
        let plain = run.run().unwrap();
        let rounds = plain.stats.rounds as usize;
        assert_eq!(recorded(&log, &registry), (rounds, rounds), "{what}: run");
        let (run, log, registry) = attached();
        let diagnosed = run.run_diagnosed().unwrap();
        assert_eq!(plain.outcome, diagnosed.full_outcome, "{what}");
        assert_eq!(
            recorded(&log, &registry),
            (rounds, rounds),
            "{what}: run_diagnosed"
        );
    };
    // Both labels: the round clock is one site shared by the two backends.
    for backend in BackendKind::ALL {
        for (regime, cfg) in [
            (Regime::LogTime, SystemConfig::new(7, 2).unwrap()),
            (Regime::TwoStep, SystemConfig::new(11, 2).unwrap()),
        ] {
            let ids = IdDistribution::SparseRandom.generate(cfg.n() - 2, 5);
            check(&format!("{regime:?}"), backend, &|| {
                RenamingRun::builder(cfg, regime)
                    .correct_ids(ids.clone())
                    .adversary(AdversarySpec::Silent, 2)
                    .seed(5)
                    .backend(backend)
            });
        }
        let schedule = opr::chaos::generate_schedule(11, opr::chaos::BudgetRegime::InBudget);
        check("chaos schedule", backend, &|| {
            schedule.to_run(backend).expect("legal schedule")
        });
    }
}
