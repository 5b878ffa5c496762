//! The traced pass: per-layer metrics, spans recorded in memory at every
//! boundary the benchmark crosses and written out when the pass ends.
//!
//! Runs in the traced binary (counting allocator). One untraced block gives
//! the exact counts, the digest and the op median tracing is compared with;
//! one traced block gives the spans — `op` → `service.submit` /
//! `service.run_epoch` → the program's own `epoch protocol` spans, adopted
//! from a `SharedSpanLog` attached through the public `with_spans` — and the
//! service-layer timings derived from them. A hand-driven Algorithm 1 run
//! adds `run` → `round` → `core.send` / `core.deliver`. Then the probes.

use crate::json::Json;
use crate::ops::{generate, run_block, undressed, Block, Inputs};
use crate::probes;
use crate::report::{digest_hex, Pass};
use crate::spec::{Shape, WorkloadSpec, RUN_N64_ALG1};
use crate::stats::{mean, median, quantile_sorted, sorted};
use crate::trace::{Off, SpanId, SpanRec, SpanRecorder};
use opr_exec::RunPool;
use opr_obs::{SharedSpanLog, SpanLog};
use opr_types::SystemConfig;
use opr_workload::IdDistribution;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Ops of the traced block written to the trace file; the metrics use all.
const TRACE_FILE_OPS: u32 = 64;

fn median_of(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Moves the program's `epoch protocol` spans onto the recorder's clock,
/// each under the `service.run_epoch` span of its epoch, and returns the
/// engine's self time per epoch in nanoseconds: `run_epoch` minus the part
/// of it the protocol instances cover.
fn adopt_protocol_spans(recorder: &mut SpanRecorder, log: &SpanLog) -> Vec<f64> {
    let run_epoch: BTreeMap<u32, SpanId> = recorder
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "service.run_epoch")
        .map(|(id, s)| (s.op, id as SpanId))
        .collect();
    // The log was created after the recorder, so the offset is not negative.
    let offset_ns = log
        .epoch()
        .saturating_duration_since(recorder.epoch())
        .as_nanos() as u64;
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in log.spans().iter().filter(|s| s.name == "epoch protocol") {
        let (Some(epoch), Some(shard)) = (span.index, span.detail) else {
            continue;
        };
        let op = epoch as u32;
        let Some(&parent) = run_epoch.get(&op) else {
            continue;
        };
        // The program's log keeps microseconds.
        let start_ns = offset_ns + span.start_micros * 1_000;
        let end_ns = start_ns + span.duration_micros * 1_000;
        children.entry(op).or_default().push((start_ns, end_ns));
        recorder.adopt(SpanRec {
            name: "epoch protocol",
            start_ns,
            end_ns,
            parent,
            op,
            lane: 2 + shard as u32,
        });
    }
    run_epoch
        .iter()
        .map(|(op, &id)| {
            let mut covered = children.remove(op).unwrap_or_default();
            recorder.self_time_ns(id, &mut covered) as f64
        })
        .collect()
}

/// The service-layer metrics of the workload itself; zero on a run workload,
/// whose path does not touch the service layer.
fn service_metrics(
    metrics: &mut Vec<(&'static str, f64)>,
    counted: &Block,
    traced: &Block,
    recorder: &SpanRecorder,
    engine_self_ns: &[f64],
) {
    let is_service = !engine_self_ns.is_empty();
    let submit_ns: f64 = recorder.durations_of("service.submit").iter().sum();
    let run_epoch_ms = sorted(
        &recorder
            .durations_of("service.run_epoch")
            .iter()
            .map(|ns| ns / 1e6)
            .collect::<Vec<_>>(),
    );
    let quantile = |p| {
        if is_service {
            quantile_sorted(&run_epoch_ms, p)
        } else {
            0.0
        }
    };
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let c = &counted.service;
    metrics.extend([
        (
            "service.submit.ns",
            per(submit_ns, traced.service.submits as f64),
        ),
        ("service.run_epoch.ms_p50", quantile(0.5)),
        ("service.run_epoch.ms_p99", quantile(0.99)),
        (
            "service.engine_self.us_per_epoch",
            if is_service {
                mean(engine_self_ns) / 1e3
            } else {
                0.0
            },
        ),
        (
            "service.engine_self.share",
            per(
                engine_self_ns.iter().sum::<f64>(),
                run_epoch_ms.iter().sum::<f64>() * 1e6,
            ),
        ),
        (
            "service.judge_ledger.us_per_kevent",
            per(counted.judge_ns as f64, counted.ledger_events as f64),
        ),
        ("service.grants", c.grants as f64),
        ("service.releases", c.releases as f64),
        ("service.recycled", c.recycled as f64),
        ("service.deferred", c.deferred as f64),
        ("service.rejected_queue_full", c.rejected_queue_full as f64),
        ("service.rejected_duplicate", c.rejected_duplicate as f64),
        ("service.protocol_runs", c.protocol_runs as f64),
        (
            "service.grant_ratio",
            per(c.grants as f64, c.accepted_acquires as f64),
        ),
    ]);
}

/// Runs the traced pass of `spec` and writes `trace-<workload>.json` into
/// `out_dir`.
pub fn traced_pass(spec: &'static WorkloadSpec, seed: u64, quick: bool, out_dir: &Path) -> Pass {
    let (block_ops, warmup_ops) = if quick {
        (spec.quick_ops, spec.quick_ops)
    } else {
        (spec.block_ops, spec.warmup_ops)
    };
    let inputs = generate(spec, seed, block_ops.max(warmup_ops));
    let pool = RunPool::new(spec.jobs());
    let warmup = run_block(&inputs, &pool, warmup_ops, &mut Off, &undressed);

    let counted = run_block(&inputs, &pool, block_ops, &mut Off, &undressed);

    // A service op records 3 spans of its own and one per protocol instance.
    let mut recorder = SpanRecorder::with_capacity(block_ops * 8 + 256);
    let log: SharedSpanLog = Arc::new(Mutex::new(SpanLog::with_capacity(block_ops * 8)));
    let traced = run_block(&inputs, &pool, block_ops, &mut recorder, &|engine| {
        engine.with_spans(log.clone())
    });
    let engine_self_ns = match inputs {
        Inputs::Service(_) => {
            adopt_protocol_spans(&mut recorder, &log.lock().expect("span log poisoned"))
        }
        Inputs::Run(_) => Vec::new(),
    };

    // The hand-driven run, traced once, on the shape run-n64-alg1 runs.
    let Shape::Run(alg1) = RUN_N64_ALG1.shape else {
        unreachable!("run-n64-alg1 is a run workload")
    };
    let hand_driven_op = block_ops as u32;
    let (n, t) = if quick { (7, 2) } else { (alg1.n, alg1.t) };
    let cfg = SystemConfig::new(n, t).expect("workload shapes are valid");
    let ids = IdDistribution::SparseRandom.generate(n, seed);
    let (split, _) = probes::hand_drive_alg1(cfg, &ids, &mut recorder, hand_driven_op);

    let mut metrics = Vec::new();
    service_metrics(&mut metrics, &counted, &traced, &recorder, &engine_self_ns);
    let probed = probes::run_all(seed, quick);
    metrics.extend(probed.metrics.iter().copied());
    metrics.push((
        "alloc.bytes_per_name",
        counted.alloc_bytes as f64 / counted.names.max(1) as f64,
    ));
    metrics.push((
        "trace.overhead_ratio",
        median_of(&traced.op_ns) / median_of(&counted.op_ns),
    ));

    let trace_path = out_dir.join(format!("trace-{}.json", spec.name));
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            &trace_path,
            recorder.render_chrome(spec.name, |s| {
                s.op < TRACE_FILE_OPS || s.op == hand_driven_op
            }),
        )
    });
    if let Err(why) = &written {
        eprintln!("cannot write {}: {why}", trace_path.display());
    }

    let attempted = (warmup_ops + 2 * block_ops) as u64 + probed.checks;
    let failed = warmup.failed + counted.failed + traced.failed + probed.failed_checks;
    let passes_agree = counted.digest == traced.digest;
    if !passes_agree {
        eprintln!("digest differs between the untraced and the traced block");
    }
    let detail = vec![
        ("digest", Json::str(digest_hex(counted.digest))),
        ("seed", Json::str(seed.to_string())),
        ("quick", Json::Bool(quick)),
        ("ops_per_block", Json::Num(block_ops as f64)),
        ("spans", Json::Num(recorder.spans().len() as f64)),
        ("probe_checks", Json::Num(probed.checks as f64)),
        (
            "allocs_per_name",
            Json::Num(counted.allocs as f64 / counted.names.max(1) as f64),
        ),
        ("traced_run_vote_share", Json::Num(split.vote_share())),
        ("trace_file", Json::str(trace_path.display().to_string())),
    ];
    Pass {
        workload: spec.name,
        traced: true,
        attempted,
        failed,
        correct: failed == 0 && passes_agree && written.is_ok(),
        metrics,
        detail,
    }
}
