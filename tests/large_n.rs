//! Large-N soak tests for `PooledBackend`, the round engine's real-threads
//! schedule (`Network::step_on`: per-process phases on ≤ `workers` scoped
//! threads, routing serial).
//!
//! The pooled schedule exists so the harness can execute the paper's
//! protocols at four-digit N on a fixed number of OS threads.
//! These tests pin that promise: a full Algorithm 1 run at `N = 1024,
//! t = 300` must complete on the pooled backend and produce a `DiagnosedRun`
//! bit-identical to the reference simulator's, and at `N = 512` the
//! equivalence must hold across adversaries and worker counts.
//!
//! Wall-clock at this scale is protocol compute, not the round engine
//! (DESIGN.md §12 prices the engine itself): Alg1 at `N = 1024, t = 300`
//! runs 30 voting rounds in which each of 724 receivers reads 724 vote
//! vectors of 724 entries (DESIGN.md §15, "Vote path") — fault-free, one
//! distinct vote per round, which each receiver validates and gathers once
//! ("Distinct votes") — 13.4 s on the simulator and 7.8 s on 2 pooled
//! workers of the 2-vCPU reference container, peaking at 0.46 GB, nearly
//! all of it the probes' per-step rank snapshots (reading every copy took
//! 73 s and 44 s; the `BTreeMap` vote path before that took 11–14× as long
//! again at `N = 256` and was never run to the end here). Voting being
//! independent per receiver, the deliver phase parallelizes across pooled
//! workers. The perf gate is *relative* — the pooled run must stay within
//! `POOLED_SLOWDOWN_CAP` of the simulator measured in the same process —
//! plus an absolute runaway ceiling, set at about 4× the 44 s pooled time
//! of the every-copy vote path, both env-overridable; the run prints its
//! wall times and peak RSS.
//!
//! The soak tests are `#[ignore]`d because the tier-1 suite runs a debug
//! build. CI runs them in release via a dedicated step (`just
//! pool-soak`):
//!
//! ```text
//! cargo test --release --test large_n -- --ignored
//! ```
//!
//! Env knobs (all optional): `LARGE_N`/`LARGE_T` (headline soak
//! dimensions, default 1024/300), `CROSS_N`/`CROSS_T` (cross-check
//! dimensions, default 512/128), `POOL_SOAK_CEILING_SECS` (absolute
//! runaway ceiling for the pooled run, default 180).

use opr::prelude::*;
use opr::transport::PooledBackend;
use opr::workload::{DiagnosedRun, RenamingRun};
use std::time::{Duration, Instant};

/// The pooled run may not take longer than this multiple of the sim run
/// measured in the same process. With one worker the pooled schedule *is*
/// the simulator's (no thread is spawned); with several it pays two
/// spawns per worker per round and should win them back in the deliver
/// phase — a regression to thread-per-process-like scheduling overhead
/// blows this immediately, on any hardware.
const POOLED_SLOWDOWN_CAP: f64 = 2.0;

fn env_dim(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn runaway_ceiling() -> Duration {
    Duration::from_secs(env_dim("POOL_SOAK_CEILING_SECS", 180) as u64)
}

/// The process's peak resident set so far, in MiB (`VmHWM`; Linux only).
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

fn diagnosed(
    n: usize,
    t: usize,
    spec: AdversarySpec,
    seed: u64,
    backend: BackendKind,
) -> DiagnosedRun {
    let cfg = SystemConfig::new(n, t).expect("legal large-N config");
    let ids = IdDistribution::SparseRandom.generate(n - t, seed);
    RenamingRun::builder(cfg, Regime::LogTime)
        .correct_ids(ids)
        .adversary(spec, t)
        .seed(seed)
        .backend(backend)
        .run_diagnosed()
        .expect("large-N run is legal")
}

/// The headline gate: Algorithm 1 at `N = 1024, t = 300` (within the
/// `N ≥ 3t + 1` resilience bound) completes on the pooled backend, stays
/// within `POOLED_SLOWDOWN_CAP` of the simulator, renames cleanly, and
/// is bit-identical to the simulator's `DiagnosedRun`.
#[test]
#[ignore = "release-mode soak; run via: cargo test --release --test large_n -- --ignored"]
fn alg1_headline_soak_matches_sim_within_slowdown_cap() {
    let (n, t) = (env_dim("LARGE_N", 1024), env_dim("LARGE_T", 300));
    let seed = 7u64;

    let start = Instant::now();
    let pooled = diagnosed(n, t, AdversarySpec::Silent, seed, BackendKind::Pooled);
    let pooled_elapsed = start.elapsed();
    eprintln!(
        "pooled Alg1 N={n} t={t}: {pooled_elapsed:?}, peak RSS {:?} MiB",
        peak_rss_mib()
    );
    assert!(
        pooled_elapsed <= runaway_ceiling(),
        "pooled Alg1 N={n} t={t} took {pooled_elapsed:?}, runaway ceiling {:?}",
        runaway_ceiling()
    );
    assert!(
        pooled.degraded.violations.is_empty(),
        "a fault-free large-N run must rename cleanly"
    );
    assert_eq!(
        pooled.degraded.outcome.len(),
        n - t,
        "every correct process decides"
    );

    let start = Instant::now();
    let sim = diagnosed(n, t, AdversarySpec::Silent, seed, BackendKind::Sim);
    let sim_elapsed = start.elapsed();
    eprintln!(
        "sim    Alg1 N={n} t={t}: {sim_elapsed:?}, peak RSS {:?} MiB (both results held)",
        peak_rss_mib()
    );
    assert_eq!(sim, pooled, "N={n} DiagnosedRun must be bit-identical");

    // Floor the denominator so sub-second sim runs (small env-overridden
    // dims) don't turn scheduler noise into a failure.
    let cap = sim_elapsed
        .max(Duration::from_secs(1))
        .mul_f64(POOLED_SLOWDOWN_CAP);
    assert!(
        pooled_elapsed <= cap,
        "pooled took {pooled_elapsed:?} vs sim {sim_elapsed:?} — \
         over the {POOLED_SLOWDOWN_CAP}x slowdown cap"
    );
}

/// The mid-scale cross-check: sim vs pooled under a real Byzantine
/// adversary, across pooled worker counts {1, 4}.
#[test]
#[ignore = "release-mode soak; run via: cargo test --release --test large_n -- --ignored"]
fn alg1_n512_sim_vs_pooled_cross_check() {
    let (n, t) = (env_dim("CROSS_N", 512), env_dim("CROSS_T", 128));
    let seed = 11u64;
    for spec in [AdversarySpec::Silent, AdversarySpec::ALG1[0]] {
        let sim = diagnosed(n, t, spec, seed, BackendKind::Sim);
        for workers in [1usize, 4] {
            PooledBackend::set_process_default_workers(workers);
            let pooled = diagnosed(n, t, spec, seed, BackendKind::Pooled);
            PooledBackend::set_process_default_workers(0);
            assert_eq!(
                sim, pooled,
                "N={n} {spec} divergence at {workers} worker(s)"
            );
        }
    }
}

/// A debug-friendly pin of the same contract, small enough for tier-1:
/// the pooled backend agrees with the simulator at N = 64, t = 15.
#[test]
fn alg1_n64_pooled_smoke_matches_sim() {
    let (n, t, seed) = (64usize, 15usize, 3u64);
    let sim = diagnosed(n, t, AdversarySpec::Silent, seed, BackendKind::Sim);
    let pooled = diagnosed(n, t, AdversarySpec::Silent, seed, BackendKind::Pooled);
    assert_eq!(sim, pooled);
    assert!(sim.degraded.violations.is_empty());
}
