//! Large-N soak: the paper's protocol at four-digit N.
//!
//! A full Algorithm 1 run at `N = 1024, t = 300` (within the `N ≥ 3t + 1`
//! resilience bound) must complete, rename cleanly and stay under a
//! runaway ceiling.
//!
//! Wall-clock at this scale is protocol compute, not the round engine
//! (DESIGN.md §12 prices the engine itself): Alg1 at `N = 1024, t = 300`
//! runs 30 voting rounds in which each of 724 receivers reads 724 vote
//! vectors of 724 entries (DESIGN.md §15, "Vote path") — fault-free, one
//! distinct vote per round, which each receiver validates and gathers once
//! ("Distinct votes") — 13.8 s and a 191 MiB peak on the 2-vCPU reference
//! container. The runaway ceiling, 180 s, leaves room for a slower host
//! and is env-overridable; the run prints its wall time and peak RSS.
//!
//! The soak is `#[ignore]`d because the tier-1 suite runs a debug build. CI
//! runs it in release via a dedicated step (`just large-n`):
//!
//! ```text
//! cargo test --release --test large_n -- --ignored
//! ```
//!
//! Env knobs (all optional): `LARGE_N`/`LARGE_T` (soak dimensions, default
//! 1024/300), `LARGE_N_CEILING_SECS` (absolute runaway ceiling, default
//! 180).

use opr::prelude::*;
use opr::workload::{DiagnosedRun, RenamingRun};
use std::time::{Duration, Instant};

fn env_dim(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn runaway_ceiling() -> Duration {
    Duration::from_secs(env_dim("LARGE_N_CEILING_SECS", 180) as u64)
}

/// The process's peak resident set so far, in MiB (`VmHWM`; Linux only).
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

fn diagnosed(n: usize, t: usize, spec: AdversarySpec, seed: u64) -> DiagnosedRun {
    let cfg = SystemConfig::new(n, t).expect("legal large-N config");
    let ids = IdDistribution::SparseRandom.generate(n - t, seed);
    RenamingRun::builder(cfg, Regime::LogTime)
        .correct_ids(ids)
        .adversary(spec, t)
        .seed(seed)
        .run_diagnosed()
        .expect("large-N run is legal")
}

/// The headline soak: Algorithm 1 at `N = 1024, t = 300` completes under
/// the runaway ceiling and renames cleanly.
#[test]
#[ignore = "release-mode soak; run via: cargo test --release --test large_n -- --ignored"]
fn alg1_headline_soak_renames_cleanly_under_the_ceiling() {
    let (n, t) = (env_dim("LARGE_N", 1024), env_dim("LARGE_T", 300));
    let start = Instant::now();
    let run = diagnosed(n, t, AdversarySpec::Silent, 7);
    let elapsed = start.elapsed();
    eprintln!(
        "Alg1 N={n} t={t}: {elapsed:?}, peak RSS {:?} MiB",
        peak_rss_mib()
    );
    assert!(
        elapsed <= runaway_ceiling(),
        "Alg1 N={n} t={t} took {elapsed:?}, runaway ceiling {:?}",
        runaway_ceiling()
    );
    assert!(
        run.degraded.violations.is_empty(),
        "a fault-free large-N run must rename cleanly"
    );
    assert_eq!(
        run.degraded.outcome.len(),
        n - t,
        "every correct process decides"
    );
}

/// A debug-friendly pin of the same contract, small enough for tier-1:
/// Algorithm 1 at N = 64, t = 15 renames cleanly and every correct process
/// decides.
#[test]
fn alg1_n64_smoke_renames_cleanly() {
    let (n, t) = (64usize, 15usize);
    let run = diagnosed(n, t, AdversarySpec::Silent, 3);
    assert!(run.degraded.violations.is_empty());
    assert_eq!(run.degraded.outcome.len(), n - t);
}
