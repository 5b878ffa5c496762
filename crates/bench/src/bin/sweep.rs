//! Parameterized sweep runner: measure any implementation across `(N, t)`
//! grids, adversaries and seeds, emitting CSV for downstream analysis.
//!
//! ```text
//! cargo run -p opr-bench --bin sweep -- --alg alg1-log --t 1..5 --seeds 10
//! cargo run -p opr-bench --bin sweep -- --alg alg4-2step --t 1..4 --adversary fake-flood
//! cargo run -p opr-bench --bin sweep -- --alg b2-consensus --t 1..6 --n-extra 4 --jobs 4
//! ```
//!
//! `N` defaults to each implementation's minimal legal value for the given
//! `t` (plus `--n-extra`). Output columns: algorithm, adversary, N, t, seed,
//! rounds, messages, bits, max-message-bits, max-name, violations. `--jobs`
//! spreads the grid over executor workers; rows print in grid order either
//! way, so the CSV is byte-identical at any worker count.

use opr_adversary::AdversarySpec;
use opr_bench::Flags;
use opr_exec::RunPool;
use opr_transport::BackendKind;
use opr_types::SystemConfig;
use opr_workload::{run_grid, Algorithm, GridPoint, IdDistribution};

fn parse_range(s: &str) -> Option<(usize, usize)> {
    if let Some((a, b)) = s.split_once("..") {
        Some((a.parse().ok()?, b.parse().ok()?))
    } else {
        let v = s.parse().ok()?;
        Some((v, v + 1))
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep --alg <label> [--t A..B] [--seeds K] [--adversary <label>] [--n-extra E] [--backend sim|pooled] [--jobs N]\n\
         algorithms: {}\n\
         adversaries: {}",
        Algorithm::ALL.map(|a| a.label()).join(", "),
        AdversarySpec::ALG1
            .iter()
            .chain(AdversarySpec::TWO_STEP.iter())
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::process::exit(2);
}

fn main() {
    let mut alg: Option<Algorithm> = None;
    let mut t_range = (1usize, 4usize);
    let mut seeds = 3u64;
    let mut adversary: Option<AdversarySpec> = None;
    let mut n_extra = 0usize;
    let mut backend = BackendKind::default();
    let mut jobs = 1usize;
    let mut flags = Flags::from_env(usage);
    while let Some(flag) = flags.next_arg() {
        match flag.as_str() {
            "--alg" => alg = Some(flags.label(&flag, Algorithm::parse)),
            "--t" => t_range = flags.label(&flag, parse_range),
            "--seeds" => seeds = flags.value(&flag),
            "--adversary" => adversary = Some(flags.label(&flag, AdversarySpec::parse)),
            "--n-extra" => n_extra = flags.value(&flag),
            "--backend" => backend = flags.label(&flag, BackendKind::parse),
            "--jobs" => jobs = flags.value(&flag),
            _ => flags.unknown(&flag),
        }
    }
    let Some(alg) = alg else { usage() };
    let spec = adversary.unwrap_or(if alg.byzantine_suite_applicable() {
        AdversarySpec::IdForge
    } else {
        AdversarySpec::Silent
    });

    // Build the whole grid in row order, execute it on the pool (results
    // come back reassembled in the same order), then print serially.
    let mut cells: Vec<(usize, usize, u64)> = Vec::new();
    let mut points: Vec<GridPoint> = Vec::new();
    for t in t_range.0..t_range.1 {
        let n = alg.minimal_n(t) + n_extra;
        let Ok(cfg) = SystemConfig::new(n, t) else {
            continue;
        };
        for seed in 0..seeds {
            let ids = IdDistribution::SparseRandom.generate(n - t, seed * 7 + 1);
            cells.push((n, t, seed));
            points.push(GridPoint {
                algorithm: alg,
                cfg,
                correct_ids: ids,
                faulty: t,
                adversary: spec,
                seed,
                backend,
            });
        }
    }
    println!("algorithm,adversary,N,t,seed,rounds,messages,bits,max-msg-bits,max-name,violations");
    let results = run_grid(&RunPool::new(jobs), points);
    for (&(n, t, seed), result) in cells.iter().zip(results) {
        match result {
            Ok(stats) => println!(
                "{},{},{},{},{},{},{},{},{},{},{}",
                alg.label(),
                stats.adversary,
                n,
                t,
                seed,
                stats.rounds,
                stats.messages,
                stats.bits,
                stats.max_message_bits,
                stats.max_name.unwrap_or(-1),
                stats.violations,
            ),
            Err(e) => eprintln!("# {} N={n} t={t} seed={seed}: {e}", alg.label()),
        }
    }
}
