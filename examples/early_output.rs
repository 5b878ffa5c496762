//! The early-output extension: Algorithm 1 decides as soon as its decision
//! is provably frozen, instead of always running the full schedule —
//! `O(1)` output latency when the actual adversary is passive, the full
//! `3⌈log t⌉ + 7` only under active equivocation (cf. the early-deciding
//! renaming of Alistarh, Attiya, Guerraoui & Travers, SIROCCO 2012).
//!
//! Safety argument (see `opr_core::Alg1Tweaks::early_output`): if one
//! voting step delivers a unanimous valid quorum equal to the process's own
//! rank vector, then every correct process holds that exact vector, and the
//! `t`-per-side trim makes it a fixed point of every later step at every
//! correct process — the eventual decision is already determined.
//!
//! ```text
//! cargo run --example early_output
//! ```

use opr::core::Alg1Tweaks;
use opr::core::{run_alg1, Alg1Options};
use opr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, t) = (10usize, 3usize);
    let cfg = SystemConfig::new(n, t)?;
    let schedule_end = cfg.total_steps(Regime::LogTime);
    println!("N = {n}, t = {t}; full schedule = {schedule_end} steps\n");
    println!(
        "{:<14} {:>8} {:>15} {:>12}",
        "adversary", "faulty", "decided-at-step", "steps-saved"
    );

    for (spec, faulty) in [
        (AdversarySpec::Silent, 0usize),
        (AdversarySpec::Silent, t),
        (AdversarySpec::CrashMidway, t),
        (AdversarySpec::IdForge, t),
        (AdversarySpec::RankSkew, t),
    ] {
        let ids = IdDistribution::SparseRandom.generate(n - faulty, 7);
        let result = run_alg1(
            cfg,
            Regime::LogTime,
            &ids,
            faulty,
            |env| spec.build_alg1(env),
            Alg1Options {
                seed: 3,
                tweaks: Alg1Tweaks {
                    early_output: true,
                    ..Alg1Tweaks::default()
                },
                ..Alg1Options::default()
            },
        )?;
        assert!(result
            .outcome
            .verify(cfg.namespace_bound(Regime::LogTime))
            .is_empty());
        let decided = result.probe.last_decision_step().expect("all decided");
        println!(
            "{:<14} {:>8} {:>15} {:>12}",
            spec.label(),
            faulty,
            decided,
            schedule_end - decided
        );
    }

    println!(
        "\npassive faults freeze the vote at the first voting step (step 5); \
         active equivocators keep views apart and force the full schedule — \
         the price of the worst case is paid only when the worst case shows up"
    );
    Ok(())
}
