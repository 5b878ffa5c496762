//! Fault injection: run Algorithm 1 against the entire Byzantine strategy
//! suite and report what each attack achieved (spoiler: never a property
//! violation, but measurably different namespaces, rejected votes and rank
//! spreads).
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use opr::core::{run_alg1, Alg1Options};
use opr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SystemConfig::new(10, 3)?;
    let ids = IdDistribution::EvenSpaced.generate(7, 99);
    println!("system: {cfg}; adversary gets the full t = 3 faulty processes\n");
    println!(
        "{:<14} {:>9} {:>10} {:>14} {:>13} {:>11}",
        "adversary", "max-name", "violations", "rejected-votes", "final-spread", "messages"
    );

    let bound = cfg.namespace_bound(Regime::LogTime);
    for spec in AdversarySpec::ALG1 {
        let opts = Alg1Options {
            seed: 5,
            ..Alg1Options::default()
        };
        let run = run_alg1(
            cfg,
            Regime::LogTime,
            &ids,
            3,
            |env| spec.build_alg1(env),
            opts,
        )?;
        let violations = run.outcome.verify(bound).len();
        let spread = run.probe.spread_series().last().copied().unwrap_or(0.0);
        println!(
            "{:<14} {:>9} {:>10} {:>14} {:>13.2e} {:>11}",
            spec.label(),
            run.outcome.max_name().map_or(0, |name| name.raw()),
            violations,
            run.probe.total_rejected_votes(),
            spread,
            run.metrics.messages_correct(),
        );
        assert_eq!(violations, 0, "{spec} broke the algorithm!");
    }

    println!(
        "\nall attacks absorbed: max name never exceeded N + t − 1 = {}, and \
         isValid rejected every malformed vote",
        bound
    );
    Ok(())
}
