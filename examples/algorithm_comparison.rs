//! Side-by-side comparison of every implementation in the workspace — the
//! paper's algorithms and the four related-work baselines — on one
//! workload, at each implementation's minimal legal `N` for `t = 2`.
//!
//! ```text
//! cargo run --example algorithm_comparison
//! ```

use opr::prelude::*;
use opr::types::SystemConfig as Cfg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let t = 2usize;
    println!("t = {t}; every implementation at its minimal N\n");
    println!(
        "{:<14} {:>4} {:>7} {:>9} {:>11} {:>9} {:>10}",
        "algorithm", "N", "rounds", "messages", "kbits-sent", "max-name", "namespace"
    );

    for alg in Algorithm::ALL {
        let n = alg.minimal_n(t);
        let cfg = Cfg::new(n, t)?;
        let ids = IdDistribution::SparseRandom.generate(n - t, 42);
        let spec = if alg.byzantine_suite_applicable() {
            AdversarySpec::IdForge
        } else {
            AdversarySpec::Silent
        };
        let stats = alg.run(cfg, &ids, t, spec, 9)?;
        assert_eq!(stats.violations, 0, "{alg}");
        println!(
            "{:<14} {:>4} {:>7} {:>9} {:>11.1} {:>9} {:>10}",
            alg.label(),
            n,
            stats.rounds,
            stats.messages,
            stats.bits as f64 / 1000.0,
            stats.max_name.unwrap_or(0),
            alg.namespace_bound(cfg),
        );
    }

    println!(
        "\nreading guide: alg4 wins rounds outright (2) but pays namespace N²; \
         alg1-const gets strong renaming (namespace N) in 8 rounds; \
         b2-consensus shows the Ω(t) round cost the paper avoids; \
         b4-translated shows the 2× round and 2N namespace toll of generic \
         crash-to-Byzantine translation."
    );
    Ok(())
}
