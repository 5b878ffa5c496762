//! Run the same renaming system on both execution substrates and show that
//! the observable results — names, rounds, message counts — are identical,
//! while only the execution strategy differs (single-threaded simulator vs
//! round-steps scheduled as tasks on a worker pool).
//!
//! ```text
//! cargo run --example backend_comparison
//! ```

use opr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SystemConfig::new(10, 3)?;
    let ids: Vec<OriginalId> = [14u64, 3, 77, 21, 58, 9, 42].map(OriginalId::new).into();

    let mut outputs = Vec::new();
    for backend in opr::transport::BackendKind::ALL {
        let out = RenamingRun::builder(cfg, Regime::LogTime)
            .correct_ids(ids.clone())
            .adversary(AdversarySpec::EchoSplit, 3)
            .seed(42)
            .backend(backend)
            .run()?;
        println!(
            "{backend:>8}: rounds = {}, messages = {}, bits = {}, max name = {}",
            out.stats.rounds,
            out.stats.messages,
            out.stats.bits,
            out.stats.max_name.unwrap_or(-1),
        );
        outputs.push(out);
    }

    // Bit-for-bit equivalence: every decided name and every counter of
    // every backend agrees with the reference (the first).
    let sim = &outputs[0];
    for other in &outputs[1..] {
        assert_eq!(sim.outcome, other.outcome);
        assert_eq!(sim.stats.rounds, other.stats.rounds);
        assert_eq!(sim.stats.messages, other.stats.messages);
        assert_eq!(sim.stats.bits, other.stats.bits);
    }
    assert!(sim
        .outcome
        .verify(cfg.namespace_bound(Regime::LogTime))
        .is_empty());
    println!("\nboth substrates produced identical outcomes and metrics ✓");
    Ok(())
}
