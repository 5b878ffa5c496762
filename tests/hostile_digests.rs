//! Hostile-run goldens: every Algorithm 1 adversary at (10, 3) and
//! (32, 10), seed 5, hashed over everything a run lets a caller see — the
//! decided names, the run's message and bit counts, and every correct
//! process's snapshot ranks bit for bit, with its rejected-vote count and
//! decision step. The constants were generated before the receiver folded
//! every bit-identical vote of a step and before the simulated forger kept
//! its id set as a bitset; both are representation changes, so any change
//! to the vote path or to an adversary's messages shows up here.
//!
//! To re-bless after an *intentional* behaviour change, run with
//! `--nocapture` and copy the printed table.

use opr::core::{run_alg1, Alg1Options};
use opr::prelude::*;

/// FNV-1a, 64 bit: a stable hash that does not depend on `std`'s hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The hash of one seed-5 LogTime run of `spec` at `(n, t)` on Sim.
fn digest(n: usize, t: usize, spec: AdversarySpec) -> u64 {
    let seed = 5;
    let cfg = SystemConfig::new(n, t).unwrap();
    let ids = IdDistribution::SparseRandom.generate(n - t, seed);
    let opts = Alg1Options {
        seed,
        ..Alg1Options::default()
    };
    let run = run_alg1(
        cfg,
        Regime::LogTime,
        &ids,
        t,
        |env| spec.build_alg1(env),
        opts,
    )
    .unwrap_or_else(|e| panic!("{spec} at ({n}, {t}): {e}"));
    let mut h = Fnv::new();
    for (id, name) in run.outcome.decisions() {
        h.u64(id.raw());
        h.u64(name.map_or(u64::MAX, |name| name.raw() as u64));
    }
    for value in [
        u64::from(run.rounds),
        run.metrics.messages_correct(),
        run.metrics.bits_correct(),
        run.metrics.max_message_bits(),
    ] {
        h.u64(value);
    }
    for process in &run.probe.processes {
        h.u64(process.rejected_votes);
        h.u64(process.decided_at_step.map_or(u64::MAX, u64::from));
        for snapshot in &process.snapshots {
            h.u64(u64::from(snapshot.step));
            for (id, rank) in snapshot.ranks.iter() {
                h.u64(id.raw());
                h.u64(rank.value().to_bits());
            }
        }
    }
    h.0
}

const GOLDEN: [(usize, usize, &str, u64); 18] = [
    (10, 3, "silent", 0xa958afec243f8a5b),
    (10, 3, "crash-midway", 0xf584a81b1a359c3f),
    (10, 3, "random-noise", 0xc17945e9f45797ff),
    (10, 3, "replay", 0xa958afec243f8a5b),
    (10, 3, "id-forge", 0x175a02c5e6d0bc6f),
    (10, 3, "echo-split", 0xb2a7e2da8c343938),
    (10, 3, "rank-skew", 0xf584a81b1a359c3f),
    (10, 3, "order-invert", 0x16ffafc4133dca64),
    (10, 3, "pair-squeeze", 0xb969ed5930b3ea49),
    (32, 10, "silent", 0x70a66512c72d0f23),
    (32, 10, "crash-midway", 0xa2fb5e0438035444),
    (32, 10, "random-noise", 0x3a818e630327b047),
    (32, 10, "replay", 0x70a66512c72d0f23),
    (32, 10, "id-forge", 0x6260c5f4208ef6b9),
    (32, 10, "echo-split", 0xf550efd4f0dc6ce5),
    (32, 10, "rank-skew", 0xa2fb5e0438035444),
    (32, 10, "order-invert", 0xd5c9b87c0bb77df8),
    (32, 10, "pair-squeeze", 0xf398235db769ab84),
];

#[test]
fn hostile_runs_match_their_digests() {
    let mut mismatches = Vec::new();
    for (n, t) in [(10, 3), (32, 10)] {
        for spec in AdversarySpec::ALG1 {
            let got = digest(n, t, spec);
            println!("    ({n}, {t}, \"{}\", 0x{got:016x}),", spec.label());
            let expected = GOLDEN
                .iter()
                .find(|&&(gn, gt, label, _)| (gn, gt, label) == (n, t, spec.label()))
                .map(|golden| golden.3);
            if expected != Some(got) {
                mismatches.push(format!(
                    "{spec} at ({n}, {t}): 0x{got:016x}, golden {expected:x?}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
