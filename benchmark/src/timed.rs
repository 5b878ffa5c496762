//! The timed pass: end-to-end metrics, tracing off, system allocator.
//!
//! One process per workload, so `setup_s` and `peak_rss_mb` belong to it
//! alone. The pass sets up [`SETUP_REPS`] times (input generation, pool,
//! engine construction and a fixed warm-up block each time; `setup_s` is the
//! median), then runs equal blocks of a fixed op count — each on a fresh
//! engine and the same inputs — until `--seconds` have passed. Throughput is
//! the median over blocks; latency percentiles are over op positions, each
//! position's latency being its median over blocks. `allocs_per_name` comes
//! from a child process of the traced binary, the only one with the counting
//! allocator.

use crate::json::Json;
use crate::ops::{generate, run_block, undressed, Block};
use crate::report::{digest_hex, Pass};
use crate::spec::{WorkloadSpec, MIN_BLOCKS, SETUP_REPS};
use crate::stats::{median, quantile_sorted, sorted};
use crate::trace::Off;
use opr_exec::RunPool;
use std::process::Command;
use std::time::Instant;

/// The traced binary, which sits beside this one in the target directory.
pub const TRACED_BIN: &str = "opr-benchmark-traced";

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What the counting child reports about one untraced block.
struct AllocCount {
    allocs: f64,
    bytes: f64,
    names: f64,
    digest: String,
    failed: f64,
}

/// One untraced block under the counting allocator, printed as one JSON
/// line (the `--count-allocs` mode of the traced binary).
pub fn count_allocs(spec: &WorkloadSpec, seed: u64, quick: bool) -> Block {
    let ops = if quick {
        spec.quick_ops
    } else {
        spec.block_ops
    };
    let inputs = generate(spec, seed, ops);
    let pool = RunPool::new(spec.jobs());
    let block = run_block(&inputs, &pool, ops, &mut Off, &undressed);
    println!(
        "{}",
        Json::obj([
            ("allocs", Json::Num(block.allocs as f64)),
            ("bytes", Json::Num(block.alloc_bytes as f64)),
            ("names", Json::Num(block.names as f64)),
            ("failed", Json::Num(block.failed as f64)),
            ("digest", Json::str(digest_hex(block.digest))),
        ])
        .render()
    );
    block
}

fn spawn_alloc_count(spec: &WorkloadSpec, seed: u64, quick: bool) -> Result<AllocCount, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .with_file_name(TRACED_BIN);
    let mut command = Command::new(&exe);
    command
        .arg("--count-allocs")
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()]);
    if quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end before it returns.
    let output = command
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", exe.display(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("counting child printed nothing")?;
    let doc = Json::parse(line)?;
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("counting child did not report {key}"))
    };
    Ok(AllocCount {
        allocs: num("allocs")?,
        bytes: num("bytes")?,
        names: num("names")?,
        failed: num("failed")?,
        digest: doc
            .get("digest")
            .and_then(Json::as_str)
            .ok_or("counting child did not report a digest")?
            .to_owned(),
    })
}

/// Runs the timed pass of `spec`.
pub fn timed_pass(spec: &'static WorkloadSpec, seed: u64, seconds: f64, quick: bool) -> Pass {
    let (block_ops, warmup_ops, setup_reps, min_blocks) = if quick {
        (spec.quick_ops, spec.quick_ops, 1, 1)
    } else {
        (spec.block_ops, spec.warmup_ops, SETUP_REPS, MIN_BLOCKS)
    };

    let mut setups = Vec::with_capacity(setup_reps);
    let mut ready = None;
    let mut warmup_failed = 0;
    for _ in 0..setup_reps {
        drop(ready.take());
        let start = Instant::now();
        let inputs = generate(spec, seed, block_ops.max(warmup_ops));
        let pool = RunPool::new(spec.jobs());
        let warmup = run_block(&inputs, &pool, warmup_ops, &mut Off, &undressed);
        setups.push(start.elapsed().as_secs_f64());
        warmup_failed += warmup.failed;
        ready = Some((inputs, pool));
    }
    let (inputs, pool) = ready.expect("at least one set-up ran");

    let measure_start = Instant::now();
    let mut blocks: Vec<Block> = Vec::new();
    let mut peak_rss = None;
    while blocks.len() < min_blocks || (!quick && measure_start.elapsed().as_secs_f64() < seconds) {
        blocks.push(run_block(&inputs, &pool, block_ops, &mut Off, &undressed));
        // Read after a fixed amount of work, not after however many blocks
        // the machine got through: the heap's high-water mark creeps with
        // the block count, and that is noise, not the program.
        if blocks.len() == min_blocks {
            peak_rss = peak_rss_mib();
        }
    }
    let measured_s = measure_start.elapsed().as_secs_f64();

    let attempted = (blocks.len() * block_ops) as u64;
    let failed: u64 = blocks.iter().map(|b| b.failed).sum();
    let digest = blocks[0].digest;
    let blocks_agree = blocks.iter().all(|b| b.digest == digest);
    // Every block replays the same inputs on a fresh engine, so the op at
    // position i does the same work in every block: whatever differs between
    // blocks is the machine, not the program. Throughput is the median over
    // blocks; an op's latency is the median over blocks of its position, and
    // the percentiles are over positions. A slow or fast phase of the machine
    // that covers under half the blocks moves none of the three.
    let names_per_sec: Vec<f64> = blocks
        .iter()
        .map(|b| b.names as f64 / b.op_seconds())
        .collect();
    let op_ms = sorted(
        &(0..block_ops)
            .map(|i| {
                let at_position: Vec<f64> =
                    blocks.iter().map(|b| b.op_ns[i] as f64 / 1e6).collect();
                median(&at_position)
            })
            .collect::<Vec<_>>(),
    );

    let counted = spawn_alloc_count(spec, seed, quick);
    if let Err(why) = &counted {
        eprintln!("allocs_per_name unavailable: {why}");
    }
    let counted_agrees = counted
        .as_ref()
        .is_ok_and(|c| c.digest == digest_hex(digest) && c.failed == 0.0);

    let correct =
        failed == 0 && warmup_failed == 0 && blocks_agree && counted_agrees && peak_rss.is_some();
    if !blocks_agree {
        eprintln!("digest differs between blocks of the same inputs");
    }
    if counted.is_ok() && !counted_agrees {
        eprintln!("digest differs between the timed pass and the counting child");
    }

    let metrics = vec![
        ("names_per_sec", median(&names_per_sec)),
        ("op_ms_p50", quantile_sorted(&op_ms, 0.5)),
        ("op_ms_p90", quantile_sorted(&op_ms, 0.9)),
        (
            "allocs_per_name",
            counted.as_ref().map_or(0.0, |c| c.allocs / c.names),
        ),
        ("peak_rss_mb", peak_rss.unwrap_or(0.0)),
        ("setup_s", median(&setups)),
    ];
    let detail = vec![
        ("digest", Json::str(digest_hex(digest))),
        ("seed", Json::str(seed.to_string())),
        ("quick", Json::Bool(quick)),
        ("blocks", Json::Num(blocks.len() as f64)),
        ("ops_per_block", Json::Num(block_ops as f64)),
        ("op_samples", Json::Num(attempted as f64)),
        ("names_per_block", Json::Num(blocks[0].names as f64)),
        ("measured_s", Json::Num(measured_s)),
        ("setup_samples", Json::Num(setups.len() as f64)),
        ("pool_workers", Json::Num(spec.jobs() as f64)),
        (
            "names_per_sec_blocks",
            Json::Arr(names_per_sec.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "alloc_bytes_per_name",
            counted
                .as_ref()
                .map_or(Json::Null, |c| Json::Num(c.bytes / c.names)),
        ),
    ];
    Pass {
        workload: spec.name,
        traced: false,
        attempted,
        failed,
        correct,
        metrics,
        detail,
    }
}
