//! Regenerates every experiment table/figure series from DESIGN.md §3.
//!
//! Usage:
//!
//! ```text
//! cargo run -p opr-bench --bin tables            # all experiments, markdown
//! cargo run -p opr-bench --bin tables -- t1 f3   # a subset
//! cargo run -p opr-bench --bin tables -- --csv   # CSV instead of markdown
//! cargo run -p opr-bench --bin tables -- --jobs 4
//! ```
//!
//! `--jobs` generates the requested experiments on executor workers —
//! tables still print in request order, byte-identical to a serial run
//! (`tests/experiments_shape.rs` pins the full markdown output against
//! `tests/data/tables.golden`).

use opr_bench::Flags;
use opr_exec::RunPool;
use opr_workload::experiments;

fn usage() -> ! {
    eprintln!(
        "usage: tables [<id> ...] [--csv] [--jobs N]\n\
         experiment ids: {}",
        experiments::IDS.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut csv = false;
    let mut jobs = 1usize;
    let mut ids: Vec<String> = Vec::new();
    let mut flags = Flags::from_env(usage);
    while let Some(arg) = flags.next_arg() {
        match arg.as_str() {
            "--csv" => csv = true,
            "--jobs" => jobs = flags.value(&arg),
            id => {
                let id = id.to_lowercase();
                if !experiments::IDS.contains(&id.as_str()) {
                    flags.unknown(&arg);
                }
                ids.push(id);
            }
        }
    }
    if ids.is_empty() {
        ids = experiments::IDS.iter().map(|id| id.to_string()).collect();
    }
    // Experiments are independent deterministic runs: generate on the pool,
    // print in request order (the pool reassembles results in submission
    // order, so output is byte-identical to a serial run).
    let pool = RunPool::new(jobs);
    let tasks: Vec<_> = ids
        .iter()
        .map(|id| || experiments::run(id).expect("ids validated above"))
        .collect();
    for table in pool
        .run_batch(tasks)
        .into_iter()
        .map(|result| result.unwrap_or_else(|panic| std::panic::panic_any(panic.message)))
    {
        if csv {
            println!("# {} — {}", table.id, table.title);
            println!("{}", table.to_csv());
        } else {
            println!("{}", table.to_markdown());
        }
        println!();
    }
}
