//! Regenerates every experiment table/figure series from DESIGN.md §3.
//!
//! Usage:
//!
//! ```text
//! cargo run -p opr-bench --bin tables            # all experiments, markdown
//! cargo run -p opr-bench --bin tables -- t1 f3   # a subset
//! cargo run -p opr-bench --bin tables -- --csv   # CSV instead of markdown
//! cargo run -p opr-bench --bin tables -- --backend pooled t1
//! cargo run -p opr-bench --bin tables -- --jobs 4
//! ```
//!
//! `--backend` selects the execution substrate every experiment runs on
//! (`sim`, the default, or `pooled`); results are identical on either, only
//! the execution strategy changes. `--jobs` generates the requested
//! experiments on executor workers — tables still print in request order,
//! byte-identical to a serial run.

use opr_bench::Flags;
use opr_exec::RunPool;
use opr_transport::BackendKind;
use opr_workload::experiments;
use opr_workload::ExperimentTable;

fn generate(id: &str) -> Option<ExperimentTable> {
    match id {
        "t1" => Some(experiments::t1::run()),
        "t2" => Some(experiments::t2::run()),
        "t3" => Some(experiments::t3::run()),
        "t4" => Some(experiments::t4::run()),
        "t5" => Some(experiments::t5::run()),
        "f1" => Some(experiments::f1::run()),
        "f2" => Some(experiments::f2::run()),
        "f3" => Some(experiments::f3::run()),
        "f4" => Some(experiments::f4::run()),
        "a1" => Some(experiments::a1::run()),
        "a2" => Some(experiments::a2::run()),
        "a3" => Some(experiments::a3::run()),
        "e1" => Some(experiments::e1::run()),
        _ => None,
    }
}

const ALL_IDS: [&str; 13] = [
    "t1", "t2", "t3", "t4", "t5", "f1", "f2", "f3", "f4", "a1", "a2", "a3", "e1",
];

fn usage() -> ! {
    eprintln!(
        "usage: tables [<id> ...] [--csv] [--backend sim|pooled] [--jobs N]\n\
         experiment ids: {}",
        ALL_IDS.join(", ")
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
            "--backend" => BackendKind::set_process_default(flags.label(&arg, BackendKind::parse)),
            "--jobs" => jobs = flags.value(&arg),
            id => {
                let id = id.to_lowercase();
                if !ALL_IDS.contains(&id.as_str()) {
                    flags.unknown(&arg);
                }
                ids.push(id);
            }
        }
    }
    if ids.is_empty() {
        ids = ALL_IDS.iter().map(|id| id.to_string()).collect();
    }
    // Experiments are independent deterministic runs: generate on the pool,
    // print in request order (the pool reassembles results in submission
    // order, so output is byte-identical to a serial run).
    let pool = RunPool::new(jobs);
    let tasks: Vec<_> = ids
        .iter()
        .map(|id| {
            let id = id.clone();
            move || generate(&id).expect("ids validated above")
        })
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
