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
//! (default `sim`; `auto` picks per run size — sim below
//! `BackendKind::AUTO_CUTOVER` processes, pooled at or above); results are
//! identical on any backend, only the execution strategy changes. `--jobs` generates the requested experiments on
//! executor workers — tables still print in request order, byte-identical
//! to a serial run.

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    if let Some(pos) = args.iter().position(|a| a == "--backend") {
        match args.get(pos + 1).map(String::as_str) {
            Some("auto") => BackendKind::set_process_auto(true),
            Some(label) if BackendKind::parse(label).is_some() => {
                BackendKind::set_process_default(BackendKind::parse(label).expect("checked"));
            }
            _ => {
                eprintln!("--backend takes one of: sim, pooled, auto");
                std::process::exit(2);
            }
        }
    }
    let mut jobs = 1usize;
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        match args.get(pos + 1).and_then(|v| v.parse().ok()) {
            Some(n) => jobs = n,
            None => {
                eprintln!("--jobs takes a worker count");
                std::process::exit(2);
            }
        }
    }
    let mut skip_next = false;
    let requested: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--backend" || *a == "--jobs" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(String::as_str)
        .collect();
    let ids: Vec<String> = if requested.is_empty() {
        ALL_IDS.iter().map(|id| id.to_string()).collect()
    } else {
        requested.iter().map(|id| id.to_lowercase()).collect()
    };
    for id in &ids {
        if !ALL_IDS.contains(&id.as_str()) {
            eprintln!("unknown experiment id {id:?}; known: {ALL_IDS:?}");
            std::process::exit(2);
        }
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
