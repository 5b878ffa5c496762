//! The experiment index (DESIGN.md §3): one module per table/figure.
//!
//! Each module exposes `run() -> ExperimentTable` producing the table the
//! corresponding bench target prints. The integration tests assert the
//! *shape* claims on these tables (who wins, by what factor, bounds never
//! exceeded); EXPERIMENTS.md records a captured instance of each.

pub mod a1;
pub mod a2;
pub mod a3;
pub mod e1;
pub mod f1;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;

use crate::table::ExperimentTable;

/// Every experiment id, in the order they appear in DESIGN.md (the order
/// the `tables` binary prints them in).
pub const IDS: [&str; 13] = [
    "t1", "t2", "t3", "t4", "t5", "f1", "f2", "f3", "f4", "a1", "a2", "a3", "e1",
];

/// Generates experiment `id` (one of [`IDS`]), or `None` for an unknown id.
pub fn run(id: &str) -> Option<ExperimentTable> {
    Some(match id {
        "t1" => t1::run(),
        "t2" => t2::run(),
        "t3" => t3::run(),
        "t4" => t4::run(),
        "t5" => t5::run(),
        "f1" => f1::run(),
        "f2" => f2::run(),
        "f3" => f3::run(),
        "f4" => f4::run(),
        "a1" => a1::run(),
        "a2" => a2::run(),
        "a3" => a3::run(),
        "e1" => e1::run(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_rows() {
        for table in IDS.map(|id| run(id).expect("listed ids run")) {
            assert!(!table.rows.is_empty(), "{} has no rows", table.id);
            assert!(!table.columns.is_empty(), "{} has no columns", table.id);
        }
    }
}
