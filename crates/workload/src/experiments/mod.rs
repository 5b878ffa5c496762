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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ExperimentTable;

    /// Runs every experiment, in the order they appear in DESIGN.md.
    fn all() -> Vec<ExperimentTable> {
        vec![
            t1::run(),
            t2::run(),
            t3::run(),
            t4::run(),
            t5::run(),
            f1::run(),
            f2::run(),
            f3::run(),
            f4::run(),
            a1::run(),
            a2::run(),
            a3::run(),
            e1::run(),
        ]
    }

    #[test]
    fn every_experiment_produces_rows() {
        for table in all() {
            assert!(!table.rows.is_empty(), "{} has no rows", table.id);
            assert!(!table.columns.is_empty(), "{} has no columns", table.id);
        }
    }
}
