//! Shape regression of the experiment tables: the qualitative claims the
//! paper makes (who wins, by what factor, which bounds are tight) must come
//! out of the regenerated tables — and the tables themselves, as the
//! `tables` binary prints them, are pinned byte for byte against
//! `tests/data/tables.golden`.

use opr::workload::experiments;

const TABLES_GOLDEN: &str = "tests/data/tables.golden";

/// Every experiment table as `tables` (no arguments) prints it: each
/// table's markdown, in [`experiments::IDS`] order, followed by a blank
/// line. A deliberate change re-blesses with
/// `BLESS_TABLES=1 cargo test --test experiments_shape`.
#[test]
fn every_table_matches_the_committed_golden() {
    let mut current = String::new();
    for id in experiments::IDS {
        let table = experiments::run(id).expect("listed ids run");
        current.push_str(&table.to_markdown());
        current.push_str("\n\n");
    }
    if std::env::var_os("BLESS_TABLES").is_some() {
        std::fs::write(TABLES_GOLDEN, &current).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(TABLES_GOLDEN)
        .expect("golden committed (bless with BLESS_TABLES=1)");
    assert_eq!(
        golden, current,
        "{TABLES_GOLDEN} drifted; re-bless with BLESS_TABLES=1 if deliberate"
    );
}

#[test]
fn t1_paper_algorithms_beat_consensus_in_rounds_for_large_t() {
    let table = experiments::t1::run();
    // At t = 4: alg1-log = 13 < b2-consensus = 14; alg4 = 2 beats all.
    let mut alg1_t4 = None;
    let mut b2_t4 = None;
    for row in &table.rows {
        if row[0] == "4" && row[1] == "alg1-log" {
            alg1_t4 = Some(row[3].parse::<u32>().unwrap());
        }
        if row[0] == "4" && row[1] == "b2-consensus" {
            b2_t4 = Some(row[3].parse::<u32>().unwrap());
        }
    }
    assert!(alg1_t4.unwrap() < b2_t4.unwrap());
}

#[test]
fn t1_log_schedule_grows_logarithmically() {
    let table = experiments::t1::run();
    let alg1: Vec<u32> = table
        .rows
        .iter()
        .filter(|r| r[1] == "alg1-log")
        .map(|r| r[3].parse().unwrap())
        .collect();
    // t = 1, 2, 3, 4 → 7, 10, 13, 13: plateaus between powers of two.
    assert_eq!(alg1, vec![7, 10, 13, 13]);
}

#[test]
fn t2_bounds_hold_with_the_paper_ordering() {
    let table = experiments::t2::run();
    let get = |alg: &str, col: usize| -> i64 {
        table
            .rows
            .iter()
            .find(|r| r[0] == alg)
            .unwrap_or_else(|| panic!("{alg} missing"))[col]
            .parse()
            .unwrap()
    };
    // Strong renaming is tight; the general algorithm may exceed N but not
    // N + t − 1; the 2-step pays quadratically (bound column).
    assert!(get("alg1-const", 4) == 16);
    assert!(get("alg1-log", 4) == 12);
    assert!(get("alg4-2step", 4) == 121);
}

#[test]
fn t5_legal_side_of_the_boundary_is_clean() {
    let table = experiments::t5::run();
    for row in &table.rows {
        if row[2] == "true" {
            assert_eq!(row[4], "0", "violations at legal config: {row:?}");
        }
    }
}

#[test]
fn f1_converges_below_rounding_threshold() {
    let table = experiments::f1::run();
    let last = table.rows.last().unwrap();
    let spread: f64 = last[1].parse().unwrap();
    assert!(spread < 1.0 / (6.0 * 17.0));
    // And the series must contract from its start.
    let first: f64 = table.rows[0][1].parse().unwrap();
    assert!(spread < first || first == 0.0);
}

#[test]
fn f3_gap_grows_with_t() {
    let table = experiments::f3::run();
    let gaps: Vec<i64> = table
        .rows
        .iter()
        .map(|r| r[3].parse::<i64>().unwrap() - r[2].parse::<i64>().unwrap())
        .collect();
    assert!(gaps.last().unwrap() > gaps.first().unwrap());
}

#[test]
fn f4_discrepancy_under_quadratic_bound() {
    let table = experiments::f4::run();
    for row in &table.rows {
        let delta: i64 = row[2].parse().unwrap();
        let bound: i64 = row[3].parse().unwrap();
        assert!(delta <= bound, "t={}", row[0]);
    }
}
