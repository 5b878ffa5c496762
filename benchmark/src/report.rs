//! What one pass (one process) reports, and how it crosses the pipe.
//!
//! A pass prints every metric by name with its unit, then one `detail:` line
//! of facts that are not metrics (digest, sample counts, exact per-block
//! counts), then — last — the one-line JSON object the driver contract
//! fixes: exactly `correct`, `attempted`, `failed` and `metrics`.

use crate::json::Json;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};

pub struct Pass {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every check held: no failed op, digests equal wherever two passes or
    /// two blocks computed the same thing.
    pub correct: bool,
    /// `(metric name, value)`; exactly the names of the pass's table.
    pub metrics: Vec<(&'static str, f64)>,
    pub detail: Vec<(&'static str, Json)>,
}

/// Digests are 64-bit; JSON numbers are doubles. Hex keeps every bit.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

impl Pass {
    pub fn table(&self) -> &'static [MetricSpec] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Prints the pass; the contract line goes last.
    ///
    /// # Panics
    ///
    /// Panics if the pass does not carry exactly its table's metrics — a bug
    /// in the benchmark, caught before a wrong line reaches the driver.
    pub fn print(&self) {
        let table = self.table();
        let pass = if self.traced { "traced" } else { "timed" };
        println!("== {} ({pass} pass)", self.workload);
        let mut metrics = Vec::with_capacity(table.len());
        for spec in table {
            let value = self
                .metrics
                .iter()
                .find(|(name, _)| *name == spec.name)
                .unwrap_or_else(|| panic!("{pass} pass did not measure {}", spec.name))
                .1;
            println!("{} = {} {}", spec.name, value, spec.unit);
            metrics.push((
                spec.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(spec.unit))]),
            ));
        }
        assert_eq!(
            self.metrics.len(),
            table.len(),
            "{pass} pass measured a metric outside its table"
        );
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_share = {share} ratio ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        println!(
            "detail: {}",
            Json::obj(self.detail.iter().cloned()).render()
        );
        println!(
            "{}",
            Json::obj([
                ("correct", Json::Bool(self.correct)),
                ("attempted", Json::Num(self.attempted as f64)),
                ("failed", Json::Num(self.failed as f64)),
                ("metrics", Json::obj(metrics)),
            ])
            .render()
        );
    }
}

/// A pass as the suite reads it back from a child's standard output.
pub struct ParsedPass {
    pub correct: bool,
    pub attempted: f64,
    pub failed: f64,
    /// `name → {value, unit}`, as printed.
    pub metrics: Json,
    pub detail: Json,
}

/// Reads the contract line (last) and the `detail:` line of a pass.
///
/// # Errors
///
/// Returns what is missing or malformed.
pub fn parse_pass(stdout: &str) -> Result<ParsedPass, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .ok_or("the pass printed nothing")?;
    let result = Json::parse(last)?;
    let detail = stdout
        .lines()
        .rev()
        .find_map(|line| line.strip_prefix("detail: "))
        .ok_or("the pass printed no detail line")?;
    let field = |key: &str| result.get(key).ok_or(format!("result line lacks {key}"));
    Ok(ParsedPass {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")?,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")?,
        metrics: field("metrics")?.clone(),
        detail: Json::parse(detail)?,
    })
}
