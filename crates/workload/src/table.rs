//! Experiment tables: the uniform output format of every experiment.

use std::fmt;

/// A rendered experiment result: header, rows, and footnotes.
///
/// # Example
///
/// ```
/// use opr_workload::ExperimentTable;
/// let table = ExperimentTable {
///     id: "T0".into(),
///     title: "demo".into(),
///     columns: vec!["x".into(), "y".into()],
///     rows: vec![vec!["1".into(), "2".into()]],
///     notes: vec!["numbers are illustrative".into()],
/// };
/// assert!(table.to_markdown().contains("| 1 | 2 |"));
/// assert_eq!(table.to_csv().lines().count(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentTable {
    /// Experiment id (T1…T5, F1…F4).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows (each the same length as `columns`).
    pub rows: Vec<Vec<String>>,
    /// Footnotes explaining methodology or caveats.
    pub notes: Vec<String>,
}

impl ExperimentTable {
    /// Creates an empty table.
    pub(crate) fn new(id: &str, title: &str, columns: Vec<String>) -> Self {
        ExperimentTable {
            id: id.to_owned(),
            title: title.to_owned(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the column count.
    pub(crate) fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(row);
    }

    /// Appends a footnote.
    pub(crate) fn add_note(&mut self, note: &str) {
        self.notes.push(note.to_owned());
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out
    }

    /// Renders CSV (header + rows; notes omitted).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let mut out = self
            .columns
            .iter()
            .map(|c| escape(c))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out.pop();
        out
    }
}

impl fmt::Display for ExperimentTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-only lookup: the experiment modules' tests read their tables
    /// back through it.
    impl ExperimentTable {
        /// All values of the column named `name`.
        ///
        /// # Panics
        ///
        /// Panics if no such column exists.
        pub(crate) fn column(&self, name: &str) -> Vec<&str> {
            let idx = self
                .columns
                .iter()
                .position(|c| c == name)
                .unwrap_or_else(|| panic!("no column named {name:?}"));
            self.rows.iter().map(|r| r[idx].as_str()).collect()
        }
    }

    fn sample() -> ExperimentTable {
        let mut t = ExperimentTable::new("T9", "sample", vec!["a".into(), "b".into(), "c".into()]);
        t.push_row(vec!["1".into(), "x,y".into(), "z\"q".into()]);
        t.push_row(vec!["2".into(), "m".into(), "n".into()]);
        t.add_note("note one");
        t
    }

    #[test]
    fn markdown_has_header_separator_rows_notes() {
        let md = sample().to_markdown();
        assert!(md.contains("### T9 — sample"));
        assert!(md.contains("| a | b | c |"));
        assert!(md.contains("|---|---|---|"));
        assert!(md.contains("| 2 | m | n |"));
        assert!(md.contains("> note one"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b,c");
        assert_eq!(lines[1], "1,\"x,y\",\"z\"\"q\"");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn column_lookup() {
        let t = sample();
        assert_eq!(t.column("a"), vec!["1", "2"]);
        assert_eq!(t.column("c"), vec!["z\"q", "n"]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = ExperimentTable::new("X", "x", vec!["a".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn rejects_unknown_column() {
        let _ = sample().column("zz");
    }
}
