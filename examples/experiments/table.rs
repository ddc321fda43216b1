//! Result tables: the uniform output format of the experiment harness,
//! rendered as GitHub-flavoured markdown and serializable to JSON.

use serde::Serialize;

/// One experiment's result table.
#[derive(Clone, Debug, Serialize)]
pub struct Table {
    /// Experiment id, e.g. "E2".
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells, one string per column.
    pub rows: Vec<Vec<String>>,
    /// One-line verdict comparing against the paper's claim.
    pub verdict: String,
}

impl Table {
    /// Start a table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            verdict: String::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch in {}", self.id);
        self.rows.push(cells);
    }

    /// Set the verdict line.
    pub fn verdict(&mut self, verdict: impl Into<String>) {
        self.verdict = verdict.into();
    }

    /// Render as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        if !self.verdict.is_empty() {
            out.push_str(&format!("\n**Verdict:** {}\n", self.verdict));
        }
        out
    }
}

/// Shorthand: convert heterogeneous cells to strings.
#[macro_export]
macro_rules! cells {
    ($($cell:expr),+ $(,)?) => { vec![$(format!("{}", $cell)),+] };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("E0", "smoke", &["a", "b"]);
        t.row(cells!["1", 2]);
        t.verdict("fine");
        let md = t.to_markdown();
        assert!(md.contains("### E0 — smoke"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("**Verdict:** fine"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("E0", "smoke", &["a", "b"]);
        t.row(cells!["only one"]);
    }
}
