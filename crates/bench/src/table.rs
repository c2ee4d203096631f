//! Minimal table type the harness prints experiment results with, plus the
//! bridge that turns rendered cells into typed metrics for reports.

use tacoma_util::{metric_key, MetricValue};

/// A printable experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id and name, e.g. `"E1 — bandwidth conservation"`.
    pub title: String,
    /// The paper claim this table tests.
    pub claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
    /// Wall-clock commentary (events/sec).  Deliberately outside
    /// the deterministic surface: excluded from [`Table::metrics`] and
    /// [`Table::render`], so reports and rendered tables stay byte-identical
    /// across machines and worker counts.  The harness prints notes in a
    /// separate section that CI lifts into the job summary.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, claim: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            claim: claim.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Appends a wall-clock note (not part of the deterministic report).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Flattens every cell into a typed metric, keyed `r{row}.{header-slug}`.
    ///
    /// This is the bridge between the human-readable tables and the
    /// machine-readable [`Report`](crate::report::Report): scenario
    /// parameters (sites, rates) and measured quantities (bytes, waits)
    /// alike become comparable key/value pairs, in a deterministic order.
    pub fn metrics(&self) -> Vec<(String, MetricValue)> {
        let headers: Vec<String> = self.headers.iter().map(|h| metric_key(h)).collect();
        let mut out = Vec::with_capacity(self.rows.len() * headers.len());
        for (r, row) in self.rows.iter().enumerate() {
            // A ragged row would silently shrink gate coverage (zip stops at
            // the shorter side and a dropped new column has no baseline entry
            // to miss), so fail loudly in debug builds.
            debug_assert_eq!(
                row.len(),
                headers.len(),
                "row {r} of '{}' does not match the header count",
                self.title
            );
            for (header, cell) in headers.iter().zip(row) {
                out.push((format!("r{r}.{header}"), MetricValue::from_cell(cell)));
            }
        }
        out
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        out.push_str(&format!("claim: {}\n\n", self.claim));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("E0 — demo", "testing the table printer", &["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a much longer name".into(), "12345".into()]);
        let rendered = t.render();
        assert!(rendered.contains("E0 — demo"));
        assert!(rendered.contains("a much longer name"));
        let lines: Vec<&str> = rendered.lines().collect();
        // Header line and the two data lines align on the second column.
        let col = lines[3].find("value").unwrap();
        assert_eq!(lines[5].len().min(col), col);
    }

    #[test]
    fn notes_stay_out_of_metrics_and_render() {
        let mut t = Table::new("E0", "claim", &["n"]);
        t.row(vec!["1".into()]);
        t.note("4 shards: 2.35x (1.9s wall)");
        assert_eq!(t.metrics().len(), 1, "notes must not become gated metrics");
        assert!(
            !t.render().contains("2.35x"),
            "notes must not perturb the deterministic rendering"
        );
        assert_eq!(t.notes.len(), 1);
    }

    #[test]
    fn metrics_flatten_cells_with_typed_values() {
        let mut t = Table::new("E0", "claim", &["sites", "mean wait ms", "saving"]);
        t.row(vec!["8".into(), "21.4".into(), "15.3×".into()]);
        t.row(vec!["16".into(), "9.0".into(), "2.1×".into()]);
        let metrics = t.metrics();
        assert_eq!(metrics.len(), 6);
        assert_eq!(metrics[0], ("r0.sites".to_string(), MetricValue::Count(8)));
        assert_eq!(
            metrics[1],
            ("r0.mean_wait_ms".to_string(), MetricValue::Float(21.4))
        );
        assert_eq!(
            metrics[5],
            ("r1.saving".to_string(), MetricValue::Text("2.1×".into()))
        );
    }
}
