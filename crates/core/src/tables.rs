//! Plain-text table formatting for the experiment harness binaries.

/// A simple fixed-width text table builder.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are padded/truncated to the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table with column alignment and a separator line.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate().take(cols) {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{cell:>width$}", width = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats an optional value (a mean time, or a percentage) as `x.xx`, or
/// `-` when absent.
#[must_use]
pub fn fmt_opt_time(v: Option<f64>) -> String {
    match v {
        Some(t) => format!("{t:.2}"),
        None => "-".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["Scenario", "Accidents"]);
        t.row(["S1", "0/20"]);
        t.row(["S4-long-label", "10/20"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Scenario"));
        // All rows same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_opt_time(None), "-");
        assert_eq!(fmt_opt_time(Some(3.195)), "3.19");
    }
}
