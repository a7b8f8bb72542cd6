//! Plain-text table formatting for the benchmark harness.
//!
//! `rb-bench`'s `paper` binary prints the paper's tables and figure
//! series as aligned text; this helper keeps them consistent.

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut TextTable {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len().max(row.len()), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = width - cell.chars().count();
                // Right-align numeric-looking cells, left-align text.
                let numeric = cell
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+');
                if numeric && i > 0 {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                } else {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl core::fmt::Display for TextTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats bits/second as a human-readable Gbps value.
pub fn gbps(bps: f64) -> String {
    format!("{:.2} Gbps", bps / 1e9)
}

/// Formats packets/second as Mpps.
pub fn mpps(pps: f64) -> String {
    format!("{:.2} Mpps", pps / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["name", "rate"]);
        t.row(["forwarding", "9.70 Gbps"]);
        t.row(["ipsec", "1.40 Gbps"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("9.70"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["x"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let _ = t.render(); // Must not panic.
    }

    #[test]
    fn numeric_cells_right_align() {
        let mut t = TextTable::new(["k", "value"]);
        t.row(["a", "1"]);
        t.row(["b", "1000"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        // Both numbers end at the same column.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn unit_formatters() {
        assert_eq!(gbps(9.7e9), "9.70 Gbps");
        assert_eq!(mpps(18.96e6), "18.96 Mpps");
    }
}
