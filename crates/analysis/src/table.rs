//! Text tables and TSV output.

use std::fmt::Write as _;
use std::path::Path;

/// Builds fixed-width text tables for terminal reports.
#[derive(Debug, Default, Clone)]
pub struct TableBuilder {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// Creates an empty table.
    pub fn new() -> Self {
        TableBuilder::default()
    }

    /// Sets the header row.
    pub fn header<S: Into<String>>(mut self, cells: impl IntoIterator<Item = S>) -> Self {
        self.header = cells.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a data row.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        if columns == 0 {
            return String::new();
        }
        let mut widths = vec![0usize; columns];
        let measure = |widths: &mut Vec<usize>, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&mut widths, &self.header);
        for row in &self.rows {
            measure(&mut widths, row);
        }

        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "| {cell:<width$} ");
            }
            out.push_str("|\n");
        };
        let rule: String = {
            let mut r = String::new();
            for width in &widths {
                let _ = write!(r, "+{}", "-".repeat(width + 2));
            }
            r.push_str("+\n");
            r
        };
        out.push_str(&rule);
        if !self.header.is_empty() {
            write_row(&mut out, &self.header);
            out.push_str(&rule);
        }
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out.push_str(&rule);
        out
    }
}

/// Renders a header + rows in one call.
pub fn render_table<S: Into<String>, R: IntoIterator<Item = S>>(
    header: impl IntoIterator<Item = S>,
    rows: impl IntoIterator<Item = R>,
) -> String {
    let mut t = TableBuilder::new().header(header);
    for row in rows {
        t.row(row);
    }
    t.render()
}

/// Renders rows as tab-separated values (gnuplot-friendly): a `# `
/// header line, then one line per row. Cells must not contain tabs or
/// newlines — enforced, since silently corrupting a data file is worse
/// than failing.
///
/// # Panics
///
/// Panics if a cell contains a tab or newline.
pub fn tsv_text(header: &[&str], rows: &[Vec<String>]) -> String {
    let check = |cell: &str| {
        assert!(
            !cell.contains('\t') && !cell.contains('\n'),
            "TSV cell contains separator: {cell:?}"
        );
    };
    header.iter().for_each(|c| check(c));
    let mut out = format!("# {}\n", header.join("\t"));
    for row in rows {
        row.iter().for_each(|c| check(c));
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    out
}

/// Writes [`tsv_text`] to `path`.
///
/// # Errors
///
/// I/O errors from the filesystem.
///
/// # Panics
///
/// Panics if a cell contains a tab or newline.
pub fn write_tsv<P: AsRef<Path>>(
    path: P,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    std::fs::write(path, tsv_text(header, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = TableBuilder::new().header(["name", "value"]);
        t.row(["k", "128"]);
        t.row(["archive size", "128 MB"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // rule, header, rule, 2 rows, rule
        assert_eq!(lines.len(), 6);
        assert!(lines[1].contains("| name"));
        assert!(lines[3].contains("| k "));
        // All lines equal width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{s}");
    }

    #[test]
    fn render_table_one_shot() {
        let s = render_table(["a", "b"], vec![vec!["1", "2"], vec!["3", "4"]]);
        assert!(s.contains("| 1 | 2 |"));
        assert!(s.contains("| 3 | 4 |"));
    }

    #[test]
    fn empty_table_renders_empty() {
        assert_eq!(TableBuilder::new().render(), "");
        assert!(TableBuilder::new().is_empty());
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = TableBuilder::new().header(["a", "b", "c"]);
        t.row(["1"]);
        let s = t.render();
        assert!(s.contains("| 1 |"));
    }

    #[test]
    fn tsv_round_trips_through_filesystem() {
        let dir = std::env::temp_dir().join("peerback-analysis-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.tsv");
        write_tsv(
            &path,
            &["x", "y"],
            &[
                vec!["1".into(), "2.5".into()],
                vec!["2".into(), "3.5".into()],
            ],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "# x\ty\n1\t2.5\n2\t3.5\n");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[should_panic(expected = "TSV cell contains separator")]
    fn tsv_rejects_embedded_tabs() {
        let dir = std::env::temp_dir();
        let path = dir.join("peerback-bad.tsv");
        let _ = write_tsv(&path, &["x"], &[vec!["a\tb".into()]]);
    }
}
