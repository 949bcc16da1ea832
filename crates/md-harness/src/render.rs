//! Plain-text table rendering and CSV output for the figure data.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Writes the rows as CSV (header first) to `path`, creating parents.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        let esc = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        writeln!(
            f,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut line = String::new();
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(line, "{:>w$}  ", h, w = widths[i]);
        }
        writeln!(f, "{}", line.trim_end())?;
        let total: usize = widths.iter().sum::<usize>() + 2 * ncol;
        writeln!(f, "{}", "-".repeat(total.min(160)))?;
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:>w$}  ", cell, w = widths[i]);
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

/// Formats a float with sensible significant digits for table cells.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 0.1 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["lj", "55"]).row(["rhodo", "440"]);
        let s = t.to_string();
        assert!(s.contains("name"));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["1", "x,y"]);
        let dir = std::env::temp_dir().join("verlette-test-csv");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s, "a,b\n1,\"x,y\"\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fnum_scales_digits() {
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(12.34), "12.3");
        assert_eq!(fnum(0.5), "0.50");
        assert_eq!(fnum(0.0123), "0.012");
        assert_eq!(fnum(0.0), "0");
    }
}
