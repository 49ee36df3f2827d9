//! Text tables and JSON result files.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A result-file I/O failure, carrying the path that could not be written
/// so `repro` can report *which* file failed before exiting non-zero.
#[derive(Debug)]
pub struct ReportError {
    /// The file or directory the operation targeted.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot write {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for ReportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption, printed above the rows.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (ragged rows are padded with empty cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<1$}|", "", w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Forces telemetry on for one experiment runner: clears the process-wide
/// obs registry and sets the `PILOTE_OBS` kill switch on. Dropping the
/// guard puts the switch back to its value at entry on every exit path, a
/// panicking runner included.
pub(crate) struct ForcedTelemetry {
    was_enabled: bool,
}

impl ForcedTelemetry {
    /// Saves the kill switch, clears the registry and forces telemetry on.
    pub(crate) fn start() -> ForcedTelemetry {
        let was_enabled = pilote_obs::enabled();
        pilote_obs::reset();
        pilote_obs::set_enabled(true);
        ForcedTelemetry { was_enabled }
    }
}

impl Drop for ForcedTelemetry {
    fn drop(&mut self) {
        pilote_obs::set_enabled(self.was_enabled);
    }
}

/// Formats `mean ± std` the way Table 2 prints it.
pub fn pm(mean: f32, std: f32) -> String {
    format!("{mean:.4}±{std:.4}")
}

/// Resolves (and creates) the output directory, default `results/`.
pub fn results_dir(out: Option<&str>) -> Result<PathBuf, ReportError> {
    let dir = PathBuf::from(out.unwrap_or("results"));
    fs::create_dir_all(&dir).map_err(|source| ReportError { path: dir.clone(), source })?;
    Ok(dir)
}

/// Writes pretty-printed JSON next to the text output. On failure the
/// error names the exact path, and callers propagate it up to `repro`,
/// which exits non-zero instead of panicking.
pub fn write_json(dir: &Path, name: &str, value: &serde_json::Value) -> Result<(), ReportError> {
    let path = dir.join(name);
    let body = serde_json::to_string_pretty(value).expect("serialise");
    fs::write(&path, body).map_err(|source| ReportError { path: path.clone(), source })?;
    println!("  → wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("| long-name |"));
        // aligned: "a" padded to width of "long-name"
        assert!(s.contains("| a         |"));
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new("ragged", &["a", "b", "c"]);
        t.row(vec!["x".into()]);
        let s = t.to_string();
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn pm_formats_like_the_paper() {
        assert_eq!(pm(0.9372, 0.0319), "0.9372±0.0319");
    }

    #[test]
    fn results_dir_creates() {
        let dir = std::env::temp_dir().join("pilote_test_results");
        let _ = std::fs::remove_dir_all(&dir);
        let d = results_dir(dir.to_str()).expect("results dir");
        assert!(d.exists());
        write_json(&d, "x.json", &serde_json::json!({"ok": true})).expect("write");
        assert!(d.join("x.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_json_error_names_the_path() {
        let missing = Path::new("/nonexistent-pilote-dir");
        let err = write_json(missing, "out.json", &serde_json::json!({}))
            .expect_err("write into a missing directory must fail");
        let msg = err.to_string();
        assert!(msg.contains("out.json"), "error must name the file: {msg}");
        assert!(std::error::Error::source(&err).is_some());
    }
}
