//! Table rendering helpers for the figures and EXPERIMENTS.md, and the
//! crash-safe results writer every `results/` artifact goes through.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// The repo-root `results/` directory every figure, study and self-timed
/// bench archives into (anchored to the crate manifest, not the working
/// directory).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/harness; results live at the repo root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("results")
}

/// Writes `contents` to `path` atomically: the bytes go to a temporary
/// sibling file first and are renamed into place only once fully written,
/// so an interrupted run can never leave a truncated artifact behind —
/// readers see either the old file or the complete new one.
///
/// # Errors
///
/// Propagates filesystem errors; the temporary file is removed on failure.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    write_atomic_bytes(path, contents.as_bytes())
}

/// Byte-level [`write_atomic`]: the crash-safe writer binary artifacts
/// (snapshots, sweep resume journals) go through. Matches the
/// `snapshot::AtomicWriter` signature so it plugs straight into a
/// [`snapshot::SnapshotStore`].
///
/// # Errors
///
/// Propagates filesystem errors; the temporary file is removed on failure.
pub fn write_atomic_bytes(path: &Path, contents: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("not a file path: {}", path.display()))
    })?;
    // A per-process suffix keeps concurrent writers (e.g. two benches
    // targeting different figures in one results dir) from colliding on
    // the temporary name.
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    // Transient kernel hiccups (Interrupted/WouldBlock-class) get a few
    // short retries before the failure is allowed to surface; permanent
    // errors still propagate on the first attempt.
    let write_then_rename = supervise::edge::retry_transient(
        3,
        &supervise::Backoff { base_ms: 1, cap_ms: 8 },
        0,
        || {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(contents)?;
            // Data must be durable before the rename publishes the name.
            f.sync_all()?;
            fs::rename(&tmp, path)
        },
    );
    if write_then_rename.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    write_then_rename
}

/// Renders a GitHub-flavored markdown table.
///
/// # Examples
///
/// ```
/// let t = harness::report::markdown_table(
///     &["app", "value"],
///     &[vec!["comd".into(), "1.23".into()]],
/// );
/// assert!(t.contains("| comd | 1.23 |"));
/// ```
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(out, "|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Writes rows as CSV (simple quoting: fields containing commas or quotes
/// are quoted with doubled quotes) through [`write_atomic`].
///
/// # Errors
///
/// Propagates row-rendering and filesystem errors — a failed row write
/// fails the call instead of silently producing a partial file.
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let quote = |s: &str| {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let render_err = io::Error::other;
    let mut out = String::new();
    writeln!(out, "{}", headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(","))
        .map_err(render_err)?;
    for row in rows {
        writeln!(out, "{}", row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","))
            .map_err(render_err)?;
    }
    write_atomic(path, &out)
}

/// Formats a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else {
        format!("{v:.3}")
    }
}

/// Formats a ratio as a percentage.
pub fn pct(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else {
        format!("{:.1}%", v * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 1 | 2 |");
    }

    #[test]
    fn csv_quotes_fields() {
        let dir = std::env::temp_dir().join("pcstall_report_test");
        let path = dir.join("t.csv");
        write_csv(&path, &["x", "y"], &[vec!["a,b".into(), "c\"d".into()]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"a,b\""));
        assert!(content.contains("\"c\"\"d\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join("pcstall_atomic_test");
        let path = dir.join("out.json");
        write_atomic(&path, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        write_atomic(&path, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        // No temporary droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_rejects_directory_target() {
        assert!(write_atomic(Path::new("/"), "x").is_err());
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f3(f64::NAN), "n/a");
        assert_eq!(pct(0.3215), "32.1%");
    }
}
