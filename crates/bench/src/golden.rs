//! Golden-trace harness: each experiment binary records its key metrics
//! into a [`Golden`] set and calls [`Golden::finish`] last thing. The
//! file `tests/golden/<exp>[.quick].golden` is the one committed piece of
//! evidence an experiment has: `--bless` writes it (and is the only flag
//! under which a binary writes anything under version control), `--check`
//! compares the run against it and exits nonzero on drift — nothing
//! else — and a run with neither flag touches no committed file.
//!
//! Only *deterministic* metrics belong in a golden set: everything the
//! seeded simulation derives (errors, counts, coefficients) qualifies;
//! host wall-clock time never does — that is `benchmark/`'s to judge
//! (`run.sh --compare`), under repetition and recorded spread.
//!
//! File format, one entry per line, `#` starts a comment:
//!
//! ```text
//! key value rel_tol
//! ```
//!
//! Values are written in Rust's shortest round-trip `f64` form, so a
//! `rel_tol` of `0` means bit-exact reproduction.

use crate::BenchArgs;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Default relative tolerance for non-exact metrics: far tighter than any
/// scientific claim, loose enough to survive a compiler's float-contraction
/// choices changing across releases.
pub const DEFAULT_REL_TOL: f64 = 1e-6;

/// One recorded metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Metric key (snake_case, no whitespace).
    pub key: String,
    /// Observed value.
    pub value: f64,
    /// Relative tolerance for comparison (0 = exact).
    pub rel_tol: f64,
}

/// A named set of golden metrics being collected by an experiment run.
#[derive(Debug, Clone)]
pub struct Golden {
    name: String,
    /// Where the snapshot lives (`tests/golden` at the repository root).
    dir: PathBuf,
    entries: Vec<Entry>,
}

/// What [`Golden::settle`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settled {
    /// No `--check`/`--bless` flag: nothing happened.
    Silent,
    /// `--bless`: the golden file was (re)written.
    Blessed,
    /// `--check`: the run matched the committed golden file.
    Matched,
}

impl Golden {
    /// Starts a set named after the experiment binary (`e3_figure3`);
    /// the quick schedule gets a distinct name (`e3_figure3.quick`) so
    /// both schedules hold goldens side by side.
    pub fn new(experiment: &str, quick: bool) -> Golden {
        Golden {
            name: if quick {
                format!("{experiment}.quick")
            } else {
                experiment.to_string()
            },
            dir: repo_root().join("tests").join("golden"),
            entries: Vec::new(),
        }
    }

    /// Records a metric at the default tolerance.
    pub fn push(&mut self, key: impl Into<String>, value: f64) {
        self.push_tol(key, value, DEFAULT_REL_TOL);
    }

    /// Records a metric that must reproduce bit-exactly (counts, flags).
    pub fn push_exact(&mut self, key: impl Into<String>, value: f64) {
        self.push_tol(key, value, 0.0);
    }

    /// Records a metric at an explicit relative tolerance.
    pub fn push_tol(&mut self, key: impl Into<String>, value: f64, rel_tol: f64) {
        let key = key.into();
        assert!(
            !key.contains(char::is_whitespace),
            "golden key {key:?} must not contain whitespace"
        );
        assert!(value.is_finite(), "golden {key} is not finite: {value}");
        self.entries.push(Entry {
            key,
            value,
            rel_tol,
        });
    }

    /// The file this set belongs to: `tests/golden/<name>.golden` at the
    /// repository root.
    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("{}.golden", self.name))
    }

    /// Renders the set in the golden file format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Golden metrics for {} — regenerate with:\n#   cargo run --release -p bench-suite --bin {} -- --bless\n# key value rel_tol",
            self.name,
            self.name.split('.').next().unwrap_or(&self.name),
        );
        for e in &self.entries {
            let _ = writeln!(out, "{} {} {}", e.key, e.value, e.rel_tol);
        }
        out
    }

    /// Applies the `--check`/`--bless` contract: bless writes the golden
    /// file, check compares against it, neither does nothing.
    ///
    /// # Errors
    ///
    /// Both flags at once, an unreadable or malformed golden file, or
    /// drift under `--check` (one line per mismatch).
    pub fn settle(&self, args: &BenchArgs) -> Result<Settled, String> {
        let path = self.path();
        match (args.bless, args.check) {
            (true, true) => Err("--bless and --check are mutually exclusive".to_string()),
            (false, false) => Ok(Settled::Silent),
            (true, false) => {
                std::fs::create_dir_all(&self.dir)
                    .and_then(|()| std::fs::write(&path, self.render()))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!(
                    "golden: blessed {} ({} metrics)",
                    path.display(),
                    self.entries.len()
                );
                Ok(Settled::Blessed)
            }
            (false, true) => {
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    format!(
                        "cannot read {}: {e} (run with --bless first)",
                        path.display()
                    )
                })?;
                let expected =
                    parse(&text).map_err(|e| format!("malformed {}: {e}", path.display()))?;
                let drift = diff(&expected, &self.entries);
                if !drift.is_empty() {
                    return Err(format!(
                        "DRIFT against {}:\n  {}",
                        path.display(),
                        drift.join("\n  ")
                    ));
                }
                println!(
                    "golden: {} metrics match {}",
                    self.entries.len(),
                    path.display()
                );
                Ok(Settled::Matched)
            }
        }
    }

    /// The tail every experiment shares: settle the golden — on error
    /// print it and exit with status 3 — then exit 1 if the experiment's
    /// own shape verdict failed.
    pub fn finish(&self, args: &BenchArgs, ok: bool) {
        if let Err(e) = self.settle(args) {
            eprintln!("golden: {e}");
            std::process::exit(3);
        }
        if !ok {
            std::process::exit(1);
        }
    }
}

/// The repository root, resolved from this crate's manifest directory
/// (`crates/bench` → two levels up).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// Parses golden file text into entries.
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(key), Some(value), Some(tol), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "line {}: want `key value rel_tol`: {line:?}",
                i + 1
            ));
        };
        let value: f64 = value
            .parse()
            .map_err(|e| format!("line {}: bad value: {e}", i + 1))?;
        let rel_tol: f64 = tol
            .parse()
            .map_err(|e| format!("line {}: bad rel_tol: {e}", i + 1))?;
        if !value.is_finite() || !rel_tol.is_finite() || rel_tol < 0.0 {
            return Err(format!("line {}: non-finite or negative numbers", i + 1));
        }
        entries.push(Entry {
            key: key.to_string(),
            value,
            rel_tol,
        });
    }
    Ok(entries)
}

/// Whether `got` matches `want` within `rel_tol` (of the larger
/// magnitude, so the comparison is symmetric; exact when `rel_tol` is 0).
pub fn matches(want: f64, got: f64, rel_tol: f64) -> bool {
    if want == got {
        return true;
    }
    (want - got).abs() <= rel_tol * want.abs().max(got.abs())
}

/// Compares a run against the expected entries: every expected key must
/// be present and in tolerance, and the run must not add or lose keys.
/// Returns one line per mismatch (empty = clean).
pub fn diff(expected: &[Entry], got: &[Entry]) -> Vec<String> {
    let mut out = Vec::new();
    for e in expected {
        match got.iter().find(|g| g.key == e.key) {
            None => out.push(format!("missing metric {}", e.key)),
            Some(g) if !matches(e.value, g.value, e.rel_tol) => out.push(format!(
                "{}: expected {} (rel_tol {}), got {}",
                e.key, e.value, e.rel_tol, g.value
            )),
            Some(_) => {}
        }
    }
    for g in got {
        if !expected.iter().any(|e| e.key == g.key) {
            out.push(format!(
                "new metric {} = {} not in golden file",
                g.key, g.value
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let mut g = Golden::new("unit", false);
        g.push("median_ape_pct", 15.123456789012345);
        g.push_exact("rows", 13.0);
        g.push_tol("idle_w", 31.48, 1e-3);
        let parsed = parse(&g.render()).expect("round trip");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed, g.entries, "shortest-round-trip floats are exact");
    }

    #[test]
    fn diff_flags_drift_missing_and_new_keys() {
        let expected = parse("a 1.0 0\nb 2.0 0.01\n").expect("parse");
        let ok = vec![
            Entry {
                key: "a".into(),
                value: 1.0,
                rel_tol: 0.0,
            },
            Entry {
                key: "b".into(),
                value: 2.015,
                rel_tol: 0.01,
            },
        ];
        assert!(
            diff(&expected, &ok).is_empty(),
            "{:?}",
            diff(&expected, &ok)
        );
        let bad = vec![
            Entry {
                key: "a".into(),
                value: 1.0000001,
                rel_tol: 0.0,
            },
            Entry {
                key: "c".into(),
                value: 3.0,
                rel_tol: 0.0,
            },
        ];
        let drift = diff(&expected, &bad);
        assert_eq!(drift.len(), 3, "{drift:?}");
        assert!(drift[0].contains("a:"), "{drift:?}");
        assert!(drift[1].contains("missing metric b"), "{drift:?}");
        assert!(drift[2].contains("new metric c"), "{drift:?}");
    }

    #[test]
    fn matches_is_exact_at_zero_tol_and_symmetric() {
        assert!(matches(0.0, 0.0, 0.0));
        assert!(!matches(1.0, 1.0 + f64::EPSILON, 0.0));
        assert!(matches(100.0, 100.00001, 1e-6));
        assert!(matches(100.00001, 100.0, 1e-6));
        assert!(!matches(100.0, 100.1, 1e-6));
    }

    #[test]
    fn comment_and_blank_lines_are_skipped() {
        let parsed = parse("# header\n\n  # indented comment\nx 4.5 0\n").expect("parse");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].key, "x");
    }

    #[test]
    fn malformed_lines_error_with_position() {
        assert!(parse("just_a_key\n").is_err());
        assert!(parse("k one 0\n").unwrap_err().contains("line 1"));
        assert!(parse("k 1 0 extra\n").is_err());
        assert!(parse("k 1 -0.5\n").is_err());
    }

    /// Every file under `dir`, recursively, sorted.
    fn files_under(dir: &std::path::Path) -> Vec<PathBuf> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                out.extend(files_under(&path));
            } else {
                out.push(path);
            }
        }
        out.sort();
        out
    }

    /// The one-writer rule: with the process cwd and the golden directory
    /// both inside an empty temp dir, a plain run and `--check` create no
    /// file, `--bless` creates exactly the golden, and both flags at once
    /// are refused. (The only test in this crate that touches the cwd.)
    #[test]
    fn only_bless_writes_and_it_writes_only_the_golden() {
        let tmp = std::env::temp_dir().join(format!("golden-settle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(tmp.join("cwd")).expect("temp dir");
        let old_cwd = std::env::current_dir().expect("cwd");
        std::env::set_current_dir(tmp.join("cwd")).expect("chdir");

        let mut g = Golden::new("unit", true);
        g.dir = tmp.join("golden");
        g.push_exact("rows", 13.0);
        let flags = |check, bless| BenchArgs {
            check,
            bless,
            ..BenchArgs::default()
        };

        assert_eq!(g.settle(&flags(false, false)), Ok(Settled::Silent));
        let missing = g.settle(&flags(true, false)).unwrap_err();
        assert!(missing.contains("run with --bless first"), "{missing}");
        assert!(g.settle(&flags(true, true)).is_err(), "both flags refused");
        assert_eq!(files_under(&tmp), Vec::<PathBuf>::new());

        assert_eq!(g.settle(&flags(false, true)), Ok(Settled::Blessed));
        assert_eq!(files_under(&tmp), [tmp.join("golden/unit.quick.golden")]);
        assert_eq!(g.settle(&flags(true, false)), Ok(Settled::Matched));
        g.push_exact("extra", 1.0);
        let drift = g.settle(&flags(true, false)).unwrap_err();
        assert!(drift.contains("new metric extra"), "{drift}");
        assert_eq!(files_under(&tmp), [tmp.join("golden/unit.quick.golden")]);

        std::env::set_current_dir(old_cwd).expect("chdir back");
        std::fs::remove_dir_all(&tmp).expect("clean up");
    }
}
