//! Golden-trace harness tests.
//!
//! The experiment binaries in `crates/bench` each record their key
//! deterministic metrics through `bench_suite::Golden`; the blessed
//! snapshots live in `tests/golden/*.golden`. Two layers of checking:
//!
//! 1. **Format validation** (always on): every committed golden file must
//!    parse — one `key value rel_tol` triple per line, `#` comments, no
//!    NaNs, no negative tolerances, no duplicate keys, and values must
//!    round-trip exactly through their `Display` form (the harness relies
//!    on shortest-round-trip formatting for exact comparisons).
//!
//! 2. **Drift detection** (`RUN_GOLDEN=1`): re-run every experiment binary
//!    with `--check` and fail if any metric drifted from its snapshot.
//!    This is minutes of work (full learning campaigns), so it is opt-in
//!    here and wired into CI as its own job.
//!
//! Neither layer keeps a list of experiments: the snapshots required are
//! the binaries in `crates/bench/src/bin/` (each needs a full and a
//! `.quick` golden), and the runs are the snapshots present
//! (`eN_name[.quick].golden` → `--bin eN_name [--quick] --check`).
//!
//! The root test package cannot depend on `bench-suite` (it would drag the
//! bench binaries into every `cargo test`), so layer 1 re-implements the
//! tiny parser and cross-checks it against the files the real harness
//! wrote.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The files in `dir` with extension `ext`, sorted.
fn files_with_ext(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{} is not readable: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    files.sort();
    files
}

fn golden_files() -> Vec<PathBuf> {
    files_with_ext(&golden_dir(), "golden")
}

/// File names without their extension: `eN_name[.quick]` for a golden,
/// `eN_name` for a binary's source.
fn stems(files: &[PathBuf]) -> Vec<String> {
    files
        .iter()
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect()
}

/// Mirror of `bench_suite::golden::parse` — `key value rel_tol` triples.
fn parse(text: &str) -> Result<Vec<(String, f64, f64)>, String> {
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() != 3 {
            return Err(format!("line {}: expected 3 tokens", lineno + 1));
        }
        let value: f64 = tokens[1]
            .parse()
            .map_err(|e| format!("line {}: bad value: {e}", lineno + 1))?;
        let tol: f64 = tokens[2]
            .parse()
            .map_err(|e| format!("line {}: bad tolerance: {e}", lineno + 1))?;
        if !value.is_finite() || !tol.is_finite() || tol < 0.0 {
            return Err(format!("line {}: non-finite or negative", lineno + 1));
        }
        entries.push((tokens[0].to_string(), value, tol));
    }
    Ok(entries)
}

#[test]
fn every_committed_golden_file_is_well_formed() {
    let files = golden_files();
    assert!(
        !files.is_empty(),
        "no .golden files in {} — the harness snapshots are part of the repo",
        golden_dir().display()
    );
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable golden file");
        let entries =
            parse(&text).unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
        assert!(
            !entries.is_empty(),
            "{} contains no metrics",
            path.display()
        );
        let mut seen = HashSet::new();
        for (key, value, _tol) in &entries {
            assert!(
                seen.insert(key.clone()),
                "{} lists `{key}` twice",
                path.display()
            );
            // The harness compares exact entries with `==` after a
            // parse round-trip, so Display(value) must parse back
            // bit-identically.
            let round: f64 = value.to_string().parse().expect("round-trip parse");
            assert_eq!(
                round.to_bits(),
                value.to_bits(),
                "{}: `{key}` does not round-trip through Display",
                path.display()
            );
        }
    }
}

#[test]
fn expected_experiments_have_snapshots() {
    let names = stems(&golden_files());
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src/bin");
    let bins = stems(&files_with_ext(&bin_dir, "rs"));
    assert!(!bins.is_empty(), "no experiment binaries found");
    for bin in &bins {
        for required in [bin.clone(), format!("{bin}.quick")] {
            assert!(
                names.contains(&required),
                "missing snapshot tests/golden/{required}.golden (run the binary with --bless)"
            );
        }
    }
    for name in &names {
        let bin = name.strip_suffix(".quick").unwrap_or(name);
        assert!(
            bins.iter().any(|b| b == bin),
            "tests/golden/{name}.golden has no binary crates/bench/src/bin/{bin}.rs"
        );
    }
}

/// Full drift check: re-run every experiment against every snapshot it
/// has. Opt-in (`RUN_GOLDEN=1`) — this runs complete learning campaigns
/// and takes minutes. CI runs it as a dedicated job.
#[test]
fn golden_traces_match_when_requested() {
    if std::env::var("RUN_GOLDEN").as_deref() != Ok("1") {
        eprintln!("golden_traces_match_when_requested: skipped (set RUN_GOLDEN=1)");
        return;
    }
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    for name in stems(&golden_files()) {
        let (bin, args): (&str, &[&str]) = match name.strip_suffix(".quick") {
            Some(bin) => (bin, &["--quick", "--check"]),
            None => (&name, &["--check"]),
        };
        eprintln!("golden: checking {bin} {}", args.join(" "));
        let status = std::process::Command::new("cargo")
            .current_dir(repo)
            .args(["run", "--release", "-p", "bench-suite", "--bin", bin, "--"])
            .args(args)
            .status()
            .expect("spawn cargo run");
        assert!(
            status.success(),
            "{bin} drifted from its golden snapshot (exit {status})"
        );
    }
}
