//! Output checking. Every pass reduces what the program produced to a
//! [`Fingerprint`]: exact counts, bit patterns of simulated statistics,
//! and — in the checked pass — the order-insensitive digest of the CSV
//! the pipeline wrote. Timed repetitions must reproduce the checked
//! pass's fingerprint; for the blessed seed at full size the checked pass
//! must reproduce `expected/<workload>.txt`.

use crate::spec::{Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Named exact values. Floats are stored as their bit patterns: a
/// speed-only change must leave them bit-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint(pub BTreeMap<String, u64>);

impl Fingerprint {
    /// Records an exact count.
    pub fn set(&mut self, key: &str, value: u64) {
        self.0.insert(key.to_string(), value);
    }

    /// Records a float by bit pattern.
    pub fn set_f64(&mut self, key: &str, value: f64) {
        self.set(key, value.to_bits());
    }

    /// Every key of `self` on which `other` disagrees or is silent, as
    /// printable lines. Keys only `other` has are ignored: the checked
    /// pass knows a digest that timed repetitions do not compute.
    pub fn mismatches(&self, other: &Fingerprint) -> Vec<String> {
        self.0
            .iter()
            .filter_map(|(k, v)| match other.0.get(k) {
                Some(o) if o == v => None,
                Some(o) => Some(format!("{k}: expected {v}, got {o}")),
                None => Some(format!("{k}: expected {v}, missing")),
            })
            .collect()
    }

    fn to_line(&self, seed: u64) -> String {
        let mut line = format!("seed={seed}");
        for (k, v) in &self.0 {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }

    fn from_line(line: &str) -> Option<(u64, Fingerprint)> {
        let mut seed = None;
        let mut fp = Fingerprint::default();
        for token in line.split_ascii_whitespace() {
            let (k, v) = token.split_once('=')?;
            let v: u64 = v.parse().ok()?;
            if k == "seed" {
                seed = Some(v);
            } else {
                fp.set(k, v);
            }
        }
        Some((seed?, fp))
    }
}

/// `expected/<workload>.txt`, beside this crate's manifest.
pub fn expected_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.txt", workload.name()))
}

/// The one blessed line of an expected file: comments and blank lines
/// aside, exactly one line, for [`DEFAULT_SEED`]. Anything else is an
/// error, never "nothing to compare with".
fn parse_expected(text: &str) -> Result<Fingerprint, String> {
    let mut lines = text
        .lines()
        .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty());
    let line = lines.next().ok_or("no blessed line")?;
    if lines.next().is_some() {
        return Err("more than one blessed line".into());
    }
    match Fingerprint::from_line(line) {
        Some((DEFAULT_SEED, fp)) if !fp.0.is_empty() => Ok(fp),
        Some((DEFAULT_SEED, _)) => Err("the blessed line names no value".into()),
        Some((seed, _)) => Err(format!(
            "the blessed line is for seed {seed}, not {DEFAULT_SEED}"
        )),
        None => Err(format!("cannot read the line {line:?}")),
    }
}

/// The blessed fingerprint of `workload`: its checked pass for
/// [`DEFAULT_SEED`] at full size.
///
/// # Errors
///
/// A message when the file is missing, unreadable or malformed. The caller
/// reports it as an incorrect run: a check that cannot be made has not
/// passed.
pub fn load_expected(workload: Workload) -> Result<Fingerprint, String> {
    read_expected(&expected_path(workload))
}

fn read_expected(path: &Path) -> Result<Fingerprint, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_expected(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Records `fp` as the blessed fingerprint of `workload`.
///
/// # Errors
///
/// The I/O error, when the file cannot be written.
pub fn bless(workload: Workload, fp: &Fingerprint) -> std::io::Result<()> {
    let path = expected_path(workload);
    let text = format!(
        "# Blessed fingerprint of the checked pass of `{}` at full size.\n\
         # Written by `run.sh --bless`; floats are bit patterns.\n{}\n",
        workload.name(),
        fp.to_line(DEFAULT_SEED)
    );
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let mut fp = Fingerprint::default();
        fp.set("rows", 12_345);
        fp.set_f64("median_ape_pct", 7.25);
        let line = fp.to_line(DEFAULT_SEED);
        assert_eq!(
            Fingerprint::from_line(&line),
            Some((DEFAULT_SEED, fp.clone()))
        );
        assert_eq!(parse_expected(&format!("# comment\n\n{line}\n")), Ok(fp));
    }

    #[test]
    fn a_file_that_cannot_be_checked_against_is_an_error() {
        let good = format!("seed={DEFAULT_SEED} rows=1 digest=2");
        assert!(parse_expected(&good).is_ok());
        for bad in [
            String::new(),
            "# only a comment\n".to_string(),
            // A corrupted value, a corrupted key, a stray line.
            format!("seed={DEFAULT_SEED} rows=1 digest=2x"),
            format!("seed={DEFAULT_SEED} rows 1"),
            format!("{good}\nnot a line"),
            format!("{good}\n{good}"),
            // Another seed's line, no seed, no values.
            "seed=3 rows=1".to_string(),
            "rows=1 digest=2".to_string(),
            format!("seed={DEFAULT_SEED}"),
        ] {
            assert!(parse_expected(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_missing_file_is_an_error_too() {
        let gone = expected_path(Workload::HostDeep).with_file_name("no-such-workload.txt");
        assert!(read_expected(&gone).is_err());
    }

    #[test]
    fn every_workload_has_a_readable_blessed_fingerprint() {
        for w in Workload::ALL {
            let fp = load_expected(w).unwrap_or_else(|e| panic!("{e}"));
            assert!(fp.0.contains_key("digest"), "{}", w.name());
        }
    }

    #[test]
    fn mismatches_name_the_key_and_ignore_extras() {
        let mut checked = Fingerprint::default();
        checked.set("rows", 10);
        checked.set("digest", 99);
        let mut timed = Fingerprint::default();
        timed.set("rows", 10);
        assert!(timed.mismatches(&checked).is_empty());
        assert_eq!(checked.mismatches(&timed), ["digest: expected 99, missing"]);
        timed.set("rows", 9);
        assert_eq!(timed.mismatches(&checked), ["rows: expected 9, got 10"]);
    }
}
