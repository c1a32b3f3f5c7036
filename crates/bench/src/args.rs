//! Shared command-line flag parsing for the experiment binaries.
//!
//! Every `eN` binary understands the same four flags, parsed here once:
//!
//! * `--quick` — CI smoke mode: smaller sweeps, shorter runs, separate
//!   `.quick` golden snapshots;
//! * `--check` — compare this run against the committed golden snapshot
//!   and exit nonzero on drift; writes nothing;
//! * `--bless` — rewrite the golden snapshot from this run: the only
//!   flag under which a binary writes a committed file (mutually
//!   exclusive with `--check`);
//! * `--dump-trace <path>` — write the run's Chrome trace-event JSON.
//!
//! [`Golden::settle`](crate::golden::Golden::settle) consumes the parsed
//! `check`/`bless` pair.

use std::path::PathBuf;

/// The parsed shared flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--quick`: CI smoke mode.
    pub quick: bool,
    /// `--check`: compare against the golden snapshot, write nothing.
    pub check: bool,
    /// `--bless`: rewrite the golden snapshot.
    pub bless: bool,
    /// `--dump-trace <path>`: Chrome trace destination.
    pub dump_trace: Option<PathBuf>,
}

impl BenchArgs {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// As [`BenchArgs::from_args`].
    pub fn parse() -> BenchArgs {
        BenchArgs::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (tests).
    ///
    /// # Panics
    ///
    /// Panics when `--dump-trace` has no following path argument, and
    /// when `--bless` and `--check` are both given — before the
    /// experiment runs, not minutes later when the golden is settled.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> BenchArgs {
        let mut parsed = BenchArgs::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => parsed.quick = true,
                "--check" => parsed.check = true,
                "--bless" => parsed.bless = true,
                "--dump-trace" => {
                    parsed.dump_trace = Some(PathBuf::from(
                        args.next().expect("--dump-trace requires a path argument"),
                    ));
                }
                // Unknown flags are ignored, as the hand-rolled
                // scanners did — benches stay forward-compatible with
                // harness-injected arguments.
                _ => {}
            }
        }
        assert!(
            !(parsed.bless && parsed.check),
            "--bless and --check are mutually exclusive"
        );
        parsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn empty_is_default() {
        assert_eq!(parse(&[]), BenchArgs::default());
    }

    #[test]
    fn flags_parse_in_any_order() {
        let a = parse(&["--check", "--quick"]);
        assert!(a.quick && a.check && !a.bless);
        let b = parse(&["--bless", "--quick"]);
        assert!(b.quick && !b.check && b.bless);
    }

    #[test]
    fn dump_trace_takes_the_next_argument() {
        let a = parse(&["--quick", "--dump-trace", "out/trace.json"]);
        assert_eq!(a.dump_trace, Some(PathBuf::from("out/trace.json")));
        assert!(a.quick);
    }

    #[test]
    fn unknown_flags_are_ignored() {
        let a = parse(&["--verbose", "--quick", "positional"]);
        assert!(a.quick);
        assert!(!a.check);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn bless_with_check_panics() {
        parse(&["--quick", "--bless", "--check"]);
    }

    #[test]
    #[should_panic(expected = "--dump-trace requires a path")]
    fn trailing_dump_trace_panics() {
        parse(&["--dump-trace"]);
    }
}
