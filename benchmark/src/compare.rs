//! `--compare a.json b.json`: applies the end-to-end bounds to two suite
//! result files, `a` the baseline and `b` the candidate.

use crate::json::{self, Value};
use crate::spec::{Better, Workload, END_TO_END, SETUP_FLOOR_S};

/// One finding of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Whether it fails the comparison.
    pub regression: bool,
    /// Printable description.
    pub line: String,
}

fn median_of(doc: &Value, workload: &str, metric: &str, key: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get(key)?
        .as_f64()
}

fn number(doc: &Value, workload: &str, key: &str) -> Option<f64> {
    doc.get("workloads")?.get(workload)?.get(key)?.as_f64()
}

/// Compares two parsed suite results.
pub fn compare(base: &Value, cand: &Value) -> Vec<Finding> {
    let mut out = Vec::new();
    let comparable = base.get("seed") == cand.get("seed") && base.get("size") == cand.get("size");
    if !comparable {
        out.push(Finding {
            regression: false,
            line: "seed or size differ: exact values are not compared".into(),
        });
    }
    for workload in Workload::ALL {
        let w = workload.name();
        for spec in END_TO_END.iter().filter(|spec| spec.applies(workload)) {
            let (Some(a), Some(b)) = (
                median_of(base, w, spec.name, "median"),
                median_of(cand, w, spec.name, "median"),
            ) else {
                out.push(Finding {
                    regression: true,
                    line: format!("{w} {}: missing from one of the files", spec.name),
                });
                continue;
            };
            // Positive = worse, as a share of the baseline.
            let worse = match spec.better {
                Better::Higher => (a - b) / a,
                Better::Lower => (b - a) / a,
            };
            let bound = spec.bound.expect("end-to-end metrics have bounds");
            let mut regression = worse > bound;
            if spec.name == "setup_s" {
                regression &= (b - a) > SETUP_FLOOR_S;
            }
            // A spread wider than the bound cannot resolve a change of
            // the bound's size: say so instead of "unchanged".
            let iqr = |doc: &Value| {
                Some(median_of(doc, w, spec.name, "q3")? - median_of(doc, w, spec.name, "q1")?)
            };
            let spread = iqr(base).map_or(0.0, |d| d / a);
            let verdict = if regression {
                "REGRESSION"
            } else if spread > bound {
                "unresolved (baseline spread exceeds the bound)"
            } else {
                "ok"
            };
            out.push(Finding {
                regression,
                line: format!(
                    "{w:<13} {:<17} {a:>12.4} -> {b:>12.4} {:<8} {:+.1} % worse (bound {:.0} %)  {verdict}",
                    spec.name,
                    spec.unit,
                    100.0 * worse,
                    100.0 * bound
                ),
            });
        }
        let share = |doc: &Value| {
            Some(number(doc, w, "ops_failed")? / number(doc, w, "ops_attempted")?.max(1.0))
        };
        if let (Some(a), Some(b)) = (share(base), share(cand)) {
            if b > a {
                out.push(Finding {
                    regression: true,
                    line: format!("{w}: failed share rose from {a:.6} to {b:.6}"),
                });
            }
        }
        if comparable {
            let exact = |doc: &Value| doc.get("workloads")?.get(w)?.get("exact").cloned();
            if exact(base) != exact(cand) {
                out.push(Finding {
                    regression: true,
                    line: format!(
                        "{w}: exact values (simulated statistics, counts, digest) differ"
                    ),
                });
            }
        }
    }
    if cand.get("correct") != Some(&Value::Bool(true)) {
        out.push(Finding {
            regression: true,
            line: "the candidate run was not correct".into(),
        });
    }
    out
}

/// Reads, compares and prints. `Ok(true)` when nothing regressed.
///
/// # Errors
///
/// A message when a file cannot be read or is not a suite result.
pub fn compare_files(base: &str, cand: &str) -> Result<bool, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let findings = compare(&read(base)?, &read(cand)?);
    for f in &findings {
        println!("{}", f.line);
    }
    let regressions = findings.iter().filter(|f| f.regression).count();
    println!("{regressions} regression(s)");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn suite(rate: f64, setup: f64, failed: f64, digest: &str) -> Value {
        let dist = |m: f64| {
            obj([
                ("median", Value::Num(m)),
                ("q1", Value::Num(m * 0.99)),
                ("q3", Value::Num(m * 1.01)),
            ])
        };
        let workload = |w: Workload| {
            let (rate_name, cpu_name) = if w.is_host() {
                ("sim_s_per_s", "cpu_us_per_tick")
            } else {
                ("frames_per_s", "cpu_us_per_frame")
            };
            obj([
                (
                    "end_to_end",
                    obj([
                        ("setup_s", dist(setup)),
                        (rate_name, dist(rate)),
                        (cpu_name, dist(400.0)),
                    ]),
                ),
                ("exact", obj([("digest", Value::Str(digest.into()))])),
                ("ops_attempted", Value::Num(1000.0)),
                ("ops_failed", Value::Num(failed)),
            ])
        };
        obj([
            ("seed", Value::Num(2014.0)),
            ("size", Value::Str("full".into())),
            ("correct", Value::Bool(true)),
            (
                "workloads",
                obj(Workload::ALL.map(|w| (w.name(), workload(w)))),
            ),
        ])
    }

    fn regressions(a: &Value, b: &Value) -> usize {
        compare(a, b).iter().filter(|f| f.regression).count()
    }

    #[test]
    fn same_results_pass_and_small_drift_is_within_bounds() {
        let base = suite(1000.0, 0.5, 0.0, "1");
        assert_eq!(regressions(&base, &base), 0);
        assert_eq!(regressions(&base, &suite(900.0, 0.55, 0.0, "1")), 0);
    }

    #[test]
    fn a_slower_rate_beyond_the_bound_regresses_on_every_workload() {
        let base = suite(1000.0, 0.5, 0.0, "1");
        // One rate per workload: sim_s_per_s on a host, frames_per_s in
        // the fleet.
        assert_eq!(regressions(&base, &suite(700.0, 0.5, 0.0, "1")), 4);
    }

    #[test]
    fn setup_needs_both_the_share_and_the_absolute_floor() {
        let base = suite(1000.0, 0.010, 0.0, "1");
        assert_eq!(
            regressions(&base, &suite(1000.0, 0.020, 0.0, "1")),
            0,
            "+100 % but only 10 ms"
        );
        let base = suite(1000.0, 0.5, 0.0, "1");
        assert_eq!(regressions(&base, &suite(1000.0, 0.7, 0.0, "1")), 4);
    }

    #[test]
    fn more_failures_or_different_exact_values_regress() {
        let base = suite(1000.0, 0.5, 0.0, "1");
        assert_eq!(regressions(&base, &suite(1000.0, 0.5, 1.0, "1")), 4);
        assert_eq!(regressions(&base, &suite(1000.0, 0.5, 0.0, "2")), 4);
    }
}
