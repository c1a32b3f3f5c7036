//! Command line of the harness. `run.sh` builds this binary and passes
//! its arguments through; see `README.md` for the four ways to call it.

use powerapi_benchmark::check::bless;
use powerapi_benchmark::compare::compare_files;
use powerapi_benchmark::json::{obj, Value};
use powerapi_benchmark::run::{checked_pass, medians, pass, traced, Kind, Metrics, Pass, Traced};
use powerapi_benchmark::spec::{MetricSpec, Size, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};
use powerapi_benchmark::stats::quartiles;
use std::process::ExitCode;
use std::time::Instant;

/// Timed repetitions of a driver run never drop below this, however
/// short `--seconds` is: a median of fewer is not a median.
const MIN_REPS: usize = 3;
/// Interleaved repetitions of the suite.
const SUITE_REPS: usize = 5;

fn median(values: &[f64]) -> f64 {
    mathkit::stats::median(values).expect("a run has repetitions")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   one driver run\n  \
         run.sh [--quick] [--seed <n>] [--out <file>]                      the whole suite\n  \
         run.sh --compare <a.json> <b.json>                                apply the bounds\n  \
         run.sh --bless                                                    rewrite expected/\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare flags, in any order.
struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
        }
    }
}

fn env_value() -> Value {
    obj([
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("load_threads", Value::Num(1.0)),
        ("sampler_threads_traced_pass", Value::Num(1.0)),
    ])
}

fn print_env() {
    println!(
        "env: nproc {} | load generated by 1 driver thread (+1 sampler thread in the traced pass)",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
}

fn print_metric(spec: &MetricSpec, value: f64, note: &str) {
    println!(
        "  {:<38} {:>16.4} {:<8} {note}",
        spec.name, value, spec.unit
    );
}

fn metric_objects(specs: &[MetricSpec], values: &Metrics) -> Value {
    obj(specs.iter().map(|s| {
        (
            s.name,
            obj([
                ("value", Value::Num(values[s.name])),
                ("unit", Value::Str(s.unit.into())),
            ]),
        )
    }))
}

fn size_of(args: &Args) -> Size {
    if args.flag("--quick") {
        Size::QUICK
    } else {
        Size::FULL
    }
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the median and quartiles over `passes` of every end-to-end
/// metric judged on `workload`; `medians` overrides what is printed as the
/// median (a driver run's `setup_s` also counts the checked pass). Returns
/// what it printed as suite-file distributions.
fn print_end_to_end(
    workload: Workload,
    passes: &[Pass],
    medians: &Metrics,
) -> Vec<(&'static str, Value)> {
    END_TO_END
        .iter()
        .filter(|spec| spec.applies(workload))
        .map(|spec| {
            let values: Vec<f64> = passes.iter().map(|p| p.end_to_end[spec.name]).collect();
            let (q1, q3) = quartiles(&values);
            print_metric(
                spec,
                medians[spec.name],
                &format!("[q1 {q1:.4}, q3 {q3:.4}]"),
            );
            (
                spec.name,
                obj([
                    ("median", Value::Num(medians[spec.name])),
                    ("q1", Value::Num(q1)),
                    ("q3", Value::Num(q3)),
                    ("n", Value::Num(values.len() as f64)),
                    ("unit", Value::Str(spec.unit.into())),
                ]),
            )
        })
        .collect()
}

fn print_per_layer(t: &Traced) {
    println!(
        "per-layer (one traced pass; most threads alive at once: {}):",
        t.max_threads
    );
    for spec in &PER_LAYER {
        print_metric(spec, t.per_layer[spec.name], "");
    }
}

/// One run under the driver's contract: the last line of standard output
/// is the result object.
fn drive(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let workload = Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed: u64 = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", 10.0)?;
    let trace: u8 = args.parsed("--trace", 0)?;
    let size = size_of(args);
    if !(seconds > 0.0 && seconds <= 600.0) || trace > 1 {
        return Err("--seconds must be in (0, 600] and --trace 0 or 1".into());
    }
    println!(
        "workload {} | seed {seed} | {} | trace {trace}",
        workload.name(),
        workload.why()
    );
    print_env();

    let (checked, mut problems) = checked_pass(workload, size, seed);
    let (mut attempted, mut failed) = (checked.attempted, checked.failed);
    let metrics = if trace == 0 {
        let mut reps: Vec<Pass> = Vec::new();
        let mut measured = 0.0;
        while reps.len() < MIN_REPS || measured < seconds {
            let rep = pass(workload, size, seed, Kind::Timed);
            measured += rep.wall_s;
            attempted += rep.attempted;
            failed += rep.failed;
            for miss in rep.fingerprint.mismatches(&checked.fingerprint) {
                problems.push(format!(
                    "repetition {} differs from the checked pass: {miss}",
                    reps.len() + 1
                ));
            }
            println!(
                "  repetition {}: set-up {:.3} s, window {:.3} s, cpu {:.3} s",
                reps.len() + 1,
                rep.end_to_end["setup_s"],
                rep.wall_s,
                rep.cpu_s
            );
            reps.push(rep);
        }
        let mut m = medians(&reps);
        // Every set-up of the run counts, the checked pass's too.
        let setups: Vec<f64> = reps
            .iter()
            .chain([&checked])
            .map(|p| p.end_to_end["setup_s"])
            .collect();
        m.insert("setup_s", median(&setups));
        println!(
            "end-to-end (median of {} repetitions, {measured:.1} s measured):",
            reps.len()
        );
        print_end_to_end(workload, &reps, &m);
        // The driver wants every metric from every run, the forms this
        // workload is not judged on too (`spec::END_TO_END`).
        metric_objects(&END_TO_END, &m)
    } else {
        let t = traced(workload, size, seed, &checked.fingerprint, None);
        print_per_layer(&t);
        problems.extend(t.problems);
        metric_objects(&PER_LAYER, &t.per_layer)
    };

    for p in &problems {
        println!("INCORRECT: {p}");
    }
    let correct = problems.is_empty();
    if !correct {
        // A digest, counter or conservation failure fails every operation.
        failed = attempted;
    }
    println!("ops_attempted {attempted} | ops_failed {failed}");
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(exit_code(correct))
}

/// The whole suite: a checked pass per workload, repetitions interleaved
/// across workloads, then one traced pass per workload.
fn suite(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", DEFAULT_SEED)?;
    let size = size_of(args);
    let started = Instant::now();
    println!(
        "suite | seed {seed} | {} size | {SUITE_REPS} interleaved repetitions",
        if size.quick { "quick (1/20)" } else { "full" }
    );
    print_env();

    let mut problems = Vec::new();
    let mut checked = Vec::new();
    for w in Workload::ALL {
        let (c, p) = checked_pass(w, size, seed);
        problems.extend(p.into_iter().map(|m| format!("{}: {m}", w.name())));
        checked.push(c);
    }
    // Interleaved: each round visits every workload once, so that drift
    // of the machine during the suite lands on all of them alike.
    let mut timed: Vec<Vec<Pass>> = Workload::ALL.map(|_| Vec::new()).into();
    for round in 0..SUITE_REPS {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            let rep = pass(w, size, seed, Kind::Timed);
            for miss in rep.fingerprint.mismatches(&checked[i].fingerprint) {
                problems.push(format!(
                    "{}: repetition {} differs from the checked pass: {miss}",
                    w.name(),
                    round + 1
                ));
            }
            timed[i].push(rep);
        }
    }

    let mut workloads = Vec::new();
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let m = medians(&timed[i]);
        // The traced window is compared with the median untraced one.
        let walls: Vec<f64> = timed[i].iter().map(|p| p.wall_s).collect();
        let t = traced(w, size, seed, &checked[i].fingerprint, Some(median(&walls)));
        problems.extend(t.problems.iter().map(|m| format!("{}: {m}", w.name())));
        let attempted: u64 = timed[i].iter().map(|p| p.attempted).sum();
        let failed: u64 = timed[i].iter().map(|p| p.failed).sum();

        println!("\n== {} == {}", w.name(), w.why());
        println!("end-to-end (median [q1, q3] of n = {SUITE_REPS}):");
        let e2e = print_end_to_end(w, &timed[i], &m);
        println!("exact (simulated statistics and counts; identical for a seed):");
        for (k, v) in &checked[i].fingerprint.0 {
            println!("  {k:<38} {v:>20}");
        }
        println!("  ops_attempted {attempted} | ops_failed {failed}");
        print_per_layer(&t);
        workloads.push((
            w.name(),
            obj([
                ("end_to_end", obj(e2e)),
                (
                    "exact",
                    // Bit patterns do not fit a JSON number; keep them text.
                    obj(checked[i]
                        .fingerprint
                        .0
                        .iter()
                        .map(|(k, v)| (k.as_str(), Value::Str(v.to_string())))),
                ),
                ("ops_attempted", Value::Num(attempted as f64)),
                ("ops_failed", Value::Num(failed as f64)),
                ("threads_max", Value::Num(t.max_threads as f64)),
                ("per_layer", metric_objects(&PER_LAYER, &t.per_layer)),
            ]),
        ));
    }

    println!();
    for p in &problems {
        println!("INCORRECT: {p}");
    }
    let correct = problems.is_empty();
    let doc = obj([
        ("seed", Value::Num(seed as f64)),
        (
            "size",
            Value::Str(if size.quick { "quick" } else { "full" }.into()),
        ),
        ("correct", Value::Bool(correct)),
        ("env", env_value()),
        ("workloads", obj(workloads)),
    ]);
    if let Some(path) = args.value("--out") {
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    println!(
        "suite {} in {:.1} s",
        if correct { "correct" } else { "INCORRECT" },
        started.elapsed().as_secs_f64()
    );
    Ok(exit_code(correct))
}

fn bless_all() -> Result<ExitCode, String> {
    for w in Workload::ALL {
        let checked = pass(w, Size::FULL, DEFAULT_SEED, Kind::Checked);
        // Blessing twice the same thing is the least a blessing needs.
        let again = pass(w, Size::FULL, DEFAULT_SEED, Kind::Checked);
        if checked.fingerprint != again.fingerprint || checked.failed > 0 {
            return Err(format!("{}: the checked pass does not repeat", w.name()));
        }
        bless(w, &checked.fingerprint).map_err(|e| e.to_string())?;
        println!("blessed {} seed {DEFAULT_SEED}", w.name());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = if args.flag("--help") || args.flag("-h") {
        return usage();
    } else if args.flag("--compare") {
        let at = args
            .0
            .iter()
            .position(|a| a == "--compare")
            .expect("flag present");
        match (args.0.get(at + 1), args.0.get(at + 2)) {
            (Some(a), Some(b)) => compare_files(a, b).map(exit_code),
            _ => Err("--compare needs two result files".into()),
        }
    } else if args.flag("--bless") {
        bless_all()
    } else if args.flag("--workload") {
        drive(&args)
    } else {
        suite(&args)
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            usage()
        }
    }
}
