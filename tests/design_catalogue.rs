//! DESIGN.md's catalogue tables, held to the code.
//!
//! "Fixed constants" is the catalogue of the values no caller chooses:
//! every `pub const` of the modules that own a fixed tuning, with its
//! value as the code writes it and why. A constant added to one of those
//! modules without a row, a row naming a constant the code does not
//! declare, or a value cell that no longer matches the code fails here.
//!
//! "Metric families" is the catalogue of every Prometheus family a
//! fully featured host pipeline and a fleet register. A family added
//! without a row, or a row whose family is no longer registered, fails
//! here.
//!
//! "Hand-offs" (under "Actor runtime") lists the handles the producer
//! and the actor loop share. A row naming a type its file does not
//! declare, or a handle count in the prose that is not the number of
//! rows, fails here.

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::perf_sim::events::PAPER_EVENTS;
use powerapi_suite::powerapi::adaptive::SamplingConfig;
use powerapi_suite::powerapi::fleet::{Fleet, FleetConfig, SimHostSource};
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::hierarchy::Hierarchy;
use powerapi_suite::powerapi::host::SimHost;
use powerapi_suite::powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi_suite::powerapi::runtime::PowerApi;
use powerapi_suite::powerapi::telemetry::Telemetry;
use powerapi_suite::powermeter::powerspy::PowerSpyConfig;
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::Nanos;
use powerapi_suite::simcpu::workunit::WorkUnit;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The DESIGN.md text after the line that starts with `lead` (a `### `
/// heading or a paragraph's bold lead-in), up to the next heading.
fn section(lead: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let (_, section) = design
        .split_once(&format!("\n{lead}"))
        .unwrap_or_else(|| panic!("DESIGN.md has a \"{lead}\" section"));
    let section = section.split("\n#").next().expect("split yields a head");
    section.to_string()
}

/// The rows of the first DESIGN.md table after `lead`, split into
/// trimmed cells (the leading and trailing empty cells dropped).
fn table_rows(lead: &str) -> Vec<Vec<String>> {
    section(lead)
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter(|l| l.starts_with("| `"))
        .map(|row| {
            let cells: Vec<String> = row.split('|').map(|c| c.trim().to_string()).collect();
            cells[1..cells.len() - 1].to_vec()
        })
        .collect()
}

/// The catalogued modules: the table's module cell and the source file.
const MODULES: [(&str, &str); 10] = [
    ("health", "crates/core/src/health/mod.rs"),
    ("control", "crates/core/src/control.rs"),
    ("adaptive", "crates/core/src/adaptive.rs"),
    ("fleet::retry", "crates/core/src/fleet/retry.rs"),
    ("fleet::shard", "crates/core/src/fleet/shard.rs"),
    ("fleet::observe", "crates/core/src/fleet/observe.rs"),
    ("telemetry::journal", "crates/core/src/telemetry/journal.rs"),
    ("model::sampling", "crates/core/src/model/sampling.rs"),
    ("os_sim::governor", "crates/os-sim/src/governor.rs"),
    ("workloads::specjbb", "crates/workloads/src/specjbb.rs"),
];

#[test]
fn design_md_fixed_constants_table_matches_the_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // name → (value, module), from every item-level `pub const NAME: Type
    // = value;` outside the modules' tests.
    let mut code = BTreeMap::new();
    for (module, file) in MODULES {
        let source = std::fs::read_to_string(root.join(file)).expect("read module source");
        let production = source
            .split("#[cfg(test)]")
            .next()
            .expect("split yields a head");
        for decl in production
            .lines()
            .filter_map(|l| l.strip_prefix("pub const "))
        {
            let (name, rest) = decl.split_once(':').expect("`NAME: Type = value;`");
            let (_, value) = rest.split_once(" = ").expect("`NAME: Type = value;`");
            let value = value.trim_end_matches(';').to_string();
            code.insert(name.to_string(), (value, module.to_string()));
        }
    }

    // `| `NAME` | `value` | `module` | why |`
    let mut listed = BTreeMap::new();
    for cells in table_rows("### Fixed constants") {
        let [name, value, module, why] = &cells[..] else {
            panic!("a row of four cells: {cells:?}");
        };
        assert!(!why.is_empty(), "{name}: the table says why");
        let unquote = |cell: &str| cell.trim_matches('`').to_string();
        let row = (unquote(value), unquote(module));
        assert!(
            listed.insert(unquote(name), row).is_none(),
            "{name} is listed twice"
        );
    }
    assert_eq!(
        listed, code,
        "DESIGN.md's \"Fixed constants\" table (left) against the code (right)"
    );
}

/// `(family, type)` of every `# TYPE` line of a Prometheus dump.
fn families(dump: &str) -> BTreeSet<(String, String)> {
    dump.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| {
            let (family, kind) = l.split_once(' ').expect("`# TYPE family type`");
            (family.to_string(), kind.to_string())
        })
        .collect()
}

/// What a host pipeline with every self-observation feature on
/// registers.
fn pipeline_families() -> BTreeSet<(String, String)> {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    kernel.cgroup_create("tenant-a", 1024);
    let pid = kernel.spawn_in_cgroup(
        "web",
        "tenant-a/svc-web",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.8))],
    );
    let formula = PerFrequencyFormula::new(PerFrequencyPowerModel::paper_i3_example());
    let hierarchy = Hierarchy::new();
    let mut papi = PowerApi::builder(kernel)
        .formula(formula)
        .report_to_memory()
        .quantum(Nanos::from_millis(5))
        .clock_period(Nanos::from_millis(500))
        .model_health()
        .adaptive_sampling(SamplingConfig::default())
        .profile_self(10.0)
        .hierarchy(&hierarchy)
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    papi.run_for(Nanos::from_secs(2)).expect("run");
    let outcome = papi.finish().expect("finish");
    families(&outcome.telemetry.render_prometheus())
}

/// What a telemetry-on fleet registers.
fn fleet_families() -> BTreeSet<(String, String)> {
    let sources = (0..2)
        .map(|_| {
            let mut kernel = Kernel::new(presets::intel_i3_2120());
            let pid = kernel.spawn("svc", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.5))]);
            let mut host =
                SimHost::new(kernel, PAPER_EVENTS.to_vec(), 4, PowerSpyConfig::default());
            host.monitor(pid).expect("monitor");
            Box::new(SimHostSource::new(host, Nanos::from_millis(250), 4)) as _
        })
        .collect();
    let cfg = FleetConfig {
        events: PAPER_EVENTS.to_vec(),
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(
        cfg,
        &PerFrequencyFormula::cpu_load(30.0, 25.0),
        sources,
        Telemetry::new(),
    );
    fleet.run(4);
    families(&fleet.render_prometheus())
}

#[test]
fn design_md_metric_families_table_matches_the_registry() {
    let mut code = pipeline_families();
    code.extend(fleet_families());
    // `| `family` | type | registered by | what it answers |`
    let mut listed = BTreeSet::new();
    for cells in table_rows("### Metric families") {
        let [family, kind, owner, answers] = &cells[..] else {
            panic!("a row of four cells: {cells:?}");
        };
        assert!(
            !owner.is_empty() && !answers.is_empty(),
            "{family}: the table says who registers it and why"
        );
        let row = (family.trim_matches('`').to_string(), kind.clone());
        assert!(listed.insert(row), "{family} is listed twice");
    }
    assert_eq!(
        listed, code,
        "DESIGN.md's \"Metric families\" table (left) against the registry (right)"
    );
}

#[test]
fn design_md_hand_offs_table_matches_the_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    const LEAD: &str = "**Hand-offs.**";
    // `| `Type` [ledger] (`file`) | written by | read by | what orders it |`
    let rows = table_rows(LEAD);
    for cells in &rows {
        let [handle, written, read, orders] = &cells[..] else {
            panic!("a row of four cells: {cells:?}");
        };
        assert!(
            !written.is_empty() && !read.is_empty() && !orders.is_empty(),
            "{handle}: the table says who writes it, who reads it and what orders the read"
        );
        let (types, file) = handle
            .split_once(" (`")
            .unwrap_or_else(|| panic!("{handle}: `Type` (`file`)"));
        let file = file.trim_end_matches("`)");
        let source = std::fs::read_to_string(root.join("crates/core/src").join(file))
            .unwrap_or_else(|e| panic!("{handle}: read {file}: {e}"));
        let named: Vec<&str> = types.split('`').skip(1).step_by(2).collect();
        assert!(!named.is_empty(), "{handle}: names a type");
        for ty in named {
            assert!(
                source.contains(&format!("\npub struct {ty} ")),
                "{handle}: {file} declares no `pub struct {ty}`"
            );
        }
    }
    let count = section(LEAD)
        .split_whitespace()
        .next()
        .map(|w| {
            let words = [
                "One", "Two", "Three", "Four", "Five", "Six", "Seven", "Eight",
            ];
            words
                .iter()
                .position(|n| *n == w)
                .unwrap_or_else(|| panic!("\"{LEAD} {w} handles …\" spells a count"))
                + 1
        })
        .expect("the lead-in is followed by prose");
    assert_eq!(
        count,
        rows.len(),
        "the prose's handle count against the table's rows"
    );
}
