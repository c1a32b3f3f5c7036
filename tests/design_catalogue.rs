//! DESIGN.md's "Fixed constants" table is the catalogue of the values no
//! caller chooses: every `pub const` of the modules that own a fixed
//! tuning, with its value as the code writes it and why. A constant
//! added to one of those modules without a row, a row naming a constant
//! the code does not declare, or a value cell that no longer matches the
//! code fails here.

use std::collections::BTreeMap;
use std::path::Path;

/// The catalogued modules: the table's module cell and the source file.
const MODULES: [(&str, &str); 7] = [
    ("health", "crates/core/src/health/mod.rs"),
    ("control", "crates/core/src/control.rs"),
    ("adaptive", "crates/core/src/adaptive.rs"),
    ("fleet::retry", "crates/core/src/fleet/retry.rs"),
    ("fleet::shard", "crates/core/src/fleet/shard.rs"),
    ("fleet::observe", "crates/core/src/fleet/observe.rs"),
    ("telemetry::journal", "crates/core/src/telemetry/journal.rs"),
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

    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let (_, section) = design
        .split_once("\n### Fixed constants\n")
        .expect("DESIGN.md has a \"Fixed constants\" section");
    let section = section.split("\n#").next().expect("split yields a head");
    // `| `NAME` | `value` | `module` | why |`
    let mut listed = BTreeMap::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let [_, name, value, module, why, _] = cells[..] else {
            panic!("a row of four cells: {row}");
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
