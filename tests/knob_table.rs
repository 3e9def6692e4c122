//! A new `FGDSM_*` knob cannot land undocumented: the README's variable
//! table must name exactly the set of `FGDSM_[A-Z0-9_]+` literals that
//! appear under `crates/`, `src/`, `tests/`, `examples/` and in `ci.sh`.

use std::collections::BTreeSet;
use std::path::Path;

/// Every maximal `FGDSM_[A-Z0-9_]+` token in `text`.
fn knobs_in(text: &str, out: &mut BTreeSet<String>) {
    let is_name = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    for (at, _) in text.match_indices("FGDSM_") {
        let name: String = text[at..].chars().take_while(|&c| is_name(c)).collect();
        if name.len() > "FGDSM_".len() {
            out.insert(name);
        }
    }
}

fn scan(path: &Path, out: &mut BTreeSet<String>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).expect("readable source directory") {
            scan(&entry.expect("readable directory entry").path(), out);
        }
    } else if let Ok(text) = std::fs::read_to_string(path) {
        knobs_in(&text, out);
    }
}

#[test]
fn readme_table_lists_exactly_the_knobs_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_code = BTreeSet::new();
    for dir in ["crates", "src", "tests", "examples", "ci.sh"] {
        scan(&root.join(dir), &mut in_code);
    }
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let mut in_table = BTreeSet::new();
    for row in readme.lines().filter(|l| l.starts_with("| `FGDSM_")) {
        knobs_in(
            row.split('|').nth(1).expect("first table cell"),
            &mut in_table,
        );
    }
    assert_eq!(
        in_table, in_code,
        "README's variable table (left) and the FGDSM_* literals in the code (right) differ"
    );
}
