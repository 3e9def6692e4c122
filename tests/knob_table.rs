//! A new `FGDSM_*` knob cannot land undocumented: the README's variable
//! table must name exactly the set of `FGDSM_[A-Z0-9_]+` literals that
//! appear under `crates/`, `src/`, `tests/`, `examples/` and in `ci.sh`.
//! Nor can one land behind the library boundary: only the knob module
//! reads the environment, and only the edge calls it.

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

/// Call `visit(path, text)` for every readable text file at or under `path`.
fn walk(path: &Path, visit: &mut dyn FnMut(&Path, &str)) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).expect("readable source directory") {
            walk(&entry.expect("readable directory entry").path(), visit);
        }
    } else if let Ok(text) = std::fs::read_to_string(path) {
        visit(path, &text);
    }
}

#[test]
fn readme_table_lists_exactly_the_knobs_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_code = BTreeSet::new();
    for dir in ["crates", "src", "tests", "examples", "ci.sh"] {
        walk(&root.join(dir), &mut |_, text| knobs_in(text, &mut in_code));
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

/// Configuration is a value: library code neither reads the process
/// environment nor calls the module that does. Only the edge — binaries,
/// examples, test mains and `crates/bench` (a harness whose entry points
/// are all binaries and benches) — turns `FGDSM_*` into values.
#[test]
fn library_crates_never_read_the_environment() {
    const LIBRARIES: [&str; 9] = [
        "section", "tempest", "protocol", "net", "hpf", "apps", "model", "fuzz", "testkit",
    ];
    /// The one module that parses `FGDSM_*`.
    const KNOB_MODULE: &str = "crates/tempest/src/knob.rs";
    /// `fgdsm_net::node_command`: the worker binary's deployment path and
    /// the `cargo run` fallback that finds it.
    const NODE_COMMAND: (&str, [&str; 2]) = (
        "crates/net/src/lib.rs",
        ["env::var(\"FGDSM_NODE_BIN\")", "env::var(\"CARGO\")"],
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    for lib in LIBRARIES {
        walk(
            &root.join("crates").join(lib).join("src"),
            &mut |file, text| {
                let rel = file.strip_prefix(root).expect("under the repo root");
                if rel == Path::new(KNOB_MODULE) {
                    return;
                }
                for (n, line) in text.lines().enumerate() {
                    let reads_env = line.contains("env::var")
                        && !(rel == Path::new(NODE_COMMAND.0)
                            && NODE_COMMAND.1.iter().any(|ok| line.contains(ok)));
                    // Any use of the knob module has to name its path.
                    if reads_env || line.contains("knob::") {
                        offenders.push(format!("{}:{}: {}", rel.display(), n + 1, line.trim()));
                    }
                }
            },
        );
    }
    assert!(
        offenders.is_empty(),
        "library code must take configuration as values, not from the environment:\n{}",
        offenders.join("\n")
    );
}
