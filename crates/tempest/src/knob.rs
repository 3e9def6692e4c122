//! The `FGDSM_*` environment, parsed once into a typed [`Knobs`] value.
//!
//! This is the only module in the library crates that reads the process
//! environment (`fgdsm_net::node_command`'s `FGDSM_NODE_BIN` deployment
//! path aside), and no library code calls it: binaries, examples and test
//! mains call [`Knobs::from_env`] at the edge and pass what they got down
//! as plain values (`tests/knob_table.rs` enforces both). A value that
//! does not parse is an error naming the variable, the value and the
//! accepted forms — never a silent default. The parsers take strings, so
//! their tests never touch the process environment.

use std::path::PathBuf;

/// Parse `raw` (trimmed) as the value of knob `name`, panicking with the
/// variable, the value and `accepted` when `parse` rejects it.
fn parse_knob<T>(
    name: &str,
    raw: &str,
    accepted: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    parse(raw.trim()).unwrap_or_else(|| panic!("{name}={raw}: expected {accepted}"))
}

const SWITCH: &str = "1|true|on or 0|false|off";
const WHOLE: &str = "a whole number";

/// On/off knob values: `1`/`true`/`on` and `0`/`false`/`off`.
fn parse_switch(v: &str) -> Option<bool> {
    match v {
        "1" | "true" | "on" => Some(true),
        "0" | "false" | "off" => Some(false),
        _ => None,
    }
}

/// Every `FGDSM_*` variable the edge honours, typed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Knobs {
    /// `FGDSM_TRACE`: where to write a run's structured event trace.
    pub trace: Option<PathBuf>,
    /// `FGDSM_CHROME`: where to write a run's Chrome trace-event timeline.
    pub chrome: Option<PathBuf>,
    /// `FGDSM_TRACE_CAP`: trace entries kept per node.
    pub trace_cap: Option<usize>,
    /// `FGDSM_FULL`: the paper's problem sizes. Never set with `test`.
    pub full: bool,
    /// `FGDSM_TEST`: tiny problem sizes. Never set with `full`.
    pub test: bool,
    /// `FGDSM_FUZZ_CASES`: size of the differential fuzz corpus.
    pub fuzz_cases: Option<u64>,
    /// `FGDSM_MODEL_DEPTH`: op-sequence bound of the model checker.
    pub model_depth: Option<usize>,
}

impl Knobs {
    /// Read the process environment.
    pub fn from_env() -> Knobs {
        Knobs::parse(|name| std::env::var(name).ok())
    }

    /// Parse the knobs out of `var` (name → raw value when set).
    pub fn parse(var: impl Fn(&str) -> Option<String>) -> Knobs {
        let path = |name| var(name).filter(|p| !p.is_empty()).map(PathBuf::from);
        let switch =
            |name| var(name).is_some_and(|raw| parse_knob(name, &raw, SWITCH, parse_switch));
        let knobs = Knobs {
            trace: path("FGDSM_TRACE"),
            chrome: path("FGDSM_CHROME"),
            trace_cap: whole(&var, "FGDSM_TRACE_CAP"),
            full: switch("FGDSM_FULL"),
            test: switch("FGDSM_TEST"),
            fuzz_cases: whole(&var, "FGDSM_FUZZ_CASES"),
            model_depth: whole(&var, "FGDSM_MODEL_DEPTH"),
        };
        assert!(
            !(knobs.full && knobs.test),
            "FGDSM_FULL and FGDSM_TEST are both on: pick one problem size"
        );
        knobs
    }

    /// Write a run's trace documents to the `FGDSM_TRACE` / `FGDSM_CHROME`
    /// paths, if set. An unwritable path is a warning, not a failed run.
    pub fn export(&self, trace: &str, chrome: &str) {
        for (name, path, doc) in [
            ("FGDSM_TRACE", &self.trace, trace),
            ("FGDSM_CHROME", &self.chrome, chrome),
        ] {
            if let Some(path) = path {
                if let Err(e) = std::fs::write(path, doc) {
                    eprintln!("{name}: cannot write {}: {e}", path.display());
                }
            }
        }
    }
}

/// Knob `name` as a whole number, when set.
fn whole<T: std::str::FromStr>(var: &impl Fn(&str) -> Option<String>, name: &str) -> Option<T> {
    var(name).map(|raw| parse_knob(name, &raw, WHOLE, |v| v.parse().ok()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(vars: &[(&str, &str)]) -> Knobs {
        Knobs::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn switch_accepts_both_polarities_and_nothing_else() {
        for on in ["1", "true", "on"] {
            assert_eq!(parse_switch(on), Some(true));
        }
        for off in ["0", "false", "off"] {
            assert_eq!(parse_switch(off), Some(false));
        }
        for junk in ["", "yes", "2", "ON "] {
            assert_eq!(parse_switch(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn unset_is_the_default_and_set_values_are_typed() {
        assert_eq!(knobs(&[]), Knobs::default());
        let k = knobs(&[
            ("FGDSM_TRACE", "/tmp/t.json"),
            ("FGDSM_CHROME", ""),
            ("FGDSM_TRACE_CAP", " 65536\n"),
            ("FGDSM_FULL", "true"),
            ("FGDSM_TEST", "0"),
            ("FGDSM_FUZZ_CASES", "500"),
            ("FGDSM_MODEL_DEPTH", "4"),
        ]);
        assert_eq!(k.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(k.chrome, None, "an empty path is unset");
        assert_eq!(k.trace_cap, Some(65536));
        assert!(k.full && !k.test);
        assert_eq!(k.fuzz_cases, Some(500));
        assert_eq!(k.model_depth, Some(4));
    }

    #[test]
    fn garbage_names_the_variable_the_value_and_the_accepted_forms() {
        for (name, value, accepted) in [
            ("FGDSM_FUZZ_CASES", "2oo", WHOLE),
            ("FGDSM_MODEL_DEPTH", "deep", WHOLE),
            ("FGDSM_TRACE_CAP", "4k", WHOLE),
            ("FGDSM_FULL", "yes", SWITCH),
            ("FGDSM_TEST", "", SWITCH),
        ] {
            let panic = std::panic::catch_unwind(|| knobs(&[(name, value)]))
                .expect_err("garbage must not parse");
            assert_eq!(
                panic.downcast_ref::<String>().unwrap(),
                &format!("{name}={value}: expected {accepted}")
            );
        }
    }

    #[test]
    #[should_panic(expected = "FGDSM_FULL and FGDSM_TEST are both on")]
    fn conflicting_problem_sizes_are_an_error() {
        knobs(&[("FGDSM_FULL", "1"), ("FGDSM_TEST", "1")]);
    }
}
