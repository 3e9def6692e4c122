//! Typed `FGDSM_*` environment knobs: a value that does not parse is an
//! error naming the variable, the value and the accepted forms — never a
//! silent default (`FGDSM_WIRE=strcit` must not quietly run the fast
//! path). Every crate above this one reads its typed knobs through
//! [`env_knob`]; the per-knob parsers take a `&str`, so their tests need
//! no `set_var`.

/// Parse `raw` (trimmed) as the value of knob `name`, panicking with the
/// variable, the value and `accepted` when `parse` rejects it.
pub fn parse_knob<T>(
    name: &str,
    raw: &str,
    accepted: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    parse(raw.trim()).unwrap_or_else(|| panic!("{name}={raw}: expected {accepted}"))
}

/// Read knob `name` from the environment: `None` when unset, the parsed
/// value when set, a [`parse_knob`] panic when set to garbage.
pub fn env_knob<T>(name: &str, accepted: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    Some(parse_knob(name, &raw, accepted, parse))
}

/// On/off knob values: `1`/`true`/`on` and `0`/`false`/`off`.
pub fn parse_switch(v: &str) -> Option<bool> {
    match v {
        "1" | "true" | "on" => Some(true),
        "0" | "false" | "off" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn parse_knob_trims_and_returns_the_value() {
        assert!(parse_knob("FGDSM_METRICS", " on\n", "1|0", parse_switch));
    }

    #[test]
    #[should_panic(expected = "FGDSM_METRICS=maybe: expected 1|true|on or 0|false|off")]
    fn garbage_names_the_variable_the_value_and_the_accepted_forms() {
        parse_knob(
            "FGDSM_METRICS",
            "maybe",
            "1|true|on or 0|false|off",
            parse_switch,
        );
    }
}
