//! Environment-knob parsing shared by every crate in the workspace.
//!
//! The repo's runtime knobs (`MOON_QUICK`, `MOON_SEEDS`, `MOON_THREADS`)
//! historically each parsed their variable ad hoc — one accepted only
//! the literal `"1"`, another any parseable integer. This module is the single documented contract:
//!
//! - **Boolean knobs** ([`env_flag`]): truthy values are `1`, `true`,
//!   `yes`, and `on`, case-insensitive, surrounding whitespace ignored.
//!   Anything else (including unset and empty) is false.
//! - **Numeric knobs** ([`env_u64`]): the value is trimmed and parsed
//!   as an unsigned integer; unset or unparseable yields `None`.
//!
//! `MOON_THREADS` is read inside the vendored `rayon` shim, which must
//! stay dependency-free; its parser mirrors these rules (trimmed
//! unsigned integer; `0` counts as unset) rather than calling this
//! module. It caps the scoped worker threads each parallel `map` starts.

/// True if the environment variable `name` is set to a truthy value:
/// `1`, `true`, `yes`, or `on` — case-insensitive, whitespace-trimmed.
pub fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| {
        matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "1" | "true" | "yes" | "on"
        )
    })
}

/// Parse the environment variable `name` as a whitespace-trimmed
/// unsigned integer. `None` if unset or unparseable.
pub fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own variable name: tests in one binary run on
    // parallel threads and share the process environment.

    #[test]
    fn flag_accepts_documented_truthy_spellings() {
        for v in ["1", "true", "TRUE", "Yes", " on ", "ON"] {
            std::env::set_var("SIMKIT_TEST_FLAG_A", v);
            assert!(env_flag("SIMKIT_TEST_FLAG_A"), "{v:?} should be truthy");
        }
        for v in ["0", "false", "no", "off", "", "2", "enable"] {
            std::env::set_var("SIMKIT_TEST_FLAG_A", v);
            assert!(!env_flag("SIMKIT_TEST_FLAG_A"), "{v:?} should be falsy");
        }
        std::env::remove_var("SIMKIT_TEST_FLAG_A");
        assert!(!env_flag("SIMKIT_TEST_FLAG_A"));
    }

    #[test]
    fn u64_trims_and_rejects_garbage() {
        std::env::set_var("SIMKIT_TEST_NUM_A", " 42 ");
        assert_eq!(env_u64("SIMKIT_TEST_NUM_A"), Some(42));
        std::env::set_var("SIMKIT_TEST_NUM_A", "-3");
        assert_eq!(env_u64("SIMKIT_TEST_NUM_A"), None);
        std::env::set_var("SIMKIT_TEST_NUM_A", "many");
        assert_eq!(env_u64("SIMKIT_TEST_NUM_A"), None);
        std::env::remove_var("SIMKIT_TEST_NUM_A");
        assert_eq!(env_u64("SIMKIT_TEST_NUM_A"), None);
    }
}
