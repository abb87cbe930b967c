//! Strict parsing of `DYLECT_*` environment variables.
//!
//! Every on/off variable shares one grammar, so a typo such as
//! `DYLECT_PROF=yes` fails loudly instead of silently flipping a switch;
//! every directory variable shares another; and every malformed variable
//! is a usage error with exit status 2.

use std::path::PathBuf;

/// Parses the value of the boolean switch `name`: unset, empty, `0` and
/// `false` are off; `1` and `true` are on (surrounding whitespace is
/// ignored). Anything else is a usage error naming the variable.
pub fn parse_flag(name: &str, raw: Option<&str>) -> Result<bool, String> {
    match raw.map(str::trim) {
        None | Some("" | "0" | "false") => Ok(false),
        Some("1" | "true") => Ok(true),
        Some(other) => Err(format!(
            "{name} must be one of 1/true/0/false, got {other:?}"
        )),
    }
}

/// Parses the value of the directory variable `name`: unset is `Ok(None)`
/// (the caller picks its default) and any other value is the path. An
/// empty or blank value is a usage error naming the variable: as a path it
/// would silently mean the current directory.
pub fn parse_dir(name: &str, raw: Option<&str>) -> Result<Option<PathBuf>, String> {
    match raw {
        None => Ok(None),
        Some(raw) if raw.trim().is_empty() => Err(format!(
            "{name} must be a directory path, got an empty value (unset it instead)"
        )),
        Some(raw) => Ok(Some(PathBuf::from(raw))),
    }
}

/// Unwraps a parsed environment value, or prints `usage: <msg>` and exits
/// with status 2 — what every binary does with a malformed variable.
pub fn or_usage_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("usage: {msg}");
        std::process::exit(2)
    })
}
