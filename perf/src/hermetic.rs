//! Child processes that see only the `DYLECT_*` settings their workload
//! names: every inherited `DYLECT_*` variable is removed first, so a
//! stray `DYLECT_SHADOW` or `DYLECT_CACHE_DIR` in the caller's shell can
//! neither change what is measured nor write outside the run's own
//! directories.

use std::ffi::{OsStr, OsString};
use std::process::Command;

/// Removes every `DYLECT_*` variable `cmd` would inherit from this
/// process, then sets exactly `set`.
pub fn hermetic<'a>(cmd: &'a mut Command, set: &[(&str, &OsStr)]) -> &'a mut Command {
    scrub(cmd, std::env::vars_os().map(|(k, _)| k), set)
}

fn scrub<'a>(
    cmd: &'a mut Command,
    inherited: impl IntoIterator<Item = OsString>,
    set: &[(&str, &OsStr)],
) -> &'a mut Command {
    for key in inherited {
        if key.to_string_lossy().starts_with("DYLECT_") {
            cmd.env_remove(&key);
        }
    }
    for (key, value) in set {
        cmd.env(key, value);
    }
    cmd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_drops_stray_dylect_variables_and_sets_only_the_named_ones() {
        let mut cmd = Command::new("true");
        let inherited = [
            "PATH",
            "DYLECT_SHADOW",
            "DYLECT_JOBS",
            "HOME",
            "DYLECT_CACHE_DIR",
        ];
        scrub(
            &mut cmd,
            inherited.iter().map(OsString::from),
            &[("DYLECT_JOBS", OsStr::new("1"))],
        );
        let mut envs: Vec<(String, Option<String>)> = cmd
            .get_envs()
            .map(|(k, v)| {
                let v = v.map(|v| v.to_string_lossy().into_owned());
                (k.to_string_lossy().into_owned(), v)
            })
            .collect();
        envs.sort();
        assert_eq!(
            envs,
            vec![
                ("DYLECT_CACHE_DIR".to_owned(), None),
                ("DYLECT_JOBS".to_owned(), Some("1".to_owned())),
                ("DYLECT_SHADOW".to_owned(), None),
            ],
            "stray DYLECT_* removed, the named one set, the rest inherited"
        );
    }
}
