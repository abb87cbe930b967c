//! Guards the hermetic build: no crate in the workspace may depend on a
//! registry package. Every dependency must be a path / workspace member,
//! so `cargo build --offline` always works on a fresh checkout. Also
//! guards the workspace lint table: `unsafe_code` is forbidden, and every
//! member crate must opt in to the workspace lints.

use std::path::{Path, PathBuf};

/// Collects `Cargo.toml` for the workspace root and every crate under
/// `crates/`.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|p| p.join("Cargo.lock").exists() || p.join("crates").is_dir())
        .expect("workspace root above crate dir")
        .to_path_buf();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let path = entry.expect("dir entry").path().join("Cargo.toml");
        if path.is_file() {
            manifests.push(path);
        }
    }
    manifests
}

/// True for dependency entries that resolve inside the workspace:
/// `{ path = ... }`, `{ workspace = true }`, or keys of the dotted form
/// `foo.path` / `foo.workspace`.
fn is_hermetic(entry: &str) -> bool {
    entry.contains("path") || entry.contains("workspace = true")
}

#[test]
fn all_dependencies_are_path_or_workspace() {
    let mut violations = Vec::new();
    for manifest in workspace_manifests() {
        let text = std::fs::read_to_string(&manifest).expect("manifest readable");
        let mut in_deps = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                // [dependencies], [dev-dependencies], [build-dependencies],
                // [workspace.dependencies], and target-specific variants.
                in_deps = line.trim_matches(['[', ']']).ends_with("dependencies");
                continue;
            }
            if !in_deps {
                continue;
            }
            if let Some((name, value)) = line.split_once('=') {
                if !is_hermetic(value) && !is_hermetic(name) {
                    violations.push(format!(
                        "{}:{}: `{}` is not a path/workspace dependency",
                        manifest.display(),
                        lineno + 1,
                        line
                    ));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "registry dependencies would break the offline build:\n{}",
        violations.join("\n")
    );
}

#[test]
fn lockfile_is_committed_and_registry_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|p| p.join("Cargo.lock").exists())
        .expect("Cargo.lock committed at the workspace root");
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("lockfile readable");
    assert!(
        !lock.contains("source = "),
        "Cargo.lock references an external source; the build is no longer hermetic"
    );
}

/// True when `text` has a `[lints]` table containing `workspace = true`.
fn inherits_workspace_lints(text: &str) -> bool {
    let mut in_lints = false;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn unsafe_code_is_forbidden_in_every_member() {
    let manifests = workspace_manifests();
    let (root, members) = manifests.split_first().expect("root manifest");
    let root_text = std::fs::read_to_string(root).expect("root manifest readable");
    let forbids_unsafe = root_text
        .split_once("[workspace.lints.rust]")
        .and_then(|(_, table)| {
            table
                .lines()
                .take_while(|l| !l.trim_start().starts_with('['))
                .find(|l| l.trim_start().starts_with("unsafe_code"))
        })
        .is_some_and(|l| l.contains("\"forbid\""));
    assert!(
        forbids_unsafe,
        "{}: [workspace.lints.rust] must set unsafe_code = \"forbid\"",
        root.display()
    );
    let missing: Vec<String> = members
        .iter()
        .filter(|m| {
            let text = std::fs::read_to_string(m).expect("manifest readable");
            !inherits_workspace_lints(&text)
        })
        .map(|m| m.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "member manifests without `[lints] workspace = true`:\n{}",
        missing.join("\n")
    );
}
