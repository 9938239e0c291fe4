//! Workspace walking and path-based file classification.

use std::path::{Path, PathBuf};

use crate::rules::FileClass;

/// Crates whose `src/` trees form the deterministic core: the PR 2
/// cross-validation gate requires bitwise same-seed agreement across
/// them, so nondeterminism sources are banned outright.
const DETERMINISTIC_CRATES: &[&str] = &["runtime", "sim", "server", "federation"];

/// Classify a workspace-relative path (forward slashes) into the rule
/// families that apply to it. Binaries (`src/bin/`, `main.rs`) keep the
/// numeric rules but are exempt from `no-panic`: a CLI aborting on bad
/// input is acceptable, a library function aborting is not.
pub fn classify(rel: &str) -> FileClass {
    let is_bin = rel.contains("/bin/") || rel.ends_with("main.rs") || rel.ends_with("build.rs");
    let crate_of = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    FileClass {
        library: !is_bin,
        deterministic: DETERMINISTIC_CRATES.contains(&crate_of),
    }
}

/// Enumerate the first-party `.rs` files of the workspace rooted at
/// `root`: the root package's `src/` and every `crates/*/src/`. Test
/// trees, benches, examples, and the vendored stand-ins are out of
/// scope (tests are exempt from the domain rules by design, and vendor
/// code is third-party API surface we mirror, not author).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut roots = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut names: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        names.sort();
        for c in names {
            roots.push(c.join("src"));
        }
    }
    let mut files = Vec::new();
    for r in roots {
        if r.is_dir() {
            collect_rs(&r, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Workspace-relative, forward-slash form of `path` under `root`; falls
/// back to the full path when `path` is outside `root`.
pub fn rel_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
