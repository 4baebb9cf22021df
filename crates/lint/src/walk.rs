//! Source-file discovery.
//!
//! Walks `crates/**/*.rs` and `src/**/*.rs` under the workspace root (the
//! linted files), or `examples/`, `tests/` and `perfbench/` (files that
//! only count as users of the linted files' `pub` items), skipping
//! `target/` and dot-directories. Paths come back repo-relative with `/`
//! separators and sorted, so diagnostics and the baseline file are
//! byte-stable across machines.

use std::fs;
use std::path::{Path, PathBuf};

/// A discovered source file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SourceFile {
    /// Repo-relative path with `/` separators (e.g. `crates/memory/src/p2m.rs`).
    pub rel_path: String,
    /// Absolute path for reading.
    pub abs_path: PathBuf,
}

/// Finds every `.rs` file under `<root>/crates` and `<root>/src`.
///
/// # Errors
///
/// Returns an error string if a directory cannot be read (other than the
/// top-level roots simply not existing, which yields an empty slice).
pub fn discover(root: &Path) -> Result<Vec<SourceFile>, String> {
    discover_under(root, &["crates", "src"])
}

/// Finds every `.rs` file under `<root>/examples`, `<root>/tests` and
/// `<root>/perfbench`: code that uses the workspace's `pub` items but is
/// never linted itself.
///
/// # Errors
///
/// As [`discover`].
pub fn discover_users(root: &Path) -> Result<Vec<SourceFile>, String> {
    discover_under(root, &["examples", "tests", "perfbench"])
}

fn discover_under(root: &Path, tops: &[&str]) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_dir(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk_dir(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk_dir(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix {}: {e}", path.display()))?;
            let rel_path = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                rel_path,
                abs_path: path,
            });
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from `start` until a directory
/// containing `Cargo.toml` with a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_this_crate() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root above crates/lint");
        let files = discover(&root).expect("discover");
        assert!(files
            .iter()
            .any(|f| f.rel_path == "crates/lint/src/walk.rs"));
        assert!(files.iter().any(|f| f.rel_path.starts_with("src/")));
        // Sorted and unique.
        let mut sorted = files.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(files, sorted);
    }
}
