//! The host and source record, and the ambient-configuration guard.

use std::path::{Path, PathBuf};

/// Environment variables that would silently change what the libraries
/// run: `ServeConfig::new` reads the first, `Scale::from_env` the rest
/// (ignoring values it cannot parse). The ledger refuses to run with any
/// of them set.
pub const AMBIENT: [&str; 5] = [
    "AMOEBA_SERVE_BACKEND",
    "AMOEBA_SCALE",
    "AMOEBA_STEPS",
    "AMOEBA_FLOWS",
    "AMOEBA_EVAL",
];

/// The ambient variables among `vars` that are set.
pub fn ambient_set<'a>(vars: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    vars.into_iter()
        .filter(|k| AMBIENT.contains(k))
        .map(str::to_string)
        .collect()
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `"none"` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a 64 over the paths and contents of the sources the benchmark
/// builds (`Cargo.toml`, `Cargo.lock`, `src/`, `crates/`, `ledger/src/`),
/// in sorted path order — identifies the code where there is no git.
pub fn source_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "ledger/src",
        "ledger/Cargo.toml",
    ] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        eat(rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            eat(&bytes);
        }
    }
    h
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_variables_are_detected() {
        assert!(ambient_set(["PATH", "HOME"]).is_empty());
        assert_eq!(
            ambient_set(["PATH", "AMOEBA_STEPS", "AMOEBA_SERVE_BACKEND"]),
            vec![
                "AMOEBA_STEPS".to_string(),
                "AMOEBA_SERVE_BACKEND".to_string()
            ]
        );
        // Other AMOEBA_* knobs do not steer what the ledger runs.
        assert!(ambient_set(["AMOEBA_TELEMETRY_MAX_OVERHEAD_PCT"]).is_empty());
    }

    #[test]
    fn commit_outside_git_is_none() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        assert_eq!(commit(&src), "none");
    }
}
