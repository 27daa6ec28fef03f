//! Crate boundaries for call resolution. A call can only reach a fn in
//! the caller's own crate or in one it depends on, directly or not, as
//! the `[dependencies]` of the `crates/*`, `vendor/*` and `examples/`
//! manifests say. A file under no manifest links everywhere.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The crates found under an analysis root.
#[derive(Debug, Default)]
pub struct Crates {
    /// Crate directory relative to the root, `/`-terminated.
    dirs: Vec<String>,
    /// `closures[c]` — crate `c` plus every crate it transitively
    /// depends on, as indices into `dirs`.
    pub closures: Vec<BTreeSet<usize>>,
}

impl Crates {
    /// Read every manifest under `root`; a directory without a readable
    /// `Cargo.toml` is no crate.
    pub fn read(root: &Path) -> Crates {
        let mut dirs = vec!["examples/".to_string()];
        for sub in ["crates", "vendor"] {
            let entries = std::fs::read_dir(root.join(sub)).into_iter().flatten();
            for e in entries.flatten() {
                dirs.push(format!("{sub}/{}/", e.file_name().to_string_lossy()));
            }
        }
        let mut manifests = Vec::new();
        dirs.retain(|d| {
            let Ok(text) = std::fs::read_to_string(root.join(d).join("Cargo.toml")) else {
                return false;
            };
            manifests.push(parse(&text));
            true
        });
        let index: BTreeMap<&str, usize> = manifests
            .iter()
            .enumerate()
            .map(|(i, m)| (m.0.as_str(), i))
            .collect();
        let closures = (0..dirs.len())
            .map(|c| {
                let (mut seen, mut stack) = (BTreeSet::from([c]), vec![c]);
                while let Some(k) = stack.pop() {
                    for &d in manifests[k].1.iter().filter_map(|d| index.get(d.as_str())) {
                        if seen.insert(d) {
                            stack.push(d);
                        }
                    }
                }
                seen
            })
            .collect();
        Crates { dirs, closures }
    }

    /// The crate whose directory holds `path`, if any.
    pub fn of(&self, path: &str) -> Option<usize> {
        self.dirs.iter().position(|d| path.starts_with(d.as_str()))
    }
}

/// The package name and the `[dependencies]` keys of one manifest.
fn parse(text: &str) -> (String, Vec<String>) {
    let (mut name, mut deps, mut section) = (String::new(), Vec::new(), "");
    for line in text.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']');
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            match section {
                "package" if key == "name" => name = value.trim().trim_matches('"').to_string(),
                "dependencies" => deps.push(key.to_string()),
                _ => {}
            }
        }
    }
    (name, deps)
}
