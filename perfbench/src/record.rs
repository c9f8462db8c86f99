//! Deterministic-output records and the benchmark's scratch directories.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::Args;

/// Scratch space inside the checkout the benchmark runs from.
pub const WORK_DIR: &str = ".perfbench_work";

/// Deterministic outputs and counters of one run, by name. Every run of
/// the same build, workload and seed — traced or not — must produce the
/// same values for the names both record.
#[derive(Default)]
pub struct DetRecord {
    values: Vec<(String, String)>,
    /// Names recorded twice in one run with different values (the traced
    /// and the untraced operation disagree).
    pub conflicts: Vec<String>,
}

impl DetRecord {
    pub fn put(&mut self, name: &str, value: impl Display) {
        let value = value.to_string();
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) if slot.1 != value => self.conflicts.push(format!(
                "{name} differs between operations of this run: {} vs {value}",
                slot.1
            )),
            Some(_) => {}
            None => self.values.push((name.to_owned(), value)),
        }
    }

    /// One line per name whose value differs between `self` and `other`
    /// (names only one side records are skipped).
    pub fn diff(&self, other: &DetRecord, what: &str) -> Vec<String> {
        let mut out = Vec::new();
        for (name, value) in &self.values {
            if let Some((_, theirs)) = other.values.iter().find(|(n, _)| n == name) {
                if theirs != value {
                    out.push(format!("{name} differs {what}: {value} vs {theirs}"));
                }
            }
        }
        out
    }

    fn parse(text: &str) -> DetRecord {
        DetRecord {
            values: text
                .lines()
                .filter_map(|l| l.split_once('='))
                .map(|(n, v)| (n.to_owned(), v.to_owned()))
                .collect(),
            conflicts: Vec::new(),
        }
    }

    fn render(&self) -> String {
        self.values
            .iter()
            .map(|(n, v)| format!("{n}={v}\n"))
            .collect()
    }

    /// Compares against the record an earlier run of this build left for
    /// the same workload and seed, then stores the union. Returns the
    /// differences.
    pub fn check_against_previous(&self, args: &Args) -> std::io::Result<Vec<String>> {
        let dir = Path::new(WORK_DIR).join("det");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "{}-seed{}-build{:016x}.txt",
            args.workload,
            args.seed,
            build_id()
        ));
        let mut merged = match std::fs::read_to_string(&path) {
            Ok(text) => DetRecord::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => DetRecord::default(),
            Err(e) => return Err(e),
        };
        let diffs = self.diff(&merged, "from an earlier run of this build and seed");
        if diffs.is_empty() {
            for (n, v) in &self.values {
                merged.put(n, v);
            }
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            std::fs::write(&tmp, merged.render())?;
            std::fs::rename(&tmp, &path)?;
        }
        Ok(diffs)
    }
}

/// Identifies the running binary (size and modification time), so records
/// of a different build are never compared.
fn build_id() -> u64 {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    let (len, mtime) = match meta {
        Ok(m) => (
            m.len(),
            m.modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos() as u64),
        ),
        Err(_) => (0, 0),
    };
    len.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mtime
}

/// A directory of its own under [`WORK_DIR`], removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(WORK_DIR).join(format!("{label}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copies the regular files of `from` (recursively) into `to`.
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
