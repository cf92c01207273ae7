//! What a result was measured on: printed and recorded with every result.

use crate::check::Digest;
use crate::json::Json;
use flowmig_engine::EngineConfig;
use std::fs;
use std::path::Path;

/// The environment variables that switch the engine away from its
/// defaults. The benchmark measures defaults only.
pub const OVERRIDES: [&str; 2] = ["FLOWMIG_QUEUE_BACKEND", "FLOWMIG_SIM_WORKERS"];

/// The files that define the measured program and this benchmark,
/// relative to the repository root.
const SOURCES: [&str; 6] =
    ["Cargo.toml", "Cargo.lock", "crates", "shims", "flowbench/src", "flowbench/Cargo.toml"];

pub struct Machine {
    pub nproc: usize,
    pub commit: String,
    pub source_digest: String,
    pub rustc: &'static str,
    pub backend: String,
    pub executor: &'static str,
}

impl Machine {
    /// Describes this process's machine, run from the repository root.
    pub fn detect() -> Self {
        let defaults = EngineConfig::default();
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "none".to_owned()),
            source_digest: source_digest(),
            rustc: env!("FLOWBENCH_RUSTC"),
            backend: format!("{:?}", defaults.queue_backend).to_lowercase(),
            executor: defaults.sim_workers.label(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("commit".into(), Json::Str(self.commit.clone())),
            ("source_digest".into(), Json::Str(self.source_digest.clone())),
            ("rustc".into(), Json::Str(self.rustc.to_owned())),
            ("backend".into(), Json::Str(self.backend.clone())),
            ("executor".into(), Json::Str(self.executor.to_owned())),
        ])
    }
}

/// The checked-out commit, read from the git directory without running
/// git; `None` outside a git checkout.
fn git_commit(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

/// FNV-1a over the paths and contents of [`SOURCES`]: identifies the
/// measured code where no commit id is available.
fn source_digest() -> String {
    let mut digest = Digest::new();
    let mut files = Vec::new();
    for root in SOURCES {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    for file in files {
        digest.bytes(file.as_bytes());
        if let Ok(contents) = fs::read(&file) {
            digest.bytes(&contents);
        }
    }
    format!("{:016x}", digest.finish())
}

fn collect(path: &Path, files: &mut Vec<String>) {
    if path.is_file() {
        files.push(path.to_string_lossy().into_owned());
    } else if let Ok(entries) = fs::read_dir(path) {
        for entry in entries.flatten() {
            collect(&entry.path(), files);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
