//! The host block every result carries, and the comparison of two results
//! that flags a host mismatch instead of silently comparing.

use std::fs;
use std::path::Path;

use mtm_analysis::json::Value;

use crate::report::json_str;

/// Where a result was measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    /// Logical cores available to the process.
    pub cores: usize,
    /// CPU model name.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the measured tree (`unknown` outside a git checkout).
    pub commit: String,
}

impl Host {
    /// Describe this machine and the tree in the working directory.
    pub fn detect() -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(0, usize::from),
            cpu: crate::proc::cpu_model().unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("E2EBENCH_RUSTC_VERSION").to_string(),
            commit: git_head(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// Read a host block back from a result record.
    pub fn from_json(v: &Value) -> Option<Host> {
        let text = |k: &str| v.get(k)?.as_str().map(str::to_string);
        Some(Host {
            // a core count read back from our own record. mtm-lint: allow(truncating-cast)
            cores: v.get("cores")?.as_f64()? as usize,
            cpu: text("cpu")?,
            rustc: text("rustc")?,
            commit: text("commit")?,
        })
    }

    /// The host block as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"cpu\":{},\"rustc\":{},\"commit\":{}}}",
            self.cores,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.commit)
        )
    }

    /// What differs between two hosts' machines (cores, CPU, compiler).
    /// The commit is what a comparison compares, so it never counts.
    pub fn machine_differences(&self, other: &Host) -> Vec<String> {
        let mut diffs = Vec::new();
        if self.cores != other.cores {
            diffs.push(format!("cores {} vs {}", self.cores, other.cores));
        }
        if self.cpu != other.cpu {
            diffs.push(format!("cpu {:?} vs {:?}", self.cpu, other.cpu));
        }
        if self.rustc != other.rustc {
            diffs.push(format!("rustc {:?} vs {:?}", self.rustc, other.rustc));
        }
        diffs
    }
}

/// The commit `HEAD` names in the git directory `git`, without running git.
fn git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}
