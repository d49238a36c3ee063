//! The machine fingerprint stamped on every output, and the rule for
//! which fingerprints may be compared.

use oll::workloads::json::parse::Value;
use std::process::Command;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub cpu_model: String,
    /// CPUs this process may run on.
    pub nproc: usize,
    /// `T`: worker threads of the multi-thread workloads.
    pub threads: usize,
    pub rustc: String,
    /// Cargo features of the benchmark build.
    pub features: String,
    pub commit: String,
    pub seed: u64,
}

/// First line of `program args` output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

impl Fingerprint {
    pub fn collect(nproc: usize, threads: usize, seed: u64) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu_model,
            nproc,
            threads,
            rustc: first_line("rustc", &["--version"]),
            features: if cfg!(feature = "telemetry") {
                "telemetry"
            } else {
                "default"
            }
            .into(),
            commit: first_line("git", &["rev-parse", "HEAD"]),
            seed,
        }
    }

    pub fn to_json(&self) -> Value {
        let s = |v: &str| Value::Str(v.to_string());
        Value::Obj(vec![
            ("cpu_model".into(), s(&self.cpu_model)),
            ("nproc".into(), Value::Num(self.nproc as f64)),
            ("threads".into(), Value::Num(self.threads as f64)),
            ("rustc".into(), s(&self.rustc)),
            ("features".into(), s(&self.features)),
            ("commit".into(), s(&self.commit)),
            ("seed".into(), Value::Num(self.seed as f64)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        let s = |key: &str| v.get(key)?.as_str().map(str::to_string);
        Some(Self {
            cpu_model: s("cpu_model")?,
            nproc: v.get("nproc")?.as_u64()? as usize,
            threads: v.get("threads")?.as_u64()? as usize,
            rustc: s("rustc")?,
            features: s("features")?,
            commit: s("commit")?,
            seed: v.get("seed")?.as_u64()?,
        })
    }

    /// Why `self` and `other` must not be compared, if they must not: a
    /// different CPU model, `T`, or feature set makes a different
    /// experiment. Commit, seed and compiler may differ — comparing
    /// across those is what the comparison is for.
    pub fn mismatch(&self, other: &Self) -> Option<String> {
        if self.cpu_model != other.cpu_model {
            Some(format!(
                "CPU model differs: {:?} vs {:?}",
                self.cpu_model, other.cpu_model
            ))
        } else if self.threads != other.threads {
            Some(format!("T differs: {} vs {}", self.threads, other.threads))
        } else if self.features != other.features {
            Some(format!(
                "features differ: {:?} vs {:?}",
                self.features, other.features
            ))
        } else {
            None
        }
    }

    pub fn print(&self) {
        println!(
            "fingerprint: cpu {:?} nproc {} T {} rustc {:?} features {} commit {} seed {}",
            self.cpu_model,
            self.nproc,
            self.threads,
            self.rustc,
            self.features,
            self.commit,
            self.seed
        );
    }
}
