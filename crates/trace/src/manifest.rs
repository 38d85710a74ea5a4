//! Run manifests: the machine-readable sidecar written next to each
//! `results/` artifact.

use std::path::Path;

use crate::json::{push_f64, quote};

/// FNV-1a 64-bit hash — the per-figure checksum algorithm. Stable,
/// dependency-free, and fast enough for CSV-sized artifacts.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git (or the repository) is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Checksum record for one produced artifact file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactSum {
    /// Path of the artifact (as written).
    pub(crate) path: String,
    /// Size in bytes.
    pub(crate) bytes: u64,
    /// FNV-1a 64-bit checksum, lowercase hex.
    pub(crate) fnv1a64: String,
}

impl ArtifactSum {
    /// Read `path` and checksum its contents.
    pub fn of_file(path: &Path) -> std::io::Result<Self> {
        let data = std::fs::read(path)?;
        Ok(Self {
            path: path.display().to_string(),
            bytes: data.len() as u64,
            fnv1a64: format!("{:016x}", fnv1a64(&data)),
        })
    }
}

/// Description of the trace stream written alongside a run, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceInfo {
    /// Path of the JSONL trace file.
    pub path: String,
    /// Number of events written.
    pub events: u64,
}

/// The run manifest. Rendered with [`Manifest::to_json`]; parse it back
/// (or validate it) with [`crate::json::parse`].
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Figure/experiment identifier (e.g. `fig2a`).
    pub id: String,
    /// The full command line that produced the artifact.
    pub command: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Problem-size scale factor.
    pub scale: f64,
    /// Worker threads used by the parallel runner (0 = auto).
    pub workers: usize,
    /// Scheduling policies exercised, in column order.
    pub policies: Vec<String>,
    /// `git describe` of the producing tree.
    pub git_describe: String,
    /// Wall-clock time to produce the artifact, milliseconds.
    pub wall_ms: u64,
    /// Checksums of every artifact file written.
    pub artifacts: Vec<ArtifactSum>,
    /// The trace stream, when `--trace-out` was active.
    pub trace: Option<TraceInfo>,
    /// Metrics-registry snapshot, pre-rendered as a JSON object (see
    /// `busbw-metrics`); `None` renders as `null`.
    pub metrics_json: Option<String>,
}

impl Manifest {
    /// Render the manifest as a JSON document.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"id\": {},", quote(&self.id));
        let _ = writeln!(out, "  \"command\": {},", quote(&self.command));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        out.push_str("  \"scale\": ");
        push_f64(&mut out, self.scale);
        out.push_str(",\n");
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        out.push_str("  \"policies\": [");
        for (i, p) in self.policies.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&quote(p));
        }
        out.push_str("],\n");
        let _ = writeln!(out, "  \"git_describe\": {},", quote(&self.git_describe));
        let _ = writeln!(out, "  \"wall_ms\": {},", self.wall_ms);
        out.push_str("  \"artifacts\": [");
        for (i, a) in self.artifacts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"path\": {}, \"bytes\": {}, \"fnv1a64\": {}}}",
                quote(&a.path),
                a.bytes,
                quote(&a.fnv1a64)
            );
        }
        if self.artifacts.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        match &self.trace {
            Some(t) => {
                let _ = writeln!(
                    out,
                    "  \"trace\": {{\"path\": {}, \"events\": {}}},",
                    quote(&t.path),
                    t.events
                );
            }
            None => out.push_str("  \"trace\": null,\n"),
        }
        match &self.metrics_json {
            Some(m) => {
                let _ = writeln!(out, "  \"metrics\": {m}");
            }
            None => out.push_str("  \"metrics\": null\n"),
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn manifest_renders_parseable_json() {
        let m = Manifest {
            id: "fig2a".into(),
            command: "experiments fig2a --scale 0.1".into(),
            seed: 42,
            scale: 0.1,
            workers: 4,
            policies: vec!["linux".into(), "latest quantum".into()],
            git_describe: "abc1234-dirty".into(),
            wall_ms: 1234,
            artifacts: vec![ArtifactSum {
                path: "results/fig2a.csv".into(),
                bytes: 100,
                fnv1a64: "00000000deadbeef".into(),
            }],
            trace: Some(TraceInfo {
                path: "t.jsonl".into(),
                events: 77,
            }),
            metrics_json: Some("{\"counters\": {\"ticks\": 10}}".into()),
        };
        let v = parse(&m.to_json()).expect("manifest parses");
        assert_eq!(v.get("id").unwrap().as_str(), Some("fig2a"));
        assert_eq!(v.get("seed").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("policies").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.get("trace").unwrap().get("events").unwrap().as_f64(),
            Some(77.0)
        );
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("ticks")
                .unwrap()
                .as_f64(),
            Some(10.0)
        );
    }

    #[test]
    fn empty_manifest_still_parses() {
        let v = parse(&Manifest::default().to_json()).expect("parses");
        assert_eq!(v.get("trace"), Some(&Value::Null));
        assert_eq!(v.get("metrics"), Some(&Value::Null));
        assert_eq!(v.get("artifacts").unwrap().as_array().unwrap().len(), 0);
    }
}
