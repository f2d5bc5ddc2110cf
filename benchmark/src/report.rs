//! What a run reports: metrics, per-phase operation accounting,
//! correctness gates, and the provenance block, written as the one-line
//! result on stdout and as a full JSON record on disk.

use crate::stats::{Quantile, Samples, TooFewSamples};
use std::fmt::Write as _;
use std::path::Path;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Raw samples behind a percentile (`None` for totals and ratios).
    pub samples: Option<usize>,
}

/// Operations one phase attempted; `failed` counts refused and failed
/// ones (each also counts as missing any latency limit).
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
}

/// A gate's outcome. `Unchecked` is a gate that had nothing to check
/// against (a seed with no recorded values): it neither passes nor fails.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Failed,
    Unchecked,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Failed => "failed",
            Verdict::Unchecked => "unchecked",
        }
    }
}

pub struct Gate {
    pub name: String,
    pub verdict: Verdict,
    pub detail: String,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub phases: Vec<Phase>,
    pub gates: Vec<Gate>,
    /// Record-only facts (digests, sizes) that are not metrics.
    pub facts: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        });
    }

    /// Percentile `p` of `s`, reported with its sample count.
    pub fn quantile(
        &mut self,
        name: &str,
        s: &Samples,
        p: f64,
        unit: &'static str,
    ) -> Result<Quantile, TooFewSamples> {
        let q = s.percentile(p)?;
        self.metrics.push(Metric {
            name: name.to_string(),
            value: q.value,
            unit,
            samples: Some(q.samples),
        });
        Ok(q)
    }

    pub fn phase(&mut self, name: &str, attempted: u64, failed: u64) {
        self.phases.push(Phase {
            name: name.to_string(),
            attempted,
            failed,
        });
    }

    pub fn gate(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            eprintln!("GATE FAILED {name}: {detail}");
        }
        let verdict = if ok { Verdict::Ok } else { Verdict::Failed };
        self.gates.push(Gate {
            name: name.to_string(),
            verdict,
            detail,
        });
    }

    /// A gate that could not be checked in this run.
    pub fn unchecked(&mut self, name: &str, detail: String) {
        eprintln!("GATE UNCHECKED {name}: {detail}");
        self.gates.push(Gate {
            name: name.to_string(),
            verdict: Verdict::Unchecked,
            detail,
        });
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().any(|g| g.verdict == Verdict::Ok)
            && self.gates.iter().all(|g| g.verdict != Verdict::Failed)
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The one-line JSON result, printed as the last line of stdout.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&x.name),
                json_num(x.value),
                json_str(x.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted().max(1),
            self.failed()
        )
    }

    /// Human-readable table on stderr: every metric with its unit and
    /// sample count, then the phase accounting and the gates.
    pub fn print_table(&self) {
        for x in &self.metrics {
            let n = x.samples.map(|n| format!("n={n}")).unwrap_or_default();
            eprintln!("  {:<38} {:>16.6} {:<8} {n}", x.name, x.value, x.unit);
        }
        for p in &self.phases {
            eprintln!(
                "  phase {:<28} attempted {:>9} succeeded {:>9} failed {:>6}",
                p.name,
                p.attempted,
                p.attempted - p.failed,
                p.failed
            );
        }
        for g in &self.gates {
            let verdict = g.verdict.word();
            eprintln!("  gate  {:<28} {verdict:<9} {}", g.name, g.detail);
        }
    }

    /// The full record: provenance, run parameters, metrics with sample
    /// counts, phases, gates and facts.
    pub fn record_json(&self, prov: &Provenance, run: &[(&str, String)]) -> String {
        let metrics = self.metrics.iter().map(|x| {
            let samples = x.samples.map_or("null".to_string(), |n| n.to_string());
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {samples}}}",
                json_str(&x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        });
        let phases = self.phases.iter().map(|p| {
            format!(
                "{{\"name\": {}, \"attempted\": {}, \"succeeded\": {}, \"failed\": {}}}",
                json_str(&p.name),
                p.attempted,
                p.attempted - p.failed,
                p.failed
            )
        });
        let gates = self.gates.iter().map(|g| {
            format!(
                "{{\"name\": {}, \"verdict\": {}, \"detail\": {}}}",
                json_str(&g.name),
                json_str(g.verdict.word()),
                json_str(&g.detail)
            )
        });
        let facts = self
            .facts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)));
        let mut o = String::from("{\n  \"schema\": \"tn-e2ebench/v1\",\n");
        let _ = writeln!(o, "  \"provenance\": {},", prov.json());
        for (k, v) in run {
            let _ = writeln!(o, "  {}: {v},", json_str(k));
        }
        let _ = write!(
            o,
            "  \"metrics\": {{\n{}\n  }},\n  \"phases\": [\n{}\n  ],\n  \"gates\": [\n{}\n  ],\n  \"facts\": {{\n{}\n  }}\n}}\n",
            lines(metrics),
            lines(phases),
            lines(gates),
            lines(facts)
        );
        o
    }
}

/// Items one per indented line, comma-separated.
fn lines(items: impl Iterator<Item = String>) -> String {
    items
        .map(|i| format!("    {i}"))
        .collect::<Vec<_>>()
        .join(",\n")
}

pub fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A finite number in shortest round-trip form; non-finite values are
/// a bug in the metric and become `null`, which no result may hold.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Where and how a result was produced. Two records compare only when
/// every field but `commit` and `source_digest` is equal.
pub struct Provenance {
    pub commit: String,
    pub source_digest: String,
    pub cpu_model: String,
    pub logical_cores: usize,
    pub rustc: &'static str,
    pub simd: bool,
    pub profile: &'static str,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            commit: git_commit(&root).unwrap_or_else(|| "unknown".into()),
            source_digest: format!("{:016x}", source_digest(&root)),
            cpu_model,
            logical_cores: crate::nproc(),
            rustc: env!("TNB_RUSTC_VERSION"),
            simd: cfg!(feature = "simd"),
            profile: env!("TNB_PROFILE"),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"commit\": {}, \"source_digest\": {}, \"cpu_model\": {}, \"logical_cores\": {}, \
             \"rustc\": {}, \"features\": {{\"simd\": {}}}, \"profile\": {}}}",
            json_str(&self.commit),
            json_str(&self.source_digest),
            json_str(&self.cpu_model),
            self.logical_cores,
            json_str(self.rustc),
            self.simd,
            json_str(self.profile)
        )
    }
}

/// `HEAD` of the enclosing git checkout, read from `.git` directly (the
/// benchmark also runs from exported trees, which have none).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(c) = std::fs::read_to_string(git.join(r)) {
        return Some(c.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(r))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string)
}

/// FNV-1a over the path and bytes of every manifest and Rust source of
/// the library crates and the benchmark, in sorted path order: names
/// the measured code even where no commit id is available.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs") | Some("toml") | Some("lock")
            ) {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "benchmark/src"] {
        walk(&root.join(sub), &mut files);
    }
    for f in [
        "Cargo.toml",
        "Cargo.lock",
        "benchmark/Cargo.toml",
        "benchmark/build.rs",
    ] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    h
}
