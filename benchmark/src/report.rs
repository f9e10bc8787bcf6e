//! Metrics as the benchmark prints and stores them.

use std::path::PathBuf;
use std::process::Command;

use serde_json::{json, Map, Value};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Which way an end-to-end metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Which clock an end-to-end metric is read from. Virtual-clock values are
/// exact: two runs of one commit and one seed must agree to the last digit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Virtual,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, defined on every workload. `BENCHMARK.json`
/// repeats this table; a test keeps the two equal.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "accesses_per_s",
        unit: "refs/s",
        clock: Clock::Host,
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_elapsed_s",
        unit: "sim_s",
        clock: Clock::Virtual,
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "sim_fault_mean_us",
        unit: "sim_us",
        clock: Clock::Virtual,
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "sim_fault_tail_us",
        unit: "sim_us",
        clock: Clock::Virtual,
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "hit_permille",
        unit: "permille",
        clock: Clock::Virtual,
        better: Better::Higher,
        bound: 0.02,
    },
];

/// Prints each metric as `name value unit`, the value with all its digits.
pub fn print(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {:?} {}", m.name, m.value, m.unit);
    }
}

/// `{name: {"value": v, "unit": u}}`, in order.
pub fn to_json(metrics: &[Metric]) -> Value {
    let mut map = Map::new();
    for m in metrics {
        map.insert(m.name.clone(), json!({"value": m.value, "unit": m.unit}));
    }
    Value::Object(map)
}

/// The one-object result line the outside driver reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": to_json(metrics),
    });
    serde_json::to_string(&line).expect("a Value always serializes")
}

/// This process's peak resident set (`VmHWM`), MiB; 0 where /proc has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the benchmark writes: `out/` beside its manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `value` to `out/<file>` and returns the path.
pub fn write_out(file: &str, value: &Value) -> Result<PathBuf, String> {
    let dir = out_dir();
    let path = dir.join(file);
    let text = serde_json::to_string_pretty(value).expect("a Value always serializes");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text + "\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What a ledger entry must say about the box it was measured on.
pub fn host_fingerprint(core_features: &str) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu": cpu,
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
        "rustc": tool_line("rustc", &["-V"]),
        "git_rev": tool_line("git", &["rev-parse", "HEAD"]),
        "hipec_core_features": core_features,
    })
}
