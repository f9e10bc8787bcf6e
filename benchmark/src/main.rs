//! Two-clock benchmark for the HiPEC simulator.
//!
//! ```text
//! hipec-benchmark --workload <w> --seed <n> --seconds <s> --trace <0|1>
//! hipec-benchmark run <w> | trace <w> | layers | all   [--seed n] [--seconds s]
//! hipec-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is what `BENCHMARK.json` names: `--trace 0` is `run`,
//! `--trace 1` is `trace` followed by `layers`. Every form prints each
//! metric as `name value unit` and ends with one JSON result line; see
//! README.md for what the metrics mean.

mod compare;
mod layers;
mod report;
mod run;
mod span;
mod sut;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use serde_json::{json, Map, Value};

use report::Metric;
use workload::Workload;

const DEFAULT_SEED: u64 = 0x11;
const DEFAULT_SECONDS: f64 = 30.0;
/// Host time the isolated-layer suite spreads over its cases.
const LAYERS_BUDGET: Duration = Duration::from_secs(4);

const USAGE: &str = "usage:
  hipec-benchmark --workload <w> --seed <n> --seconds <s> --trace <0|1>
  hipec-benchmark run <w> | trace <w> | layers | all   [--seed n] [--seconds s]
  hipec-benchmark compare <a.json> <b.json>
workloads: hot_hits policy_faults dirty_writeback tenants_storm";

enum Cmd {
    Run(Workload),
    Trace { w: Workload, with_layers: bool },
    Layers,
    All,
    Compare(String, String),
}

struct Args {
    cmd: Cmd,
    seed: u64,
    seconds: f64,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("`{s}` is not a whole number: {e}"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut seed, mut seconds) = (DEFAULT_SEED, DEFAULT_SECONDS);
    let (mut workload, mut trace) = (None, false);
    let mut positional = Vec::new();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = parse_u64(&value)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a duration"))?;
            }
            "--trace" => trace = parse_u64(&value)? != 0,
            _ => return Err(format!("unknown option {arg}")),
        }
    }
    let positional: Vec<&str> = positional.iter().map(String::as_str).collect();
    let cmd = match (workload.as_deref(), positional.as_slice()) {
        // The outside driver's form: `--trace 1` is `trace` then `layers`.
        (Some(w), []) if trace => Cmd::Trace {
            w: Workload::parse(w)?,
            with_layers: true,
        },
        (Some(w), []) | (None, &["run", w]) => Cmd::Run(Workload::parse(w)?),
        (None, ["trace", w]) => Cmd::Trace {
            w: Workload::parse(w)?,
            with_layers: false,
        },
        (None, ["layers"]) => Cmd::Layers,
        (None, ["all"]) => Cmd::All,
        (None, ["compare", a, b]) => Cmd::Compare(a.to_string(), b.to_string()),
        _ => return Err("no such command".to_string()),
    };
    Ok(Args { cmd, seed, seconds })
}

/// What a part of the benchmark hands back: the counts of the result line
/// and the metrics it printed.
struct Done {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn cmd_run(w: Workload, seed: u64, seconds: f64) -> Result<Done, String> {
    let run = run::rounds(w, seed, seconds, 1)?;
    let metrics = run::end_to_end(&run);
    report::print(&metrics);
    report::write_out(
        &format!("{}.run.json", w.name()),
        &run::run_json(w, seed, &run, &metrics),
    )?;
    Ok(Done {
        attempted: run.rounds[0].attempted(),
        failed: run.rounds[0].failed(),
        metrics,
    })
}

fn cmd_trace(w: Workload, seed: u64, seconds: f64, with_layers: bool) -> Result<Done, String> {
    // A few untraced rounds first: the traced round must replay to their
    // digest, and the fastest of them prices the tracing.
    let untraced = run::rounds(w, seed, seconds / 4.0, 1)?;
    let (traced, spans) = run::traced_round(w, seed, 1, &untraced)?;
    let mut metrics = run::span_metrics(&traced, &spans, &untraced);
    run::check_shares(w, &metrics)?;
    metrics.extend(run::count_metrics(&traced));
    if with_layers {
        metrics.extend(layers::run(LAYERS_BUDGET));
    }
    report::print(&metrics);
    // The metrics go to a file of their own: `all` merges them, and must
    // not have to read megabytes of raw spans to do so.
    report::write_out(
        &format!("{}.per_layer.json", w.name()),
        &report::to_json(&metrics),
    )?;
    report::write_out(
        &format!("{}.trace.json", w.name()),
        &json!({
            "workload": w.name(),
            "seed": seed,
            "digest": format!("{:016x}", traced.digest),
            "trace": spans.to_json(),
        }),
    )?;
    Ok(Done {
        attempted: traced.attempted(),
        failed: traced.failed(),
        metrics,
    })
}

fn cmd_layers() -> Result<Done, String> {
    let metrics = layers::run(LAYERS_BUDGET);
    report::print(&metrics);
    report::write_out("layers.json", &report::to_json(&metrics))?;
    Ok(Done {
        attempted: metrics.len() as u64,
        failed: 0,
        metrics,
    })
}

/// Runs one part in a process of its own, so that `peak_rss_mb` is the
/// high-water mark of a process that ran only that part, and returns what
/// the part wrote to `out/<file>`.
fn child(args: &[&str], seed: u64, seconds: f64, file: &str) -> Result<Value, String> {
    let path = report::out_dir().join(file);
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    println!("# {}", args.join(" "));
    let status = Command::new(exe)
        .args(args)
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .status()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    if !status.success() {
        return Err(format!("`{}` failed: {status}", args.join(" ")));
    }
    load_json(&path)
}

fn load_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn cmd_all(seed: u64, seconds: f64) -> Result<Done, String> {
    let started = Instant::now();
    let object = |v: Value, file: &str| match v {
        Value::Object(map) => Ok(map),
        _ => Err(format!("{file} is not an object")),
    };
    let mut entries = Vec::new();
    for w in Workload::ALL {
        let file = format!("{}.run.json", w.name());
        entries.push(object(
            child(&["run", w.name()], seed, seconds, &file)?,
            &file,
        )?);
    }
    let layers = child(&["layers"], seed, seconds, "layers.json")?;
    for (w, entry) in Workload::ALL.iter().zip(&mut entries) {
        let file = format!("{}.per_layer.json", w.name());
        let per_layer = child(&["trace", w.name()], seed, seconds, &file)?;
        entry.insert("per_layer".to_string(), per_layer);
    }
    let sum = |key: &str| -> u64 {
        entries
            .iter()
            .filter_map(|e| e.get(key).and_then(Value::as_u64))
            .sum()
    };
    let (attempted, failed) = (sum("attempted"), sum("failed"));
    let mut workloads = Map::new();
    for (w, entry) in Workload::ALL.iter().zip(entries) {
        workloads.insert(w.name().to_string(), Value::Object(entry));
    }
    let total = Metric::new("all.total_s", started.elapsed().as_secs_f64(), "s");
    report::print(std::slice::from_ref(&total));
    let path = report::write_out(
        "BENCH.json",
        &json!({
            "schema": 1,
            "seed": seed,
            "seconds": seconds,
            "total_s": total.value,
            "host": report::host_fingerprint(&sut::core_features()),
            "workloads": Value::Object(workloads),
            "layers": layers,
        }),
    )?;
    println!("# wrote {}", path.display());
    Ok(Done {
        attempted,
        failed,
        metrics: vec![total],
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds) = (args.seed, args.seconds);
    let done = match args.cmd {
        Cmd::Run(w) => cmd_run(w, seed, seconds),
        Cmd::Trace { w, with_layers } => cmd_trace(w, seed, seconds, with_layers),
        Cmd::Layers => cmd_layers(),
        Cmd::All => cmd_all(seed, seconds),
        Cmd::Compare(a, b) => {
            let load = |p: &String| load_json(Path::new(p));
            let same = load(&a).and_then(|a| compare::compare(&a, &load(&b)?));
            return match same {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
    };
    match done {
        Ok(done) => {
            println!(
                "{}",
                report::result_line(true, done.attempted, done.failed, &done.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("FAILED: {e}");
            println!("{}", report::result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the root of the repository repeats what this
    /// package defines; an outside driver reads that file, so the two must
    /// not drift apart.
    #[test]
    fn benchmark_json_names_what_the_code_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<Map> {
            let items = doc.as_object().and_then(|o| o.get(key));
            let items = items.and_then(Value::as_array).expect(key);
            items
                .iter()
                .map(|v| v.as_object().expect("object").clone())
                .collect()
        };
        let text_of =
            |m: &Map, key: &str| m.get(key).and_then(Value::as_str).expect(key).to_string();

        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|m| text_of(m, "name"))
            .collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), report::END_TO_END.len());
        for (m, def) in e2e.iter().zip(&report::END_TO_END) {
            assert_eq!(text_of(m, "name"), def.name);
            assert_eq!(text_of(m, "unit"), def.unit, "{}", def.name);
            let better = match def.better {
                report::Better::Higher => "higher",
                report::Better::Lower => "lower",
            };
            assert_eq!(text_of(m, "better"), better, "{}", def.name);
            let bound = m.get("bound").and_then(Value::as_f64);
            assert_eq!(bound, Some(def.bound), "{}", def.name);
        }
        let setup = report::END_TO_END.iter().find(|d| d.name == "setup_s");
        let largest = report::END_TO_END
            .iter()
            .map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.map(|d| d.bound),
            Some(largest),
            "setup_s has the largest bound"
        );

        // What `--trace 1` prints, on the cheapest workload at 1/100 scale.
        let run = run::rounds(Workload::HotHits, DEFAULT_SEED, 0.0, 100).expect("rounds");
        let (traced, spans) =
            run::traced_round(Workload::HotHits, DEFAULT_SEED, 100, &run).expect("traced");
        let mut emitted = run::span_metrics(&traced, &spans, &run);
        emitted.extend(run::count_metrics(&traced));
        emitted.extend(layers::run(Duration::ZERO));
        let emitted: Vec<(String, String)> = emitted
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        let declared: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect();
        assert_eq!(declared, emitted);
    }

    #[test]
    fn the_driver_form_and_the_subcommands_parse() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload hot_hits --seed 7 --seconds 10 --trace 1").expect("driver form");
        assert!(matches!(
            a.cmd,
            Cmd::Trace {
                w: Workload::HotHits,
                with_layers: true
            }
        ));
        assert_eq!((a.seed, a.seconds), (7, 10.0));
        let a = parse("--workload hot_hits --seed 7 --seconds 10 --trace 0").expect("driver form");
        assert!(matches!(a.cmd, Cmd::Run(Workload::HotHits)));
        let a = parse("run policy_faults --seed 0x11").expect("subcommand");
        assert!(matches!(a.cmd, Cmd::Run(Workload::PolicyFaults)));
        assert_eq!((a.seed, a.seconds), (17, DEFAULT_SECONDS));
        assert!(matches!(
            parse("compare a b").expect("compare").cmd,
            Cmd::Compare(..)
        ));
        for bad in [
            "",
            "run",
            "run nothing",
            "--seed",
            "--seconds -1",
            "--bogus 1",
            "all extra",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }
}
