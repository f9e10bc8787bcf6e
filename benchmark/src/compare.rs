//! `compare <a.json> <b.json>`: is `b` a regression against `a`?
//!
//! Both inputs are `BENCH.json` files of `all`. Each end-to-end metric's
//! bound is applied per workload; nothing is averaged across workloads or
//! metrics. Virtual-clock metrics and exact per-layer counts must be
//! identical when both files were run with one seed.

use serde_json::Value;

use crate::report::{Better, Clock, EndToEnd, END_TO_END};
use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Pass,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// The rounds of one input disagree by more than the bound, so the
    /// two values cannot be told apart at this bound.
    Unresolved,
    /// A value that must repeat exactly did not.
    Mismatch,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Mismatch => "MISMATCH",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Mismatch)
    }
}

fn path<'v>(v: &'v Value, keys: &[&str]) -> Option<&'v Value> {
    keys.iter()
        .try_fold(v, |v, k| v.as_object().and_then(|o| o.get(k)))
}

fn floats(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// How far `b` is on the worse side of `a`, as a share of `a`.
fn worse_by(def: &EndToEnd, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// A run's own resolution: how far the metric computed from its even
/// rounds alone is from the one computed from its odd rounds alone, as a
/// share of the smaller. (Single rounds would not do: the reported value
/// is built from the least disturbed pieces of all rounds, and is steadier
/// than any one of them.)
fn own_spread(halves: &[f64]) -> f64 {
    match halves {
        [x, y] => (x - y).abs() / x.min(*y),
        _ => 0.0,
    }
}

/// The verdict on one (workload, metric) pair. `halves_*` are the metric
/// from each half of the input's rounds; `exact` says the two runs had one
/// seed, so virtual-clock values must be identical.
pub fn judge(
    def: &EndToEnd,
    a: f64,
    b: f64,
    halves_a: &[f64],
    halves_b: &[f64],
    exact: bool,
) -> Verdict {
    if def.clock == Clock::Virtual && exact {
        return if a == b {
            Verdict::Pass
        } else {
            Verdict::Mismatch
        };
    }
    let noisy = own_spread(halves_a).max(own_spread(halves_b)) > def.bound;
    if noisy {
        // Still a pass when every half of `b` beats every half of `a`.
        let all_better = !halves_a.is_empty()
            && halves_b
                .iter()
                .all(|&y| halves_a.iter().all(|&x| worse_by(def, x, y) < 0.0));
        return if all_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(def, a, b) > def.bound {
        Verdict::Regression
    } else {
        Verdict::Pass
    }
}

/// Compares two `BENCH.json` documents; prints one row per (workload,
/// metric) and returns whether `b` holds every bound.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let seed = |v: &Value| path(v, &["seed"]).and_then(Value::as_u64);
    let exact = seed(a).is_some() && seed(a) == seed(b);
    if !exact {
        println!("# seeds differ: virtual-clock metrics are held to their bounds, not to equality");
    }
    println!(
        "{:<16} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    let mut ok = true;
    for w in Workload::ALL {
        for def in &END_TO_END {
            let value = |v: &Value| {
                path(v, &["workloads", w.name(), "end_to_end", def.name, "value"])
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{}/{} missing", w.name(), def.name))
            };
            let halves = |v: &Value| floats(path(v, &["workloads", w.name(), "halves", def.name]));
            let (va, vb) = (value(a)?, value(b)?);
            let verdict = judge(def, va, vb, &halves(a), &halves(b), exact);
            ok &= !verdict.fails();
            println!(
                "{:<16} {:<18} {:>16.6} {:>16.6} {:>9.4} {:>6.1}%  {}",
                w.name(),
                def.name,
                va,
                vb,
                vb / va,
                def.bound * 100.0,
                verdict.name()
            );
        }
        if exact {
            ok &= exact_layers_match(w, a, b);
        }
    }
    Ok(ok)
}

/// Per-layer values counted rather than timed must repeat exactly; prints
/// the ones that did not.
fn exact_layers_match(w: Workload, a: &Value, b: &Value) -> bool {
    let layers = |v| path(v, &["workloads", w.name(), "per_layer"]);
    let (Some(la), Some(lb)) = (layers(a), layers(b)) else {
        return true;
    };
    let mut same = true;
    for (name, entry) in la.as_object().into_iter().flat_map(|o| o.iter()) {
        let unit = path(entry, &["unit"]).and_then(Value::as_str).unwrap_or("");
        if !matches!(unit, "count" | "ratio" | "sim_us") {
            continue;
        }
        let va = path(entry, &["value"]).and_then(Value::as_f64);
        let vb = path(lb, &[name.as_str(), "value"]).and_then(Value::as_f64);
        if va != vb {
            println!(
                "{:<16} {:<18} {va:?} != {vb:?}  {}",
                w.name(),
                name,
                Verdict::Mismatch.name()
            );
            same = false;
        }
    }
    same
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics with bounds of the tests' own, so that retuning the real
    /// table does not move the cases below.
    const THROUGHPUT: EndToEnd = EndToEnd {
        name: "throughput",
        unit: "1/s",
        clock: Clock::Host,
        better: Better::Higher,
        bound: 0.05,
    };
    const DELAY: EndToEnd = EndToEnd {
        name: "delay",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.10,
    };
    const SIMULATED: EndToEnd = EndToEnd {
        name: "simulated",
        unit: "sim_s",
        clock: Clock::Virtual,
        better: Better::Lower,
        bound: 0.01,
    };

    #[test]
    fn a_drop_beyond_the_bound_is_a_regression_and_within_it_a_pass() {
        let d = &THROUGHPUT;
        let steady_a = [100.0, 99.0];
        let slower = [93.0, 92.5];
        assert_eq!(
            judge(d, 100.0, 93.0, &steady_a, &slower, true),
            Verdict::Regression
        );
        let close = [97.0, 96.8];
        assert_eq!(
            judge(d, 100.0, 97.0, &steady_a, &close, true),
            Verdict::Pass
        );
        // Faster is never a regression.
        assert_eq!(
            judge(d, 93.0, 100.0, &slower, &steady_a, true),
            Verdict::Pass
        );
    }

    #[test]
    fn lower_is_better_metrics_regress_upwards() {
        let d = &DELAY;
        let a = [1.0, 1.02];
        let b = [1.2, 1.22];
        assert_eq!(judge(d, 1.0, 1.2, &a, &b, true), Verdict::Regression);
        assert_eq!(judge(d, 1.2, 1.0, &b, &a, true), Verdict::Pass);
    }

    #[test]
    fn halves_that_disagree_beyond_the_bound_leave_it_unresolved() {
        let d = &THROUGHPUT;
        // The halves of `b` are 13 % apart: its 93 is not to be trusted.
        let a = [100.0, 99.0];
        let b = [93.0, 82.0];
        assert_eq!(judge(d, 100.0, 93.0, &a, &b, true), Verdict::Unresolved);
        // Unless every half of `b` beats every half of `a`.
        let a = [100.0, 80.0];
        let b = [130.0, 110.0];
        assert_eq!(judge(d, 100.0, 130.0, &a, &b, true), Verdict::Pass);
    }

    #[test]
    fn virtual_metrics_must_match_exactly_under_one_seed() {
        let d = &SIMULATED;
        assert_eq!(judge(d, 250.0, 250.0, &[], &[], true), Verdict::Pass);
        assert_eq!(
            judge(d, 250.0, 250.000001, &[], &[], true),
            Verdict::Mismatch
        );
        // Under different seeds they are held to their bound instead.
        assert_eq!(judge(d, 250.0, 250.5, &[], &[], false), Verdict::Pass);
        assert_eq!(judge(d, 250.0, 260.0, &[], &[], false), Verdict::Regression);
    }

    #[test]
    fn whole_documents_compare_per_workload_and_catch_a_count_that_moved() {
        let doc = |rate: f64, pageouts: u64| {
            let mut workloads = serde_json::Map::new();
            for w in Workload::ALL {
                let mut e2e = serde_json::Map::new();
                for def in &END_TO_END {
                    let v = if def.name == "accesses_per_s" {
                        rate
                    } else {
                        1.0
                    };
                    e2e.insert(def.name.to_string(), serde_json::json!({"value": v}));
                }
                workloads.insert(
                    w.name().to_string(),
                    serde_json::json!({
                        "end_to_end": Value::Object(e2e),
                        "halves": serde_json::json!({"accesses_per_s": [rate, rate]}),
                        "per_layer": serde_json::json!({
                            "vm.pageouts": serde_json::json!({"value": pageouts, "unit": "count"}),
                        }),
                    }),
                );
            }
            serde_json::json!({"seed": 17, "workloads": Value::Object(workloads)})
        };
        assert_eq!(compare(&doc(100.0, 5), &doc(99.0, 5)), Ok(true));
        assert_eq!(compare(&doc(100.0, 5), &doc(80.0, 5)), Ok(false));
        assert_eq!(compare(&doc(100.0, 5), &doc(100.0, 6)), Ok(false));
        assert!(compare(&doc(100.0, 5), &serde_json::json!({})).is_err());
    }
}
