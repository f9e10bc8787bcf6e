//! The isolated-layer suite: host ns per operation of each layer on its
//! own, the fastest of at least ten batches. The cases live in `sut.rs`
//! (they name the program's types); this file times them and derives the
//! two metrics that are differences of cases.

use std::time::{Duration, Instant};

use crate::report::Metric;
use crate::sut;

const MIN_BATCHES: u32 = 10;

/// Runs every case for about `budget` in total. The cases take turns, one
/// batch each per pass, so every case samples the whole window and a slow
/// spell of the box cannot swallow one case's batches.
pub fn run(budget: Duration) -> Vec<Metric> {
    let mut cases = sut::layers();
    let mut best = vec![f64::INFINITY; cases.len()];
    let started = Instant::now();
    let mut passes = 0;
    while passes < MIN_BATCHES || started.elapsed() < budget {
        for (case, best) in cases.iter_mut().zip(&mut best) {
            let took = (case.batch)();
            *best = best.min(took.as_nanos() as f64 / case.ops as f64);
        }
        passes += 1;
    }
    let raw: Vec<(&'static str, f64)> = cases.iter().map(|c| c.name).zip(best).collect();
    derive(&raw)
}

/// Cases named with a unit are metrics as they stand; `core.access.hit`
/// and `core.fault.trace_off` (the LRU fault loop again, tracing switched
/// off) only feed the derived ones.
fn derive(raw: &[(&'static str, f64)]) -> Vec<Metric> {
    let get = |name: &str| {
        raw.iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    let mut out: Vec<Metric> = raw
        .iter()
        .filter(|(n, _)| n.contains(".ns"))
        .map(|&(n, v)| Metric::new(n, v, "ns"))
        .collect();
    out.push(Metric::new(
        "core.access.hit_wrapper.ns",
        get("core.access.hit") - get("vm.access.hit.ns"),
        "ns",
    ));
    out.push(Metric::new(
        "core.trace.overhead_pct",
        (get("core.fault.ns.lru") / get("core.fault.trace_off") - 1.0) * 100.0,
        "%",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics_are_differences_of_cases() {
        let m = derive(&[
            ("vm.access.hit.ns", 30.0),
            ("core.access.hit", 50.0),
            ("core.fault.ns.lru", 110.0),
            ("core.fault.trace_off", 100.0),
        ]);
        let get = |name: &str| m.iter().find(|x| x.name == name).expect(name).value;
        assert_eq!(m.len(), 4, "helper cases are not metrics themselves");
        assert_eq!(get("core.access.hit_wrapper.ns"), 20.0);
        assert!((get("core.trace.overhead_pct") - 10.0).abs() < 1e-9);
    }

    #[test]
    fn every_case_runs_and_reports_a_positive_time() {
        let metrics = run(Duration::ZERO);
        assert!(metrics.len() >= 27, "{} layer metrics", metrics.len());
        for m in &metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            if m.unit == "ns" && m.name != "core.access.hit_wrapper.ns" {
                assert!(m.value > 0.0, "{} = {}", m.name, m.value);
            }
        }
    }
}
