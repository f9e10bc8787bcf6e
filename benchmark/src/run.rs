//! A run: identical rounds of one workload, the checks on them, and the
//! metrics read from them.

use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::report::{self, Metric};
use crate::span::{Off, SpanReport, Spans};
use crate::sut::{CLASS_NAMES, COUNT_NAMES};
use crate::workload::{round, Phase, RoundResult, Workload};

/// A run needs two rounds to show that replay is bit-identical.
const MIN_ROUNDS: usize = 2;

/// The untraced rounds of one run.
pub struct Run {
    pub rounds: Vec<RoundResult>,
    /// `VmHWM` when round [`MIN_ROUNDS`] ended: every run gets that far,
    /// so the value does not depend on how many more rounds fitted in.
    pub peak_rss_mb: f64,
}

/// Untraced rounds of `w` until the next one would end after `seconds`
/// (at least [`MIN_ROUNDS`]), every one checked against the first.
pub fn rounds(w: Workload, seed: u64, seconds: f64, scale: u64) -> Result<Run, String> {
    let started = Instant::now();
    let mut out: Vec<RoundResult> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let round_started = Instant::now();
        let r = round(w, seed, scale, &mut Off).map_err(|e| format!("round {}: {e}", out.len()))?;
        check_workload(w, &r)?;
        if let Some(first) = out.first() {
            if r.digest != first.digest {
                return Err(format!(
                    "round {} replayed differently: digest {:016x}, round 0 had {:016x}",
                    out.len(),
                    r.digest,
                    first.digest
                ));
            }
            if (0..3).any(|p| r.host[p].len() != first.host[p].len()) {
                return Err(format!("round {} ran other steps than round 0", out.len()));
            }
        }
        out.push(r);
        if out.len() == MIN_ROUNDS {
            peak_rss_mb = report::peak_rss_mb();
        }
        let next_ends = started.elapsed() + round_started.elapsed();
        if out.len() >= MIN_ROUNDS && next_ends.as_secs_f64() > seconds {
            return Ok(Run {
                rounds: out,
                peak_rss_mb,
            });
        }
    }
}

/// Checks, on exact counts, that a workload still exercises the layer it
/// exists for.
fn check_workload(w: Workload, r: &RoundResult) -> Result<(), String> {
    let count = |name: &str| r.counts.get(name);
    match w {
        Workload::HotHits if hit_permille(r) < 999.0 => Err(format!(
            "hot_hits hit only {} permille of its references",
            hit_permille(r)
        )),
        // The two fault workloads differ in write-backs per reference by
        // more than 10×: under 1 in 20 here, over 1 in 2 there.
        Workload::PolicyFaults if count("vm.flush_completions") * 20 > r.attempted() => {
            Err("policy_faults writes back more than 1 page per 20 references".into())
        }
        Workload::DirtyWriteback if count("vm.flush_completions") * 2 < r.attempted() => {
            Err("dirty_writeback writes back less than 1 page per 2 references".into())
        }
        Workload::TenantsStorm => {
            for name in [
                "vm.breaker_trips",
                "vm.flush_retries",
                "vm.torn_flushes",
                "core.quarantines",
                "core.admission_rejects",
                "vm.pageouts",
            ] {
                if count(name) == 0 {
                    return Err(format!("tenants_storm no longer exercises {name}"));
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Checks, on the self-time shares of a full-scale traced round, that the
/// workloads separate the layers: hits and the pump are `hot_hits`, faults
/// are the two fault workloads. The margins are wide (91 vs 80, 0.1 vs 5,
/// 83 and 92 vs 50 on the builder's box), so host noise cannot trip them.
pub fn check_shares(w: Workload, metrics: &[Metric]) -> Result<(), String> {
    let share = |name: &str| {
        let m = metrics.iter().find(|m| m.name == name);
        m.map_or(f64::NAN, |m| m.value)
    };
    let (hit, fault, pump) = (
        share("share.hit_pct"),
        share("share.fault_pct"),
        share("share.pump_pct"),
    );
    let ok = match w {
        Workload::HotHits => hit + pump > 80.0 && fault < 5.0,
        Workload::PolicyFaults | Workload::DirtyWriteback => fault > 50.0,
        Workload::TenantsStorm => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} no longer isolates its layer: replay is {hit:.1} % hits, {fault:.1} % faults, {pump:.1} % pump",
            w.name()
        ))
    }
}

fn hit_permille(r: &RoundResult) -> f64 {
    r.hits() as f64 * 1000.0 / r.attempted() as f64
}

/// Host seconds one round spent in a phase: the sum of its segments.
fn phase_s(r: &RoundResult, phase: Phase) -> f64 {
    r.host[phase as usize]
        .iter()
        .sum::<Duration>()
        .as_secs_f64()
}

/// The least disturbed time of a phase: each segment does the same work
/// in every round (replay is deterministic), so what other tenants of the
/// box add to it is pure delay and its fastest time is the one to keep.
/// Whole rounds are too coarse for that on a shared box, whose slow spells
/// last seconds: a 2 s round is rarely clean from end to end.
fn best_s<'r>(rounds: impl Iterator<Item = &'r RoundResult> + Clone, phase: Phase) -> f64 {
    let phase = phase as usize;
    let segments = rounds.clone().next().map_or(0, |r| r.host[phase].len());
    (0..segments)
        .map(|i| {
            rounds
                .clone()
                .map(|r| r.host[phase][i])
                .min()
                .expect("a round")
        })
        .sum::<Duration>()
        .as_secs_f64()
}

/// The two host-clock metrics of a set of rounds.
fn host_metrics<'r>(rounds: impl Iterator<Item = &'r RoundResult> + Clone) -> (f64, f64) {
    let issued = rounds.clone().next().map_or(0, |r| r.issued);
    (
        issued as f64 / best_s(rounds.clone(), Phase::Replay),
        best_s(rounds, Phase::Setup),
    )
}

/// The end-to-end metrics of a run, in [`report::END_TO_END`] order.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let r = &run.rounds[0];
    let (accesses_per_s, setup_s) = host_metrics(run.rounds.iter());
    let values = [
        accesses_per_s,
        setup_s,
        run.peak_rss_mb,
        r.sim_ns as f64 / 1e9,
        r.fault_mean_ns / 1e3,
        r.fault_tail_ns / 1e3,
        hit_permille(r),
    ];
    report::END_TO_END
        .iter()
        .zip(values)
        .map(|(def, v)| Metric::new(def.name, v, def.unit))
        .collect()
}

/// The exact counts over `replay` and what the driver itself counted.
pub fn count_metrics(r: &RoundResult) -> Vec<Metric> {
    let mut out: Vec<Metric> = COUNT_NAMES
        .iter()
        .zip(r.counts.values)
        .map(|(&name, v)| Metric::new(name, v as f64, "count"))
        .collect();
    let per_fault = match r.counts.get("core.policy_faults") {
        0 => 0.0,
        n => r.counts.get("core.commands") as f64 / n as f64,
    };
    out.push(Metric::new("core.commands_per_fault", per_fault, "ratio"));
    for (class, p99) in CLASS_NAMES.iter().zip(r.counts.class_fault_p99_us()) {
        out.push(Metric::new(
            format!("core.class_fault_p99_us.{class}"),
            p99,
            "sim_us",
        ));
    }
    out.push(Metric::new(
        "drv.access_retries",
        r.tally.retries as f64,
        "count",
    ));
    out.push(Metric::new("drv.refs_unissued", r.unissued as f64, "count"));
    out.push(Metric::new(
        "drv.fault_samples",
        r.fault_samples as f64,
        "count",
    ));
    for (name, ns) in [
        ("drv.sim_fault_p50_us", r.fault_p50_ns),
        ("drv.sim_fault_p99_us", r.fault_p99_ns),
    ] {
        out.push(Metric::new(name, ns as f64 / 1e3, "sim_us"));
    }
    out
}

/// One traced round, checked to replay exactly as the untraced ones did.
pub fn traced_round(
    w: Workload,
    seed: u64,
    scale: u64,
    untraced: &Run,
) -> Result<(RoundResult, Spans), String> {
    let mut spans = Spans::new();
    spans.calibrate();
    let r = round(w, seed, scale, &mut spans).map_err(|e| format!("traced round: {e}"))?;
    if r.digest != untraced.rounds[0].digest {
        return Err(format!(
            "tracing changed the replay: digest {:016x}, untraced {:016x}",
            r.digest, untraced.rounds[0].digest
        ));
    }
    Ok((r, spans))
}

/// Per-layer host times from the spans of a traced round.
pub fn span_metrics(traced: &RoundResult, spans: &Spans, untraced: &Run) -> Vec<Metric> {
    let report = spans.report();
    let find = |name: &str| -> SpanReport {
        let found = report.iter().find(|r| r.name == name);
        found.cloned().unwrap_or_default()
    };
    let mean = |name: &str| match find(name) {
        s if s.count > 0 => s.total_ns / s.count as f64,
        _ => 0.0,
    };
    let mut out = Vec::new();
    for (metric, span) in [
        ("core.access.hit", "access.hit"),
        ("core.access.fault_noio", "access.fault_noio"),
        ("core.access.fault_io", "access.fault_io"),
        ("core.access.err", "access.err"),
        ("vm.pump", "pump"),
        ("core.install", "install"),
    ] {
        out.push(Metric::new(format!("{metric}.ns"), mean(span), "ns"));
        out.push(Metric::new(
            format!("{metric}.n"),
            find(span).count as f64,
            "count",
        ));
    }
    for (metric, span) in [
        ("core.dealloc.ns", "dealloc"),
        ("core.invariants.audit.ns", "audit"),
        ("core.metrics.snapshot.ns", "snapshot"),
        ("vm.boot.ns", "boot"),
        ("policies.compile.ns", "compile"),
    ] {
        out.push(Metric::new(metric, mean(span), "ns"));
    }
    out.push(Metric::new(
        "workloads.tracegen.ns_per_ref",
        find("tracegen").total_ns / traced.generated.max(1) as f64,
        "ns",
    ));

    // Self-time shares of `replay`: the leaves and what is left to the
    // driver's own loop, each with the measurement's cost taken out.
    let faults: f64 = ["access.fault_noio", "access.fault_io", "access.err"]
        .iter()
        .map(|n| find(n).total_ns)
        .sum();
    let parts = [
        ("share.hit_pct", find("access.hit").total_ns),
        ("share.fault_pct", faults),
        ("share.pump_pct", find("pump").total_ns),
        ("share.charge_pct", find("charge").total_ns),
        ("share.driver_pct", find("replay").self_ns),
    ];
    let whole: f64 = parts.iter().map(|p| p.1).sum();
    for (name, ns) in parts {
        out.push(Metric::new(name, ns * 100.0 / whole.max(1.0), "%"));
    }

    out.push(Metric::new(
        "drv.trace_overhead_pct",
        (phase_s(traced, Phase::Replay) / best_s(untraced.rounds.iter(), Phase::Replay) - 1.0)
            * 100.0,
        "%",
    ));
    out
}

/// Everything a run leaves in `out/<workload>.run.json` for `all` and
/// `compare`: the metrics, the digest, every round's host-clock values (to
/// show the box's noise), and the host-clock metrics computed from the even
/// and from the odd rounds alone: how far those two halves disagree is the
/// run's own resolution.
pub fn run_json(w: Workload, seed: u64, run: &Run, metrics: &[Metric]) -> Value {
    let r = &run.rounds[0];
    let per_round = |f: &dyn Fn(&RoundResult) -> f64| run.rounds.iter().map(f).collect::<Vec<_>>();
    let (even, odd) = (
        host_metrics(run.rounds.iter().step_by(2)),
        host_metrics(run.rounds.iter().skip(1).step_by(2)),
    );
    json!({
        "workload": w.name(),
        "seed": seed,
        "rounds": run.rounds.len(),
        "attempted": r.attempted(),
        "hits": r.hits(),
        "faults": r.faults(),
        "failed": r.failed(),
        "fault_samples": r.fault_samples,
        "digest": format!("{:016x}", r.digest),
        "end_to_end": report::to_json(metrics),
        "halves": json!({
            "accesses_per_s": [even.0, odd.0],
            "setup_s": [even.1, odd.1],
        }),
        "per_round": json!({
            "accesses_per_s": per_round(&|r| r.issued as f64 / phase_s(r, Phase::Replay)),
            "setup_s": per_round(&|r| phase_s(r, Phase::Setup)),
            "teardown_s": per_round(&|r| phase_s(r, Phase::Teardown)),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at 1/100 scale: two rounds pass every check and
    /// replay to one digest; a traced round replays to the same digest and
    /// yields every span metric; the counts say what the workload is for.
    fn small_run(w: Workload) -> (Vec<RoundResult>, Vec<Metric>) {
        let run = rounds(w, 0x11, 0.0, 100).expect("rounds");
        assert_eq!(run.rounds.len(), 2);
        assert_eq!(run.rounds[0].digest, run.rounds[1].digest);
        let (traced, spans) = traced_round(w, 0x11, 100, &run).expect("traced");
        let mut metrics = span_metrics(&traced, &spans, &run);
        metrics.extend(count_metrics(&traced));
        for m in &metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        let e2e = end_to_end(&run);
        assert_eq!(e2e.len(), report::END_TO_END.len());
        for m in &e2e {
            assert!(
                m.value > 0.0,
                "{} must never read 0, got {}",
                m.name,
                m.value
            );
        }
        (run.rounds, metrics)
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).expect(name).value
    }

    #[test]
    fn hot_hits_hits() {
        let (rounds, m) = small_run(Workload::HotHits);
        let r = &rounds[0];
        assert_eq!(r.attempted(), 240_000);
        assert_eq!(r.hits(), 240_000);
        assert_eq!(r.fault_samples, 6_144, "the warm-up faults are the sample");
        // The traced counts include the cold-start warm-up's references.
        assert!(value(&m, "core.access.hit.n") > 240_000.0);
        assert_eq!(value(&m, "core.access.fault_io.n"), 6_144.0);
        assert_eq!(value(&m, "vm.hits"), 240_000.0);
        assert_eq!(value(&m, "core.commands"), 0.0);
        let shares: f64 = m
            .iter()
            .filter(|x| x.name.starts_with("share."))
            .map(|x| x.value)
            .sum();
        assert!((shares - 100.0).abs() < 1e-6, "shares sum to {shares}");
    }

    #[test]
    fn policy_faults_runs_48_kernels_and_faults() {
        let (rounds, m) = small_run(Workload::PolicyFaults);
        assert_eq!(value(&m, "core.install.n"), 48.0);
        assert_eq!(rounds[0].failed(), 0);
        assert!(rounds[0].faults() * 3 > rounds[0].attempted());
        assert!(value(&m, "core.commands_per_fault") > 10.0);
    }

    #[test]
    fn dirty_writeback_writes_back() {
        let (rounds, m) = small_run(Workload::DirtyWriteback);
        let r = &rounds[0];
        assert_eq!(r.attempted(), 8 * 3_000);
        assert!(value(&m, "vm.flush_completions") * 2.0 > r.faults() as f64);
        assert!(value(&m, "disk.writes") > 0.0);
    }

    #[test]
    fn tenants_storm_storms_without_failing_a_reference() {
        let (rounds, m) = small_run(Workload::TenantsStorm);
        let r = &rounds[0];
        assert_eq!(r.failed(), 0);
        assert_eq!(r.generated, 45_000);
        assert_eq!(r.attempted() + r.unissued, 45_000);
        assert!(r.tally.retries > 0, "the storm device returns errors");
        assert!(value(&m, "core.access.err.n") > 0.0);
        assert!(value(&m, "core.class_fault_p99_us.free") > 0.0);
        assert!(value(&m, "core.class_fault_p99_us.premium") > 0.0);
    }

    #[test]
    fn another_seed_gives_other_inputs_and_the_same_seed_the_same() {
        let a = round(Workload::DirtyWriteback, 1, 100, &mut Off).expect("a");
        let b = round(Workload::DirtyWriteback, 2, 100, &mut Off).expect("b");
        let a2 = round(Workload::DirtyWriteback, 1, 100, &mut Off).expect("a2");
        assert_ne!(a.digest, b.digest);
        assert_eq!(a.digest, a2.digest);
    }
}
