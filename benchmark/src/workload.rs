//! The four workloads and the round that runs them.
//!
//! Closed loop, one client, one thread: the simulated kernel is
//! single-threaded and a caller waits for each reference. A round is
//! `setup` → `replay` → `teardown` on fresh kernels; every round of a run
//! is identical (same seed), so virtual-clock results must repeat bit for
//! bit. A round's host time is kept per segment — one per setup or
//! teardown step, one per slice of replay — because a segment does the
//! same work in every round, and its fastest time over the rounds is its
//! least disturbed measurement (see `run::best`).
//!
//! Op counts are constants of the benchmark; `scale` divides them (tests
//! run at 1/100).

use std::time::{Duration, Instant};

use crate::span::{Leaf, Probe};
use crate::sut::{self, Class, Counts, InstallError, Machine, Outcome, Policy, Ref, Stats};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotHits,
    PolicyFaults,
    DirtyWriteback,
    TenantsStorm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotHits,
        Workload::PolicyFaults,
        Workload::DirtyWriteback,
        Workload::TenantsStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotHits => "hot_hits",
            Workload::PolicyFaults => "policy_faults",
            Workload::DirtyWriteback => "dirty_writeback",
            Workload::TenantsStorm => "tenants_storm",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}` (hot_hits, policy_faults, dirty_writeback, tenants_storm)"))
    }
}

/// An access that returns an error leaves its page faulted, and a caller
/// re-executes the instruction: the driver retries this many times before
/// it counts the reference as failed. (The storm device needs at most 7.)
const MAX_RETRIES: u32 = 16;

/// References generated per `tracegen` call where the trace is streamed:
/// small, so that `peak_rss_mb` is the kernel's memory and not a trace's.
const CHUNK: u64 = 4 * SLICE as u64;

/// References per timed slice of replay: a few ms of host time, short
/// against the seconds a noisy neighbour stays, long against the clock.
const SLICE: usize = 65_536;

/// splitmix64: the driver's own generator, so inputs depend on `--seed`
/// and on nothing inside the program.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; bias < 2⁻³² at these bounds).
    fn below(&mut self, bound: u32) -> u32 {
        (((self.next() >> 32) * u64::from(bound)) >> 32) as u32
    }

    fn uniform_refs(&mut self, n: u64, pages: u32, write_pct: u32, out: &mut Vec<Ref>) {
        out.clear();
        out.extend((0..n).map(|_| Ref {
            page: self.below(pages),
            region: 0,
            write: self.below(100) < write_pct,
        }));
    }
}

/// FNV-1a, chained over everything a round must reproduce.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Final outcomes of replayed references, indexed by [`Outcome`], plus the
/// error results that were retried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub outcomes: [u64; 4],
    pub retries: u64,
}

const ACCESS_LEAF: [Leaf; 4] = [
    Leaf::AccessHit,
    Leaf::AccessFaultNoIo,
    Leaf::AccessFaultIo,
    Leaf::AccessErr,
];

/// The loop body every shipped driver uses — `access_sync`, the per-ref
/// compute charge, a pump — with the virtual clock read around the access.
/// Clock readings for the spans are taken back to back with the calls; the
/// span records are written after the last one, on the parent's time.
fn drive<P: Probe>(
    m: &mut Machine,
    refs: &[Ref],
    tally: &mut Tally,
    fault_ns: &mut Vec<u64>,
    probe: &mut P,
) {
    for &r in refs {
        probe.next_ref();
        let v0 = m.now_ns();
        let mut t0 = probe.now();
        let mut out = m.access(r);
        let mut t1 = probe.now();
        let mut tries = 0;
        while out == Outcome::Err && tries < MAX_RETRIES {
            probe.leaf(Leaf::AccessErr, t0, t1);
            tries += 1;
            t0 = probe.now();
            out = m.access(r);
            t1 = probe.now();
        }
        if matches!(out, Outcome::FaultNoIo | Outcome::FaultIo) {
            fault_ns.push(m.now_ns() - v0);
        }
        m.charge();
        let t2 = probe.now();
        m.pump();
        let t3 = probe.now();
        probe.leaf(ACCESS_LEAF[out as usize], t0, t1);
        probe.leaf(Leaf::Charge, t1, t2);
        probe.leaf(Leaf::Pump, t2, t3);
        tally.outcomes[out as usize] += 1;
        tally.retries += u64::from(tries);
    }
}

/// The phases of a round; the index of [`RoundResult::host`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup = 0,
    Replay = 1,
    Teardown = 2,
}

const PHASE_NAMES: [&str; 3] = ["setup", "replay", "teardown"];

/// What one round measured. Everything but `host` is virtual-clock or a
/// count, and must be identical in every round of a run.
#[derive(Clone)]
pub struct RoundResult {
    /// Host time of each segment of setup, replay and teardown, in order.
    pub host: [Vec<Duration>; 3],
    /// References issued to the kernel in `replay`.
    pub issued: u64,
    pub tally: Tally,
    /// References addressed to a tenant that was never admitted.
    pub refused: u64,
    /// References never issued: their tenant had not arrived yet.
    pub unissued: u64,
    /// References produced by the trace generators.
    pub generated: u64,
    /// Σ over the round's kernels of the virtual clock at the end of replay.
    pub sim_ns: u64,
    /// Virtual latency of the references that faulted (warm-up included):
    /// how many, their mean, nearest-rank p50 and p99, and the mean of the
    /// slowest 1 % (the samples from the p99 rank up).
    pub fault_samples: u64,
    pub fault_mean_ns: f64,
    pub fault_p50_ns: u64,
    pub fault_p99_ns: u64,
    pub fault_tail_ns: f64,
    pub counts: Counts,
    pub digest: u64,
}

impl RoundResult {
    pub fn hits(&self) -> u64 {
        self.tally.outcomes[Outcome::Hit as usize]
    }

    pub fn faults(&self) -> u64 {
        self.tally.outcomes[Outcome::FaultNoIo as usize]
            + self.tally.outcomes[Outcome::FaultIo as usize]
    }

    /// References that still returned an error after every retry, or
    /// whose tenant was never admitted.
    pub fn failed(&self) -> u64 {
        self.tally.outcomes[Outcome::Err as usize] + self.refused
    }

    pub fn attempted(&self) -> u64 {
        self.issued + self.refused
    }
}

struct Round<'p, P: Probe> {
    probe: &'p mut P,
    phase: Option<Phase>,
    host: [Vec<Duration>; 3],
    issued: u64,
    tally: Tally,
    refused: u64,
    unissued: u64,
    generated: u64,
    sim_ns: u64,
    fault_ns: Vec<u64>,
    counts: Counts,
    digest: Digest,
}

impl<P: Probe> Round<'_, P> {
    fn enter(&mut self, phase: Phase) {
        if self.phase == Some(phase) {
            return;
        }
        self.leave();
        self.probe.open(PHASE_NAMES[phase as usize]);
        self.phase = Some(phase);
    }

    fn leave(&mut self) {
        if self.phase.take().is_some() {
            self.probe.close();
        }
    }

    /// Runs `f` as one segment of `phase`'s host time, inside the span
    /// `name` if it has one.
    fn segment<T>(
        &mut self,
        phase: Phase,
        name: Option<&'static str>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.enter(phase);
        if let Some(name) = name {
            self.probe.open(name);
        }
        let started = Instant::now();
        let out = f(self);
        self.host[phase as usize].push(started.elapsed());
        if name.is_some() {
            self.probe.close();
        }
        out
    }

    /// Runs `f` as the span `name` inside `phase`.
    fn step<T>(&mut self, phase: Phase, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.segment(phase, Some(name), |_| f())
    }

    fn tracegen(&mut self, out: &mut Vec<Ref>, f: impl FnOnce(&mut Vec<Ref>)) {
        self.step(Phase::Setup, "tracegen", || f(out));
        self.generated += out.len() as u64;
    }

    fn install(
        &mut self,
        m: &mut Machine,
        policy: Policy,
        pages: u64,
        pool: u64,
        class: Option<Class>,
    ) -> Result<u16, InstallError> {
        let program = self.step(Phase::Setup, "compile", || policy.compile());
        self.step(Phase::Setup, "install", || {
            m.install(program, pages, pool, class)
        })
    }

    /// Drives `refs` during setup and returns how many of them faulted:
    /// faults are sampled, outcomes are not part of the replay tally.
    fn warmup(&mut self, m: &mut Machine, refs: &[Ref]) -> u64 {
        let mut scratch = Tally::default();
        self.segment(Phase::Setup, Some("warmup"), |this| {
            drive(m, refs, &mut scratch, &mut this.fault_ns, this.probe)
        });
        scratch.outcomes[Outcome::FaultNoIo as usize] + scratch.outcomes[Outcome::FaultIo as usize]
    }

    /// Replays `refs`; the per-reference leaves hang directly under the
    /// `replay` span, one host-time segment per slice.
    fn replay(&mut self, m: &mut Machine, refs: &[Ref]) {
        for slice in refs.chunks(SLICE) {
            self.segment(Phase::Replay, None, |this| {
                drive(m, slice, &mut this.tally, &mut this.fault_ns, this.probe)
            });
        }
        self.issued += refs.len() as u64;
    }

    /// Ends one kernel's part of the round: audit, final snapshot (counts
    /// since `base`, digest), deallocate everything, look for a leak.
    fn finish_kernel(&mut self, mut m: Machine, base: &Stats) -> Result<(), String> {
        self.sim_ns += m.now_ns();
        self.digest.u64(m.now_ns());
        self.step(Phase::Teardown, "audit", || m.audit())
            .map_err(|e| format!("invariant audit failed at the end of replay: {e}"))?;
        let end = self.step(Phase::Teardown, "snapshot", || m.stats());
        self.counts.add(base, &end);
        self.digest.bytes(end.digest_text().as_bytes());
        self.step(Phase::Teardown, "dealloc", || m.dealloc_all())?;
        match m.leaked_frames() {
            0 => Ok(()),
            n => Err(format!(
                "{n} frame(s) missing from the free queue after teardown"
            )),
        }
    }
}

fn mean(sample: &[u64]) -> f64 {
    sample.iter().sum::<u64>() as f64 / sample.len().max(1) as f64
}

/// Nearest-rank quantile of an unsorted sample (0 when empty) and the mean
/// of the samples from that rank up.
fn quantile(sample: &mut [u64], q: f64) -> (u64, f64) {
    if sample.is_empty() {
        return (0, 0.0);
    }
    let rank = ((sample.len() as f64 * q).ceil() as usize).clamp(1, sample.len());
    let value = *sample.select_nth_unstable(rank - 1).1;
    (value, mean(&sample[rank - 1..]))
}

/// Runs one round of `w` with inputs made from `seed`.
pub fn round<P: Probe>(
    w: Workload,
    seed: u64,
    scale: u64,
    probe: &mut P,
) -> Result<RoundResult, String> {
    probe.open("round");
    let mut r = Round {
        probe,
        phase: None,
        host: Default::default(),
        issued: 0,
        tally: Tally::default(),
        refused: 0,
        unissued: 0,
        generated: 0,
        sim_ns: 0,
        fault_ns: Vec::new(),
        counts: Counts::default(),
        digest: Digest::new(),
    };
    let body = match w {
        Workload::HotHits => hot_hits(&mut r, seed, scale),
        Workload::PolicyFaults => policy_faults(&mut r, seed, scale),
        Workload::DirtyWriteback => dirty_writeback(&mut r, seed, scale),
        Workload::TenantsStorm => tenants_storm(&mut r, seed, scale),
    };
    r.leave();
    r.probe.close();
    body?;

    for v in r.tally.outcomes {
        r.digest.u64(v);
    }
    for v in [
        r.tally.retries,
        r.issued,
        r.refused,
        r.unissued,
        r.generated,
    ] {
        r.digest.u64(v);
    }
    let (fault_p99_ns, fault_tail_ns) = quantile(&mut r.fault_ns, 0.99);
    let out = RoundResult {
        host: r.host,
        issued: r.issued,
        tally: r.tally,
        refused: r.refused,
        unissued: r.unissued,
        generated: r.generated,
        sim_ns: r.sim_ns,
        fault_samples: r.fault_ns.len() as u64,
        fault_mean_ns: mean(&r.fault_ns),
        fault_p50_ns: quantile(&mut r.fault_ns, 0.50).0,
        fault_p99_ns,
        fault_tail_ns,
        counts: r.counts,
        digest: r.digest.0,
    };
    check_round(&out)?;
    Ok(out)
}

/// The checks that hold on every workload: each reference ended as exactly
/// one of hit, fault or failed, and the kernel's own counters over
/// `replay` tell the same story as the results it returned.
fn check_round(r: &RoundResult) -> Result<(), String> {
    if r.hits() + r.faults() + r.failed() != r.attempted() {
        return Err(format!(
            "hits {} + faults {} + failed {} != attempted {}",
            r.hits(),
            r.faults(),
            r.failed(),
            r.attempted()
        ));
    }
    if r.counts.get("vm.hits") != r.hits() {
        return Err(format!(
            "the kernel counted {} hits, its results said {}",
            r.counts.get("vm.hits"),
            r.hits()
        ));
    }
    let faults_seen = r.faults() + r.tally.outcomes[Outcome::Err as usize] + r.tally.retries;
    if r.counts.get("vm.faults") != faults_seen {
        return Err(format!(
            "the kernel counted {} faults, its results said {faults_seen}",
            r.counts.get("vm.faults")
        ));
    }
    if r.counts.get("core.kills") != 0 {
        return Err(format!(
            "{} container(s) killed",
            r.counts.get("core.kills")
        ));
    }
    Ok(())
}

/// One LRU region of 6 144 pages with a pool that holds all of it, on the
/// paper machine. Warm-up is a cold start: the seeded stream itself, until
/// every page has faulted in (≈57 k references). Replay is 24 M uniform
/// references, 20 % writes: all hits, so translate, touch, counters, the
/// per-access wrappers and the idle pump do all the work and executor and
/// disk do none.
fn hot_hits<P: Probe>(r: &mut Round<P>, seed: u64, scale: u64) -> Result<(), String> {
    const PAGES: u32 = 6_144;
    const POOL: u64 = 6_152;
    const REFS: u64 = 24_000_000;
    let mut rng = Rng(seed);
    let mut m = r.step(Phase::Setup, "boot", Machine::paper);
    r.install(&mut m, Policy::lru(), u64::from(PAGES), POOL, None)
        .map_err(|e| format!("install: {e:?}"))?;
    let mut buf = Vec::new();
    let mut resident = 0;
    while resident < u64::from(PAGES) {
        r.tracegen(&mut buf, |out| rng.uniform_refs(8_192, PAGES, 20, out));
        resident += r.warmup(&mut m, &buf);
    }
    let base = r.step(Phase::Setup, "snapshot", || m.stats());
    let mut left = REFS / scale;
    while left > 0 {
        let n = left.min(CHUNK);
        r.tracegen(&mut buf, |out| rng.uniform_refs(n, PAGES, 20, out));
        r.replay(&mut m, &buf);
        left -= n;
    }
    r.finish_kernel(m, &base)
}

/// One fresh 2 048-frame kernel: install `policy` over region 0, replay
/// `refs` against it, tear down.
fn cell<P: Probe>(
    r: &mut Round<P>,
    policy: Policy,
    pages: u64,
    pool: u64,
    refs: &[Ref],
) -> Result<(), String> {
    let mut m = r.step(Phase::Setup, "boot", Machine::small);
    r.install(&mut m, policy, pages, pool, None)
        .map_err(|e| format!("{}: install: {e:?}", policy.name()))?;
    let base = r.step(Phase::Setup, "snapshot", || m.stats());
    r.replay(&mut m, refs);
    r.finish_kernel(m, &base)
        .map_err(|e| format!("{}: {e}", policy.name()))
}

/// The six tournament shapes × the eight shipped policies at 150 k
/// references each, default backend, no fault plan: 31–94 % of references
/// fault at ≈35 commands per fault and few writes, so executor dispatch,
/// container queue operations and the disk read model dominate.
fn policy_faults<P: Probe>(r: &mut Round<P>, seed: u64, scale: u64) -> Result<(), String> {
    const OPS: u64 = 150_000;
    let shapes = r.step(Phase::Setup, "tracegen", || {
        sut::tournament_shapes(seed, OPS / scale)
    });
    r.generated += shapes.iter().map(|s| s.3.len() as u64).sum::<u64>();
    for (shape, pages, pool, refs) in &shapes {
        for policy in Policy::all() {
            cell(r, policy, *pages, *pool, refs).map_err(|e| format!("{shape}/{e}"))?;
        }
    }
    Ok(())
}

/// The same fault path used differently: each of the eight policies gets
/// 300 k uniform references over 512 pages with a 64-frame pool, 90 %
/// writes (the next 300 k of one seeded stream, so the eight hit counts
/// are independent samples). 87.5 % of references fault and nearly every
/// eviction is dirty, so the flush exchange, the write queue and
/// completion reaping carry the cost.
fn dirty_writeback<P: Probe>(r: &mut Round<P>, seed: u64, scale: u64) -> Result<(), String> {
    const REFS: u64 = 300_000;
    let mut rng = Rng(seed);
    let mut refs = Vec::new();
    for policy in Policy::all() {
        r.tracegen(&mut refs, |out| {
            rng.uniform_refs(REFS / scale, 512, 90, out)
        });
        cell(r, policy, 512, 64, &refs)?;
    }
    Ok(())
}

/// The `tenants` shape at 96 tenants on 2 048 frames and two devices: 32
/// per class, the Free class on the all-torn, 40 %-delayed storm device,
/// admission control on, two arrival waves, Zipf(1.1) tenant choice, 35 %
/// writes, 4.5 M operations streamed in chunks. Many containers,
/// multi-device pump ordering, retry queue, breaker, quarantine into the
/// default pageout path, and admission.
///
/// Each tenant's client is a closed loop too: it issues nothing before its
/// arrival wave, and while its install is throttled its references queue
/// up and are issued once it is admitted. A tenant refused for good (share
/// cap) fails every reference addressed to it.
fn tenants_storm<P: Probe>(r: &mut Round<P>, seed: u64, scale: u64) -> Result<(), String> {
    const TENANTS: u64 = 96;
    const OPS: u64 = 4_500_000;
    /// Operations between admission rounds.
    const SLAB: u64 = 10_000;
    enum State {
        NotArrived,
        /// Arrived, install throttled so far; its references wait here.
        Waiting(Vec<Ref>),
        Installed(u16),
        Refused,
    }
    let ops = OPS / scale;
    let slab = (SLAB / scale).max(1) as usize;
    let (pages, pool) = sut::tenant_region();
    let mut m = r.step(Phase::Setup, "boot", || Machine::tenants(seed));
    let base = r.step(Phase::Setup, "snapshot", || m.stats());
    let mut states: Vec<State> = (0..TENANTS).map(|_| State::NotArrived).collect();
    let mut arrived_waves = 0;
    let (mut chunk, mut issue) = (Vec::new(), Vec::new());
    let (mut done, mut chunk_seed) = (0, seed);
    while done < ops {
        let n = (ops - done).min(CHUNK);
        r.tracegen(&mut chunk, |out| {
            sut::tenants_trace(chunk_seed, TENANTS, n, out)
        });
        chunk_seed = chunk_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for part in chunk.chunks(slab) {
            while arrived_waves < 2 && done >= arrived_waves * ops / 2 {
                for t in 0..TENANTS {
                    if sut::tenant(t).wave == arrived_waves {
                        states[t as usize] = State::Waiting(Vec::new());
                    }
                }
                arrived_waves += 1;
            }
            issue.clear();
            // One admission attempt per waiting tenant per slab: the
            // throttle window rolls with the checker while the slab runs.
            for t in 0..TENANTS {
                let State::Waiting(queued) = &mut states[t as usize] else {
                    continue;
                };
                let who = sut::tenant(t);
                match r.install(&mut m, who.policy, pages, pool, Some(who.class)) {
                    Ok(region) => {
                        issue.extend(queued.iter().map(|&q| Ref { region, ..q }));
                        states[t as usize] = State::Installed(region);
                    }
                    Err(InstallError::Refused { throttled: true }) => {}
                    Err(InstallError::Refused { throttled: false }) => {
                        r.refused += queued.len() as u64;
                        states[t as usize] = State::Refused;
                    }
                    Err(InstallError::Other(e)) => return Err(format!("tenant {t}: {e}")),
                }
            }
            let (mut unissued, mut refused) = (0, 0);
            r.step(Phase::Setup, "route", || {
                for &op in part {
                    match &mut states[op.region as usize] {
                        State::Installed(region) => issue.push(Ref {
                            region: *region,
                            ..op
                        }),
                        State::Waiting(queued) => queued.push(op),
                        State::NotArrived => unissued += 1,
                        State::Refused => refused += 1,
                    }
                }
            });
            r.unissued += unissued;
            r.refused += refused;
            r.replay(&mut m, &issue);
            done += part.len() as u64;
        }
    }
    // A tenant still waiting at the end was never admitted.
    for s in &states {
        if let State::Waiting(queued) = s {
            r.refused += queued.len() as u64;
        }
    }
    r.finish_kernel(m, &base)
}
