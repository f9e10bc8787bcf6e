//! The system under test, behind the smallest surface the benchmark needs.
//!
//! This is the only file of the benchmark that names a `hipec_*` item.
//! ROADMAP plans to fold the `vm_*_hipec*` entry-point families and may
//! delete the native executor backend; either must cost an edit here and
//! nowhere else. Everything is reached through public functions: the
//! workloads through [`Machine`] and the trace generators, the
//! isolated-layer suite through [`layers`].

use std::hint::black_box;
use std::time::{Duration, Instant};

use hipec_core::command::{build, ArithOp, CompOp, JumpMode};
use hipec_core::{
    AdmissionControl, ContainerKey, ExecBackend, HipecError, HipecKernel, KernelStats,
    LatencyHistogram, LatencyMetric, OperandDecl, PolicyProgram, ShareClass, NO_OPERAND,
};
use hipec_disk::{DeviceParams, DiskModel, DiskParams, FaultConfig, FlashModel, FlashParams, Lba};
use hipec_policies::PolicyKind;
use hipec_sim::{SimDuration, SimTime};
use hipec_vm::{
    AccessKind, DeviceId, FrameId, FrameTable, Kernel, KernelParams, TaskId, VAddr, PAGE_SIZE,
};
use hipec_workloads::tenants::{self, TenantsConfig};
use hipec_workloads::tournament::{self, TournamentConfig};

/// One reference of a workload: a page of a region, read or written.
/// `region` is a [`Machine::install`] result, except in the tenants trace
/// where it is the tenant index (tenants install in admission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ref {
    pub page: u32,
    pub region: u16,
    pub write: bool,
}

/// How one access attempt ended, in the four kinds the trace separates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Translation present.
    Hit = 0,
    /// Fault resolved without device I/O (minor fault, zero fill).
    FaultNoIo = 1,
    /// Fault resolved by a page-in.
    FaultIo = 2,
    /// The access returned an error; the page stays faulted.
    Err = 3,
}

/// A shipped replacement policy.
#[derive(Debug, Clone, Copy)]
pub struct Policy(PolicyKind);

/// A compiled, installable policy program.
pub struct Program(PolicyProgram);

impl Policy {
    /// Every shipped policy, in tournament order.
    pub fn all() -> Vec<Policy> {
        PolicyKind::ALL.iter().map(|&k| Policy(k)).collect()
    }

    /// Exact LRU, the one policy `hot_hits` installs.
    pub fn lru() -> Policy {
        Policy(PolicyKind::Lru)
    }

    pub fn name(self) -> &'static str {
        self.0.name()
    }

    /// Translates the policy's source into a program.
    pub fn compile(self) -> Program {
        Program(self.0.program())
    }
}

/// A tenant share class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class(ShareClass);

/// Names of the share classes, in the order of [`Counts::class_fault_p99_us`].
pub const CLASS_NAMES: [&str; 3] = ["free", "standard", "premium"];

/// What the `tenants` workload fixes about tenant `t` by index rule.
pub struct Tenant {
    pub class: Class,
    pub policy: Policy,
    /// 0 arrives at boot, 1 at the midpoint of the run.
    pub wave: u64,
}

pub fn tenant(t: u64) -> Tenant {
    Tenant {
        class: Class(tenants::class_of(t)),
        policy: Policy(tenants::policy_of(t)),
        wave: tenants::arrival_wave(t),
    }
}

/// Why an install did not happen.
#[derive(Debug)]
pub enum InstallError {
    /// Admission control refused it; `throttled` installs may be retried
    /// after the arrival window rolls, share-capped ones may not.
    Refused {
        throttled: bool,
    },
    Other(String),
}

/// The `run_cell` machine of the tournament: 2 048 frames, 64 wired.
fn small_params() -> KernelParams {
    let mut p = KernelParams::paper_64mb();
    p.total_frames = 2_048;
    p.wired_frames = 64;
    p
}

/// A booted simulated kernel with one task, plus what the driver must
/// remember about it: the regions it installed and the boot free count.
pub struct Machine {
    k: HipecKernel,
    task: TaskId,
    per_ref: SimDuration,
    boot_free: u64,
    regions: Vec<(VAddr, ContainerKey)>,
    /// Device Free-class tenants page against, when the machine has one.
    storm: Option<DeviceId>,
}

impl Machine {
    fn boot(params: KernelParams) -> Machine {
        let mut k = HipecKernel::new(params);
        let task = k.vm.create_task();
        Machine {
            per_ref: k.vm.cost.tuple_op * 4,
            boot_free: k.vm.free_count(),
            k,
            task,
            regions: Vec::new(),
            storm: None,
        }
    }

    /// The paper's 64 MB machine (16 384 frames).
    pub fn paper() -> Machine {
        Machine::boot(KernelParams::paper_64mb())
    }

    /// The tournament's 2 048-frame machine.
    pub fn small() -> Machine {
        Machine::boot(small_params())
    }

    /// The 2 048-frame machine with admission control on and a second
    /// device wearing the `tenants` storm plan (every write torn, 40 % of
    /// I/Os delayed up to 40 ms); Free-class installs page against it.
    pub fn tenants(seed: u64) -> Machine {
        let mut m = Machine::boot(small_params());
        let cfg = TenantsConfig::small();
        m.k.admission = AdmissionControl::enabled_with(cfg.burst_base);
        let storm = m.k.add_device(DeviceParams::default());
        m.k.vm.set_fault_plan_on(
            storm,
            FaultConfig {
                seed: seed ^ 0x5707,
                read_error_permille: 0,
                write_error_permille: 0,
                delay_permille: cfg.storm_delay_permille,
                max_delay: cfg.storm_max_delay,
                torn_permille: cfg.storm_torn_permille,
            },
        );
        m.storm = Some(storm);
        m
    }

    /// Maps a file-backed region of `pages` under `program` with a private
    /// pool of `pool` frames; returns the region's index. With a `class`
    /// the install passes admission control under that class.
    pub fn install(
        &mut self,
        program: Program,
        pages: u64,
        pool: u64,
        class: Option<Class>,
    ) -> Result<u16, InstallError> {
        let bytes = pages * PAGE_SIZE;
        let mapped = match class {
            None => self.k.vm_map_hipec(self.task, bytes, program.0, pool),
            Some(Class(class)) => {
                let device = match (class, self.storm) {
                    (ShareClass::Free, Some(storm)) => storm,
                    _ => DeviceId(0),
                };
                self.k
                    .vm_map_hipec_as(class, device, self.task, bytes, program.0, pool)
            }
        };
        match mapped {
            Ok((base, _object, key)) => {
                self.regions.push((base, key));
                Ok((self.regions.len() - 1) as u16)
            }
            Err(HipecError::AdmissionRejected { throttled, .. }) => {
                Err(InstallError::Refused { throttled })
            }
            Err(e) => Err(InstallError::Other(format!("{e:?}"))),
        }
    }

    /// One access, device I/O waited for (`access_sync`).
    #[inline]
    pub fn access(&mut self, r: Ref) -> Outcome {
        let base = self.regions[r.region as usize].0;
        let addr = VAddr(base.0 + u64::from(r.page) * PAGE_SIZE);
        match self.k.access_sync(self.task, addr, r.write) {
            Ok(done) => match done.kind {
                AccessKind::Hit => Outcome::Hit,
                AccessKind::MinorFault | AccessKind::ZeroFill => Outcome::FaultNoIo,
                AccessKind::PageIn => Outcome::FaultIo,
            },
            Err(_) => Outcome::Err,
        }
    }

    /// The compute time every shipped driver charges per reference.
    #[inline]
    pub fn charge(&mut self) {
        self.k.charge(self.per_ref);
    }

    /// Completes due device I/O. Single-region drivers call the substrate's
    /// pump as `run_cell` does; a machine with tenants needs the HiPEC pump,
    /// which attributes abandoned write-backs to their containers (that is
    /// what quarantines them).
    #[inline]
    pub fn pump(&mut self) {
        if self.storm.is_some() {
            self.k.pump();
        } else {
            self.k.vm.pump();
        }
    }

    /// The virtual clock, ns since boot.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.k.vm.now().as_ns()
    }

    pub fn stats(&self) -> Stats {
        Stats(self.k.kernel_stats())
    }

    /// The full whole-kernel invariant audit (release builds run it only
    /// when asked).
    pub fn audit(&self) -> Result<(), String> {
        self.k.check_invariants()
    }

    /// Deallocates every installed region, then waits out the write-backs
    /// still in flight: their frames stay busy until the device answers.
    pub fn dealloc_all(&mut self) -> Result<(), String> {
        for (base, key) in std::mem::take(&mut self.regions) {
            self.k
                .vm_deallocate_hipec(self.task, base, key)
                .map_err(|e| format!("deallocate region {}: {e:?}", key.0))?;
        }
        for _ in 0..1_000_000 {
            let Some(done) = self.k.vm.next_flush_completion() else {
                return Ok(());
            };
            self.k.vm.clock.advance_to(done);
            self.k.pump();
        }
        Err("write-backs still in flight after 1e6 pump rounds".into())
    }

    /// Frames missing from the free queue relative to boot; 0 after
    /// [`Machine::dealloc_all`] unless the kernel leaked one.
    pub fn leaked_frames(&self) -> i64 {
        self.boot_free as i64 - self.k.vm.free_count() as i64
    }
}

/// A kernel counter snapshot.
pub struct Stats(KernelStats);

impl Stats {
    /// Canonical text of the whole snapshot, for the replay digest.
    pub fn digest_text(&self) -> String {
        format!("{:?}", self.0)
    }
}

/// Names of [`Counts::values`], by module.
pub const COUNT_NAMES: [&str; 24] = [
    "vm.hits",
    "vm.faults",
    "vm.minor_faults",
    "vm.pageins",
    "vm.pageouts",
    "vm.flush_completions",
    "vm.flush_retries",
    "vm.torn_flushes",
    "vm.flush_abandoned",
    "vm.breaker_trips",
    "vm.pump_budget_deferrals",
    "core.policy_faults",
    "core.commands",
    "core.events",
    "core.flushes",
    "core.released",
    "core.quarantines",
    "core.restores",
    "core.kills",
    "core.admission_rejects",
    "core.trace.dropped",
    "disk.reads",
    "disk.writes",
    "disk.write_errors",
];

/// Exact counts of kernel activity between two snapshots, summed over the
/// kernels of a round (a round of `policy_faults` boots 48).
#[derive(Clone)]
pub struct Counts {
    pub values: [u64; COUNT_NAMES.len()],
    class_fault: [LatencyHistogram; CLASS_NAMES.len()],
}

impl Default for Counts {
    fn default() -> Self {
        Counts {
            values: [0; COUNT_NAMES.len()],
            class_fault: [LatencyHistogram::EMPTY; CLASS_NAMES.len()],
        }
    }
}

impl Counts {
    /// Adds the activity between `from` and `to` (snapshots of one kernel).
    pub fn add(&mut self, from: &Stats, to: &Stats) {
        let d = to.0.diff(&from.0);
        let g = |name: &str| d.get(name).unwrap_or(0);
        let c = |f: fn(&hipec_core::ContainerCounters) -> u64| -> u64 {
            d.containers.iter().map(f).sum()
        };
        let add = [
            g("hits"),
            g("faults"),
            g("minor_faults"),
            g("pageins"),
            g("pageouts"),
            g("flush_completions"),
            g("flush_retries"),
            g("torn_flushes"),
            g("flush_abandoned"),
            g("breaker_trips"),
            g("pump_budget_deferrals"),
            c(|r| r.faults),
            c(|r| r.commands),
            c(|r| r.events),
            c(|r| r.flushes),
            c(|r| r.released),
            c(|r| r.quarantines),
            c(|r| r.restores),
            g("hipec_kills") + g("checker_kills"),
            g("admission_rejects"),
            g("trace_dropped"),
            g("dev_reads"),
            g("dev_writes"),
            g("dev_write_errors"),
        ];
        for (total, n) in self.values.iter_mut().zip(add) {
            *total += n;
        }
        for (i, merged) in self.class_fault.iter_mut().enumerate() {
            if let Some(row) = d.latency_row(LatencyMetric::ClassFault, i as u64) {
                merged.merge(&row.hist);
            }
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        let i = COUNT_NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("no count named {name}"));
        self.values[i]
    }

    /// p99 of the kernel's own per-class fault-latency histograms, virtual
    /// µs (0 for a class that served no fault).
    pub fn class_fault_p99_us(&self) -> [f64; CLASS_NAMES.len()] {
        std::array::from_fn(|i| self.class_fault[i].quantile(0.99).as_us_f64())
    }
}

/// The six tournament shapes at `ops` references each: (name, region
/// pages, pool frames, references against region 0).
pub fn tournament_shapes(seed: u64, ops: u64) -> Vec<(&'static str, u64, u64, Vec<Ref>)> {
    let mut cfg = TournamentConfig::short();
    cfg.seed = seed;
    cfg.ops = ops;
    tournament::workloads(&cfg)
        .into_iter()
        .map(|w| {
            let refs = w
                .trace
                .iter()
                .map(|&(page, write)| Ref {
                    page: page as u32,
                    region: 0,
                    write,
                })
                .collect();
            (w.name, w.region_pages, w.pool, refs)
        })
        .collect()
}

/// Region size and pool of one tenant in the `tenants` workload.
pub fn tenant_region() -> (u64, u64) {
    let cfg = TenantsConfig::small();
    (cfg.pages_per_tenant, cfg.pool)
}

/// `ops` operations of the `tenants` trace over a population of `tenants`
/// (Zipf 1.1 tenant choice, 35 % writes); `Ref::region` is the tenant.
pub fn tenants_trace(seed: u64, tenants: u64, ops: u64, out: &mut Vec<Ref>) {
    let mut cfg = TenantsConfig::small();
    cfg.seed = seed;
    cfg.tenants = tenants;
    cfg.ops = ops;
    out.clear();
    out.extend(tenants::trace(&cfg).iter().map(|op| Ref {
        page: op.page as u32,
        region: op.tenant as u16,
        write: op.write,
    }));
}

/// Which `hipec-core` cargo features this build has, probed through the
/// public surface: one policy fault leaves a trace record and a latency
/// sample only when `trace` / `metrics` are compiled in, and the default
/// executor backend is native only under `jit`.
pub fn core_features() -> String {
    let mut m = Machine::small();
    let region = m
        .install(Policy::lru().compile(), 4, 2, None)
        .expect("probe install");
    m.access(Ref {
        page: 0,
        region,
        write: false,
    });
    let stats = m.k.kernel_stats();
    let mut on = Vec::new();
    if stats.get("trace_recorded").unwrap_or(0) > 0 {
        on.push("trace");
    }
    if ExecBackend::default() == ExecBackend::Native {
        on.push("jit");
    }
    if stats.latency.iter().any(|r| !r.hist.is_empty()) {
        on.push("metrics");
    }
    on.join(",")
}

// --- The isolated-layer suite ----------------------------------------------

/// One layer operation timed in isolation. `batch` runs the operation
/// `ops` times and returns how long the timed part took; whatever it must
/// rebuild between batches stays outside the timed part.
pub struct Layer {
    pub name: &'static str,
    pub ops: u64,
    pub batch: Box<dyn FnMut() -> Duration>,
}

fn layer(name: &'static str, ops: u64, batch: impl FnMut() -> Duration + 'static) -> Layer {
    Layer {
        name,
        ops,
        batch: Box::new(batch),
    }
}

fn timed(mut f: impl FnMut()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// A sequential sweep over a region far larger than its pool: after the
/// pool fills, every access is a policy fault with a page-in, whatever the
/// policy retains (MRU keeps 31 of 16 384 pages).
fn fault_loop(
    name: &'static str,
    policy: PolicyKind,
    backend: Option<ExecBackend>,
    tracing: bool,
) -> Layer {
    const PAGES: u32 = 16_384;
    const OPS: u64 = 4_096;
    let mut m = Machine::small();
    if let Some(b) = backend {
        m.k.set_backend(b);
    }
    m.k.set_tracing(tracing);
    let region = m
        .install(Program(policy.program()), u64::from(PAGES), 32, None)
        .expect("install");
    let mut page = 0u32;
    let mut step = move |m: &mut Machine| {
        page = (page + 1) % PAGES;
        black_box(m.access(Ref {
            page,
            region,
            write: false,
        }));
        m.pump();
    };
    for _ in 0..64 {
        step(&mut m);
    }
    layer(name, OPS, move || {
        timed(|| {
            for _ in 0..OPS {
                step(&mut m);
            }
        })
    })
}

/// The `arith_loop_64` body of `crates/bench/benches/interpreter.rs`: 258
/// commands per event, no kernel objects — pure fetch/decode/dispatch.
fn arith_loop() -> PolicyProgram {
    let mut p = PolicyProgram::new();
    let _fq = p.declare(OperandDecl::FreeQueue);
    let i = p.declare(OperandDecl::Int(0));
    let n = p.declare(OperandDecl::Int(64));
    let zero = p.declare(OperandDecl::Int(0));
    p.add_event(
        "PageFault",
        vec![
            build::arith(i, zero, ArithOp::Mov),
            build::comp(i, n, CompOp::Lt),
            build::jump(JumpMode::IfFalse, 5),
            build::arith(i, zero, ArithOp::Inc),
            build::jump(JumpMode::Always, 1),
            build::ret(i),
        ],
    );
    p.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);
    p
}

fn exec_loop(name: &'static str, backend: ExecBackend) -> Layer {
    const EVENTS: u64 = 256;
    const CMDS_PER_EVENT: u64 = 64 * 4 + 2;
    let mut m = Machine::small();
    m.k.set_backend(backend);
    m.install(Program(arith_loop()), 64, 64, None)
        .expect("install");
    let key = m.regions[0].1;
    layer(name, EVENTS * CMDS_PER_EVENT, move || {
        timed(|| {
            for _ in 0..EVENTS {
                black_box(m.k.run_event_raw(key, 0).expect("loop runs"));
            }
        })
    })
}

/// A plain Mach kernel (no HiPEC layer) with one region of `pages`.
fn mach(pages: u64, file_backed: bool) -> (Kernel, TaskId, VAddr) {
    let mut k = Kernel::new(small_params());
    let t = k.create_task();
    let bytes = pages * PAGE_SIZE;
    let (base, _) = if file_backed {
        k.vm_map(t, bytes)
    } else {
        k.vm_allocate(t, bytes)
    }
    .expect("region");
    (k, t, base)
}

/// Every isolated-layer case. Names ending in a unit are reported as they
/// are; the others are inputs to the derived metrics of `layers.rs`.
pub fn layers() -> Vec<Layer> {
    let mut out = Vec::new();

    // hipec-sim: one histogram record, durations spread over the buckets.
    let mut hist = LatencyHistogram::new();
    out.push(layer("sim.hist.record.ns", 65_536, move || {
        timed(|| {
            for i in 0..65_536u64 {
                hist.record(SimDuration::from_ns(
                    i.wrapping_mul(0x9E37_79B9) & 0xFFF_FFFF,
                ));
            }
            black_box(hist.count());
        })
    }));

    // hipec-disk: the service-time models, strided so seeks are real.
    let mut disk = DiskModel::new(DiskParams::paper_scsi());
    let mut now = SimTime::ZERO;
    out.push(layer("disk.model.read.ns", 16_384, move || {
        timed(|| {
            for i in 0..16_384u64 {
                now = disk.read(Lba(i * 977 % 100_000), now);
            }
            black_box(now);
        })
    }));
    let mut disk = DiskModel::new(DiskParams::paper_scsi());
    let mut now = SimTime::ZERO;
    out.push(layer("disk.model.write.ns", 16_384, move || {
        timed(|| {
            for i in 0..16_384u64 {
                now = disk.write(Lba(i * 977 % 100_000), now);
            }
            black_box(now);
        })
    }));
    // Overwrites of a 4 096-page set: the FTL remaps and garbage-collects.
    let mut flash = FlashModel::new(FlashParams::early_flash_card());
    let mut now = SimTime::ZERO;
    out.push(layer("disk.flash.write.ns", 16_384, move || {
        timed(|| {
            for i in 0..16_384u64 {
                now = flash.write(Lba(i * 977 % 4_096), now);
            }
            black_box(now);
        })
    }));

    // hipec-vm frame queues (bodies of benches/frame_queues.rs).
    const N: u32 = 4_096;
    let mut t = FrameTable::new(N);
    let q = t.new_queue(false);
    out.push(layer("vm.frames.queue_cycle.ns", u64::from(N), move || {
        timed(|| {
            for i in 0..N {
                t.enqueue_tail(q, FrameId(i)).expect("enqueue");
            }
            while t.dequeue_head(q).expect("dequeue").is_some() {}
        })
    }));
    let mut t = FrameTable::new(N);
    let q = t.new_queue(true);
    for i in 0..N {
        t.enqueue_tail(q, FrameId(i)).expect("enqueue");
    }
    out.push(layer("vm.frames.touch.ns", u64::from(N), move || {
        timed(|| {
            for i in 0..N {
                t.touch(FrameId(i * 7 % N), false).expect("touch");
            }
        })
    }));

    // hipec-vm access path on the plain kernel.
    let (mut k, task, base) = mach(256, false);
    for p in 0..256 {
        k.access(task, VAddr(base.0 + p * PAGE_SIZE), false)
            .expect("warm");
    }
    out.push(layer("vm.access.hit.ns", 65_536, move || {
        timed(|| {
            for i in 0..65_536u64 {
                let addr = VAddr(base.0 + (i * 7 % 256) * PAGE_SIZE);
                black_box(k.access(task, addr, false).expect("hit"));
            }
        })
    }));
    // First touches of a fresh anonymous region; rebuilt between batches.
    out.push(layer("vm.access.zero_fill.ns", 1_024, move || {
        let (mut k, task, base) = mach(1_024, false);
        timed(|| {
            for p in 0..1_024 {
                black_box(k.access(task, VAddr(base.0 + p * PAGE_SIZE), false)).expect("fill");
            }
        })
    }));
    // A file-backed region twice the machine: the default pool is under
    // pressure, so every access pages in and the pageout daemon evicts.
    let (mut k, task, base) = mach(4_096, true);
    let mut page = 0u64;
    let mut step = move || {
        page = (page + 1) % 4_096;
        let addr = VAddr(base.0 + page * PAGE_SIZE);
        let done = k
            .access(task, addr, page.is_multiple_of(4))
            .expect("page in");
        if let hipec_vm::AccessOutcome::Done(r) = done {
            if let Some(at) = r.io_until {
                k.clock.advance_to(at);
            }
        }
        k.pump();
    };
    for _ in 0..4_096 {
        step();
    }
    out.push(layer("vm.access.pagein_evict.ns", 4_096, move || {
        timed(|| {
            for _ in 0..4_096 {
                step();
            }
        })
    }));
    let (mut k, _, _) = mach(1, false);
    out.push(layer("vm.pump.idle.ns", 65_536, move || {
        timed(|| {
            for _ in 0..65_536 {
                k.pump();
            }
        })
    }));

    // hipec-core: a hit in a policy-managed region (the wrapper cost is
    // this minus vm.access.hit.ns).
    let mut m = Machine::small();
    let region = m
        .install(Policy::lru().compile(), 256, 256, None)
        .expect("install");
    for page in 0..256 {
        m.access(Ref {
            page,
            region,
            write: false,
        });
    }
    let base = m.regions[0].0;
    out.push(layer("core.access.hit", 65_536, move || {
        timed(|| {
            for i in 0..65_536u64 {
                let addr = VAddr(base.0 + (i * 7 % 256) * PAGE_SIZE);
                black_box(m.k.access(m.task, addr, false).expect("hit"));
            }
        })
    }));

    out.push(exec_loop(
        "core.exec.cmd.ns.interpreter",
        ExecBackend::Interpreter,
    ));
    out.push(exec_loop("core.exec.cmd.ns.native", ExecBackend::Native));

    const FAULT_NAMES: [&str; 8] = [
        "core.fault.ns.fifo",
        "core.fault.ns.fifo2",
        "core.fault.ns.lru",
        "core.fault.ns.mru",
        "core.fault.ns.clock",
        "core.fault.ns.2q",
        "core.fault.ns.learned",
        "core.fault.ns.awrp",
    ];
    for (name, kind) in FAULT_NAMES.into_iter().zip(PolicyKind::ALL) {
        out.push(fault_loop(name, kind, None, true));
    }
    out.push(fault_loop(
        "core.fault.ns.learned.interpreter",
        PolicyKind::Learned,
        Some(ExecBackend::Interpreter),
        true,
    ));
    out.push(fault_loop(
        "core.fault.trace_off",
        PolicyKind::Lru,
        None,
        false,
    ));

    // Installs of a compiled LRU program; deallocated outside the timing.
    let program = PolicyKind::Lru.program();
    let mut m = Machine::small();
    out.push(layer("core.install.isolated.ns", 64, move || {
        let mut programs: Vec<Program> = (0..64).map(|_| Program(program.clone())).collect();
        let took = timed(|| {
            for p in programs.drain(..) {
                m.install(p, 16, 4, None).expect("install");
            }
        });
        m.dealloc_all().expect("dealloc");
        took
    }));

    // The whole-kernel audit on a 2 048-frame machine with 1 024 resident
    // policy-managed pages, per frame audited.
    let mut m = Machine::small();
    let region = m
        .install(Policy::lru().compile(), 1_024, 1_024, None)
        .expect("install");
    for page in 0..1_024 {
        m.access(Ref {
            page,
            region,
            write: page % 2 == 0,
        });
    }
    out.push(layer(
        "core.invariants.audit.ns_per_frame",
        8 * 2_048,
        move || {
            timed(|| {
                for _ in 0..8 {
                    m.audit().expect("audit");
                }
            })
        },
    ));

    // hipec-lang: translate and peephole-optimize the eight shipped sources.
    let n = PolicyKind::ALL.len() as u64;
    out.push(layer("lang.compile.ns_per_policy", n, || {
        timed(|| {
            for kind in PolicyKind::ALL {
                black_box(hipec_lang::compile(kind.source()).expect("compiles"));
            }
        })
    }));
    let programs: Vec<PolicyProgram> = PolicyKind::ALL.iter().map(|k| k.program()).collect();
    out.push(layer("lang.optimize.ns_per_policy", n, move || {
        timed(|| {
            for p in &programs {
                black_box(hipec_lang::optimize(p));
            }
        })
    }));

    out
}
