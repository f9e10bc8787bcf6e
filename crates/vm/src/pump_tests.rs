//! The event-driven pump against the walk it skips.
//!
//! [`Kernel::pump`] returns before building its service order when no
//! device has work. These tests pin the two halves of that bargain: the
//! predicate is false *only* in states where the full walk is a no-op, and
//! a kernel that never takes the early-out (the `force_full_pump` test
//! hook) ends a random faulty run in exactly the same state as one that
//! does.

use hipec_disk::{DeviceParams, FaultConfig, Lba};
use hipec_sim::{SimDuration, SimTime};
use proptest::prelude::*;

use crate::device::{DeviceState, InflightMigration, MigrTag};
use crate::kernel::{InflightFlush, Kernel, KernelParams, RetryTag};
use crate::types::{DeviceId, FrameId, ObjectId, TaskId, VAddr, PAGE_SIZE};

fn small_params() -> KernelParams {
    let mut p = KernelParams::paper_64mb();
    p.total_frames = 48;
    p.wired_frames = 8;
    p.free_target = 8;
    p.free_min = 4;
    p.inactive_target = 12;
    p
}

/// Everything a pump can touch, rendered: clock, counters, trace ring,
/// the device table (lifecycle, breakers, queues, in-flight lists, disk
/// models), every frame and queue link, objects, tasks and the dead-flush
/// list. Hash-ordered containers are sorted or left out (the extent maps,
/// which no pump path reads back in order), or two identical kernels differ.
fn fingerprint(k: &Kernel) -> String {
    let devices: Vec<_> = k
        .devices
        .iter()
        .map(|d| {
            (
                (d.state, d.drain_to, d.dead_pending, d.drained),
                (&d.breaker, &d.disk),
                (d.inflight(), d.migr_inflight(), d.next_completion()),
                (&d.retry_q, &d.migr_q, d.migr_done),
            )
        })
        .collect();
    let objects: Vec<_> = k
        .objects
        .iter()
        .map(|o| {
            let mut paged_out: Vec<u64> = o.paged_out.iter().copied().collect();
            paged_out.sort_unstable();
            let mut o = o.clone();
            o.paged_out.clear();
            (o, paged_out)
        })
        .collect();
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        k.now(),
        k.stats,
        k.trace,
        devices,
        k.frames,
        objects,
        k.tasks,
        k.dead_flushes,
    )
}

/// The conditions that make a pump worth running, one bit each; bit 0 is
/// the one that does not.
const IN_FLIGHT_NOT_DUE: u32 = 1 << 0;
const DUE: u32 = 1 << 1;
const PARKED_RETRY: u32 = 1 << 2;
const QUEUED_MIGRATION: u32 = 1 << 3;
const DEAD_PENDING: u32 = 1 << 4;
const DRAINING: u32 = 1 << 5;
const DEAD_UNDRAINED: u32 = 1 << 6;
const ALL: u32 = (1 << 7) - 1;

/// A four-device kernel at `now = 1 ms` in the state `mask` describes.
/// Device 0 carries the in-flight conditions (a real dirty page, so the
/// no-work states can be pumped for real), device 1 the parked queues and
/// the pending death, devices 2 and 3 the two unfinished-drain states.
fn kernel_in(mask: u32) -> Kernel {
    let mut k = Kernel::new(small_params());
    for _ in 0..3 {
        k.add_device(DeviceParams::default());
    }
    let t = k.create_task();
    let (addr, _) = k.vm_allocate(t, 2 * PAGE_SIZE).expect("allocate");
    k.clock.advance_to(SimTime::from_ns(1_000_000));
    if mask & IN_FLIGHT_NOT_DUE != 0 {
        k.access(t, addr, true).expect("dirty a page");
        let frame = k.tasks[0].translate(addr.vpage()).expect("mapped");
        let done = k.start_flush(frame).expect("flush starts");
        assert!(done > k.now(), "a write takes virtual time");
    }
    if mask & DUE != 0 {
        let now = k.now();
        k.devices[0].submit_migration(InflightMigration {
            done: now,
            torn: false,
            lba: Lba(0),
            tag: migr_tag(),
        });
    }
    if mask & PARKED_RETRY != 0 {
        k.devices[1].retry_q.push(
            Lba(0),
            RetryTag {
                frame: FrameId(9),
                attempts: 1,
                rehomed_from: None,
            },
        );
    }
    if mask & QUEUED_MIGRATION != 0 {
        k.devices[1].migr_q.push(Lba(0), migr_tag());
    }
    if mask & DEAD_PENDING != 0 {
        k.devices[1].dead_pending = true;
    }
    if mask & DRAINING != 0 {
        k.devices[2].state = DeviceState::Draining;
        k.devices[2].drain_to = Some(DeviceId(0));
    }
    if mask & DEAD_UNDRAINED != 0 {
        k.devices[3].state = DeviceState::Dead;
        k.devices[3].drain_to = Some(DeviceId(0));
    }
    k
}

fn migr_tag() -> MigrTag {
    MigrTag {
        object: ObjectId(0),
        offset: 0,
        from: DeviceId(1),
        attempts: 0,
    }
}

fn has_work(k: &Kernel) -> bool {
    k.devices.iter().any(|d| d.has_pump_work(k.now()))
}

/// `pump()` — with and without the early-out — leaves `k` exactly as it was.
fn assert_pump_is_a_no_op(mut k: Kernel, what: &str) {
    assert!(!has_work(&k), "{what}: predicate must be false");
    let before = fingerprint(&k);
    k.pump();
    assert_eq!(fingerprint(&k), before, "{what}: early-out touched state");
    k.force_full_pump = true;
    k.pump();
    assert_eq!(
        fingerprint(&k),
        before,
        "{what}: the full walk touched state"
    );
}

#[test]
fn the_early_out_is_taken_only_when_no_condition_holds() {
    for mask in 0..=ALL {
        let k = kernel_in(mask);
        let expect_work = mask & !IN_FLIGHT_NOT_DUE != 0;
        assert_eq!(has_work(&k), expect_work, "mask {mask:#09b}");
        if !expect_work {
            assert_pump_is_a_no_op(k, &format!("mask {mask:#09b}"));
        }
    }
}

#[test]
fn finished_lifecycles_are_not_work() {
    // A hot-unplug that completed, a forced drain that completed, and a
    // device that died with nowhere to drain to: all terminal.
    let mut k = kernel_in(0);
    k.devices[1].state = DeviceState::Removed;
    k.devices[1].drained = true;
    k.devices[2].state = DeviceState::Dead;
    k.devices[2].drain_to = Some(DeviceId(0));
    k.devices[2].drained = true;
    k.devices[3].state = DeviceState::Dead;
    assert_pump_is_a_no_op(k, "terminal device states");
    // An open breaker with nothing parked has nothing to probe with.
    let mut k = kernel_in(IN_FLIGHT_NOT_DUE);
    for _ in 0..8 {
        let now = k.now();
        k.devices[0].breaker.record(now, false);
    }
    assert!(!k.devices[0].breaker.is_closed());
    assert_pump_is_a_no_op(k, "open breaker, empty queues");
}

#[test]
fn a_completion_becomes_work_at_its_deadline_and_the_cache_follows_reaps() {
    let mut k = kernel_in(IN_FLIGHT_NOT_DUE);
    let done = k.next_flush_completion().expect("in flight");
    assert_eq!(k.devices[0].next_completion(), Some(done));
    k.clock.advance_to(SimTime::from_ns(done.as_ns() - 1));
    assert!(!has_work(&k));
    k.clock.advance_to(done);
    assert!(has_work(&k));
    k.pump();
    assert_eq!(k.stats.get("flush_completions"), 1);
    assert_eq!(k.devices[0].next_completion(), None);
    assert_eq!(k.next_flush_completion(), None);
    // Two in flight: the cache tracks the earlier, then the later.
    let mut d = crate::device::BackingDevice::new(DeviceId(0), &DeviceParams::default());
    for ns in [9_000, 4_000] {
        d.submit_flush(InflightFlush {
            done: SimTime::from_ns(ns),
            frame: FrameId(1),
            torn: false,
            attempts: 1,
            rehomed_from: None,
        });
    }
    assert_eq!(d.next_completion(), Some(SimTime::from_ns(4_000)));
    let mut due = Vec::new();
    d.reap_flushes(SimTime::from_ns(5_000), &mut due);
    assert_eq!(due.len(), 1);
    assert_eq!(d.next_completion(), Some(SimTime::from_ns(9_000)));
    d.submit_migration(InflightMigration {
        done: SimTime::from_ns(6_000),
        torn: false,
        lba: Lba(0),
        tag: migr_tag(),
    });
    assert_eq!(d.next_completion(), Some(SimTime::from_ns(6_000)));
    assert_eq!(d.cancel_migrations(), 1);
    assert_eq!(d.next_completion(), Some(SimTime::from_ns(9_000)));
}

/// One seeded run on two devices: the default pool under pressure, device 1
/// on an arbitrary flat fault plan (optionally with a short fuse to Dead),
/// an optional hot-unplug halfway, a pump after every reference and a
/// drain at the end. Returns the final state.
fn drive(
    trace: &[u64],
    cfg: FaultConfig,
    dead_budget: Option<u32>,
    unplug: bool,
    full: bool,
) -> String {
    let mut k = Kernel::new(small_params());
    k.force_full_pump = full;
    let bad = k.add_device(DeviceParams::default());
    k.set_fault_plan_on(bad, cfg);
    k.breaker_mut(bad).set_dead_budget(dead_budget);
    let t = k.create_task();
    let (a, _) = k.vm_allocate(t, 40 * PAGE_SIZE).expect("clean region");
    let (b, _) = k
        .vm_allocate_on(bad, t, 40 * PAGE_SIZE)
        .expect("faulty region");
    let touch = |k: &mut Kernel, task: TaskId, addr: VAddr, write: bool| {
        if let Ok(crate::AccessOutcome::Done(r)) = k.access(task, addr, write) {
            if let Some(at) = r.io_until {
                k.clock.advance_to(at);
            }
        }
        k.pump();
    };
    for (s, &p) in trace.iter().enumerate() {
        touch(&mut k, t, VAddr(a.0 + p * PAGE_SIZE), s % 2 == 0);
        touch(&mut k, t, VAddr(b.0 + (p * 7 % 40) * PAGE_SIZE), s % 3 != 0);
        k.charge(SimDuration::from_us(50));
        if unplug && s == trace.len() / 2 {
            let _ = k.remove_device(bad);
        }
    }
    let mut guard = 0u32;
    while let Some(done) = k.next_flush_completion() {
        k.clock.advance_to(done);
        k.pump();
        guard += 1;
        assert!(guard <= 200_000, "drain never quiesced");
    }
    fingerprint(&k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Taking the early-out is unobservable: clock, counters, trace ring,
    /// device table and frame books end identical to a run whose every
    /// pump walks the whole table.
    #[test]
    fn skipping_idle_pumps_changes_nothing_under_random_plans(
        trace in prop::collection::vec(0u64..40, 1..120),
        seed in any::<u64>(),
        write_err in 0u16..120,
        delay in 0u16..400,
        torn in 0u16..=1000,
        fuse in 0u32..4,
        unplug in any::<bool>(),
    ) {
        let cfg = FaultConfig {
            seed,
            read_error_permille: 0,
            write_error_permille: write_err,
            delay_permille: delay,
            max_delay: SimDuration::from_us(500),
            torn_permille: torn,
        };
        let dead_budget = (fuse > 0).then_some(fuse);
        let event_driven = drive(&trace, cfg, dead_budget, unplug, false);
        let full_walk = drive(&trace, cfg, dead_budget, unplug, true);
        prop_assert_eq!(event_driven, full_walk);
    }
}
