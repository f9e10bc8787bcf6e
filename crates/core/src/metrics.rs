//! Per-container and global counter snapshots.
//!
//! [`KernelStats`] assembles every counter the kernel maintains — the VM
//! substrate's event counters, the global frame manager's books, the
//! security checker, the paging device, the torn-write retry queue and the
//! trace ring — plus one [`ContainerCounters`] row per container. Snapshots
//! are plain data: [`KernelStats::diff`] subtracts two of them to get the
//! activity of an interval, which is how the bench binaries report
//! per-phase kernel work.

use std::collections::BTreeMap;
use std::fmt;

use hipec_sim::SimTime;

use crate::container::OpProfile;
use crate::kernel::HipecKernel;
use crate::obs::LatencyRow;

/// Saturating counter difference that flags time-travel: a monotone counter
/// can only shrink between an "earlier" and a "later" snapshot if the caller
/// swapped the arguments or mixed snapshots from different kernels. Debug
/// builds assert (`went_backwards`); release builds saturate to zero.
fn sat_diff(name: &str, later: u64, earlier: u64) -> u64 {
    debug_assert!(
        later >= earlier,
        "went_backwards: counter `{name}` later={later} earlier={earlier}"
    );
    later.saturating_sub(earlier)
}

/// Counter snapshot for one container.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContainerCounters {
    /// The container's key.
    pub key: u32,
    /// Policy-resolved page faults.
    pub faults: u64,
    /// Commands interpreted.
    pub commands: u64,
    /// Event invocations.
    pub events: u64,
    /// Frames obtained via `Request`.
    pub requested: u64,
    /// Frames given back via `Release` or reclamation.
    pub released: u64,
    /// `Flush` exchanges performed.
    pub flushes: u64,
    /// Device faults surfaced to this container (abandoned write-backs).
    pub device_faults: u64,
    /// Times this container entered quarantine.
    pub quarantines: u64,
    /// Times it was restored from quarantine to HiPEC management.
    pub restores: u64,
    /// Frames currently allocated (gauge, not a counter).
    pub allocated: u64,
    /// True once the container has been terminated.
    pub terminated: bool,
    /// True while the container is quarantined (gauge, not a counter).
    pub quarantined: bool,
    /// Per-opcode command counts and virtual-time attribution.
    pub ops: OpProfile,
}

impl ContainerCounters {
    /// Counter-wise difference against an earlier snapshot of the same
    /// container (gauges keep `self`'s value).
    pub fn diff(&self, earlier: &ContainerCounters) -> ContainerCounters {
        ContainerCounters {
            key: self.key,
            faults: sat_diff("faults", self.faults, earlier.faults),
            commands: sat_diff("commands", self.commands, earlier.commands),
            events: sat_diff("events", self.events, earlier.events),
            requested: sat_diff("requested", self.requested, earlier.requested),
            released: sat_diff("released", self.released, earlier.released),
            flushes: sat_diff("flushes", self.flushes, earlier.flushes),
            device_faults: sat_diff("device_faults", self.device_faults, earlier.device_faults),
            quarantines: sat_diff("quarantines", self.quarantines, earlier.quarantines),
            restores: sat_diff("restores", self.restores, earlier.restores),
            allocated: self.allocated,
            terminated: self.terminated,
            quarantined: self.quarantined,
            ops: self.ops.diff(&earlier.ops),
        }
    }
}

/// Counter snapshot for one backing device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceRow {
    /// The device's id (0 = the boot paging device).
    pub id: u32,
    /// Read submissions accepted.
    pub reads: u64,
    /// Write submissions accepted.
    pub writes: u64,
    /// Read submissions rejected.
    pub read_errors: u64,
    /// Write submissions rejected.
    pub write_errors: u64,
    /// Writes accepted but completed torn.
    pub torn_writes: u64,
    /// Times this device's breaker tripped open.
    pub breaker_trips: u64,
    /// Times it closed again after a clean probe streak.
    pub breaker_closes: u64,
    /// Degraded-mode submissions that served as probes.
    pub breaker_probes: u64,
    /// Submissions deferred by backoff or the in-flight cap.
    pub breaker_deferred: u64,
    /// True while the breaker is open or half-open (gauge).
    pub breaker_open: bool,
    /// Write-backs in flight on this device (gauge).
    pub inflight: u64,
    /// Torn write-backs parked for re-issue (gauge).
    pub queue_depth: u64,
    /// Lifetime retry-queue pushes.
    pub retryq_pushes: u64,
    /// Lifetime retry-queue pops.
    pub retryq_pops: u64,
    /// Storage tier (gauge): 0 = disk, 1 = flash.
    pub tier: u64,
    /// Lifecycle state (gauge): 0 Active, 1 Draining, 2 Removed, 3 Dead.
    pub state: u64,
    /// Migration copies completed onto this device.
    pub migrations: u64,
    /// Migration copies queued or in flight on this device (gauge).
    pub migr_pending: u64,
    /// Flash write amplification in milli-units (gauge, integer —
    /// `programs * 1000 / host_writes`); 0 for disks and idle flash.
    pub write_amp_milli: u64,
    /// Highest per-block erase count (gauge); 0 for disks.
    pub max_wear: u64,
    /// Flash GC pauses taken (erases — each stalls the array); 0 for disks.
    pub gc_pauses: u64,
}

impl DeviceRow {
    /// Counter-wise difference against an earlier snapshot of the same
    /// device (gauges keep `self`'s value).
    pub fn diff(&self, earlier: &DeviceRow) -> DeviceRow {
        DeviceRow {
            id: self.id,
            reads: sat_diff("reads", self.reads, earlier.reads),
            writes: sat_diff("writes", self.writes, earlier.writes),
            read_errors: sat_diff("read_errors", self.read_errors, earlier.read_errors),
            write_errors: sat_diff("write_errors", self.write_errors, earlier.write_errors),
            torn_writes: sat_diff("torn_writes", self.torn_writes, earlier.torn_writes),
            breaker_trips: sat_diff("breaker_trips", self.breaker_trips, earlier.breaker_trips),
            breaker_closes: sat_diff(
                "breaker_closes",
                self.breaker_closes,
                earlier.breaker_closes,
            ),
            breaker_probes: sat_diff(
                "breaker_probes",
                self.breaker_probes,
                earlier.breaker_probes,
            ),
            breaker_deferred: sat_diff(
                "breaker_deferred",
                self.breaker_deferred,
                earlier.breaker_deferred,
            ),
            breaker_open: self.breaker_open,
            inflight: self.inflight,
            queue_depth: self.queue_depth,
            retryq_pushes: sat_diff("retryq_pushes", self.retryq_pushes, earlier.retryq_pushes),
            retryq_pops: sat_diff("retryq_pops", self.retryq_pops, earlier.retryq_pops),
            tier: self.tier,
            state: self.state,
            migrations: sat_diff("migrations", self.migrations, earlier.migrations),
            migr_pending: self.migr_pending,
            write_amp_milli: self.write_amp_milli,
            max_wear: self.max_wear,
            gc_pauses: sat_diff("gc_pauses", self.gc_pauses, earlier.gc_pauses),
        }
    }
}

/// A full kernel counter snapshot at one virtual instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStats {
    /// Virtual time of the snapshot.
    pub at: SimTime,
    /// Global counters, keyed by name. VM counters keep their names
    /// (`faults`, `pageouts`, …); manager, checker, device, retry-queue and
    /// trace counters are prefixed (`gfm_`, `checker_`, `dev_`, `retryq_`,
    /// `trace_`).
    pub global: BTreeMap<&'static str, u64>,
    /// One row per container (terminated ones included).
    pub containers: Vec<ContainerCounters>,
    /// One row per backing device (the `dev_*` / `breaker_*` globals are
    /// sums over these).
    pub devices: Vec<DeviceRow>,
    /// Frames on the global free queue (gauge).
    pub free_frames: u64,
    /// Frames allocated to specific applications (gauge).
    pub total_specific: u64,
    /// Write-backs in flight (gauge).
    pub inflight_flushes: u64,
    /// Torn write-backs awaiting re-issue (gauge).
    pub retry_depth: u64,
    /// Trace records lost to ring overwrites before any consumer saw them
    /// (see [`HipecKernel::dropped_records`]). Zero whenever a sink was
    /// attached for the whole run.
    pub dropped_records: u64,
    /// Latency-histogram rows in a fixed deterministic order (kernel scope,
    /// occupied opcodes, containers, devices). Empty histograms when the
    /// `metrics` feature is compiled out — the snapshot shape never changes.
    pub latency: Vec<LatencyRow>,
}

impl KernelStats {
    /// A global counter by name, or `None` if no counter of that name was
    /// ever registered. A missing counter is not the same thing as a zero
    /// one — callers that treat absence as zero say so with `unwrap_or(0)`.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.global.get(name).copied()
    }

    /// The counters of container `key`, if it exists.
    pub fn container(&self, key: u32) -> Option<&ContainerCounters> {
        self.containers.iter().find(|c| c.key == key)
    }

    /// The counters of device `id`, if it exists.
    pub fn device(&self, id: u32) -> Option<&DeviceRow> {
        self.devices.iter().find(|d| d.id == id)
    }

    /// Counter-wise difference against an earlier snapshot: every global
    /// and per-container counter becomes `self - earlier` (saturating);
    /// gauges and `at` keep `self`'s values.
    pub fn diff(&self, earlier: &KernelStats) -> KernelStats {
        let mut global = BTreeMap::new();
        for (&k, &v) in &self.global {
            global.insert(k, v.saturating_sub(earlier.get(k).unwrap_or(0)));
        }
        let containers = self
            .containers
            .iter()
            .map(|c| match earlier.container(c.key) {
                Some(e) => c.diff(e),
                None => *c,
            })
            .collect();
        let devices = self
            .devices
            .iter()
            .map(|d| match earlier.device(d.id) {
                Some(e) => d.diff(e),
                None => *d,
            })
            .collect();
        let latency = self
            .latency
            .iter()
            .map(|r| {
                match earlier
                    .latency
                    .iter()
                    .find(|e| e.metric == r.metric && e.key == r.key)
                {
                    Some(e) => r.diff(e),
                    None => *r,
                }
            })
            .collect();
        KernelStats {
            at: self.at,
            global,
            containers,
            devices,
            free_frames: self.free_frames,
            total_specific: self.total_specific,
            inflight_flushes: self.inflight_flushes,
            retry_depth: self.retry_depth,
            dropped_records: self.dropped_records.saturating_sub(earlier.dropped_records),
            latency,
        }
    }

    /// The latency row for `(metric, key)`, if present in this snapshot.
    pub fn latency_row(&self, metric: crate::obs::LatencyMetric, key: u64) -> Option<&LatencyRow> {
        self.latency
            .iter()
            .find(|r| r.metric == metric && r.key == key)
    }
}

impl fmt::Display for KernelStats {
    /// A compact multi-line rendering (non-zero counters only) for bench
    /// binaries and failure reports.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel stats @ {} (free={} specific={} inflight={} retrying={} dropped={})",
            self.at,
            self.free_frames,
            self.total_specific,
            self.inflight_flushes,
            self.retry_depth,
            self.dropped_records
        )?;
        for (k, v) in self.global.iter().filter(|(_, v)| **v != 0) {
            writeln!(f, "  {k}: {v}")?;
        }
        for d in &self.devices {
            writeln!(
                f,
                "  dev#{}: reads={} writes={} rderr={} wrerr={} torn={} trips={} closes={} probes={} deferred={} inflight={} queued={}{}",
                d.id,
                d.reads,
                d.writes,
                d.read_errors,
                d.write_errors,
                d.torn_writes,
                d.breaker_trips,
                d.breaker_closes,
                d.breaker_probes,
                d.breaker_deferred,
                d.inflight,
                d.queue_depth,
                if d.breaker_open { " [open]" } else { "" }
            )?;
            if d.tier != 0 || d.state != 0 || d.migrations != 0 || d.migr_pending != 0 {
                writeln!(
                    f,
                    "    tier={} state={} migrations={} migr_pending={} write_amp_milli={} max_wear={} gc_pauses={}",
                    d.tier,
                    match d.state {
                        0 => "active",
                        1 => "draining",
                        2 => "removed",
                        _ => "dead",
                    },
                    d.migrations,
                    d.migr_pending,
                    d.write_amp_milli,
                    d.max_wear,
                    d.gc_pauses
                )?;
            }
        }
        for c in &self.containers {
            writeln!(
                f,
                "  c{}: faults={} events={} commands={} req={} rel={} flush={} devfault={} alloc={}{}",
                c.key,
                c.faults,
                c.events,
                c.commands,
                c.requested,
                c.released,
                c.flushes,
                c.device_faults,
                c.allocated,
                if c.terminated {
                    " [terminated]"
                } else if c.quarantined {
                    " [quarantined]"
                } else {
                    ""
                }
            )?;
            for (op, count, time) in c.ops.nonzero() {
                writeln!(f, "    {}: {count}x {time}", op.mnemonic())?;
            }
        }
        for r in self.latency.iter().filter(|r| !r.hist.is_empty()) {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

impl HipecKernel {
    /// Takes a full counter snapshot ([`KernelStats`]) of the kernel now.
    pub fn kernel_stats(&self) -> KernelStats {
        let mut global: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (name, value) in self.vm.stats.iter() {
            global.insert(name, value);
        }
        global.insert("gfm_grants", self.gfm.grants);
        global.insert("gfm_rejections", self.gfm.rejections);
        global.insert("gfm_normal_reclaims", self.gfm.normal_reclaims);
        global.insert("gfm_forced_reclaims", self.gfm.forced_reclaims);
        global.insert("gfm_orphans_recovered", self.gfm.orphans_recovered);
        global.insert("checker_wakeups", self.checker.wakeups);
        global.insert("checker_kills", self.checker.kills);
        let devices: Vec<DeviceRow> = self
            .vm
            .devices_iter()
            .map(|d| {
                let s = d.stats();
                let b = d.breaker().counters();
                let (retryq_pushes, retryq_pops) = d.retry_counters();
                DeviceRow {
                    id: d.id().0,
                    reads: s.reads,
                    writes: s.writes,
                    read_errors: s.read_errors,
                    write_errors: s.write_errors,
                    torn_writes: s.torn_writes,
                    breaker_trips: b.trips,
                    breaker_closes: b.closes,
                    breaker_probes: b.probes,
                    breaker_deferred: b.deferred,
                    breaker_open: !d.breaker().is_closed(),
                    inflight: d.inflight_depth() as u64,
                    queue_depth: d.retry_depth() as u64,
                    retryq_pushes,
                    retryq_pops,
                    tier: u64::from(d.tier()),
                    state: match d.state() {
                        hipec_vm::DeviceState::Active => 0,
                        hipec_vm::DeviceState::Draining => 1,
                        hipec_vm::DeviceState::Removed => 2,
                        hipec_vm::DeviceState::Dead => 3,
                    },
                    migrations: d.migrations_completed(),
                    migr_pending: d.migr_pending() as u64,
                    write_amp_milli: d.flash_stats().map_or(0, |f| {
                        f.programs
                            .saturating_mul(1000)
                            .checked_div(f.host_writes)
                            .unwrap_or(0)
                    }),
                    max_wear: u64::from(d.max_wear()),
                    gc_pauses: d.flash_stats().map_or(0, |f| f.erases),
                }
            })
            .collect();
        // The flat `dev_*` / `breaker_*` / `retryq_*` globals survive as
        // sums over the per-device rows.
        global.insert("dev_reads", devices.iter().map(|d| d.reads).sum());
        global.insert("dev_writes", devices.iter().map(|d| d.writes).sum());
        global.insert(
            "dev_read_errors",
            devices.iter().map(|d| d.read_errors).sum(),
        );
        global.insert(
            "dev_write_errors",
            devices.iter().map(|d| d.write_errors).sum(),
        );
        global.insert(
            "dev_torn_writes",
            devices.iter().map(|d| d.torn_writes).sum(),
        );
        global.insert(
            "retryq_pushes",
            devices.iter().map(|d| d.retryq_pushes).sum(),
        );
        global.insert("retryq_pops", devices.iter().map(|d| d.retryq_pops).sum());
        global.insert(
            "breaker_probes",
            devices.iter().map(|d| d.breaker_probes).sum(),
        );
        global.insert(
            "breaker_deferred",
            devices.iter().map(|d| d.breaker_deferred).sum(),
        );
        global.insert(
            "trace_recorded",
            self.trace.recorded() + self.vm.trace.recorded(),
        );
        global.insert(
            "trace_dropped",
            self.trace.dropped() + self.vm.trace.dropped(),
        );
        let containers = self
            .containers
            .iter()
            .map(|c| ContainerCounters {
                key: c.key,
                faults: c.stats.faults,
                commands: c.stats.commands,
                events: c.stats.events,
                requested: c.stats.requested,
                released: c.stats.released,
                flushes: c.stats.flushes,
                device_faults: c.stats.device_faults,
                quarantines: c.health.quarantines,
                restores: c.health.restores,
                allocated: c.allocated,
                terminated: c.terminated,
                quarantined: c.health.quarantined(),
                ops: c.op_profile,
            })
            .collect();
        KernelStats {
            at: self.vm.now(),
            global,
            containers,
            devices,
            free_frames: self.vm.free_count(),
            total_specific: self.gfm.total_specific,
            inflight_flushes: self.vm.inflight_frames().count() as u64,
            retry_depth: self.vm.retry_frames().count() as u64,
            dropped_records: self.dropped_records(),
            latency: self.latency_rows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_diff_subtracts_counters_and_keeps_gauges() {
        let earlier = ContainerCounters {
            key: 7,
            faults: 10,
            commands: 100,
            allocated: 4,
            ..ContainerCounters::default()
        };
        let later = ContainerCounters {
            key: 7,
            faults: 15,
            commands: 160,
            allocated: 2,
            quarantined: true,
            ..ContainerCounters::default()
        };
        let d = later.diff(&earlier);
        assert_eq!(d.faults, 5);
        assert_eq!(d.commands, 60);
        assert_eq!(d.allocated, 2, "gauges keep the later value");
        assert!(d.quarantined);
    }

    #[test]
    fn a_counter_is_absent_until_registered_and_zero_adds_register_it() {
        let mut k = HipecKernel::new(hipec_vm::KernelParams::with_pageable_frames(64));
        let before = k.kernel_stats();
        assert_eq!(before.get("tier_promotions"), None);
        assert_eq!(before.get("hits"), None);
        assert_eq!(before.get("no_such_counter"), None);
        // A rebalance that moves nothing still counts: `add(_, 0)`.
        assert_eq!(k.rebalance_tiers(1), (0, 0));
        let after = k.kernel_stats();
        assert_eq!(after.get("tier_promotions"), Some(0));
        assert_eq!(after.get("tier_demotions"), Some(0));
        assert_eq!(after.get("hits"), None);
        assert_eq!(after.get("frame_handback_failed"), None);
        // The substrate's counters arrive name-ordered, as the map holds them.
        let vm_names: Vec<_> = k.vm.stats.iter().map(|(name, _)| name).collect();
        assert_eq!(vm_names, ["tier_demotions", "tier_promotions"]);
        assert!(after.global.keys().is_sorted());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn container_diff_asserts_when_a_counter_went_backwards() {
        let earlier = ContainerCounters {
            faults: 9,
            ..ContainerCounters::default()
        };
        let later = ContainerCounters {
            faults: 3,
            ..ContainerCounters::default()
        };
        let panic = std::panic::catch_unwind(|| later.diff(&earlier));
        assert!(panic.is_err(), "backwards counter must trip went_backwards");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn device_diff_asserts_when_a_counter_went_backwards() {
        let earlier = DeviceRow {
            writes: 20,
            ..DeviceRow::default()
        };
        let later = DeviceRow {
            writes: 19,
            ..DeviceRow::default()
        };
        let panic = std::panic::catch_unwind(|| later.diff(&earlier));
        assert!(panic.is_err(), "backwards counter must trip went_backwards");
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn diff_saturates_to_zero_in_release_builds() {
        let earlier = DeviceRow {
            reads: 8,
            ..DeviceRow::default()
        };
        let later = DeviceRow {
            reads: 5,
            ..DeviceRow::default()
        };
        assert_eq!(later.diff(&earlier).reads, 0);
    }
}
