//! The kernel's backing-device table.
//!
//! Mach 3.0's external-pager lineage routes each memory object to its own
//! pager; the single-disk kernel of earlier revisions collapsed that into
//! one global paging device, one write-back circuit breaker and one torn
//! -write retry queue — so one sick device degraded every container. A
//! [`BackingDevice`] restores the per-pager structure: each table entry
//! owns its paging device, its backing-store extent map, its circuit
//! breaker, its in-flight flush list and its retry queue. Objects bind to
//! a device at creation ([`crate::Kernel::create_object_on`]) and the
//! pageout pump routes every read, flush and retry to the owning entry,
//! so fault-plan storms on one device leave the others' write-back
//! pipelines untouched.
//!
//! Entries are a managed *lifecycle*, not a static table: a device starts
//! [`DeviceState::Active`], a hot-unplug ([`crate::Kernel::remove_device`])
//! moves it through [`DeviceState::Draining`] to [`DeviceState::Removed`],
//! and a breaker that exhausts its backoff budget escalates straight to
//! [`DeviceState::Dead`]. Both exits run the same drain: objects re-bind
//! to a surviving entry and their backing pages are copied over through
//! the per-entry migration queue driven by the pageout pump.

use hipec_disk::{BackingStore, DeviceParams, DiskQueue, Lba, PagingDevice};
use hipec_sim::{LatencyHistogram, SimTime};

use crate::breaker::CircuitBreaker;
use crate::kernel::{InflightFlush, RetryTag};
use crate::types::{DeviceId, ObjectId};

/// Where a device-table entry is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceState {
    /// In service: accepts new object bindings, reads and write-backs.
    #[default]
    Active,
    /// Hot-unplug in progress: objects are re-bound and backing pages are
    /// being copied onto a sibling; no new bindings are accepted.
    Draining,
    /// Hot-unplug complete: no outstanding work traces back to the entry.
    Removed,
    /// Permanently failed (breaker backoff budget exhausted). Terminal;
    /// the forced drain runs while the entry stays Dead.
    Dead,
}

/// One queued backing-page copy: a page of `object` being re-homed from
/// device `from` onto the device whose migration queue holds the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrTag {
    /// The object whose page is being copied.
    pub object: ObjectId,
    /// The page within the object.
    pub offset: u64,
    /// The device the page is leaving.
    pub from: DeviceId,
    /// Copy submissions so far. Migration copies carry the drained data,
    /// so they are never abandoned — a torn or rejected copy re-queues
    /// until the receiving device accepts it.
    pub attempts: u32,
}

/// A migration copy submitted to the device and not yet reaped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InflightMigration {
    pub done: SimTime,
    /// The device accepted the copy but will complete it torn.
    pub torn: bool,
    pub lba: Lba,
    pub tag: MigrTag,
}

/// One entry in the kernel's device table: a paging device plus all the
/// per-device write-back machinery (extent map, breaker, in-flight list,
/// torn-write retry queue, migration queue, lifecycle state).
#[derive(Debug)]
pub struct BackingDevice {
    pub(crate) id: DeviceId,
    pub(crate) disk: PagingDevice,
    pub(crate) backing: BackingStore,
    pub(crate) breaker: CircuitBreaker,
    /// Write-backs submitted and not yet reaped. Private with
    /// `migr_inflight` so every change goes through the methods that keep
    /// `next_done` true.
    inflight: Vec<InflightFlush>,
    /// Torn flushes awaiting re-issue (FCFS — retry order is submission
    /// order; tags carry the frame and its spent attempts).
    pub(crate) retry_q: DiskQueue<RetryTag>,
    /// Lifecycle state (see [`DeviceState`]).
    pub(crate) state: DeviceState,
    /// While draining (or dead), the surviving device absorbing this
    /// entry's objects, re-homed retries and page copies.
    pub(crate) drain_to: Option<DeviceId>,
    /// Set by the breaker's `Exhausted` transition; the next pump
    /// escalates the entry to [`DeviceState::Dead`] outside the re-issue
    /// loops.
    pub(crate) dead_pending: bool,
    /// A Dead entry whose forced drain has completed (Removed implies it).
    pub(crate) drained: bool,
    /// Backing-page copies queued *onto* this device by drains and tier
    /// migrations (FCFS, driven by the pageout pump like the retry queue).
    pub(crate) migr_q: DiskQueue<MigrTag>,
    /// Migration copies submitted to this device and not yet reaped.
    migr_inflight: Vec<InflightMigration>,
    /// Earliest completion instant over both in-flight lists (`None` when
    /// both are empty): the pump's "is anything due" test and
    /// [`BackingDevice::next_progress`] read this instead of scanning.
    next_done: Option<SimTime>,
    /// Migration copies that completed clean on this device.
    pub(crate) migr_done: u64,
    /// Completion latency of demand reads issued to this device. In the
    /// virtual-time simulation a submission's completion instant is known
    /// at issue, so latency is recorded at the submission site (behind
    /// the `metrics` feature; the storage is unconditional so snapshot
    /// shapes don't change).
    pub(crate) lat_read: LatencyHistogram,
    /// Completion latency of first-issue write-back flushes.
    pub(crate) lat_flush: LatencyHistogram,
    /// Completion latency of torn-write retry re-issues.
    pub(crate) lat_torn_retry: LatencyHistogram,
}

impl BackingDevice {
    /// Builds a fresh, fault-free table entry from device parameters.
    pub(crate) fn new(id: DeviceId, params: &DeviceParams) -> Self {
        BackingDevice {
            id,
            disk: params.build(),
            backing: BackingStore::new(params.capacity_pages()),
            breaker: CircuitBreaker::default(),
            inflight: Vec::new(),
            retry_q: DiskQueue::new(hipec_disk::QueueDiscipline::Fcfs),
            state: DeviceState::Active,
            drain_to: None,
            dead_pending: false,
            drained: false,
            migr_q: DiskQueue::new(hipec_disk::QueueDiscipline::Fcfs),
            migr_inflight: Vec::new(),
            next_done: None,
            migr_done: 0,
            lat_read: LatencyHistogram::EMPTY,
            lat_flush: LatencyHistogram::EMPTY,
            lat_torn_retry: LatencyHistogram::EMPTY,
        }
    }

    /// This entry's id (its index in the device table).
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Read-only view of the paging device itself.
    pub fn device(&self) -> &PagingDevice {
        &self.disk
    }

    /// This device's error scoreboard.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Lifecycle state of this entry.
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// True while the entry accepts new bindings and write-backs.
    pub fn is_active(&self) -> bool {
        self.state == DeviceState::Active
    }

    /// The surviving device this entry is draining onto, if a drain has
    /// been started.
    pub fn drain_target(&self) -> Option<DeviceId> {
        self.drain_to
    }

    /// Storage tier of this entry: 1 for flash (the fast tier), 0 for a
    /// rotational disk. Hot objects are promoted toward higher tiers.
    pub fn tier(&self) -> u32 {
        if self.disk.as_flash().is_some() {
            1
        } else {
            0
        }
    }

    /// FTL statistics when this entry is flash-backed (`None` for disks).
    pub fn flash_stats(&self) -> Option<hipec_disk::flash::FlashStats> {
        self.disk.as_flash().map(|f| f.stats())
    }

    /// Highest per-block erase count when flash-backed (0 for disks).
    pub fn max_wear(&self) -> u32 {
        self.disk.as_flash().map(|f| f.max_wear()).unwrap_or(0)
    }

    /// Cumulative operation counters of the underlying device.
    pub fn stats(&self) -> hipec_disk::DeviceStats {
        self.disk.stats()
    }

    /// Write-backs submitted to this device and not yet reaped.
    pub fn inflight_depth(&self) -> usize {
        self.inflight.len()
    }

    /// Torn flushes parked on this device's retry queue.
    pub fn retry_depth(&self) -> usize {
        self.retry_q.len()
    }

    /// Lifetime (pushes, pops) of this device's retry queue.
    pub fn retry_counters(&self) -> (u64, u64) {
        (self.retry_q.pushes(), self.retry_q.pops())
    }

    /// Backing-page copies queued or in flight *onto* this device.
    pub fn migr_pending(&self) -> usize {
        self.migr_q.len() + self.migr_inflight.len()
    }

    /// Migration copies that completed clean on this device.
    pub fn migrations_completed(&self) -> u64 {
        self.migr_done
    }

    /// Completion-latency histograms for this device, as `(read, flush,
    /// torn_retry)` — the snapshot surface `KernelStats` latency rows
    /// are assembled from. Empty when the `metrics` feature is off.
    pub fn latency(&self) -> (&LatencyHistogram, &LatencyHistogram, &LatencyHistogram) {
        (&self.lat_read, &self.lat_flush, &self.lat_torn_retry)
    }

    /// Writes in flight that count against the breaker's degraded
    /// in-flight window (flushes and migration copies alike).
    pub(crate) fn degraded_inflight(&self) -> usize {
        self.inflight.len() + self.migr_inflight.len()
    }

    /// The write-backs in flight, in submission order.
    pub(crate) fn inflight(&self) -> &[InflightFlush] {
        &self.inflight
    }

    /// The migration copies in flight, in submission order.
    pub(crate) fn migr_inflight(&self) -> &[InflightMigration] {
        &self.migr_inflight
    }

    /// Records a submitted write-back.
    pub(crate) fn submit_flush(&mut self, flush: InflightFlush) {
        self.note_submitted(flush.done);
        self.inflight.push(flush);
    }

    /// Records a submitted migration copy.
    pub(crate) fn submit_migration(&mut self, copy: InflightMigration) {
        self.note_submitted(copy.done);
        self.migr_inflight.push(copy);
    }

    fn note_submitted(&mut self, done: SimTime) {
        self.next_done = Some(self.next_done.map_or(done, |d| d.min(done)));
    }

    /// Moves the write-backs due by `now` into `due`, in submission order.
    pub(crate) fn reap_flushes(&mut self, now: SimTime, due: &mut Vec<InflightFlush>) {
        if reap(&mut self.inflight, due, |i| i.done <= now) {
            self.refresh_next_done();
        }
    }

    /// Moves the migration copies due by `now` into `due`, in submission
    /// order.
    pub(crate) fn reap_migrations(&mut self, now: SimTime, due: &mut Vec<InflightMigration>) {
        if reap(&mut self.migr_inflight, due, |m| m.done <= now) {
            self.refresh_next_done();
        }
    }

    /// Drops every in-flight migration copy (their target is being
    /// drained), returning how many there were.
    pub(crate) fn cancel_migrations(&mut self) -> u64 {
        let cancelled = self.migr_inflight.len() as u64;
        self.migr_inflight.clear();
        self.refresh_next_done();
        cancelled
    }

    /// Earliest completion instant of anything in flight on this device
    /// (write-back or migration copy); `None` when nothing is in flight.
    pub(crate) fn next_completion(&self) -> Option<SimTime> {
        self.next_done
    }

    fn refresh_next_done(&mut self) {
        self.next_done = self
            .inflight
            .iter()
            .map(|i| i.done)
            .chain(self.migr_inflight.iter().map(|m| m.done))
            .min();
    }

    /// True if a [`crate::Kernel::pump`] at `now` would do anything for this
    /// entry: reap a due completion, submit (or probe with) a parked retry
    /// or copy, escalate a pending death, or check an unfinished drain for
    /// completion. With this false on every entry the pump is a no-op.
    pub(crate) fn has_pump_work(&self, now: SimTime) -> bool {
        self.next_done.is_some_and(|done| done <= now)
            || !self.retry_q.is_empty()
            || !self.migr_q.is_empty()
            || self.dead_pending
            || self.drain_unfinished()
    }

    /// True while a drain of this entry (hot-unplug, or the forced drain of
    /// a Dead entry) has started and not yet been seen to complete.
    pub(crate) fn drain_unfinished(&self) -> bool {
        match self.state {
            DeviceState::Draining => true,
            DeviceState::Dead => self.drain_to.is_some() && !self.drained,
            DeviceState::Active | DeviceState::Removed => false,
        }
    }

    /// Deterministic pressure score steering the pump's per-call service
    /// order: higher scores drain first. Combines, in decreasing weight:
    ///
    /// * completions already due — each reap frees a frame or retires a
    ///   migration copy, the direct head-of-line payload;
    /// * how long the oldest due completion has been claimable — deadline
    ///   ageing, so work parked across many pump calls rises to the front
    ///   instead of starving behind a perpetually-stormy sibling;
    /// * the in-flight depth (flushes and copies alike);
    /// * the parked backlog (torn retries plus queued copies), discounted
    ///   while the breaker is open because a gated device can only submit
    ///   bounded probe bursts no matter how early it is served.
    ///
    /// A pure function of device state and `now` — no host time, no
    /// randomness — so the weighted order is replay-stable.
    pub(crate) fn pressure(&self, now: SimTime) -> u64 {
        /// Score per completion already due.
        const DUE_WEIGHT: u64 = 64;
        /// Score per microsecond the oldest due completion has waited.
        const LATENESS_WEIGHT: u64 = 4;
        /// Ageing saturates here (≈1 s) so one ancient completion cannot
        /// overflow the score or drown every other component forever.
        const LATENESS_CAP_US: u64 = 1 << 20;
        /// Score per in-flight submission (not yet due).
        const INFLIGHT_WEIGHT: u64 = 2;

        let mut due = 0u64;
        let mut oldest_due: Option<SimTime> = None;
        for done in self
            .inflight
            .iter()
            .map(|i| i.done)
            .chain(self.migr_inflight.iter().map(|m| m.done))
        {
            if done <= now {
                due += 1;
                oldest_due = Some(oldest_due.map_or(done, |o| o.min(done)));
            }
        }
        let lateness_us = oldest_due
            .map_or(0, |o| now.since(o).as_ns() / 1_000)
            .min(LATENESS_CAP_US);
        let backlog = (self.retry_q.len() + self.migr_q.len()) as u64;
        let backlog = if self.breaker.is_closed() {
            backlog
        } else {
            backlog / 2
        };
        due * DUE_WEIGHT
            + lateness_us * LATENESS_WEIGHT
            + self.degraded_inflight() as u64 * INFLIGHT_WEIGHT
            + backlog
    }

    /// Earliest virtual instant at which pumping *this* device makes
    /// write-back or migration progress: its next in-flight completion
    /// (flush or page copy), or — when nothing is in flight but torn
    /// retries or queued copies are parked — its breaker's next probe
    /// window (`now` if the breaker is closed). `None` once every
    /// write-back and migration lifecycle on this device has closed.
    pub(crate) fn next_progress(&self, now: SimTime) -> Option<SimTime> {
        if let Some(done) = self.next_completion() {
            return Some(done);
        }
        if self.retry_q.is_empty() && self.migr_q.is_empty() {
            return None;
        }
        Some(if self.breaker.is_closed() {
            now
        } else {
            self.breaker.next_probe_at().max(now)
        })
    }
}

/// Moves the `ripe` entries of `list` to the end of `due`, keeping the order
/// of both; true if any moved.
fn reap<T: Copy>(list: &mut Vec<T>, due: &mut Vec<T>, ripe: impl Fn(&T) -> bool) -> bool {
    let before = due.len();
    list.retain(|entry| {
        let ripe = ripe(entry);
        if ripe {
            due.push(*entry);
        }
        !ripe
    });
    due.len() != before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entry_is_healthy_and_idle() {
        let d = BackingDevice::new(DeviceId(3), &DeviceParams::default());
        assert_eq!(d.id(), DeviceId(3));
        assert!(d.breaker().is_closed());
        assert_eq!(d.state(), DeviceState::Active);
        assert!(d.is_active());
        assert_eq!(d.drain_target(), None);
        assert_eq!(d.tier(), 0, "default device is rotational");
        assert_eq!(d.flash_stats().map(|s| s.programs), None);
        assert_eq!(d.max_wear(), 0);
        assert_eq!(d.inflight_depth(), 0);
        assert_eq!(d.retry_depth(), 0);
        assert_eq!(d.migr_pending(), 0);
        assert_eq!(d.migrations_completed(), 0);
        assert_eq!(d.retry_counters(), (0, 0));
        assert_eq!(d.stats(), hipec_disk::DeviceStats::default());
        assert_eq!(d.next_progress(SimTime::ZERO), None);
    }

    #[test]
    fn flash_entries_report_the_fast_tier() {
        let d = BackingDevice::new(
            DeviceId(1),
            &DeviceParams::Flash(hipec_disk::FlashParams::early_flash_card()),
        );
        assert_eq!(d.tier(), 1);
        assert!(d.flash_stats().is_some());
    }

    #[test]
    fn next_progress_prefers_inflight_over_retries() {
        let mut d = BackingDevice::new(DeviceId(0), &DeviceParams::default());
        let now = SimTime::from_ns(100);
        let done = SimTime::from_ns(5_000);
        d.submit_flush(InflightFlush {
            done,
            frame: crate::types::FrameId(1),
            torn: false,
            attempts: 1,
            rehomed_from: None,
        });
        assert_eq!(d.next_progress(now), Some(done));
        assert!(!d.has_pump_work(now), "in flight but not due");
        let mut due = Vec::new();
        d.reap_flushes(done, &mut due);
        assert_eq!(due.len(), 1);
        assert_eq!(d.next_progress(now), None);
        d.retry_q.push(
            hipec_disk::Lba(0),
            RetryTag {
                frame: crate::types::FrameId(1),
                attempts: 1,
                rehomed_from: None,
            },
        );
        // Closed breaker: retries can be re-issued immediately.
        assert_eq!(d.next_progress(now), Some(now));
    }

    #[test]
    fn next_progress_covers_queued_and_inflight_migrations() {
        let mut d = BackingDevice::new(DeviceId(0), &DeviceParams::default());
        let now = SimTime::from_ns(100);
        let tag = MigrTag {
            object: ObjectId(7),
            offset: 3,
            from: DeviceId(1),
            attempts: 0,
        };
        d.migr_q.push(hipec_disk::Lba(3), tag);
        // A queued copy alone is progress at the next submission window.
        assert_eq!(d.next_progress(now), Some(now));
        assert_eq!(d.migr_pending(), 1);
        let done = SimTime::from_ns(9_000);
        d.migr_q.pop_next(0, |_| 0);
        d.submit_migration(InflightMigration {
            done,
            torn: false,
            lba: hipec_disk::Lba(3),
            tag,
        });
        assert_eq!(d.next_progress(now), Some(done));
        assert_eq!(d.degraded_inflight(), 1);
    }
}
