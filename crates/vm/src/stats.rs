//! The kernel's event counters.
//!
//! Every counter the VM substrate and the HiPEC layer above it maintain is a
//! variant of [`Stat`], so bumping one on the access path is an array
//! increment. Names exist only at the edges — snapshots, exports and tests
//! read counters through [`Counter::get`] and [`Counter::iter`], a slow path
//! over the static name table.

macro_rules! stat_table {
    ($($(#[$doc:meta])* $variant:ident = $name:literal,)*) => {
        /// One kernel event counter. Variants are declared in name order, so
        /// index order is the order snapshots and exports list them in.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stat {
            $($(#[$doc])* $variant,)*
        }

        impl Stat {
            /// Every counter, in name order.
            pub const ALL: &'static [Stat] = &[$(Stat::$variant,)*];
            const NAMES: &'static [&'static str] = &[$($name,)*];
        }
    };
}

stat_table! {
    /// HiPEC installs refused by admission control.
    AdmissionRejects = "admission_rejects",
    /// Circuit breakers that closed again after a clean probe streak.
    BreakerCloses = "breaker_closes",
    /// Breakers that spent their whole backoff budget (device declared dead).
    BreakerExhausted = "breaker_exhausted",
    /// Circuit breakers tripped open.
    BreakerTrips = "breaker_trips",
    /// Devices that died with no Active sibling to drain onto.
    DeadWithoutSurvivor = "dead_without_survivor",
    /// Frames returned to the free pool by `vm_deallocate`.
    DeallocatedFrames = "deallocated_frames",
    /// Device drains started (hot-unplug or forced).
    DeviceDrains = "device_drains",
    /// Devices escalated to Dead.
    DevicesDead = "devices_dead",
    /// Dead devices whose forced drain completed.
    DevicesDeadDrained = "devices_dead_drained",
    /// Hot-unplugged devices that reached Removed.
    DevicesRemoved = "devices_removed",
    /// Hot-unplug requests accepted.
    DevicesUnplugged = "devices_unplugged",
    /// Forced drains refused because the survivor had no room.
    DrainFailed = "drain_failed",
    /// Page faults of every kind.
    Faults = "faults",
    /// Write-backs abandoned after their retry budget (pages lost).
    FlushAbandoned = "flush_abandoned",
    /// Write-backs reaped clean.
    FlushCompletions = "flush_completions",
    /// Flushes refused while the device's breaker was open.
    FlushDeferred = "flush_deferred",
    /// First-issue flush submissions the device rejected.
    FlushErrors = "flush_errors",
    /// Torn write-backs re-issued.
    FlushRetries = "flush_retries",
    /// Re-issues the device rejected.
    FlushRetryErrors = "flush_retry_errors",
    /// Pages copied by forced (dead-device) migrations.
    ForcedMigrationPages = "forced_migration_pages",
    /// Objects re-bound by a forced drain.
    ForcedMigrations = "forced_migrations",
    /// Clean pages reclaimed regardless of reference bits in degraded mode.
    ForcedSyncReclaims = "forced_sync_reclaims",
    /// Frames an error path could not hand back to the free queue: each one
    /// is a leaked frame, and the invariant audit fails on it.
    FrameHandbackFailed = "frame_handback_failed",
    /// HiPEC regions deallocated.
    HipecDeallocations = "hipec_deallocations",
    /// Containers degraded by a health strike.
    HipecDegrades = "hipec_degrades",
    /// HiPEC regions installed.
    HipecInstalls = "hipec_installs",
    /// Containers terminated.
    HipecKills = "hipec_kills",
    /// Containers quarantined into default management.
    HipecQuarantines = "hipec_quarantines",
    /// Containers restored from quarantine.
    HipecRestores = "hipec_restores",
    /// Resident accesses.
    Hits = "hits",
    /// Migration copies completed clean.
    MigratedPages = "migrated_pages",
    /// Migration copies the receiving device rejected.
    MigrationRejects = "migration_rejects",
    /// Migration copies that completed torn and re-queued.
    MigrationRetries = "migration_retries",
    /// Queued or in-flight copies cancelled by a drain of their target.
    MigrationsCancelled = "migrations_cancelled",
    /// Faults on a resident page (translation install only).
    MinorFaults = "minor_faults",
    /// Objects re-bound to another device.
    ObjectMigrations = "object_migrations",
    /// Pages read from a paging device.
    Pageins = "pageins",
    /// Dirty pages submitted for write-back.
    Pageouts = "pageouts",
    /// Pump calls that left parked submissions for the next call.
    PumpBudgetDeferrals = "pump_budget_deferrals",
    /// Second chances given by the pageout daemon.
    Reactivations = "reactivations",
    /// Page-in reads the device rejected.
    ReadErrors = "read_errors",
    /// Torn retries moved to their object's new device.
    RetriesRehomed = "retries_rehomed",
    /// Pageout daemon runs.
    Scans = "scans",
    /// Objects demoted to the slow tier.
    TierDemotions = "tier_demotions",
    /// Objects promoted to the fast tier.
    TierPromotions = "tier_promotions",
    /// Write-backs reaped torn.
    TornFlushes = "torn_flushes",
    /// Fresh anonymous pages zero-filled.
    ZeroFills = "zero_fills",
}

impl Stat {
    /// The counter's name in snapshots and exports.
    pub fn name(self) -> &'static str {
        Stat::NAMES[self as usize]
    }
}

// `touched` is one bit per counter.
const _: () = assert!(Stat::ALL.len() <= u64::BITS as usize);

/// The kernel's set of monotonically increasing event counters.
///
/// A counter is *registered* by its first [`Counter::add`] — even of zero —
/// and only registered counters show up in [`Counter::iter`]: a snapshot
/// tells "never happened here" apart from "counted, and the count is zero".
#[derive(Debug, Clone)]
pub struct Counter {
    values: [u64; Stat::ALL.len()],
    touched: u64,
}

impl Default for Counter {
    fn default() -> Self {
        Counter {
            values: [0; Stat::ALL.len()],
            touched: 0,
        }
    }
}

impl Counter {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to `stat`, registering it.
    #[inline]
    pub fn add(&mut self, stat: Stat, n: u64) {
        self.values[stat as usize] += n;
        self.touched |= 1 << stat as u32;
    }

    /// Increments `stat` by one.
    #[inline]
    pub fn bump(&mut self, stat: Stat) {
        self.add(stat, 1);
    }

    /// Reads `stat` (zero if never touched).
    pub fn value(&self, stat: Stat) -> u64 {
        self.values[stat as usize]
    }

    /// Reads the counter called `name` (zero if never touched, or if no
    /// counter has that name).
    pub fn get(&self, name: &str) -> u64 {
        Stat::NAMES
            .binary_search(&name)
            .map_or(0, |i| self.values[i])
    }

    /// Iterates over the registered counters as `(name, value)` pairs in
    /// name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Stat::ALL
            .iter()
            .filter(|&&s| self.touched & (1 << s as u32) != 0)
            .map(|&s| (s.name(), self.value(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_in_btreemap_order() {
        assert!(Stat::NAMES.windows(2).all(|w| w[0] < w[1]));
        for (i, &s) in Stat::ALL.iter().enumerate() {
            assert_eq!(s as usize, i);
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counter::new();
        c.bump(Stat::Faults);
        c.add(Stat::Faults, 9);
        c.add(Stat::FlushRetries, 2);
        assert_eq!(c.get("faults"), 10);
        assert_eq!(c.value(Stat::FlushRetries), 2);
        assert_eq!(c.get("hits"), 0);
        assert_eq!(c.get("missing"), 0);
        let all: Vec<_> = c.iter().collect();
        assert_eq!(all, vec![("faults", 10), ("flush_retries", 2)]);
    }

    #[test]
    fn adding_zero_registers_a_counter() {
        let mut c = Counter::new();
        assert_eq!(c.iter().count(), 0);
        c.add(Stat::TierPromotions, 0);
        c.bump(Stat::Hits);
        c.add(Stat::DeallocatedFrames, 0);
        let all: Vec<_> = c.iter().collect();
        assert_eq!(
            all,
            vec![
                ("deallocated_frames", 0),
                ("hits", 1),
                ("tier_promotions", 0)
            ]
        );
    }
}
