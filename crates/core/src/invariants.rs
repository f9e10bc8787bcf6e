//! Kernel-state invariant checking.
//!
//! [`HipecKernel::check_invariants`] audits the conservation laws the whole
//! design rests on: every physical frame is in exactly one place, the pmap /
//! object-residency / frame-ownership triangles agree, free frames are fully
//! anonymous, and the global frame manager's books match the containers'.
//! Debug and test builds run the audit after every kernel entry point
//! ([`HipecKernel::debug_check`]); release builds compile it out of the hot
//! path but keep [`HipecKernel::check_invariants`] callable for tests and
//! tooling.
//!
//! The audit is read-only and O(frames + mappings + resident pages). On
//! paper-sized machines (16 384 frames) running it after literally every
//! access would dominate debug-build test time, so `debug_check` samples:
//! small tables (≤ [`FULL_CHECK_FRAMES`]) are audited on every call, larger
//! ones every [`SAMPLE_INTERVAL`]-th call.

use std::collections::HashMap;

use hipec_vm::{FrameId, QueueId, Stat};

use crate::kernel::HipecKernel;
use crate::operand::OperandSlot;

/// An independently computed partition of every physical frame into
/// exactly one bucket, by direct inspection of the frame table — no
/// manager or container book is consulted. [`HipecKernel::check_invariants`]
/// reconciles the books against it, and tests reconcile counter snapshots
/// against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramePartition {
    /// Wired (kernel) frames.
    pub wired: u64,
    /// Frames on the global free queue.
    pub global_free: u64,
    /// Frames on the global active/inactive queues (default pool).
    pub default_pool: u64,
    /// Resident default-pool pages off every queue (transient).
    pub default_unqueued: u64,
    /// Busy frames: write-backs in flight or awaiting a torn-write retry.
    /// These belong to the global pool — `flush_exchange` and `force_take`
    /// take them off the owning container's books when the flush starts.
    pub in_flight: u64,
    /// Frames attributed to each container (terminated ones included), in
    /// container-list order: on one of its queues, resident in its object
    /// off-queue, or parked in one of its page operand slots.
    pub per_container: Vec<(u32, u64)>,
    /// Frames in no bucket at all (always 0 unless a frame leaked).
    pub unaccounted: u64,
}

impl FramePartition {
    /// Frames attributed to container `key`, if it exists.
    pub fn container(&self, key: u32) -> Option<u64> {
        self.per_container
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, n)| n)
    }

    /// Total frames attributed to containers (the partition's independent
    /// recomputation of `gfm.total_specific`).
    pub fn total_specific(&self) -> u64 {
        self.per_container.iter().map(|&(_, n)| n).sum()
    }

    /// Sum of every bucket — always the frame-table size.
    pub fn total(&self) -> u64 {
        self.wired
            + self.global_free
            + self.default_pool
            + self.default_unqueued
            + self.in_flight
            + self.total_specific()
            + self.unaccounted
    }
}

/// Frame tables at or below this size are audited on every `debug_check`.
#[cfg(debug_assertions)]
const FULL_CHECK_FRAMES: usize = 2048;

/// Audit frequency (in `debug_check` calls) for larger frame tables.
#[cfg(debug_assertions)]
const SAMPLE_INTERVAL: u64 = 64;

impl HipecKernel {
    /// Computes the [`FramePartition`] by classifying every frame from the
    /// frame table alone. Classification priority: wired, then queue
    /// membership, then busy, then object ownership, then operand-slot
    /// parking — so a frame named by several structures (a page slot may
    /// legally alias a queued frame) is counted exactly once.
    pub fn frame_partition(&self) -> FramePartition {
        let frames = &self.vm.frames;

        // Queue → container index (terminated containers keep their queues;
        // a frame stuck on one — e.g. a dirty page whose flush submission
        // the device refused mid-kill — is still theirs).
        let mut queue_owner: HashMap<QueueId, usize> = HashMap::new();
        for (i, c) in self.containers.iter().enumerate() {
            for &q in &c.queues {
                queue_owner.insert(q, i);
            }
        }
        // Frame → parking container index (first slot wins).
        let mut parked: HashMap<FrameId, usize> = HashMap::new();
        for (i, c) in self.containers.iter().enumerate() {
            for slot in &c.operands {
                if let OperandSlot::Page(Some(f)) = slot {
                    parked.entry(*f).or_insert(i);
                }
            }
        }
        // Object → container index.
        let key_to_idx: HashMap<u32, usize> = self
            .containers
            .iter()
            .enumerate()
            .map(|(i, c)| (c.key, i))
            .collect();
        let object_owner: HashMap<_, usize> = self
            .vm
            .objects_iter()
            .filter_map(|o| {
                o.container
                    .and_then(|k| key_to_idx.get(&k).copied())
                    .map(|i| (o.id, i))
            })
            .collect();

        let mut p = FramePartition {
            wired: 0,
            global_free: 0,
            default_pool: 0,
            default_unqueued: 0,
            in_flight: 0,
            per_container: self.containers.iter().map(|c| (c.key, 0)).collect(),
            unaccounted: 0,
        };
        for i in 0..frames.len() as u32 {
            let f = FrameId(i);
            let frame = frames.frame(f).expect("frame index in range");
            let queue = frames.queue_of(f).expect("frame index in range");
            if frame.wired {
                p.wired += 1;
            } else if queue == Some(self.vm.free_q) {
                p.global_free += 1;
            } else if queue == Some(self.vm.active_q) || queue == Some(self.vm.inactive_q) {
                p.default_pool += 1;
            } else if let Some(&cidx) = queue.and_then(|q| queue_owner.get(&q)) {
                p.per_container[cidx].1 += 1;
            } else if frame.busy {
                p.in_flight += 1;
            } else if let Some(&cidx) = frame.owner.and_then(|(o, _)| object_owner.get(&o)) {
                p.per_container[cidx].1 += 1;
            } else if frame.owner.is_some() {
                p.default_unqueued += 1;
            } else if let Some(&cidx) = parked.get(&f) {
                p.per_container[cidx].1 += 1;
            } else {
                p.unaccounted += 1;
            }
        }
        p
    }

    /// Audits every kernel invariant; returns the first violation found —
    /// with the last events leading up to it appended when tracing is
    /// compiled in.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_invariants_inner().map_err(|violation| {
            let tail = self.trace_tail(16);
            if tail.is_empty() {
                violation
            } else {
                format!("{violation}\n  last events:\n{tail}")
            }
        })
    }

    /// Audits every kernel invariant; returns the first violation found.
    ///
    /// The invariants:
    ///
    /// 1. **Conservation** — every frame is exactly one of: wired, busy
    ///    (in-flight flush), on one queue, owned-and-unqueued (a resident
    ///    page taken off its queue), or parked in a live container's page
    ///    operand slot. Anything else is a leak — and a frame an error path
    ///    failed to hand back is reported by name (`frame_handback_failed`).
    /// 2. **Busy frames** are unqueued, unmapped, retain their owner (the
    ///    flush completion path derives the backing block from it), and are
    ///    tracked by exactly the in-flight list or the torn-write retry
    ///    queue — and vice versa.
    /// 3. **Free frames** (global free queue) are fully anonymous: no
    ///    owner, no mappings, clean, not wired, not busy.
    /// 4. **Translation agreement** — frame `mappings` and task pmaps are
    ///    mirror images; object residency and frame ownership are mirror
    ///    images (modulo busy frames, which are evicted but owner-retaining).
    /// 5. **Default-pool purity** — frames on the global active/inactive
    ///    queues belong to objects under default management, never to a
    ///    container (policy-managed pages live on container queues only).
    /// 6. **GFM books** — `total_specific` equals the sum of all container
    ///    `allocated` counts, and no live container's page slot references
    ///    a frame that is on the global free queue (a stale handle to a
    ///    released frame).
    /// 7. **Partition conservation** — every container's `allocated` count
    ///    equals the number of frames the independently computed
    ///    [`FramePartition`] attributes to it, and no frame is in no bucket.
    /// 8. **Health linkage** — a live, non-quarantined container's object
    ///    links back to it; a terminated or quarantined container's region
    ///    runs under default management, so its object (if it still exists)
    ///    carries no container link.
    fn check_invariants_inner(&self) -> Result<(), String> {
        let frames = &self.vm.frames;
        let nframes = frames.len() as u32;

        // A refused error-path hand-back is a frame on no queue; say which
        // counter saw it before the conservation walk trips over the frame.
        let handbacks = self.vm.stats.value(Stat::FrameHandbackFailed);
        if handbacks != 0 {
            return Err(format!(
                "frame_handback_failed = {handbacks}: an error path could not return a frame to the free queue"
            ));
        }

        // Busy-frame tracking: in-flight flushes plus torn-write retries.
        let mut tracked: HashMap<FrameId, &'static str> = HashMap::new();
        for f in self.vm.inflight_frames() {
            if tracked.insert(f, "in-flight list").is_some() {
                return Err(format!("{f} appears twice in the in-flight list"));
            }
        }
        for f in self.vm.retry_frames() {
            if let Some(prev) = tracked.insert(f, "retry queue") {
                return Err(format!("{f} tracked by both {prev} and the retry queue"));
            }
        }

        // Frames parked in live containers' page operand slots.
        let mut parked: HashMap<FrameId, u32> = HashMap::new();
        for c in &self.containers {
            if c.terminated {
                continue;
            }
            for slot in &c.operands {
                if let OperandSlot::Page(Some(f)) = slot {
                    parked.entry(*f).or_insert(c.key);
                }
            }
        }

        let objects: HashMap<_, _> = self.vm.objects_iter().map(|o| (o.id, o)).collect();
        let tasks: HashMap<_, _> = self.vm.tasks_iter().map(|t| (t.id, t)).collect();

        for i in 0..nframes {
            let f = FrameId(i);
            let frame = frames.frame(f).map_err(|e| e.to_string())?;
            let queue = frames.queue_of(f).map_err(|e| e.to_string())?;

            if frame.wired {
                if queue.is_some() {
                    return Err(format!("wired {f} is on a queue"));
                }
            } else if frame.busy {
                if queue.is_some() {
                    return Err(format!("busy {f} is on a queue"));
                }
                if !frame.mappings.is_empty() {
                    return Err(format!("busy {f} still has pmap translations"));
                }
                if frame.owner.is_none() {
                    return Err(format!(
                        "busy {f} lost its owner (flush completion cannot locate its block)"
                    ));
                }
                if !tracked.contains_key(&f) {
                    return Err(format!(
                        "busy {f} is tracked by neither the in-flight list nor the retry queue"
                    ));
                }
            } else if queue.is_none() && frame.owner.is_none() && !parked.contains_key(&f) {
                return Err(format!(
                    "{f} is unqueued, unowned, unparked, not wired, not busy: leaked"
                ));
            }

            if !frame.busy {
                if let Some(via) = tracked.get(&f) {
                    return Err(format!("non-busy {f} is tracked by the {via}"));
                }
            }

            if queue == Some(self.vm.free_q) {
                if frame.owner.is_some() {
                    return Err(format!("free {f} still has an owner"));
                }
                if !frame.mappings.is_empty() {
                    return Err(format!("free {f} still has pmap translations"));
                }
                if frame.mod_bit {
                    return Err(format!("free {f} is dirty (data loss)"));
                }
            }

            if queue == Some(self.vm.active_q) || queue == Some(self.vm.inactive_q) {
                let Some((object, _)) = frame.owner else {
                    return Err(format!("{f} is on a global page queue but owns no page"));
                };
                let container = objects.get(&object).and_then(|o| o.container);
                if let Some(key) = container {
                    return Err(format!(
                        "{f} of container {key}'s object is on a global page queue"
                    ));
                }
            }

            // Frame → pmap direction.
            for &(task, vpage) in &frame.mappings {
                let hit = tasks.get(&task).and_then(|t| t.translate(vpage));
                if hit != Some(f) {
                    return Err(format!(
                        "{f} claims a mapping by task {} vpage {vpage} the pmap does not have",
                        task.0
                    ));
                }
            }

            // Frame → object direction (busy frames are evicted but keep
            // their owner for the completion path).
            if let Some((object, offset)) = frame.owner {
                if !frame.busy {
                    let resident = objects.get(&object).and_then(|o| o.lookup(offset));
                    if resident != Some(f) {
                        return Err(format!(
                            "{f} claims page {} of object {} but the object disagrees",
                            offset.0, object.0
                        ));
                    }
                }
            }
        }

        // pmap → frame direction.
        for t in self.vm.tasks_iter() {
            for (vpage, f) in t.pmap.iter() {
                let frame = frames.frame(f).map_err(|e| e.to_string())?;
                if !frame.mappings.contains(&(t.id, vpage)) {
                    return Err(format!(
                        "task {} maps vpage {vpage} to {f} but the frame does not list it",
                        t.id.0
                    ));
                }
            }
        }

        // object → frame direction.
        for o in self.vm.objects_iter() {
            for (offset, f) in o.resident.iter() {
                let frame = frames.frame(f).map_err(|e| e.to_string())?;
                if frame.owner != Some((o.id, hipec_vm::PageOffset(offset))) {
                    return Err(format!(
                        "object {} holds page {offset} in {f} but the frame disagrees",
                        o.id.0
                    ));
                }
            }
        }

        // GFM books vs the containers'.
        let allocated: u64 = self.containers.iter().map(|c| c.allocated).sum();
        if self.gfm.total_specific != allocated {
            return Err(format!(
                "gfm.total_specific = {} but containers hold {} frames",
                self.gfm.total_specific, allocated
            ));
        }

        // Stale handles: a page slot naming a globally-freed frame.
        for (&f, &key) in &parked {
            if frames.queue_of(f).map_err(|e| e.to_string())? == Some(self.vm.free_q) {
                return Err(format!(
                    "container {key} holds a page slot for {f}, which is on the global free queue"
                ));
            }
        }

        // Partition conservation: each container's books against the
        // frame table's own story, container by container.
        let partition = self.frame_partition();
        for (c, &(key, held)) in self.containers.iter().zip(&partition.per_container) {
            if held != c.allocated {
                return Err(format!(
                    "container {key} books {} frames but the frame partition attributes {held}",
                    c.allocated
                ));
            }
        }
        if partition.unaccounted != 0 {
            return Err(format!(
                "{} frames fit no partition bucket",
                partition.unaccounted
            ));
        }

        // Health ↔ object linkage.
        for c in &self.containers {
            let Some(object) = objects.get(&c.object) else {
                // The region was deallocated with the container.
                continue;
            };
            let fallback = c.terminated || c.health.quarantined();
            if fallback {
                if let Some(key) = object.container {
                    return Err(format!(
                        "container {} is under default-management fallback but its \
                         object still links to container {key}",
                        c.key
                    ));
                }
            } else if object.container != Some(c.key) {
                return Err(format!(
                    "live container {} lost its object link (object says {:?})",
                    c.key, object.container
                ));
            }
        }

        Ok(())
    }

    /// Runs the invariant audit and panics on violation — debug and test
    /// builds only; a no-op in release builds.
    ///
    /// Sampled on large frame tables (see module docs); the audit of the
    /// final state is what matters, and every call site is revisited
    /// constantly by the workloads.
    pub fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            let tick = self.check_tick.get().wrapping_add(1);
            self.check_tick.set(tick);
            if self.vm.frames.len() > FULL_CHECK_FRAMES && !tick.is_multiple_of(SAMPLE_INTERVAL) {
                return;
            }
            if let Err(violation) = self.check_invariants() {
                panic!("kernel invariant violated: {violation}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use hipec_vm::{KernelParams, VAddr, PAGE_SIZE};

    use crate::kernel::HipecKernel;
    use crate::operand::OperandDecl;
    use crate::program::PolicyProgram;

    fn small_kernel() -> HipecKernel {
        let mut p = KernelParams::paper_64mb();
        p.total_frames = 64;
        p.wired_frames = 4;
        p.free_target = 8;
        p.free_min = 4;
        p.inactive_target = 12;
        HipecKernel::new(p)
    }

    /// A minimal FIFO policy: take a free frame (requesting or reclaiming
    /// as needed), track residency on one queue, return the frame. The
    /// `ReclaimFrame` event gives back exactly what the GFM asks for.
    fn fifo_program() -> PolicyProgram {
        use crate::command::build;
        use crate::command::{ArithOp, CompOp, JumpMode, QueueEnd};
        use crate::operand::KernelVar;
        let mut p = PolicyProgram::new();
        let free = p.declare(OperandDecl::FreeQueue);
        let q = p.declare(OperandDecl::Queue { recency: false });
        let page = p.declare(OperandDecl::Page);
        let one = p.declare(OperandDecl::Int(1));
        let zero = p.declare(OperandDecl::Int(0));
        let cnt = p.declare(OperandDecl::Int(0));
        let target = p.declare(OperandDecl::Kernel(KernelVar::ReclaimTarget));
        p.add_event(
            "PageFault",
            vec![
                build::emptyq(free),                             // 0
                build::jump(JumpMode::IfFalse, 6),               // 1: have a free frame
                build::request(one, crate::command::NO_OPERAND), // 2
                build::jump(JumpMode::IfTrue, 6),                // 3: granted
                build::fifo(q, crate::command::NO_OPERAND),      // 4: reclaim a victim
                build::jump(JumpMode::Always, 0),                // 5
                build::dequeue(page, free, QueueEnd::Head),      // 6
                build::enqueue(page, q, QueueEnd::Tail),         // 7
                build::ret(page),                                // 8
            ],
        );
        p.add_event(
            "ReclaimFrame",
            vec![
                build::arith(cnt, target, ArithOp::Mov),    // 0: cnt = asked
                build::emptyq(free),                        // 1
                build::jump(JumpMode::IfTrue, 9),           // 2: nothing spare
                build::comp(cnt, zero, CompOp::Gt),         // 3
                build::jump(JumpMode::IfFalse, 9),          // 4: quota met
                build::dequeue(page, free, QueueEnd::Head), // 5
                build::release(page),                       // 6
                build::arith(cnt, cnt, ArithOp::Dec),       // 7
                build::jump(JumpMode::Always, 1),           // 8
                build::ret(crate::command::NO_OPERAND),     // 9
            ],
        );
        p
    }

    #[test]
    fn fresh_kernel_satisfies_invariants() {
        let k = small_kernel();
        k.check_invariants().expect("boot state is consistent");
    }

    #[test]
    fn invariants_hold_across_default_pool_churn() {
        let mut k = small_kernel();
        let t = k.vm.create_task();
        let (addr, _) = k.vm.vm_allocate(t, 100 * PAGE_SIZE).expect("allocate");
        for p in 0..100 {
            k.access_sync(t, VAddr(addr.0 + p * PAGE_SIZE), p % 3 == 0)
                .expect("access");
            k.check_invariants().expect("consistent after every access");
        }
    }

    #[test]
    fn invariants_hold_across_policy_churn() {
        let mut k = small_kernel();
        let t = k.vm.create_task();
        // 20 resident pages stays under the partition burst (30 frames on
        // this 64-frame machine), so the policy self-recycles via `Fifo`
        // rather than fighting the balancer for every grant.
        let (base, _o, _key) = k
            .vm_allocate_hipec(t, 20 * PAGE_SIZE, fifo_program(), 8)
            .expect("install");
        for round in 0..3 {
            for p in 0..20 {
                k.access_sync(t, VAddr(base.0 + p * PAGE_SIZE), round == 1)
                    .expect("access");
                k.check_invariants().expect("consistent after every access");
            }
        }
    }

    #[test]
    fn audit_detects_a_leaked_frame() {
        let mut k = small_kernel();
        // Pull a frame out of the pool and drop it on the floor.
        let _leaked = k.vm.take_free_frames(1).expect("available");
        let err = k.check_invariants().expect_err("leak must be caught");
        assert!(err.contains("leaked"), "unexpected report: {err}");
    }

    #[test]
    fn audit_names_a_failed_frame_hand_back() {
        let mut k = small_kernel();
        k.vm.stats.bump(hipec_vm::Stat::FrameHandbackFailed);
        let err = k
            .check_invariants()
            .expect_err("a lost frame must be caught");
        assert!(
            err.contains("frame_handback_failed = 1"),
            "unexpected report: {err}"
        );
    }

    #[test]
    fn audit_detects_cooked_books() {
        let mut k = small_kernel();
        let t = k.vm.create_task();
        let mut program = PolicyProgram::new();
        program.declare(OperandDecl::FreeQueue);
        program.declare(OperandDecl::Page);
        program.add_event(
            "PageFault",
            vec![crate::command::build::ret(crate::command::NO_OPERAND)],
        );
        program.add_event(
            "ReclaimFrame",
            vec![crate::command::build::ret(crate::command::NO_OPERAND)],
        );
        let (_, _, key) = k
            .vm_allocate_hipec(t, 16 * PAGE_SIZE, program, 4)
            .expect("install");
        k.check_invariants().expect("consistent after install");
        k.containers[key.0 as usize].allocated += 1;
        let err = k.check_invariants().expect_err("imbalance must be caught");
        assert!(err.contains("total_specific"), "unexpected report: {err}");
    }
}
