//! The per-reference path allocates nothing: a hit is a table index (plus, on
//! a recency queue, an append to a log sized when the frame joined) and an
//! idle (or in-flight-but-not-due) pump is a compare per device.
//!
//! Its own test binary, so the counting allocator sees only this file; the
//! count is per thread, so the harness's own threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hipec_vm::{AccessOutcome, Kernel, KernelParams, VAddr, PAGE_SIZE};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which does not allocate
// (`const`-initialised, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn hits_and_idle_pumps_do_not_allocate() {
    let mut p = KernelParams::paper_64mb();
    p.total_frames = 128;
    p.wired_frames = 8;
    p.free_target = 16;
    p.free_min = 8;
    let mut k = Kernel::new(p);
    let t = k.create_task();
    let (base, _) = k.vm_allocate(t, 64 * PAGE_SIZE).expect("allocate");
    for page in 0..64 {
        k.access(t, VAddr(base.0 + page * PAGE_SIZE), true)
            .expect("warm");
    }
    let hit_and_pump = |k: &mut Kernel| {
        for i in 0..4_096u64 {
            let addr = VAddr(base.0 + (i * 7 % 64) * PAGE_SIZE);
            let r = k.access(t, addr, i % 5 == 0).expect("resident");
            assert!(matches!(r, AccessOutcome::Done(r) if r.io_until.is_none()));
            k.pump();
        }
    };

    // Nothing in flight anywhere.
    assert_eq!(k.next_flush_completion(), None);
    assert_eq!(allocations_during(|| hit_and_pump(&mut k)), 0);

    // A write-back in flight that never comes due while we watch.
    let frame = k
        .task(t)
        .expect("task")
        .translate(base.vpage())
        .expect("mapped");
    let done = k.start_flush(frame).expect("flush starts");
    let in_flight = |k: &mut Kernel| {
        for i in 1..4_096u64 {
            let addr = VAddr(base.0 + (1 + i * 7 % 63) * PAGE_SIZE);
            k.access(t, addr, false).expect("resident");
            k.pump();
        }
    };
    assert_eq!(allocations_during(|| in_flight(&mut k)), 0);
    assert!(k.now() < done, "the flush must still be in flight");
    assert_eq!(k.stats.get("flush_completions"), 0);
}

#[test]
fn hits_on_a_recency_queue_do_not_allocate() {
    let mut p = KernelParams::paper_64mb();
    p.total_frames = 128;
    p.wired_frames = 8;
    let mut k = Kernel::new(p);
    let t = k.create_task();
    let (base, _) = k.vm_allocate(t, 64 * PAGE_SIZE).expect("allocate");
    // An LRU region as `hipec-core` builds one: the resident frames sit on
    // an auto-recency queue, so every hit is a pending move-to-tail.
    let lru = k.frames.new_queue(true);
    for page in 0..64 {
        let addr = VAddr(base.0 + page * PAGE_SIZE);
        k.access(t, addr, true).expect("warm");
        let frame = k.task(t).expect("task").translate(addr.vpage());
        let frame = frame.expect("mapped");
        k.frames.remove(frame).expect("off the active queue");
        k.frames
            .enqueue_tail(lru, frame)
            .expect("onto the LRU queue");
    }
    // Many times the log's bound (a small multiple of the 64 members), so
    // it fills and compacts over and over.
    let hits = |k: &mut Kernel| {
        for i in 0..16_384u64 {
            let addr = VAddr(base.0 + (i * i % 61) * PAGE_SIZE);
            k.access(t, addr, false).expect("resident");
        }
    };
    assert_eq!(allocations_during(|| hits(&mut k)), 0);
    // The last touches decide the order, and settling them allocates nothing
    // either.
    let mut tail = None;
    assert_eq!(
        allocations_during(|| tail = k.frames.dequeue_tail(lru).expect("queue")),
        0
    );
    let last = VAddr(base.0 + (16_383 * 16_383 % 61) * PAGE_SIZE);
    assert_eq!(tail, k.task(t).expect("task").translate(last.vpage()));
}
