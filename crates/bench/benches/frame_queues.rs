//! Intrusive frame-queue performance: the O(1) operations every
//! replacement decision is built from.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hipec_vm::{FrameId, FrameTable};

fn bench_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_queues");
    group.sample_size(30);

    const N: u32 = 4_096;

    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("enqueue_dequeue_cycle", |b| {
        let mut t = FrameTable::new(N);
        let q = t.new_queue(false);
        b.iter(|| {
            for i in 0..N {
                t.enqueue_tail(q, FrameId(i)).expect("enqueue");
            }
            while t.dequeue_head(q).expect("dequeue").is_some() {}
        })
    });

    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("auto_recency_touch", |b| {
        let mut t = FrameTable::new(N);
        let q = t.new_queue(true);
        for i in 0..N {
            t.enqueue_tail(q, FrameId(i)).expect("enqueue");
        }
        b.iter(|| {
            // Touch in a stride pattern. A touch only logs the move-to-tail
            // (and compacts the log when it fills); nothing here relinks.
            for i in (0..N).step_by(7) {
                t.touch(FrameId(i), false).expect("touch");
            }
        })
    });

    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("touch_then_observe", |b| {
        let mut t = FrameTable::new(N);
        let q = t.new_queue(true);
        for i in 0..N {
            t.enqueue_tail(q, FrameId(i)).expect("enqueue");
        }
        b.iter(|| {
            // N strided touches with their cost settled inside the timed
            // region: the dequeue replays every logged move-to-tail (a
            // mid-queue remove plus a tail enqueue each) before it looks.
            for i in 0..N {
                t.touch(FrameId(i * 7 % N), false).expect("touch");
            }
            let lru = t.dequeue_head(q).expect("queue").expect("non-empty");
            t.enqueue_tail(q, lru).expect("enqueue");
        })
    });

    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("mid_queue_remove", |b| {
        let mut t = FrameTable::new(N);
        let q = t.new_queue(false);
        b.iter(|| {
            for i in 0..N {
                t.enqueue_tail(q, FrameId(i)).expect("enqueue");
            }
            // Remove every other frame from the middle.
            for i in (0..N).step_by(2) {
                t.remove(FrameId(i)).expect("remove");
            }
            while t.dequeue_head(q).expect("dequeue").is_some() {}
        })
    });

    group.finish();
}

criterion_group!(benches, bench_queues);
criterion_main!(benches);
