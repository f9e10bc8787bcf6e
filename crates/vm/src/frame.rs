//! The physical frame table and intrusive page queues.
//!
//! Mirrors Mach's `vm_page` machinery: every physical frame carries its
//! ownership (which object/offset currently lives in it), software
//! reference/modify bits, and intrusive queue links. A frame is on at most
//! one page queue at a time; queues support O(1) enqueue, dequeue and
//! mid-queue removal, which is what makes command-driven replacement
//! policies cheap.
//!
//! Queues can be created dynamically — the kernel owns the global free,
//! active and inactive queues, and every HiPEC container creates its private
//! queues in the same table so interpreted commands operate on the same
//! machinery the native pageout daemon uses.

use crate::types::{FrameId, ObjectId, PageOffset, TaskId, VmError};

/// A page-queue identifier within a [`FrameTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueueId(pub u32);

/// One physical page frame.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    /// The object page currently held, if any.
    pub owner: Option<(ObjectId, PageOffset)>,
    /// Software reference bit (set by the pmap on access).
    pub ref_bit: bool,
    /// Software modify bit (set by the pmap on write).
    pub mod_bit: bool,
    /// Wired frames are never candidates for replacement.
    pub wired: bool,
    /// Busy frames are in transit (e.g. being flushed) and unavailable.
    pub busy: bool,
    /// Tasks (and virtual pages) currently mapping this frame.
    pub mappings: Vec<(TaskId, u64)>,
}

/// "No frame" / "no queue" in a [`Link`] or [`QueueMeta`].
const NONE: u32 = u32::MAX;

fn frame_at(i: u32) -> Option<FrameId> {
    (i != NONE).then_some(FrameId(i))
}

#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
    queue: u32,
    /// One past the position of this frame's latest entry in
    /// [`FrameTable::pending`]; 0 when it has none.
    mark: u32,
}

const UNLINKED: Link = Link {
    prev: NONE,
    next: NONE,
    queue: NONE,
    mark: 0,
};

#[derive(Debug, Clone)]
struct QueueMeta {
    head: u32,
    tail: u32,
    len: u64,
    auto_recency: bool,
}

/// The frame arena plus all page queues threaded through it.
///
/// A touch of a recency-queue member does not relink it: it appends the frame
/// to `pending`, and the move-to-tail is *settled* — replayed, latest touch of
/// each frame only — by the next operation that changes a link. The order
/// reads (`queue_head`, `queue_tail`, `iter_queue`) answer as if it already
/// had been, so a pending touch is never observable. Invariant: `pending` is
/// empty whenever anything but `touch` has run last.
#[derive(Debug, Clone)]
pub struct FrameTable {
    frames: Vec<Frame>,
    links: Vec<Link>,
    queues: Vec<QueueMeta>,
    /// Touches of recency-queue members since the last settle, oldest first.
    pending: Vec<FrameId>,
    /// Frames currently on auto-recency queues; bounds `pending` (see
    /// [`FrameTable::pending_limit`]).
    recency_members: usize,
}

/// Log slots per recency-queue member. Compaction keeps at most one entry per
/// member, so each compaction of `n * members` entries buys at least
/// `(n - 1) * members` appends. Uniform touches over 6 152 members cost 16 ns
/// each at 2, 9 ns at 4 and 7.4 ns at 8 (EXPERIMENTS.md, PR 14); 4 costs 16
/// bytes of log per member against the 8 per frame the packed `Link` gave back.
const PENDING_PER_MEMBER: usize = 4;

impl FrameTable {
    /// Creates a table of `nframes` unowned, unqueued frames.
    pub fn new(nframes: u32) -> Self {
        FrameTable {
            frames: (0..nframes).map(|_| Frame::default()).collect(),
            links: vec![UNLINKED; nframes as usize],
            queues: Vec::new(),
            pending: Vec::new(),
            recency_members: 0,
        }
    }

    /// Number of frames in the table.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if the table holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Creates a new empty queue.
    ///
    /// With `auto_recency` set, every [`FrameTable::touch`] of a member frame
    /// moves it to the tail, keeping the queue ordered least-recently-used
    /// (head) to most-recently-used (tail). This is the kernel-provided exact
    /// recency ordering the `LRU`/`MRU` complex commands rely on.
    pub fn new_queue(&mut self, auto_recency: bool) -> QueueId {
        let id = QueueId(self.queues.len() as u32);
        self.queues.push(QueueMeta {
            head: NONE,
            tail: NONE,
            len: 0,
            auto_recency,
        });
        id
    }

    fn check_frame(&self, f: FrameId) -> Result<(), VmError> {
        if (f.0 as usize) < self.frames.len() {
            Ok(())
        } else {
            Err(VmError::BadFrame(f))
        }
    }

    fn check_queue(&self, q: QueueId) -> Result<(), VmError> {
        if (q.0 as usize) < self.queues.len() {
            Ok(())
        } else {
            Err(VmError::BadQueue(q.0))
        }
    }

    /// Immutable access to a frame.
    pub fn frame(&self, f: FrameId) -> Result<&Frame, VmError> {
        self.check_frame(f)?;
        Ok(&self.frames[f.0 as usize])
    }

    /// Mutable access to a frame.
    pub fn frame_mut(&mut self, f: FrameId) -> Result<&mut Frame, VmError> {
        self.check_frame(f)?;
        Ok(&mut self.frames[f.0 as usize])
    }

    /// The queue a frame currently sits on, if any.
    pub fn queue_of(&self, f: FrameId) -> Result<Option<QueueId>, VmError> {
        self.check_frame(f)?;
        let q = self.links[f.0 as usize].queue;
        Ok((q != NONE).then_some(QueueId(q)))
    }

    /// Queue length.
    pub fn queue_len(&self, q: QueueId) -> Result<u64, VmError> {
        self.check_queue(q)?;
        Ok(self.queues[q.0 as usize].len)
    }

    /// True if the queue has no members.
    pub fn queue_is_empty(&self, q: QueueId) -> Result<bool, VmError> {
        Ok(self.queue_len(q)? == 0)
    }

    /// The frame at the head (front) of the queue.
    pub fn queue_head(&self, q: QueueId) -> Result<Option<FrameId>, VmError> {
        self.check_queue(q)?;
        Ok(self.iter_queue(q).next())
    }

    /// The frame at the tail (back) of the queue.
    pub fn queue_tail(&self, q: QueueId) -> Result<Option<FrameId>, VmError> {
        self.check_queue(q)?;
        // The latest pending touch on `q`, if any, is what settles last.
        let touched = self
            .pending
            .iter()
            .rev()
            .find(|f| self.links[f.0 as usize].queue == q.0);
        Ok(touched
            .copied()
            .or(frame_at(self.queues[q.0 as usize].tail)))
    }

    /// Appends `f` at the tail of `q`. Fails if `f` is on any queue.
    pub fn enqueue_tail(&mut self, q: QueueId, f: FrameId) -> Result<(), VmError> {
        self.settle();
        self.check_enqueue(q, f)?;
        self.link_tail(q.0, f.0);
        self.joined(q.0);
        Ok(())
    }

    /// Inserts `f` at the head of `q`. Fails if `f` is on any queue.
    pub fn enqueue_head(&mut self, q: QueueId, f: FrameId) -> Result<(), VmError> {
        self.settle();
        self.check_enqueue(q, f)?;
        let meta = &mut self.queues[q.0 as usize];
        let old_head = meta.head;
        meta.head = f.0;
        if meta.tail == NONE {
            meta.tail = f.0;
        }
        meta.len += 1;
        self.links[f.0 as usize] = Link {
            prev: NONE,
            next: old_head,
            queue: q.0,
            mark: 0,
        };
        if old_head != NONE {
            self.links[old_head as usize].prev = f.0;
        }
        self.joined(q.0);
        Ok(())
    }

    fn check_enqueue(&self, q: QueueId, f: FrameId) -> Result<(), VmError> {
        self.check_frame(f)?;
        self.check_queue(q)?;
        if self.links[f.0 as usize].queue != NONE {
            return Err(VmError::FrameAlreadyQueued(f));
        }
        Ok(())
    }

    /// Removes and returns the head of `q` (oldest member), if any.
    pub fn dequeue_head(&mut self, q: QueueId) -> Result<Option<FrameId>, VmError> {
        self.settle();
        self.check_queue(q)?;
        let head = frame_at(self.queues[q.0 as usize].head);
        if let Some(f) = head {
            self.remove(f)?;
        }
        Ok(head)
    }

    /// Removes and returns the tail of `q` (newest member), if any.
    pub fn dequeue_tail(&mut self, q: QueueId) -> Result<Option<FrameId>, VmError> {
        self.settle();
        self.check_queue(q)?;
        let tail = frame_at(self.queues[q.0 as usize].tail);
        if let Some(f) = tail {
            self.remove(f)?;
        }
        Ok(tail)
    }

    /// Unlinks `f` from whatever queue it is on.
    pub fn remove(&mut self, f: FrameId) -> Result<(), VmError> {
        self.settle();
        self.check_frame(f)?;
        let q = self.links[f.0 as usize].queue;
        if q == NONE {
            return Err(VmError::FrameNotQueued(f));
        }
        self.unlink(f.0);
        if self.queues[q as usize].auto_recency {
            self.recency_members -= 1;
        }
        Ok(())
    }

    /// Records an access to `f`: sets the reference bit (and the modify bit
    /// for writes) and, if `f` sits on a recency-ordered queue, logs the
    /// move-to-tail for the next settle.
    #[inline]
    pub fn touch(&mut self, f: FrameId, write: bool) -> Result<(), VmError> {
        let frame = self
            .frames
            .get_mut(f.0 as usize)
            .ok_or(VmError::BadFrame(f))?;
        frame.ref_bit = true;
        if write {
            frame.mod_bit = true;
        }
        let q = self.links[f.0 as usize].queue;
        if q != NONE && self.queues[q as usize].auto_recency {
            // Always append, even when `f` looks like the tail: with
            // anything pending, `tail` is stale and settle decides.
            if self.pending.len() >= self.pending_limit() {
                self.compact();
            }
            // Within the capacity `joined` reserved: no allocation here.
            self.pending.push(f);
            self.links[f.0 as usize].mark = self.pending.len() as u32;
        }
        Ok(())
    }

    /// Iterates a queue from head to tail.
    pub fn iter_queue(&self, q: QueueId) -> QueueIter<'_> {
        QueueIter {
            table: self,
            queue: q.0,
            next: self.queues.get(q.0 as usize).map_or(NONE, |m| m.head),
            log_pos: 0,
        }
    }

    // --- Link surgery and the pending-touch log --------------------------

    fn link_tail(&mut self, q: u32, f: u32) {
        let meta = &mut self.queues[q as usize];
        let old_tail = meta.tail;
        meta.tail = f;
        if meta.head == NONE {
            meta.head = f;
        }
        meta.len += 1;
        self.links[f as usize] = Link {
            prev: old_tail,
            next: NONE,
            queue: q,
            mark: 0,
        };
        if old_tail != NONE {
            self.links[old_tail as usize].next = f;
        }
    }

    fn unlink(&mut self, f: u32) {
        let link = self.links[f as usize];
        let meta = &mut self.queues[link.queue as usize];
        meta.len -= 1;
        match link.prev {
            NONE => meta.head = link.next,
            p => self.links[p as usize].next = link.next,
        }
        match link.next {
            NONE => self.queues[link.queue as usize].tail = link.prev,
            n => self.links[n as usize].prev = link.prev,
        }
        self.links[f as usize] = UNLINKED;
    }

    /// Log length at which `touch` compacts; `Link::mark` holds positions up
    /// to this, hence the clamp.
    fn pending_limit(&self) -> usize {
        (PENDING_PER_MEMBER * self.recency_members).min(u32::MAX as usize)
    }

    /// A frame joined `q`: if that is a recency queue, make room for its
    /// touches now so the hit path never allocates.
    fn joined(&mut self, q: u32) {
        if self.queues[q as usize].auto_recency {
            self.recency_members += 1;
            // `pending` is empty here (the caller settled).
            self.pending.reserve(self.pending_limit());
        }
    }

    /// Applies every pending touch: each touched frame moves to the tail of
    /// its queue, in the order of its *latest* touch (an earlier touch of the
    /// same frame is undone by the later one, so it is skipped).
    #[inline]
    fn settle(&mut self) {
        if !self.pending.is_empty() {
            self.settle_pending();
        }
    }

    #[inline(never)]
    fn settle_pending(&mut self) {
        for i in 0..self.pending.len() {
            let f = self.pending[i].0;
            let link = self.links[f as usize];
            if link.mark as usize == i + 1 {
                if self.queues[link.queue as usize].tail == f {
                    self.links[f as usize].mark = 0;
                } else {
                    self.unlink(f);
                    self.link_tail(link.queue, f);
                }
            }
        }
        self.pending.clear();
    }

    /// Drops every log entry that a later touch of the same frame supersedes.
    #[cold]
    fn compact(&mut self) {
        let mut kept = 0;
        for i in 0..self.pending.len() {
            let f = self.pending[i];
            let link = &mut self.links[f.0 as usize];
            if link.mark as usize == i + 1 {
                self.pending[kept] = f;
                kept += 1;
                link.mark = kept as u32;
            }
        }
        self.pending.truncate(kept);
    }
}

/// Head-to-tail iterator over one queue.
pub struct QueueIter<'a> {
    table: &'a FrameTable,
    queue: u32,
    next: u32,
    log_pos: usize,
}

impl Iterator for QueueIter<'_> {
    type Item = FrameId;

    fn next(&mut self) -> Option<FrameId> {
        // Members with no pending touch keep their linked order...
        while self.next != NONE {
            let cur = self.next;
            let link = &self.table.links[cur as usize];
            self.next = link.next;
            if link.mark == 0 {
                return Some(FrameId(cur));
            }
        }
        // ...then the touched ones follow, by latest touch.
        while let Some(&f) = self.table.pending.get(self.log_pos) {
            self.log_pos += 1;
            let link = &self.table.links[f.0 as usize];
            if link.queue == self.queue && link.mark as usize == self.log_pos {
                return Some(f);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: u32) -> FrameTable {
        FrameTable::new(n)
    }

    #[test]
    fn enqueue_dequeue_fifo_order() {
        let mut t = table(8);
        let q = t.new_queue(false);
        for i in 0..5 {
            t.enqueue_tail(q, FrameId(i)).expect("enqueue");
        }
        assert_eq!(t.queue_len(q).expect("len"), 5);
        let order: Vec<_> = std::iter::from_fn(|| t.dequeue_head(q).expect("dequeue"))
            .map(|f| f.0)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(t.queue_is_empty(q).expect("empty"));
    }

    #[test]
    fn enqueue_head_gives_lifo() {
        let mut t = table(8);
        let q = t.new_queue(false);
        for i in 0..3 {
            t.enqueue_head(q, FrameId(i)).expect("enqueue");
        }
        assert_eq!(t.queue_head(q).expect("head"), Some(FrameId(2)));
        assert_eq!(t.queue_tail(q).expect("tail"), Some(FrameId(0)));
        assert_eq!(t.dequeue_tail(q).expect("dequeue"), Some(FrameId(0)));
    }

    #[test]
    fn double_enqueue_is_rejected() {
        let mut t = table(4);
        let q1 = t.new_queue(false);
        let q2 = t.new_queue(false);
        t.enqueue_tail(q1, FrameId(0)).expect("first enqueue");
        assert_eq!(
            t.enqueue_tail(q2, FrameId(0)),
            Err(VmError::FrameAlreadyQueued(FrameId(0)))
        );
    }

    #[test]
    fn mid_queue_removal_relinks() {
        let mut t = table(8);
        let q = t.new_queue(false);
        for i in 0..5 {
            t.enqueue_tail(q, FrameId(i)).expect("enqueue");
        }
        t.remove(FrameId(2)).expect("remove middle");
        t.remove(FrameId(0)).expect("remove head");
        t.remove(FrameId(4)).expect("remove tail");
        let remaining: Vec<_> = t.iter_queue(q).map(|f| f.0).collect();
        assert_eq!(remaining, vec![1, 3]);
        assert_eq!(t.queue_len(q).expect("len"), 2);
        assert_eq!(
            t.remove(FrameId(2)),
            Err(VmError::FrameNotQueued(FrameId(2)))
        );
    }

    #[test]
    fn touch_sets_bits() {
        let mut t = table(2);
        t.touch(FrameId(0), false).expect("read touch");
        assert!(t.frame(FrameId(0)).expect("frame").ref_bit);
        assert!(!t.frame(FrameId(0)).expect("frame").mod_bit);
        t.touch(FrameId(0), true).expect("write touch");
        assert!(t.frame(FrameId(0)).expect("frame").mod_bit);
    }

    #[test]
    fn auto_recency_moves_to_tail() {
        let mut t = table(8);
        let q = t.new_queue(true);
        for i in 0..4 {
            t.enqueue_tail(q, FrameId(i)).expect("enqueue");
        }
        // Touch frame 1: it becomes most-recently-used (tail).
        t.touch(FrameId(1), false).expect("touch");
        let order: Vec<_> = t.iter_queue(q).map(|f| f.0).collect();
        assert_eq!(order, vec![0, 2, 3, 1]);
        // LRU victim is the head; MRU victim is the tail.
        assert_eq!(t.queue_head(q).expect("head"), Some(FrameId(0)));
        assert_eq!(t.queue_tail(q).expect("tail"), Some(FrameId(1)));
    }

    #[test]
    fn touching_the_apparent_tail_still_logs() {
        // With a touch pending, `tail` is stale: skipping the append for the
        // frame that *looks* like the tail would leave [B, A] here.
        let mut t = table(4);
        let q = t.new_queue(true);
        let (a, b) = (FrameId(0), FrameId(1));
        t.enqueue_tail(q, a).expect("enqueue");
        t.enqueue_tail(q, b).expect("enqueue");
        t.touch(a, false).expect("touch");
        t.touch(b, false).expect("touch");
        assert_eq!(t.iter_queue(q).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(t.queue_head(q), Ok(Some(a)));
        assert_eq!(t.queue_tail(q), Ok(Some(b)));
        assert_eq!(t.dequeue_head(q), Ok(Some(a)));
        assert_eq!(t.dequeue_head(q), Ok(Some(b)));
    }

    #[test]
    fn pending_touches_are_invisible_to_reads_and_settled_by_mutators() {
        let mut t = table(8);
        let lru = t.new_queue(true);
        let other = t.new_queue(true);
        for i in 0..4 {
            t.enqueue_tail(lru, FrameId(i)).expect("enqueue");
        }
        t.enqueue_tail(other, FrameId(4)).expect("enqueue");
        t.enqueue_tail(other, FrameId(5)).expect("enqueue");
        for f in [2, 4, 0, 2] {
            t.touch(FrameId(f), false).expect("touch");
        }
        assert_eq!(t.pending.len(), 4, "touches are logged, not applied");
        let order = |t: &FrameTable, q| t.iter_queue(q).map(|f| f.0).collect::<Vec<_>>();
        assert_eq!(order(&t, lru), vec![1, 3, 0, 2]);
        assert_eq!(order(&t, other), vec![5, 4]);
        assert_eq!(t.queue_head(lru), Ok(Some(FrameId(1))));
        assert_eq!(t.queue_tail(lru), Ok(Some(FrameId(2))));
        assert_eq!(t.queue_tail(other), Ok(Some(FrameId(4))));
        // Any link change settles every queue's pending touches first.
        t.enqueue_head(other, FrameId(6)).expect("enqueue");
        assert!(t.pending.is_empty());
        assert!(t.links.iter().all(|l| l.mark == 0));
        assert_eq!(order(&t, lru), vec![1, 3, 0, 2]);
        assert_eq!(order(&t, other), vec![6, 5, 4]);
    }

    #[test]
    fn a_full_log_compacts_to_latest_touches() {
        let mut t = table(4);
        let q = t.new_queue(true);
        for i in 0..3 {
            t.enqueue_tail(q, FrameId(i)).expect("enqueue");
        }
        let limit = t.pending_limit();
        assert_eq!(limit, 3 * PENDING_PER_MEMBER);
        let capacity = t.pending.capacity();
        assert!(capacity >= limit);
        let mut model = vec![0u32, 1, 2];
        for i in 0..10 * limit as u32 {
            let f = i * i % 3;
            t.touch(FrameId(f), false).expect("touch");
            model.retain(|&m| m != f);
            model.push(f);
            assert!(t.pending.len() <= limit);
            assert_eq!(t.iter_queue(q).map(|f| f.0).collect::<Vec<_>>(), model);
        }
        assert_eq!(
            t.pending.capacity(),
            capacity,
            "the hit path never grows it"
        );
        assert_eq!(t.dequeue_tail(q), Ok(model.pop().map(FrameId)));
        assert_eq!(t.dequeue_head(q), Ok(Some(FrameId(model[0]))));
    }

    #[test]
    fn non_recency_queue_does_not_reorder_on_touch() {
        let mut t = table(4);
        let q = t.new_queue(false);
        for i in 0..3 {
            t.enqueue_tail(q, FrameId(i)).expect("enqueue");
        }
        t.touch(FrameId(0), false).expect("touch");
        let order: Vec<_> = t.iter_queue(q).map(|f| f.0).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn bad_ids_are_rejected() {
        let mut t = table(2);
        let q = t.new_queue(false);
        assert_eq!(
            t.enqueue_tail(q, FrameId(9)),
            Err(VmError::BadFrame(FrameId(9)))
        );
        assert_eq!(t.queue_len(QueueId(7)), Err(VmError::BadQueue(7)));
        assert!(t.frame(FrameId(5)).is_err());
    }

    #[test]
    fn dequeue_from_empty_is_none() {
        let mut t = table(2);
        let q = t.new_queue(false);
        assert_eq!(t.dequeue_head(q).expect("ok"), None);
        assert_eq!(t.dequeue_tail(q).expect("ok"), None);
    }

    /// The eager table: every touch of a recency-queue member relinks at once.
    #[derive(Default)]
    struct Eager {
        queues: Vec<(bool, Vec<FrameId>)>,
        bits: Vec<(bool, bool)>,
    }

    impl Eager {
        fn frame(&self, f: FrameId) -> Result<(), VmError> {
            ((f.0 as usize) < self.bits.len())
                .then_some(())
                .ok_or(VmError::BadFrame(f))
        }

        fn queue(&self, q: QueueId) -> Result<usize, VmError> {
            ((q.0 as usize) < self.queues.len())
                .then_some(q.0 as usize)
                .ok_or(VmError::BadQueue(q.0))
        }

        fn queue_of(&self, f: FrameId) -> Option<usize> {
            self.queues.iter().position(|(_, m)| m.contains(&f))
        }

        fn enqueue(&mut self, q: QueueId, f: FrameId, head: bool) -> Result<(), VmError> {
            self.frame(f)?;
            let q = self.queue(q)?;
            if self.queue_of(f).is_some() {
                return Err(VmError::FrameAlreadyQueued(f));
            }
            let at = if head { 0 } else { self.queues[q].1.len() };
            self.queues[q].1.insert(at, f);
            Ok(())
        }

        fn dequeue(&mut self, q: QueueId, head: bool) -> Result<Option<FrameId>, VmError> {
            let q = self.queue(q)?;
            let members = &mut self.queues[q].1;
            Ok(match (members.is_empty(), head) {
                (true, _) => None,
                (false, true) => Some(members.remove(0)),
                (false, false) => members.pop(),
            })
        }

        fn remove(&mut self, f: FrameId) -> Result<(), VmError> {
            self.frame(f)?;
            let q = self.queue_of(f).ok_or(VmError::FrameNotQueued(f))?;
            self.queues[q].1.retain(|&m| m != f);
            Ok(())
        }

        fn touch(&mut self, f: FrameId, write: bool) -> Result<(), VmError> {
            self.frame(f)?;
            let bits = &mut self.bits[f.0 as usize];
            *bits = (true, bits.1 || write);
            if let Some(q) = self.queue_of(f).filter(|&q| self.queues[q].0) {
                self.queues[q].1.retain(|&m| m != f);
                self.queues[q].1.push(f);
            }
            Ok(())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Logged touches are indistinguishable from eager relinks through
        /// every public read and every `Result`, across compactions.
        #[test]
        fn lazy_touch_matches_the_eager_table(
            nframes in 1u32..7,
            ops in proptest::collection::vec((0u8..24, 0u32..8, 0u32..6, proptest::prelude::any::<bool>()), 1..400),
        ) {
            use proptest::{prop_assert, prop_assert_eq};

            let mut t = table(nframes);
            let mut eager = Eager { bits: vec![(false, false); nframes as usize], ..Eager::default() };
            for (kind, f, q, flag) in ops {
                let (f, q) = (FrameId(f), QueueId(q));
                match kind {
                    // Touches come in runs so the log fills between mutators.
                    0..=11 => {
                        let run = if kind < 6 { 1 } else { 8 * (q.0 + 1) };
                        for j in 0..run {
                            let f = FrameId((f.0 + j * (q.0 + 1)) % 8);
                            let logs = eager.queue_of(f).is_some_and(|q| eager.queues[q].0);
                            let full = logs && t.pending.len() >= t.pending_limit();
                            prop_assert_eq!(t.touch(f, flag), eager.touch(f, flag));
                            if full {
                                // It compacted to one entry per touched member, then logged.
                                prop_assert!(t.pending.len() <= t.recency_members + 1);
                            }
                        }
                    }
                    12 => prop_assert_eq!(t.enqueue_head(q, f), eager.enqueue(q, f, true)),
                    13 | 14 => prop_assert_eq!(t.enqueue_tail(q, f), eager.enqueue(q, f, false)),
                    15 => prop_assert_eq!(t.dequeue_head(q), eager.dequeue(q, true)),
                    16 => prop_assert_eq!(t.dequeue_tail(q), eager.dequeue(q, false)),
                    17 => prop_assert_eq!(t.remove(f), eager.remove(f)),
                    18 | 19 if eager.queues.len() < 5 => {
                        prop_assert_eq!(t.new_queue(flag).0 as usize, eager.queues.len());
                        eager.queues.push((flag, Vec::new()));
                    }
                    20 => {
                        let want = eager.queue(q).map(|q| eager.queues[q].1.first().copied());
                        prop_assert_eq!(t.queue_head(q), want);
                    }
                    21 => {
                        let want = eager.queue(q).map(|q| eager.queues[q].1.last().copied());
                        prop_assert_eq!(t.queue_tail(q), want);
                    }
                    22 => {
                        let want = eager.frame(f).map(|()| eager.queue_of(f).map(|q| QueueId(q as u32)));
                        prop_assert_eq!(t.queue_of(f), want);
                    }
                    _ => {
                        let want = eager.queue(q).map(|q| eager.queues[q].1.len() as u64);
                        prop_assert_eq!(t.queue_len(q), want);
                    }
                }
                if matches!(kind, 12..=17) {
                    prop_assert!(t.pending.is_empty(), "op {} left touches pending", kind);
                }
                prop_assert!(t.pending.len() <= t.pending_limit());
                // Every queue (and one id past the last) reads the same.
                for qi in 0..=eager.queues.len() {
                    let want = eager.queues.get(qi).map_or(&[][..], |(_, m)| m);
                    let got: Vec<FrameId> = t.iter_queue(QueueId(qi as u32)).collect();
                    prop_assert_eq!(&got[..], want);
                }
                for (i, &(ref_bit, mod_bit)) in eager.bits.iter().enumerate() {
                    let frame = &t.frames[i];
                    prop_assert_eq!((frame.ref_bit, frame.mod_bit), (ref_bit, mod_bit));
                }
            }
        }
    }
}
