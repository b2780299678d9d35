//! Pending-event queues for the replay engine.
//!
//! The engine schedules events in `(at, seq, item)` order: virtual time
//! first, then the strictly increasing issue sequence as the
//! deterministic tie-break. [`EventQueue`] abstracts the container so the
//! implementation stays differential-testable against a reference:
//!
//! * [`CalendarQueue`] — a calendar queue (Brown, CACM 1988): a wheel of
//!   time-bucketed slots plus a far-future overflow heap. Pushes land in
//!   their bucket unsorted (O(1)); only the bucket currently being
//!   drained is kept sorted, so the amortized cost per event is O(1) for
//!   the hold-model workloads a discrete-event simulation produces;
//! * the classic `BinaryHeap<Reverse<..>>`, O(log n) per operation — the
//!   reference, which lives with the tests (`HeapQueue` below and in
//!   `tests/proptest_equeue.rs`).
//!
//! Both yield the *exact same total order* — `(at, seq)` pairs are unique
//! within an engine — and both export the canonical ascending event list
//! used by the checkpoint format, so the calendar queue cannot perturb a
//! digest or a snapshot byte.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A pending-event container ordered by `(at, seq)`.
///
/// `(at, seq)` pairs must be unique (the engine's `seq` is strictly
/// increasing), so the order is total and implementation-independent.
pub trait EventQueue<T> {
    /// Inserts an item scheduled at virtual time `at`.
    fn push(&mut self, at: u64, seq: u64, item: T);
    /// Removes and returns the smallest `(at, seq)` entry.
    fn pop(&mut self) -> Option<(u64, u64, T)>;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// All pending entries, ascending by `(at, seq)` — the canonical
    /// encoding checkpoints serialize.
    fn to_sorted_vec(&self) -> Vec<(u64, u64, T)>
    where
        T: Clone;
}

/// Far-future overflow entry, ordered by `(at, seq)` only — the payload
/// never participates in comparisons, so `T` needs no `Ord`.
struct FarEntry<T>(u64, u64, T);

impl<T> PartialEq for FarEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0, self.1) == (other.0, other.1)
    }
}
impl<T> Eq for FarEntry<T> {}
impl<T> PartialOrd for FarEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for FarEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0, self.1).cmp(&(other.0, other.1))
    }
}

/// Initial and minimum number of wheel slots (power of two).
const MIN_SLOTS: usize = 64;
/// Maximum number of wheel slots.
const MAX_SLOTS: usize = 1 << 16;
/// Grow the wheel when occupancy exceeds this many items per slot.
const GROW_PER_SLOT: usize = 4;
/// Largest bucket width, µs; caps the rebuild arithmetic.
const MAX_WIDTH: u64 = 1 << 30;

/// A calendar queue: O(1) amortized push/pop under the hold model.
///
/// Invariants (with `cur` the bucket index `last popped at / width`):
/// * `cur_run` holds exactly the pending items of bucket `cur`, sorted;
/// * `wheel[b % nslots]` holds the items of bucket `b` for
///   `cur < b < cur + nslots` (at most one live bucket per slot, so slots
///   never mix epochs);
/// * `far` holds everything at `cur + nslots` buckets or later.
///
/// The wheel resizes by content (occupancy thresholds on `len`), which is
/// a pure function of the operation sequence — resizing can never
/// introduce nondeterminism.
pub struct CalendarQueue<T> {
    width: u64,
    nslots: usize,
    wheel: Vec<Vec<(u64, u64, T)>>,
    /// Items currently in `wheel` (excludes `cur_run` and `far`).
    wheel_count: usize,
    cur_bucket: u64,
    cur_run: VecDeque<(u64, u64, T)>,
    far: BinaryHeap<Reverse<FarEntry<T>>>,
    last_pop_at: u64,
    len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue {
            width: 256,
            nslots: MIN_SLOTS,
            wheel: (0..MIN_SLOTS).map(|_| Vec::new()).collect(),
            wheel_count: 0,
            cur_bucket: 0,
            cur_run: VecDeque::new(),
            far: BinaryHeap::new(),
            last_pop_at: 0,
            len: 0,
        }
    }

    /// Files one entry into `cur_run` / the wheel / the far heap according
    /// to its bucket. Does not touch `len`.
    fn place(&mut self, at: u64, seq: u64, item: T) {
        // A push earlier than the current bucket would mean time ran
        // backwards; the engine asserts `at >= now`, so clamping into the
        // current run preserves order for any input that obeys it.
        let b = (at / self.width).max(self.cur_bucket);
        if b == self.cur_bucket {
            let pos = self.cur_run.partition_point(|e| (e.0, e.1) < (at, seq));
            self.cur_run.insert(pos, (at, seq, item));
        } else if b - self.cur_bucket < self.nslots as u64 {
            self.wheel[(b % self.nslots as u64) as usize].push((at, seq, item));
            self.wheel_count += 1;
        } else {
            self.far.push(Reverse(FarEntry(at, seq, item)));
        }
    }

    /// Rebuilds the wheel with `nslots` slots and a width derived from the
    /// pending items' span. Content-preserving and purely a function of
    /// the queue's current state.
    fn rebuild(&mut self, nslots: usize) {
        let mut items: Vec<(u64, u64, T)> = Vec::with_capacity(self.len);
        items.extend(self.cur_run.drain(..));
        for slot in &mut self.wheel {
            items.append(slot);
        }
        while let Some(Reverse(FarEntry(at, seq, item))) = self.far.pop() {
            items.push((at, seq, item));
        }
        self.wheel_count = 0;
        self.nslots = nslots;
        self.wheel = (0..nslots).map(|_| Vec::new()).collect();
        if !items.is_empty() {
            let min = items.iter().map(|e| e.0).min().unwrap_or(0);
            let max = items.iter().map(|e| e.0).max().unwrap_or(0);
            self.width = ((max - min) / items.len() as u64).clamp(1, MAX_WIDTH);
        }
        self.cur_bucket = self.last_pop_at / self.width;
        for (at, seq, item) in items {
            self.place(at, seq, item);
        }
    }

    /// Moves far-heap entries that now fit the wheel's horizon in.
    fn drain_far_into_wheel(&mut self) {
        let horizon = self.cur_bucket + self.nslots as u64;
        while let Some(Reverse(FarEntry(at, _, _))) = self.far.peek() {
            if at / self.width >= horizon {
                break;
            }
            // edm-audit: allow(panic.expect, "peek on the line above proves the heap is non-empty")
            let Reverse(FarEntry(at, seq, item)) = self.far.pop().expect("peeked entry");
            self.place(at, seq, item);
        }
    }

    /// Loads the slot of `cur_bucket` into the sorted current run.
    fn load_current_slot(&mut self) {
        let slot = &mut self.wheel[(self.cur_bucket % self.nslots as u64) as usize];
        if slot.is_empty() {
            return;
        }
        let mut items = std::mem::take(slot);
        self.wheel_count -= items.len();
        items.sort_unstable_by_key(|a| (a.0, a.1));
        self.cur_run = items.into();
    }
}

impl<T> EventQueue<T> for CalendarQueue<T> {
    fn push(&mut self, at: u64, seq: u64, item: T) {
        self.place(at, seq, item);
        self.len += 1;
        if self.len > self.nslots * GROW_PER_SLOT && self.nslots < MAX_SLOTS {
            self.rebuild(self.nslots * 2);
        }
    }

    fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(e) = self.cur_run.pop_front() {
                self.len -= 1;
                self.last_pop_at = e.0;
                if self.len * 8 < self.nslots && self.nslots > MIN_SLOTS {
                    self.rebuild(self.nslots / 2);
                }
                return Some(e);
            }
            if self.wheel_count == 0 {
                // Nothing inside the horizon: jump straight to the far
                // heap's minimum instead of sweeping empty slots.
                // edm-audit: allow(panic.expect, "len > 0 with empty run and wheel implies a far entry")
                let Reverse(FarEntry(at, _, _)) = self.far.peek().expect("pending far entry");
                self.cur_bucket = at / self.width;
            } else {
                self.cur_bucket += 1;
            }
            self.drain_far_into_wheel();
            self.load_current_slot();
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn to_sorted_vec(&self) -> Vec<(u64, u64, T)>
    where
        T: Clone,
    {
        let mut v: Vec<(u64, u64, T)> = Vec::with_capacity(self.len);
        v.extend(self.cur_run.iter().cloned());
        for slot in &self.wheel {
            v.extend(slot.iter().cloned());
        }
        v.extend(
            self.far
                .iter()
                .map(|Reverse(FarEntry(at, seq, item))| (*at, *seq, item.clone())),
        );
        v.sort_unstable_by_key(|a| (a.0, a.1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference implementation: a plain binary min-heap.
    #[derive(Debug, Default)]
    struct HeapQueue<T: Ord> {
        heap: BinaryHeap<Reverse<(u64, u64, T)>>,
    }

    impl<T: Ord> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
            }
        }
    }

    impl<T: Ord> EventQueue<T> for HeapQueue<T> {
        fn push(&mut self, at: u64, seq: u64, item: T) {
            self.heap.push(Reverse((at, seq, item)));
        }
        fn pop(&mut self) -> Option<(u64, u64, T)> {
            self.heap.pop().map(|Reverse(t)| t)
        }
        fn len(&self) -> usize {
            self.heap.len()
        }
        fn to_sorted_vec(&self) -> Vec<(u64, u64, T)>
        where
            T: Clone,
        {
            let mut v: Vec<(u64, u64, T)> = self.heap.iter().map(|Reverse(t)| t.clone()).collect();
            v.sort_unstable_by_key(|a| (a.0, a.1));
            v
        }
    }

    /// Deterministic pseudo-random stream for exercising both queues.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    fn drain_all<Q: EventQueue<u32>>(q: &mut Q) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn empty_queues_pop_none() {
        assert_eq!(HeapQueue::<u32>::new().pop(), None);
        assert!(CalendarQueue::<u32>::new().pop().is_none());
        assert!(CalendarQueue::<u32>::new().is_empty());
    }

    #[test]
    fn same_time_orders_by_seq() {
        let mut q = CalendarQueue::new();
        q.push(100, 3, 30u32);
        q.push(100, 1, 10);
        q.push(100, 2, 20);
        assert_eq!(
            drain_all(&mut q),
            vec![(100, 1, 10), (100, 2, 20), (100, 3, 30)]
        );
    }

    #[test]
    fn hold_model_matches_heap() {
        // The engine's dominant pattern: pop one, push a successor a
        // short (pseudo-random) delta later, with occasional far-future
        // ticks thrown in.
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut rng = Lcg(7);
        let mut seq = 0u64;
        for i in 0..512u64 {
            seq += 1;
            cal.push(i, seq, i as u32);
            heap.push(i, seq, i as u32);
        }
        let mut now = 0u64;
        for step in 0..20_000u32 {
            let a = cal.pop().unwrap();
            let b = heap.pop().unwrap();
            assert_eq!(a, b, "diverged at step {step}");
            assert!(a.0 >= now, "time went backwards");
            now = a.0;
            seq += 1;
            let delta = if step % 997 == 0 {
                60_000_000 // far-future wear tick
            } else {
                rng.next() % 2000
            };
            cal.push(now + delta, seq, step);
            heap.push(now + delta, seq, step);
            assert_eq!(cal.len(), heap.len());
        }
        assert_eq!(drain_all(&mut cal), drain_all(&mut heap));
    }

    #[test]
    fn burst_then_sparse_resizes_without_reordering() {
        // Grow past several rebuilds, then drain down through shrink
        // rebuilds; order must stay exact throughout.
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut rng = Lcg(99);
        for seq in 0..5000u64 {
            let at = rng.next() % 1_000_000;
            cal.push(at, seq, seq as u32);
            heap.push(at, seq, seq as u32);
        }
        assert_eq!(drain_all(&mut cal), drain_all(&mut heap));
    }

    #[test]
    fn all_events_at_one_instant() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for seq in 0..300u64 {
            cal.push(42, seq, seq as u32);
            heap.push(42, seq, seq as u32);
        }
        // Width collapses to 1 on rebuild; a far tick must still surface
        // in order via the empty-wheel jump.
        cal.push(100_000_000, 1000, 7);
        heap.push(100_000_000, 1000, 7);
        assert_eq!(drain_all(&mut cal), drain_all(&mut heap));
    }

    #[test]
    fn sorted_export_matches_heap_export() {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut rng = Lcg(3);
        for seq in 0..700u64 {
            let at = rng.next() % 500_000;
            cal.push(at, seq, (seq % 91) as u32);
            heap.push(at, seq, (seq % 91) as u32);
        }
        // Interleave some pops so the export covers run/wheel/far state.
        for _ in 0..123 {
            assert_eq!(cal.pop(), heap.pop());
        }
        assert_eq!(cal.to_sorted_vec(), heap.to_sorted_vec());
    }

    #[test]
    fn export_then_rebuild_is_lossless() {
        // A queue reconstructed from its canonical export (the checkpoint
        // path) pops the same sequence as the original.
        let mut cal = CalendarQueue::new();
        let mut rng = Lcg(11);
        for seq in 0..400u64 {
            cal.push(rng.next() % 100_000, seq, seq as u32);
        }
        for _ in 0..57 {
            cal.pop();
        }
        let exported = cal.to_sorted_vec();
        let mut rebuilt = CalendarQueue::new();
        for &(at, seq, item) in &exported {
            rebuilt.push(at, seq, item);
        }
        assert_eq!(rebuilt.len(), cal.len());
        assert_eq!(drain_all(&mut rebuilt), drain_all(&mut cal));
    }
}
