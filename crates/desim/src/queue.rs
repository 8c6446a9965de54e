//! Pending-event set: a binary-heap priority queue of timestamped events
//! (`O(log n)` insert/extract).
//!
//! It is deterministic: events with equal timestamps dequeue in insertion
//! order (FIFO tie-break), which the simulator relies on for reproducibility.

use crate::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct HeapEntry<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) yields the *smallest*
        // (time, seq) first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Binary-heap pending-event set keyed by `(time, insertion sequence)`:
/// FIFO tie-breaking among equal timestamps.
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }
}

impl<E: crate::snap::Snap> BinaryHeapQueue<E> {
    /// Serializes the pending set for a checkpoint.
    ///
    /// Entries are written sorted by `(time, seq)` with their original
    /// sequence numbers, so a restored heap pops in exactly the same order
    /// and later inserts continue the same FIFO tie-break sequence.
    pub fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        let mut entries: Vec<&HeapEntry<E>> = self.heap.iter().collect();
        entries.sort_by_key(|e| (e.time, e.seq));
        w.usize(entries.len());
        for e in entries {
            w.u64(e.time);
            w.u64(e.seq);
            e.event.save(w);
        }
        w.u64(self.next_seq);
    }

    /// Rebuilds the pending set from a checkpoint, replacing any contents.
    pub fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        let n = r.len_at_most(1 << 30, "BinaryHeapQueue")?;
        let mut heap = BinaryHeap::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let time = r.u64()?;
            let seq = r.u64()?;
            let event = E::load(r)?;
            heap.push(HeapEntry { time, seq, event });
        }
        self.next_seq = r.u64()?;
        self.heap = heap;
        Ok(())
    }
}

impl<E> BinaryHeapQueue<E> {
    /// Inserts `event` at absolute time `time`.
    pub fn insert(&mut self, time: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_basic_order() {
        let mut q = BinaryHeapQueue::new();
        q.insert(10, 1);
        q.insert(5, 2);
        q.insert(10, 3);
        q.insert(0, 4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(0));
        assert_eq!(q.pop(), Some((0, 4)));
        assert_eq!(q.pop(), Some((5, 2)));
        // FIFO among equal timestamps.
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((10, 3)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn heap_with_capacity() {
        let mut q: BinaryHeapQueue<u8> = BinaryHeapQueue::with_capacity(16);
        q.insert(1, 7);
        assert_eq!(q.pop(), Some((1, 7)));
    }

    /// The heap must agree with a reference model on random workloads.
    #[test]
    fn heap_agrees_with_reference() {
        let mut heap = BinaryHeapQueue::new();
        let mut reference: Vec<(Cycle, u64, u32)> = Vec::new();
        let mut seq = 0u64;
        // Simple LCG so the test is deterministic without rand.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut now = 0;
        for round in 0..2000u32 {
            let r = next();
            if r % 3 != 0 {
                let t = now + (r % 50) as Cycle;
                heap.insert(t, round);
                reference.push((t, seq, round));
                seq += 1;
            } else {
                let expect = {
                    reference
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (t, s, _))| (*t, *s))
                        .map(|(i, _)| i)
                };
                match expect {
                    Some(i) => {
                        let (t, _, v) = reference.remove(i);
                        now = now.max(t);
                        assert_eq!(heap.pop(), Some((t, v)), "heap mismatch");
                    }
                    None => {
                        assert_eq!(heap.pop(), None);
                    }
                }
            }
        }
        // Drain the rest.
        while !reference.is_empty() {
            let i = reference
                .iter()
                .enumerate()
                .min_by_key(|(_, (t, s, _))| (*t, *s))
                .map(|(i, _)| i)
                .unwrap();
            let (t, _, v) = reference.remove(i);
            assert_eq!(heap.pop(), Some((t, v)));
        }
        assert!(heap.is_empty());
    }
}
