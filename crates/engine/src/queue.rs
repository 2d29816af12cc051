//! A deterministic event queue backed by a free-list slab.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ovlsim_core::Time;

/// The heap key is deliberately 16 bytes (`time`, `seq`, `slot`) so that
/// sift-up/sift-down moves stay within one or two cache lines; ordering is
/// by `(time, seq)` — `seq` is a monotone schedule counter, giving FIFO
/// delivery at equal times. `slot` never influences the order (seqs are
/// unique); it rides along to locate the payload.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
struct HeapKey {
    time: Time,
    seq: u32,
    slot: u32,
}

/// A time-ordered event queue with deterministic tie-breaking.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (FIFO), which makes whole-simulation results independent
/// of heap internals.
///
/// # Memory model
///
/// Event payloads live in a free-list slab: a slot is recycled as soon as
/// its event is popped, so payload memory is bounded by the *peak number
/// of simultaneously pending events*, not by the total number of events
/// ever scheduled ([`EventQueue::slot_capacity`] reports the high-water
/// mark).
///
/// # Cost model
///
/// [`schedule`](EventQueue::schedule) and [`pop`](EventQueue::pop) are
/// `O(log n)` heap operations; [`peek_time`](EventQueue::peek_time) is
/// `O(1)`.
///
/// # Example
///
/// ```
/// use ovlsim_core::Time;
/// use ovlsim_engine::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_ns(10), 'a');
/// q.schedule(Time::from_ns(10), 'b');
/// q.schedule(Time::from_ns(5), 'c');
/// assert_eq!(q.peek_time(), Some(Time::from_ns(5)));
/// assert_eq!(q.pop(), Some((Time::from_ns(5), 'c')));
/// assert_eq!(q.pop(), Some((Time::from_ns(10), 'a')));
/// assert_eq!(q.pop(), Some((Time::from_ns(10), 'b')));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<HeapKey>>,
    /// Payload slab; `None` marks a vacant (popped) slot.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    next_seq: u32,
    now: Time,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of slab slots ever allocated: the high-water mark of
    /// simultaneously pending events (popped slots are recycled, so this
    /// does *not* grow with total events scheduled).
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time (an event
    /// in the past indicates a logic error in the caller), or if more than
    /// `u32::MAX` events are scheduled without the queue ever draining (the
    /// FIFO tie-break counter resets whenever the queue empties).
    pub fn schedule(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({} < now {})",
            at,
            self.now
        );
        if self.heap.is_empty() {
            // No key can coexist with the new one, so FIFO order restarts.
            self.next_seq = 0;
        }
        let seq = self.next_seq;
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("more than u32::MAX events scheduled without a drain");
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab slots fit in u32");
                self.slots.push(Some(event));
                slot
            }
        };
        self.heap.push(Reverse(HeapKey {
            time: at,
            seq,
            slot,
        }));
    }

    /// Removes and returns the earliest event, advancing `now`.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(key) = self.heap.pop()?;
        let event = self.slots[key.slot as usize]
            .take()
            .expect("every heap key owns an occupied slot");
        self.free.push(key.slot);
        self.now = key.time;
        Some((key.time, event))
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(key)| key.time)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(30), 3);
        q.schedule(Time::from_ns(10), 1);
        q.schedule(Time::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Time::from_ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_order_survives_slot_recycling() {
        // Recycled slots get fresh seqs: an event scheduled later but into
        // a lower slot index must still be delivered later at equal times.
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(5), 0);
        q.schedule(Time::from_ns(5), 1);
        q.schedule(Time::from_ns(5), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(5), 0))); // frees slot 0
        q.schedule(Time::from_ns(5), 3); // recycles slot 0, scheduled last
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn slab_memory_is_bounded_by_live_events() {
        // Schedule/pop one million events through a queue that never holds
        // more than `width` at once: the slab must stay at `width` slots.
        let width = 8;
        let mut q = EventQueue::new();
        let mut t = 0;
        for i in 0..width {
            q.schedule(Time::from_ns(i), i);
        }
        for i in 0..1_000_000u64 {
            let (at, _) = q.pop().expect("queue stays primed");
            t = t.max(at.as_ps());
            q.schedule(Time::from_ps(t + 1 + (i % 7)), i);
        }
        assert_eq!(q.len(), width as usize);
        assert!(
            q.slot_capacity() <= width as usize + 1,
            "slab grew to {} slots for {} live events",
            q.slot_capacity(),
            width
        );
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_ns(7));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(10), ());
        q.pop();
        q.schedule(Time::from_ns(5), ());
    }

    #[test]
    fn peek_is_read_only() {
        // peek_time takes &self and reports the head without consuming it.
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(2), 'b');
        q.schedule(Time::from_ns(1), 'a');
        let r = &q;
        assert_eq!(r.peek_time(), Some(Time::from_ns(1)));
        assert_eq!(r.peek_time(), Some(Time::from_ns(1)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(1), 'a')));
        assert_eq!(q.pop(), Some((Time::from_ns(2), 'b')));
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(10), 1);
        let (t, _) = q.pop().unwrap();
        q.schedule(t + Time::from_ns(5), 2);
        q.schedule(t + Time::from_ns(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn heap_key_is_16_bytes() {
        assert_eq!(std::mem::size_of::<HeapKey>(), 16);
    }
}
