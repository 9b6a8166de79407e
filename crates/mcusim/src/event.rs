//! A deterministic discrete-event queue.

use std::collections::VecDeque;

use crate::time::Cycles;

/// A queue of timestamped events that drains in time order, ties in
/// push order.
///
/// The events are kept sorted in drain order: a push inserts behind
/// every pending event at the same or an earlier instant. FIFO among
/// ties therefore holds across any interleaving of pushes and pops, a
/// `clone` drains exactly like the original, and hashing the queue
/// walks the pending events in drain order. A simulator that snapshots
/// and resumes its event queue relies on this: a resumed run that
/// pushes the same same-instant events in the same order drains them
/// exactly as the capturing run did.
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::{Cycles, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycles::new(20), "late");
/// q.push(Cycles::new(10), "early");
/// q.push(Cycles::new(10), "early-second");
/// assert_eq!(q.pop(), Some((Cycles::new(10), "early")));
/// assert_eq!(q.pop(), Some((Cycles::new(10), "early-second")));
/// assert_eq!(q.pop(), Some((Cycles::new(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone, Hash)]
pub struct EventQueue<T> {
    events: VecDeque<(Cycles, T)>,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            events: VecDeque::new(),
        }
    }

    /// Schedules `payload` at `time`, behind every pending event at the
    /// same or an earlier instant.
    pub fn push(&mut self, time: Cycles, payload: T) {
        let at = self.events.partition_point(|&(t, _)| t <= time);
        self.events.insert(at, (time, payload));
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(Cycles, T)> {
        self.events.pop_front()
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.events.front().map(|&(t, _)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether any pending event at exactly `time` satisfies `pred`.
    /// Scans the pending events up to the first one after `time`,
    /// without allocating.
    pub fn any_at(&self, time: Cycles, mut pred: impl FnMut(&T) -> bool) -> bool {
        self.events
            .iter()
            .take_while(|&&(t, _)| t <= time)
            .any(|(t, e)| *t == time && pred(e))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 1, 9, 3] {
            q.push(Cycles::new(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 3, 5, 9]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(Cycles::new(7), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(10), 'a');
        q.push(Cycles::new(30), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(Cycles::new(20), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }

    /// Same-instant FIFO survives pops in between: an event pushed at
    /// time `t` *after* earlier `t`-events were already drained must
    /// still pop after any `t`-event pushed before it that remains.
    #[test]
    fn same_instant_fifo_survives_interleaved_pops() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(5), "first");
        q.push(Cycles::new(5), "second");
        assert_eq!(q.pop().unwrap().1, "first");
        // New same-instant arrivals rank behind the survivor.
        q.push(Cycles::new(5), "third");
        q.push(Cycles::new(5), "fourth");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
        assert_eq!(q.pop().unwrap().1, "fourth");
    }

    /// A cloned queue drains in exactly the order of the original.
    #[test]
    fn clone_drains_identically() {
        let mut q = EventQueue::new();
        for (i, &t) in [4u64, 2, 4, 2, 9, 4, 2].iter().enumerate() {
            q.push(Cycles::new(t), i);
        }
        let mut c = q.clone();
        while let Some(orig) = q.pop() {
            assert_eq!(c.pop(), Some(orig));
        }
        assert_eq!(c.pop(), None);
    }

    /// `any_at` must see exactly the events pending at the probed
    /// instant, and nothing at other instants.
    #[test]
    fn any_at_scans_only_the_probed_instant() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(5), "a");
        q.push(Cycles::new(7), "b");
        q.push(Cycles::new(5), "c");
        assert!(q.any_at(Cycles::new(5), |&v| v == "c"));
        assert!(q.any_at(Cycles::new(7), |&v| v == "b"));
        assert!(!q.any_at(Cycles::new(5), |&v| v == "b"));
        assert!(!q.any_at(Cycles::new(6), |_| true));
        q.pop();
        // Popped events are no longer visible.
        assert!(!q.any_at(Cycles::new(5), |&v| v == "a"));
        assert!(q.any_at(Cycles::new(5), |&v| v == "c"));
    }

    /// Differential check against a stable-sort reference model: for a
    /// deterministic pseudo-random workload with heavy timestamp
    /// collisions, the queue must drain in exactly the order a stable
    /// sort by time would produce (stability = insertion order).
    #[test]
    fn drains_like_a_stable_sort() {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        // xorshift64 keeps this reproducible without external RNG deps.
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let t = state % 16; // few distinct instants => many ties
            q.push(Cycles::new(t), i);
            reference.push((t, i));
        }
        reference.sort_by_key(|&(t, _)| t); // sort_by_key is stable
        for &(t, i) in &reference {
            assert_eq!(q.pop(), Some((Cycles::new(t), i)));
        }
        assert!(q.is_empty());
    }
}
