//! The discrete-event core: a virtual clock and an event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time, in microseconds.
pub type Time = u64;

/// One microsecond.
pub const US: Time = 1;
/// One millisecond in microseconds.
pub const MS: Time = 1_000;
/// One second in microseconds.
pub const SEC: Time = 1_000_000;

/// A deferred simulation action, run when its instant arrives.
type EventFn = Box<dyn FnOnce(&mut crate::Sim)>;

pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<(Time, u64)>>,
    events: std::collections::HashMap<u64, EventFn>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue {
            heap: BinaryHeap::new(),
            events: std::collections::HashMap::new(),
            next_seq: 0,
        }
    }

    pub fn push(&mut self, at: Time, f: EventFn) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.events.insert(seq, f);
    }

    pub fn pop(&mut self) -> Option<(Time, EventFn)> {
        let Reverse((at, seq)) = self.heap.pop()?;
        // invariant: `push` stores a body under every sequence number it queues.
        let f = self.events.remove(&seq).expect("event body present");
        Some((at, f))
    }
}

#[cfg(test)]
mod tests {
    use crate::{NetConfig, NodeSpec, Sim};

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(&[NodeSpec::default()], NetConfig::default());
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for &delay in &[30u64, 10, 20] {
            let log = std::rc::Rc::clone(&log);
            sim.schedule(delay, move |sim| {
                log.borrow_mut().push((sim.now(), delay));
            });
        }
        sim.run();
        assert_eq!(&*log.borrow(), &[(10, 10), (20, 20), (30, 30)]);
    }

    #[test]
    fn same_time_events_fire_in_submission_order() {
        let mut sim = Sim::new(&[NodeSpec::default()], NetConfig::default());
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = std::rc::Rc::clone(&log);
            sim.schedule(100, move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(&*log.borrow(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_scheduling() {
        let mut sim = Sim::new(&[NodeSpec::default()], NetConfig::default());
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let l2 = std::rc::Rc::clone(&log);
        sim.schedule(5, move |sim| {
            l2.borrow_mut().push(sim.now());
            let l3 = std::rc::Rc::clone(&l2);
            sim.schedule(7, move |sim| l3.borrow_mut().push(sim.now()));
        });
        let end = sim.run();
        assert_eq!(&*log.borrow(), &[5, 12]);
        assert_eq!(end, 12);
    }

    #[test]
    fn clock_never_goes_backwards() {
        let mut sim = Sim::new(&[NodeSpec::default()], NetConfig::default());
        let last = std::rc::Rc::new(std::cell::Cell::new(0u64));
        for &d in &[50u64, 1, 99, 3, 3, 70] {
            let last = std::rc::Rc::clone(&last);
            sim.schedule(d, move |sim| {
                assert!(sim.now() >= last.get());
                last.set(sim.now());
            });
        }
        sim.run();
    }
}
