//! Test-only reference models for [`ShardedEngine::run`]:
//!
//! * [`Engine`], the flat single-calendar engine: one [`EventQueue`]
//!   drained against a world until it empties, a time horizon is reached,
//!   or an event budget is exhausted. A one-shard run must reproduce it
//!   event for event (see the `shard` tests).
//! * [`run_serial`], a serial multi-shard loop over a [`ShardedEngine`]'s
//!   calendars and mailboxes that pops one event at a time in the global
//!   (time, shard) order of the module contract in [`crate::shard`]. The
//!   epoch runner must match it bit for bit at every worker count (see the
//!   `parallel` tests).

use std::collections::BinaryHeap;

use crate::event::EventQueue;
use crate::shard::{MailEntry, RunOutcome, ShardId, ShardedEngine};
use crate::time::SimTime;

/// A process reacts to events of type `E`, mutating its own state and
/// scheduling follow-up events.
pub(crate) trait Process {
    /// The event type handled by this process.
    type Event;

    /// Handles `event` occurring at `now`. Follow-up events are scheduled on
    /// `queue`; scheduling in the past is a logic error and will panic inside
    /// [`Engine::run`].
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Discrete-event engine: a clock plus an event queue.
#[derive(Debug)]
pub(crate) struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    horizon: Option<SimTime>,
    max_events: Option<u64>,
    processed: u64,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`] and no limits.
    pub(crate) fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            horizon: None,
            max_events: None,
            processed: 0,
        }
    }

    /// Stops the run once the clock would advance past `horizon`.
    pub(crate) fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Stops the run after `max_events` events have been processed.
    pub(crate) fn with_event_budget(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Current simulated time.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub(crate) fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub(crate) fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        self.queue.schedule(at, event);
    }

    /// Runs the simulation until the queue drains or a limit is hit.
    pub(crate) fn run<P: Process<Event = E>>(&mut self, world: &mut P) -> RunOutcome {
        loop {
            if let Some(max) = self.max_events {
                if self.processed >= max {
                    return RunOutcome::BudgetExhausted;
                }
            }
            let Some(next_time) = self.queue.peek_time() else {
                return RunOutcome::Drained;
            };
            if let Some(h) = self.horizon {
                if next_time > h {
                    return RunOutcome::HorizonReached;
                }
            }
            let (at, event) = self.queue.pop().expect("peeked event must exist");
            debug_assert!(at >= self.now, "event queue produced a time in the past");
            self.now = at;
            self.processed += 1;
            world.handle(self.now, event, &mut self.queue);
        }
    }
}

/// A world partitioned across shards, driven by [`run_serial`].
pub(crate) trait ShardProcess {
    /// The event type handled by this process.
    type Event;

    /// Handles `event` firing on `shard` at `now`; follow-ups go through
    /// `ctx`.
    fn handle(
        &mut self,
        shard: ShardId,
        now: SimTime,
        event: Self::Event,
        ctx: &mut ShardSink<'_, Self::Event>,
    );
}

/// Scheduling surface of [`run_serial`]: the firing shard's calendar plus
/// every shard's mailbox.
pub(crate) struct ShardSink<'a, E> {
    shard: ShardId,
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    mailboxes: &'a mut [BinaryHeap<MailEntry<E>>],
    send_seq: &'a mut u64,
}

impl<E> ShardSink<'_, E> {
    /// Schedules `event` on the firing shard's own calendar.
    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        self.queue.schedule(at, event);
    }

    /// Sends `event` to shard `to`'s mailbox (or the own calendar).
    pub(crate) fn send(&mut self, to: ShardId, at: SimTime, event: E) {
        if to == self.shard {
            return self.schedule(at, event);
        }
        assert!(at >= self.now, "cannot send an event into the past");
        let seq = *self.send_seq;
        *self.send_seq += 1;
        self.mailboxes[to.0 as usize].push(MailEntry {
            at,
            from: self.shard,
            seq,
            event,
        });
    }
}

/// Runs `engine` serially until every calendar and mailbox drains or a
/// limit is hit, one pop at a time: the earliest event globally, the
/// lowest shard at equal times, and within a shard the local calendar
/// before the mailbox at equal times. The budget is checked before each
/// pop and the horizon against the next event's time.
pub(crate) fn run_serial<P: ShardProcess>(
    engine: &mut ShardedEngine<P::Event>,
    world: &mut P,
) -> RunOutcome {
    assert!(engine.serial.is_empty(), "the reference has no barriers");
    loop {
        if engine.max_events.is_some_and(|max| engine.processed >= max) {
            return RunOutcome::BudgetExhausted;
        }
        let mut next: Option<(SimTime, usize, bool)> = None;
        for s in 0..engine.queues.len() {
            let local = engine.queues[s].peek_time().map(|t| (t, false));
            let mail = engine.mailboxes[s].peek().map(|e| (e.at, true));
            let head = match (local, mail) {
                (Some(l), Some(m)) => Some(if m.0 < l.0 { m } else { l }),
                (head, None) | (None, head) => head,
            };
            if let Some((t, from_mail)) = head {
                if next.map_or(true, |(best, _, _)| t < best) {
                    next = Some((t, s, from_mail));
                }
            }
        }
        let Some((t, s, from_mail)) = next else {
            return RunOutcome::Drained;
        };
        if engine.horizon.is_some_and(|h| t > h) {
            return RunOutcome::HorizonReached;
        }
        let (at, event) = if from_mail {
            let entry = engine.mailboxes[s].pop().expect("peeked mail exists");
            (entry.at, entry.event)
        } else {
            engine.queues[s].pop().expect("peeked event exists")
        };
        engine.now = at;
        engine.processed += 1;
        let mut ctx = ShardSink {
            shard: ShardId(s as u32),
            now: at,
            queue: &mut engine.queues[s],
            mailboxes: &mut engine.mailboxes,
            send_seq: &mut engine.send_seqs[s],
        };
        world.handle(ShardId(s as u32), at, event, &mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    struct Pinger {
        count: u32,
        stop_at: u32,
        interval: SimDuration,
    }

    impl Process for Pinger {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.count += 1;
            if ev < self.stop_at {
                q.schedule(now + self.interval, ev + 1);
            }
        }
    }

    #[test]
    fn runs_to_completion() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::ZERO, 0);
        let mut world = Pinger {
            count: 0,
            stop_at: 9,
            interval: SimDuration::from_micros(1),
        };
        assert_eq!(engine.run(&mut world), RunOutcome::Drained);
        assert_eq!(world.count, 10);
        assert_eq!(engine.now(), SimTime::from_micros(9));
        assert_eq!(engine.processed(), 10);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut engine = Engine::new().with_horizon(SimTime::from_micros(3));
        engine.schedule(SimTime::ZERO, 0);
        let mut world = Pinger {
            count: 0,
            stop_at: 1_000,
            interval: SimDuration::from_micros(1),
        };
        assert_eq!(engine.run(&mut world), RunOutcome::HorizonReached);
        // Events at t=0,1,2,3 us were processed; the t=4 us event stayed queued.
        assert_eq!(world.count, 4);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn event_budget_stops_the_run() {
        let mut engine = Engine::new().with_event_budget(7);
        engine.schedule(SimTime::ZERO, 0);
        let mut world = Pinger {
            count: 0,
            stop_at: 1_000,
            interval: SimDuration::from_nanos(5),
        };
        assert_eq!(engine.run(&mut world), RunOutcome::BudgetExhausted);
        assert_eq!(world.count, 7);
    }

    #[test]
    fn run_outcome_displays() {
        assert_eq!(RunOutcome::Drained.to_string(), "drained");
        assert_eq!(RunOutcome::HorizonReached.to_string(), "horizon reached");
        assert_eq!(
            RunOutcome::BudgetExhausted.to_string(),
            "event budget exhausted"
        );
    }

    #[test]
    #[should_panic]
    fn scheduling_in_the_past_panics() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule(SimTime::from_nanos(10), 0);
        let mut world = Pinger {
            count: 0,
            stop_at: 0,
            interval: SimDuration::ZERO,
        };
        engine.run(&mut world);
        // Clock is now at 10 ns; scheduling at 5 ns must panic.
        engine.schedule(SimTime::from_nanos(5), 1);
    }
}
