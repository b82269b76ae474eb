//! The flat single-calendar reference engine: one [`EventQueue`] drained
//! against a world until it empties, a time horizon is reached, or an
//! event budget is exhausted.
//!
//! Test-only: a one-shard [`ShardedEngine`](crate::shard::ShardedEngine)
//! must reproduce it event for event (see the `shard` tests).

use crate::event::EventQueue;
use crate::shard::RunOutcome;
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
