//! Shard-partitioned event calendars with a deterministic cross-shard
//! mailbox.
//!
//! A [`ShardedEngine`] holds one event calendar per *shard* — a rack in the
//! dReDBox scenarios; a single-rack replay is one shard. Its one run loop,
//! [`ShardedEngine::run`] (see [`crate::parallel`]), drives a
//! [`ParallelWorld`] torn into one [`WorldWorker`] per shard through
//! conservative epochs on any number of worker threads.
//!
//! # Ordering contract
//!
//! The engine extends the [`EventQueue`](crate::event::EventQueue)
//! contract of (time, seq) FIFO tie-breaking to (time, shard, seq):
//!
//! 1. **Within a shard**, locally scheduled events fire in (time, local
//!    seq) order — exactly the single-engine contract.
//! 2. **Across shards**, each worker owns its shard's state, so the order
//!    of equal-time events on different shards is unobservable — except
//!    where a binding event budget cuts the run, which then single-steps
//!    the global order: earliest time first, the lowest shard id at equal
//!    times.
//! 3. **Cross-shard sends** land in the destination shard's mailbox, a
//!    min-heap ordered by (arrival time, source shard, send seq). At equal
//!    arrival times a shard fires its *local* events before its mailbox
//!    arrivals, and mailbox arrivals fire in (source shard, send seq)
//!    order — independent of the wall-clock order the sends were issued
//!    in. This is what keeps a sharded replay bit-deterministic: the merge
//!    is a pure function of timestamps and ids, never of execution
//!    interleaving.
//!
//! With a single shard, the run is *bit-identical* to a flat
//! single-calendar engine on the same trace: same pops, same clock, same
//! [`RunOutcome`] (the tests compare against such a reference engine).
//!
//! ```
//! use dredbox_sim::prelude::*;
//!
//! /// A token bounces between two racks until it has hopped 6 times;
//! /// each rack counts the hops it saw.
//! struct PingPong { seen: Vec<u32> }
//! struct Rack { seen: u32 }
//!
//! impl WorldWorker for Rack {
//!     type Event = u32;
//!     fn handle(&mut self, shard: ShardId, now: SimTime, hop: u32,
//!               ctx: &mut WorkerContext<'_, u32>) {
//!         self.seen += 1;
//!         if hop < 6 {
//!             let to = ShardId((shard.0 + 1) % 2);
//!             ctx.send(to, now + SimDuration::from_micros(1), hop + 1);
//!         }
//!     }
//! }
//!
//! impl ParallelWorld for PingPong {
//!     type Event = u32;
//!     type Worker = Rack;
//!     fn split(&mut self, _shards: usize) -> Vec<Rack> {
//!         self.seen.iter().map(|&seen| Rack { seen }).collect()
//!     }
//!     fn reunite(&mut self, racks: Vec<Rack>) {
//!         self.seen = racks.into_iter().map(|rack| rack.seen).collect();
//!     }
//!     /// A hop takes one microsecond: the lookahead every shard gets.
//!     fn latency(&self, _from: ShardId, _to: ShardId) -> Option<SimDuration> {
//!         Some(SimDuration::from_micros(1))
//!     }
//!     fn handle_serial(&mut self, _: ShardId, _: SimTime, _: u32,
//!                      _: &mut SerialContext<'_, u32>) {
//!         unreachable!("the token never needs the whole world")
//!     }
//! }
//!
//! for threads in [1, 2] {
//!     let mut engine = ShardedEngine::new(2);
//!     engine.schedule(ShardId(0), SimTime::ZERO, 1);
//!     let mut world = PingPong { seen: vec![0, 0] };
//!     assert_eq!(engine.run(&mut world, threads), RunOutcome::Drained);
//!     assert_eq!(world.seen, vec![3, 3]);
//!     assert_eq!(engine.processed(), 6);
//!     assert_eq!(engine.now(), SimTime::from_micros(5));
//! }
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::event::EventQueue;
use crate::time::SimTime;

pub use crate::parallel::{ParallelWorld, SerialContext, WorkerContext, WorldWorker};

/// Why a [`ShardedEngine`] run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RunOutcome {
    /// Every calendar and mailbox drained completely.
    Drained,
    /// The time horizon was reached before the calendars drained.
    HorizonReached,
    /// The event budget was exhausted before the calendars drained.
    BudgetExhausted,
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RunOutcome::Drained => "drained",
            RunOutcome::HorizonReached => "horizon reached",
            RunOutcome::BudgetExhausted => "event budget exhausted",
        })
    }
}

/// Identifies one shard (one per-rack event domain) of a [`ShardedEngine`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ShardId(pub u32);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// A cross-shard event waiting in a destination mailbox.
#[derive(Debug, Clone)]
pub(crate) struct MailEntry<E> {
    pub(crate) at: SimTime,
    pub(crate) from: ShardId,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> MailEntry<E> {
    /// Packs (arrival time, source shard, send seq) into one integer so
    /// the merge comparison is branchless: time in the high 64 bits, then
    /// 16 bits of source shard, then the low 48 bits of the send seq.
    /// [`ShardedEngine::new`] caps shards at 2^16 and a 48-bit per-source
    /// send count is beyond any feasible run, so the packing is lossless
    /// in practice; both bounds are debug-asserted at the send site.
    fn merge_key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64)
            | (u128::from(self.from.0) << 48)
            | u128::from(self.seq & ((1 << 48) - 1))
    }
}

impl<E> PartialEq for MailEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.merge_key() == other.merge_key()
    }
}
impl<E> Eq for MailEntry<E> {}

impl<E> PartialOrd for MailEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for MailEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted into the (time, source shard, send seq) merge
        // order of the module contract.
        other.merge_key().cmp(&self.merge_key())
    }
}

/// A serial event: executes at an epoch barrier of
/// [`ShardedEngine::run`] with exclusive access to the whole
/// world, ordered by (time, shard, seq) against its peers.
#[derive(Debug, Clone)]
pub(crate) struct SerialEntry<E> {
    pub(crate) at: SimTime,
    pub(crate) shard: ShardId,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for SerialEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.shard == other.shard && self.seq == other.seq
    }
}
impl<E> Eq for SerialEntry<E> {}

impl<E> PartialOrd for SerialEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for SerialEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted into (time, shard, insertion seq) order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.shard.cmp(&self.shard))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Discrete-event engine with one calendar per shard and deterministic
/// cross-shard mailboxes. See the module docs for the ordering contract
/// and [`ShardedEngine::run`] for the run semantics (horizon, event
/// budget, outcomes).
#[derive(Debug)]
pub struct ShardedEngine<E> {
    pub(crate) now: SimTime,
    pub(crate) queues: Vec<EventQueue<E>>,
    pub(crate) mailboxes: Vec<BinaryHeap<MailEntry<E>>>,
    /// One send counter per *source* shard. The mailbox merge key is
    /// (arrival time, source shard, send seq): entries that tie on the
    /// first two components necessarily share a source, and a per-source
    /// counter is monotone in that source's send order, so the merge is
    /// bit-identical to the former global counter — and, unlike a global
    /// counter, each worker thread owns its own.
    pub(crate) send_seqs: Vec<u64>,
    /// Barrier-executed events, ordered (time, shard, seq) across the whole engine.
    pub(crate) serial: BinaryHeap<SerialEntry<E>>,
    pub(crate) serial_seq: u64,
    pub(crate) horizon: Option<SimTime>,
    pub(crate) max_events: Option<u64>,
    pub(crate) processed: u64,
}

impl<E> ShardedEngine<E> {
    /// Creates an engine with `shards` event domains, the clock at
    /// [`SimTime::ZERO`] and no limits.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        assert!(
            shards <= 1 << 16,
            "the mailbox merge key packs the source shard into 16 bits"
        );
        ShardedEngine {
            now: SimTime::ZERO,
            queues: (0..shards).map(|_| EventQueue::new()).collect(),
            mailboxes: (0..shards).map(|_| BinaryHeap::new()).collect(),
            send_seqs: vec![0; shards],
            serial: BinaryHeap::new(),
            serial_seq: 0,
            horizon: None,
            max_events: None,
            processed: 0,
        }
    }

    /// Stops the run once the clock would advance past `horizon`.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Stops the run after `max_events` events have been processed.
    pub fn with_event_budget(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.queues.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far, across all shards.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events across all calendars, mailboxes and the
    /// serial barrier queue.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(EventQueue::len).sum::<usize>()
            + self.mailboxes.iter().map(BinaryHeap::len).sum::<usize>()
            + self.serial.len()
    }

    /// Schedules `event` on `shard`'s calendar at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock or `shard` is out
    /// of range.
    pub fn schedule(&mut self, shard: ShardId, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        self.queues
            .get_mut(shard.0 as usize)
            .unwrap_or_else(|| panic!("{shard} is not a shard of this engine"))
            .schedule(at, event);
    }

    /// Schedules a *serial* event at absolute time `at`, attributed to
    /// `shard` for (time, shard, seq) ordering. Serial events execute at
    /// the epoch barriers of [`ShardedEngine::run`] with exclusive access
    /// to the whole world.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock or `shard` is out
    /// of range.
    pub fn schedule_serial(&mut self, shard: ShardId, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        assert!(
            (shard.0 as usize) < self.queues.len(),
            "{shard} is not a shard of this engine"
        );
        self.push_serial(shard, at, event);
    }

    /// Queues a serial event behind every earlier-queued one with the same
    /// (time, shard).
    pub(crate) fn push_serial(&mut self, shard: ShardId, at: SimTime, event: E) {
        let seq = self.serial_seq;
        self.serial_seq += 1;
        self.serial.push(SerialEntry {
            at,
            shard,
            seq,
            event,
        });
    }
}

#[cfg(test)]
mod tests {
    use std::mem;

    use super::*;
    use crate::engine::{Engine, Process};
    use crate::parallel::{ParallelWorld, SerialContext, WorkerContext, WorldWorker};
    use crate::time::SimDuration;

    /// A test world of one `W` per shard with the same channel latency
    /// between every pair of shards; the run splits it into its workers.
    struct Shards<W> {
        workers: Vec<W>,
        latency: SimDuration,
    }

    impl<W: WorldWorker + Send> ParallelWorld for Shards<W> {
        type Event = W::Event;
        type Worker = W;
        fn split(&mut self, shards: usize) -> Vec<W> {
            assert_eq!(shards, self.workers.len());
            mem::take(&mut self.workers)
        }
        fn reunite(&mut self, workers: Vec<W>) {
            self.workers = workers;
        }
        fn latency(&self, _from: ShardId, _to: ShardId) -> Option<SimDuration> {
            Some(self.latency)
        }
        fn handle_serial(
            &mut self,
            _shard: ShardId,
            _now: SimTime,
            _event: W::Event,
            _ctx: &mut SerialContext<'_, W::Event>,
        ) {
            unreachable!("test worlds schedule no serial events")
        }
    }

    /// Runs `engine` over one worker per shard at `threads` workers and
    /// hands the workers back with the outcome.
    fn run_shards<W: WorldWorker + Send>(
        engine: &mut ShardedEngine<W::Event>,
        workers: Vec<W>,
        latency: SimDuration,
        threads: usize,
    ) -> (RunOutcome, Vec<W>) {
        let mut world = Shards { workers, latency };
        let outcome = engine.run(&mut world, threads);
        (outcome, world.workers)
    }

    /// Mirrors the single-engine `Pinger`, recording the full pop trace.
    struct Tracer {
        trace: Vec<(SimTime, u32, u32)>, // (time, shard, payload)
        respawn: u32,
        interval: SimDuration,
    }

    impl Tracer {
        fn new(respawn: u32, interval: SimDuration) -> Self {
            Tracer {
                trace: Vec::new(),
                respawn,
                interval,
            }
        }
    }

    impl WorldWorker for Tracer {
        type Event = u32;
        fn handle(
            &mut self,
            shard: ShardId,
            now: SimTime,
            ev: u32,
            ctx: &mut WorkerContext<'_, u32>,
        ) {
            self.trace.push((now, shard.0, ev));
            if ev < self.respawn {
                ctx.schedule(now + self.interval, ev + 1);
            }
        }
    }

    impl Process for Tracer {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.trace.push((now, 0, ev));
            if ev < self.respawn {
                q.schedule(now + self.interval, ev + 1);
            }
        }
    }

    const LATENCY: SimDuration = SimDuration::from_nanos(50);

    #[test]
    fn one_shard_matches_the_flat_engine_bit_for_bit() {
        let interval = SimDuration::from_micros(3);
        let mut flat = Engine::new().with_horizon(SimTime::from_micros(40));
        let mut flat_world = Tracer::new(1_000, interval);
        flat.schedule(SimTime::ZERO, 0);
        flat.schedule(SimTime::from_micros(5), 100);
        let flat_outcome = flat.run(&mut flat_world);

        for threads in [1, 2] {
            let mut sharded = ShardedEngine::new(1).with_horizon(SimTime::from_micros(40));
            sharded.schedule(ShardId(0), SimTime::ZERO, 0);
            sharded.schedule(ShardId(0), SimTime::from_micros(5), 100);
            let (outcome, workers) = run_shards(
                &mut sharded,
                vec![Tracer::new(1_000, interval)],
                LATENCY,
                threads,
            );

            assert_eq!(outcome, flat_outcome, "threads={threads}");
            assert_eq!(workers[0].trace, flat_world.trace, "threads={threads}");
            assert_eq!(sharded.now(), flat.now(), "threads={threads}");
            assert_eq!(sharded.processed(), flat.processed(), "threads={threads}");
            assert_eq!(sharded.pending(), flat.pending(), "threads={threads}");
        }
    }

    /// Every event hops to the next shard until its payload hits 40.
    struct Bouncer {
        log: Vec<(SimTime, u32, u32)>,
    }

    impl WorldWorker for Bouncer {
        type Event = u32;
        fn handle(
            &mut self,
            shard: ShardId,
            now: SimTime,
            ev: u32,
            ctx: &mut WorkerContext<'_, u32>,
        ) {
            self.log.push((now, shard.0, ev));
            if ev < 40 {
                let to = ShardId((shard.0 + 1) % 4);
                ctx.send(to, now + SimDuration::from_nanos(7), ev + 10);
            }
        }
    }

    #[test]
    fn sharded_runs_replay_deterministically() {
        let run = |threads: usize| {
            let mut engine = ShardedEngine::new(4);
            for s in 0..4u32 {
                engine.schedule(ShardId(s), SimTime::from_nanos(u64::from(s % 2)), s);
            }
            let bouncers = (0..4).map(|_| Bouncer { log: Vec::new() }).collect();
            let latency = SimDuration::from_nanos(7);
            let (outcome, workers) = run_shards(&mut engine, bouncers, latency, threads);
            let logs: Vec<_> = workers.into_iter().map(|w| w.log).collect();
            (outcome, logs, engine.processed(), engine.now())
        };
        let baseline = run(1);
        assert_eq!(baseline.0, RunOutcome::Drained);
        assert_eq!(baseline, run(1));
        assert_eq!(baseline, run(2));
    }

    /// Shard 0 records what it receives; every other shard forwards its
    /// payload to shard 0, arriving at t=100.
    struct Funnel {
        received: Vec<u32>,
    }

    impl WorldWorker for Funnel {
        type Event = u32;
        fn handle(
            &mut self,
            shard: ShardId,
            _now: SimTime,
            ev: u32,
            ctx: &mut WorkerContext<'_, u32>,
        ) {
            if shard == ShardId(0) {
                self.received.push(ev);
            } else {
                ctx.send(ShardId(0), SimTime::from_nanos(100), ev);
            }
        }
    }

    fn funnels(shards: usize) -> Vec<Funnel> {
        (0..shards)
            .map(|_| Funnel {
                received: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn mailbox_merge_orders_by_time_shard_seq_not_send_order() {
        // Shard 2 executes FIRST (t=0) and sends to shard 0 arriving at
        // t=100; shard 1 executes later (t=5) and sends arriving at the
        // same t=100. The merge rule (time, source shard, send seq) must
        // pop shard 1's payload first despite shard 2 sending first.
        for threads in [1, 2] {
            let mut engine = ShardedEngine::new(3);
            engine.schedule(ShardId(2), SimTime::ZERO, 22);
            engine.schedule(ShardId(1), SimTime::from_nanos(5), 11);
            let (outcome, workers) = run_shards(&mut engine, funnels(3), LATENCY, threads);
            assert_eq!(outcome, RunOutcome::Drained);
            assert_eq!(workers[0].received, vec![11, 22], "threads={threads}");
        }
    }

    #[test]
    fn local_events_fire_before_mailbox_arrivals_at_equal_times() {
        // Shard 0 has a LOCAL event at t=100; shard 1 sends an arrival for
        // the same t=100. The local event must pop first.
        for threads in [1, 2] {
            let mut engine = ShardedEngine::new(2);
            engine.schedule(ShardId(1), SimTime::ZERO, 1);
            engine.schedule(ShardId(0), SimTime::from_nanos(100), 0);
            let (outcome, workers) = run_shards(&mut engine, funnels(2), LATENCY, threads);
            assert_eq!(outcome, RunOutcome::Drained);
            assert_eq!(workers[0].received, vec![0, 1], "threads={threads}");
        }
    }

    #[test]
    fn equal_time_pops_go_to_the_lowest_shard_first() {
        // Each shard owns its state, so the order shows only where a
        // binding budget cuts between equal-time events: the budget must
        // go to the lowest shards.
        for threads in [1, 2] {
            let mut engine = ShardedEngine::new(3).with_event_budget(2);
            for s in [2u32, 0, 1] {
                engine.schedule(ShardId(s), SimTime::from_nanos(9), 0);
            }
            let tracers = (0..3).map(|_| Tracer::new(0, LATENCY)).collect();
            let (outcome, workers) = run_shards(&mut engine, tracers, LATENCY, threads);
            assert_eq!(outcome, RunOutcome::BudgetExhausted);
            let fired: Vec<usize> = workers.iter().map(|w| w.trace.len()).collect();
            assert_eq!(fired, vec![1, 1, 0], "threads={threads}");
            assert_eq!(engine.pending(), 1);
        }
    }

    #[test]
    fn horizon_and_budget_match_flat_semantics() {
        let interval = SimDuration::from_micros(1);
        for threads in [1, 2] {
            let mut engine = ShardedEngine::new(2).with_horizon(SimTime::from_micros(3));
            engine.schedule(ShardId(0), SimTime::ZERO, 0);
            let tracers = (0..2).map(|_| Tracer::new(1_000, interval)).collect();
            let (outcome, workers) = run_shards(&mut engine, tracers, LATENCY, threads);
            assert_eq!(outcome, RunOutcome::HorizonReached);
            // t=0,1,2,3 us processed; the t=4 us event stays queued.
            assert_eq!(workers[0].trace.len(), 4, "threads={threads}");
            assert_eq!(engine.processed(), 4);
            assert_eq!(engine.now(), SimTime::from_micros(3));
            assert_eq!(engine.pending(), 1);

            let interval = SimDuration::from_nanos(5);
            let mut engine = ShardedEngine::new(2).with_event_budget(7);
            engine.schedule(ShardId(1), SimTime::ZERO, 0);
            let tracers = (0..2).map(|_| Tracer::new(1_000, interval)).collect();
            let (outcome, workers) = run_shards(&mut engine, tracers, LATENCY, threads);
            assert_eq!(outcome, RunOutcome::BudgetExhausted);
            assert_eq!(workers[1].trace.len(), 7, "threads={threads}");
            assert_eq!(engine.processed(), 7);
        }
    }

    #[test]
    fn the_last_representable_instant_is_reachable() {
        // An unbounded run and a horizon at u64::MAX both process an
        // event scheduled at the last instant, on one shard and on two.
        let end = SimTime::from_nanos(u64::MAX);
        for (shards, horizon) in [(1, None), (1, Some(end)), (2, None), (2, Some(end))] {
            let mut engine = ShardedEngine::new(shards);
            if let Some(h) = horizon {
                engine = engine.with_horizon(h);
            }
            engine.schedule(ShardId(0), SimTime::ZERO, 0);
            engine.schedule(ShardId(0), end, 0);
            let tracers = (0..shards).map(|_| Tracer::new(0, LATENCY)).collect();
            let (outcome, _) = run_shards(&mut engine, tracers, LATENCY, 2);
            assert_eq!(outcome, RunOutcome::Drained, "{shards} shards, {horizon:?}");
            assert_eq!(engine.processed(), 2);
            assert_eq!(engine.now(), end);
        }
    }

    #[test]
    #[should_panic]
    fn zero_shards_panics() {
        let _ = ShardedEngine::<()>::new(0);
    }

    #[test]
    #[should_panic(expected = "no declared channel")]
    fn sending_to_an_unknown_shard_panics() {
        struct Stray;
        impl WorldWorker for Stray {
            type Event = ();
            fn handle(
                &mut self,
                _s: ShardId,
                now: SimTime,
                _ev: (),
                ctx: &mut WorkerContext<'_, ()>,
            ) {
                ctx.send(ShardId(9), now + LATENCY, ());
            }
        }
        let mut engine = ShardedEngine::new(2);
        engine.schedule(ShardId(0), SimTime::ZERO, ());
        run_shards(&mut engine, vec![Stray, Stray], LATENCY, 1);
    }
}
