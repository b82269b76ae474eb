//! The federated cluster as a [`ParallelWorld`]: one front-door shard
//! plus one shard per rack, each owning its own single-rack
//! [`DredboxSystem`].
//!
//! This is the one multi-rack execution path: every multi-rack scenario
//! replays here, serially at `threads = 1` and on worker threads
//! otherwise. A worker thread must own every byte its shard touches, so
//! the cluster is partitioned:
//!
//! * **Shard 0, the front door** ([`FrontDoor`]), owns the arrival trace
//!   and a standalone [`ClusterController`] fed by periodic capacity
//!   digests. Every [`ClusterTimings::control_interval`] it dispatches the
//!   arrivals due since its last tick, routing each to a rack as a
//!   timestamped [`ScenarioEvent::AdmitOn`] message (one routing read plus
//!   one control-network hop later). A rack that cannot hold the request
//!   spills it back ([`ScenarioEvent::SpillOver`]) carrying the bitmask of
//!   racks already tried; exhausting the candidates books the rejection at
//!   the front door.
//! * **Shard `1 + r`, rack `r`** ([`RackShard`]), owns a *single-rack*
//!   [`DredboxSystem`] wrapped in the ordinary
//!   [`ScenarioWorld`] — inside its world the rack is always local
//!   [`RackId`]\(0\), and the global index exists only in the shard
//!   labels. Everything after admission (churn, departures, offloads,
//!   power sweeps, read charges) is rack-local and runs without any
//!   cross-shard traffic.
//!
//! Cluster-tier operations that genuinely span racks — drain, rolling
//! upgrade, fault recovery with cross-rack restarts, rebalance — run as
//! *serial* events at epoch barriers, where the coordinator sees every
//! rack world at once ([`ParallelWorld::handle_serial`]). Faults run the
//! rack world's one recovery protocol
//! ([`FaultLedger`](super::world::FaultLedger)) on the struck rack: the
//! coordinator holds the ledger and adds only cross-rack restarts of the
//! guests that rack stranded, and a [`RackSink`] that routes the
//! protocol's follow-ups to the struck rack's shard. The report, too, comes
//! from the rack world's one builder, with the rack worlds folded in rack
//! order. The declared
//! channel latencies (front→rack: route + hop; rack→front: route; no
//! rack→rack channel) give the conservative runner its lookahead: between
//! control-interval ticks every rack advances a full epoch in parallel.
//!
//! `threads = 1` replays the identical event order, so the committed
//! multi-rack goldens are the proof that worker counts never leak into a
//! report.

use std::sync::Arc;

use dredbox_bricks::RackId;
use dredbox_orchestrator::{ClusterController, ClusterTimings};
use dredbox_sim::fault::FailureSchedule;
use dredbox_sim::parallel::{ParallelWorld, SerialContext, WorkerContext, WorldWorker};
use dredbox_sim::rng::SimRng;
use dredbox_sim::shard::{RunOutcome, ShardId};
use dredbox_sim::time::{SimDuration, SimTime};
use dredbox_sim::units::ByteSize;
use dredbox_workload::VmDemand;

use crate::snapshot::SystemSnapshot;
use crate::system::{DredboxSystem, MigrationReport};

use super::world::{EventSink, FaultLedger, Guest, ScenarioEvent, ScenarioWorld};
use super::{ClusterScenarioStats, ScenarioReport, ScenarioSpec};

/// Shard 0: the cluster controller's admission front door.
pub(super) struct FrontDoor {
    controller: ClusterController,
    timings: ClusterTimings,
    demands: Arc<Vec<VmDemand>>,
    /// The full arrival trace, ascending; `cursor` marks the first
    /// arrival not yet dispatched.
    arrivals: Vec<SimTime>,
    cursor: usize,
    racks: u16,
    /// Admissions no rack could hold (booked here, not on a rack).
    rejected: u64,
    /// Spillover hops between racks.
    spillovers: u64,
    /// Routing decisions deferred past a rack by its power budget.
    power_deferrals: u64,
}

impl FrontDoor {
    /// Routes one routed-admission hop to `rack`'s shard.
    fn dispatch(
        &mut self,
        rack: RackId,
        index: usize,
        tried: u64,
        now: SimTime,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        ctx.send(
            ShardId(1 + u32::from(rack.0)),
            now + self.timings.route + self.timings.hop,
            ScenarioEvent::AdmitOn { index, tried },
        );
    }

    /// First routing decision for one arrival. When no digest admits the
    /// request, the first schedulable rack still gets to try (its SDM
    /// controller owns the authoritative rejection); with every rack
    /// drained the front door rejects outright.
    fn route(&mut self, index: usize, now: SimTime, ctx: &mut WorkerContext<'_, ScenarioEvent>) {
        let demand = self.demands[index];
        let route = self.controller.route(demand.vcpus, demand.memory);
        self.power_deferrals += u64::from(route.power_deferrals);
        let fallback = (0..self.racks)
            .map(RackId)
            .find(|r| self.controller.is_schedulable(*r));
        let Some(rack) = route.rack.or(fallback) else {
            self.rejected += 1;
            return;
        };
        self.dispatch(rack, index, 1u64 << u32::from(rack.0), now, ctx);
    }

    /// A rack bounced a routed admission: try the next candidate not in
    /// the `tried` bitmask, or make the rejection final.
    fn spill(
        &mut self,
        index: usize,
        tried: u64,
        now: SimTime,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        let demand = self.demands[index];
        let next = self
            .controller
            .spillover_order(demand.vcpus, demand.memory, None)
            .into_iter()
            .find(|r| tried & (1u64 << u32::from(r.0)) == 0);
        let Some(rack) = next else {
            self.rejected += 1;
            return;
        };
        self.spillovers += 1;
        self.dispatch(rack, index, tried | (1u64 << u32::from(rack.0)), now, ctx);
    }

    fn handle(
        &mut self,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        match event {
            ScenarioEvent::FrontDoorTick => {
                while self.cursor < self.arrivals.len() && self.arrivals[self.cursor] <= now {
                    let index = self.cursor;
                    self.cursor += 1;
                    self.route(index, now, ctx);
                }
                // Re-armed unconditionally; the engine horizon stops it.
                ctx.schedule(
                    now + self.timings.control_interval,
                    ScenarioEvent::FrontDoorTick,
                );
            }
            ScenarioEvent::DigestUpdate { rack, digest } => {
                self.controller.upsert(RackId(rack), digest);
            }
            ScenarioEvent::SpillOver { index, tried } => self.spill(index, tried, now, ctx),
            _ => unreachable!("rack-tier event dispatched to the cluster front door"),
        }
    }
}

/// Shard `1 + rack`: one rack's world, owned whole by whichever worker
/// thread runs the shard.
pub(super) struct RackShard<'a> {
    /// The rack's *global* index — inside `world` it is always rack 0.
    rack: u16,
    timings: ClusterTimings,
    world: ScenarioWorld<'a>,
}

impl RackShard<'_> {
    fn handle(
        &mut self,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        match event {
            ScenarioEvent::AdmitOn { index, tried } => {
                if !self.world.admit_routed(index, now, ctx) {
                    ctx.send(
                        ShardId(0),
                        now + self.timings.route,
                        ScenarioEvent::SpillOver { index, tried },
                    );
                }
            }
            ScenarioEvent::DigestPublish => {
                if let Some(digest) = self.world.system.cluster().digest(RackId(0)).copied() {
                    ctx.send(
                        ShardId(0),
                        now + self.timings.route,
                        ScenarioEvent::DigestUpdate {
                            rack: self.rack,
                            digest,
                        },
                    );
                }
                ctx.schedule(
                    now + self.timings.control_interval,
                    ScenarioEvent::DigestPublish,
                );
            }
            other => self.world.dispatch(now, other, ctx),
        }
    }
}

/// Owned per-shard slice of the federation, travelling between worker
/// threads.
// The variants are deliberately unboxed: a worker moves across a channel
// once per epoch (not per event), so the size gap is irrelevant next to
// the pointer chase a box would add on every event dispatch.
#[allow(clippy::large_enum_variant)]
pub(super) enum ClusterWorker<'a> {
    /// Shard 0.
    Front(FrontDoor),
    /// Shard `1 + rack`.
    Rack(RackShard<'a>),
}

impl WorldWorker for ClusterWorker<'_> {
    type Event = ScenarioEvent;

    fn handle(
        &mut self,
        _shard: ShardId,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut WorkerContext<'_, ScenarioEvent>,
    ) {
        match self {
            ClusterWorker::Front(front) => front.handle(now, event, ctx),
            ClusterWorker::Rack(shard) => shard.handle(now, event, ctx),
        }
    }
}

/// A serial barrier handler's [`EventSink`]: the coordinator's context
/// aimed at one rack's shard, so the fault protocol's follow-ups land
/// where that rack's world runs.
pub(super) struct RackSink<'c, 's> {
    ctx: &'c mut SerialContext<'s, ScenarioEvent>,
    shard: ShardId,
}

impl EventSink for RackSink<'_, '_> {
    fn schedule(&mut self, at: SimTime, event: ScenarioEvent) {
        self.ctx.schedule(self.shard, at, event);
    }
}

/// The whole federation: front door plus one [`RackShard`] per rack,
/// with the cluster-tier availability state held by the coordinator.
pub(super) struct ClusterWorld<'a> {
    spec: &'a ScenarioSpec,
    timings: ClusterTimings,
    /// `None` only while workers are out under [`ParallelWorld::split`].
    front: Option<FrontDoor>,
    /// `rack_shards[r]` is global rack `r`; `None` only while split.
    rack_shards: Vec<Option<RackShard<'a>>>,
    /// The replay's availability bookkeeping; faults strike at epoch
    /// barriers so recovery can restart guests across racks.
    ledger: FaultLedger,
    cross_rack_migrations: u64,
    racks_drained: u64,
    drain_stranded: u64,
}

/// Why a rack shard or the front door may be taken as home: serial
/// events run at epoch barriers, after the engine reunited its workers.
const HOME: &str = "the engine reunites workers before serial events";

/// Rack `rack`'s world at a serial barrier.
fn home<'s, 'a>(shards: &'s mut [Option<RackShard<'a>>], rack: usize) -> &'s mut ScenarioWorld<'a> {
    &mut shards[rack].as_mut().expect(HOME).world
}

impl<'a> ClusterWorld<'a> {
    /// Builds the partitioned federation: one [`ScenarioWorld`] around
    /// each single-rack system (forked rng per rack, in rack order) and a
    /// front door seeded with every rack's initial digest and the spec's
    /// power budget.
    pub(super) fn new(
        spec: &'a ScenarioSpec,
        demands: Arc<Vec<VmDemand>>,
        arrivals: Vec<SimTime>,
        faults: FailureSchedule,
        rack_systems: Vec<DredboxSystem>,
        rack_rngs: Vec<SimRng>,
        timings: ClusterTimings,
    ) -> Self {
        let racks = rack_systems.len();
        assert!(racks <= 64, "the spillover bitmask covers at most 64 racks");
        let mut controller = ClusterController::new(spec.system.placement);
        controller.set_rack_budget(spec.system.rack_power_budget);
        for (r, system) in rack_systems.iter().enumerate() {
            let digest = system
                .cluster()
                .digest(RackId(0))
                .copied()
                .expect("a single-rack system publishes its digest");
            controller.upsert(RackId(r as u16), digest);
        }
        let front = FrontDoor {
            controller,
            timings,
            demands: Arc::clone(&demands),
            arrivals,
            cursor: 0,
            racks: racks as u16,
            rejected: 0,
            spillovers: 0,
            power_deferrals: 0,
        };
        let rack_shards = rack_systems
            .into_iter()
            .zip(rack_rngs)
            .enumerate()
            .map(|(r, (system, rng))| {
                Some(RackShard {
                    rack: r as u16,
                    timings,
                    world: ScenarioWorld::new(spec, system, Arc::clone(&demands), rng),
                })
            })
            .collect();
        ClusterWorld {
            spec,
            timings,
            front: Some(front),
            rack_shards,
            ledger: FaultLedger::new(faults),
            cross_rack_migrations: 0,
            racks_drained: 0,
            drain_stranded: 0,
        }
    }

    /// Pooled bytes allocated across every rack (the cluster-wide byte
    /// conservation check of the rolling upgrade).
    fn pool_allocated(&self) -> u64 {
        self.rack_shards
            .iter()
            .map(|s| {
                s.as_ref()
                    .expect(HOME)
                    .world
                    .system
                    .pool_allocated()
                    .as_bytes()
            })
            .sum()
    }

    /// Drains `source`: stops routing admissions to it and migrates every
    /// resident VM, in admission order, onto the best other rack per the
    /// front door's digests. VMs no surviving rack can hold stay put and
    /// count as stranded.
    fn evacuate_rack(
        &mut self,
        now: SimTime,
        source: u16,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        let front = self.front.as_mut().expect(HOME);
        front.controller.set_schedulable(RackId(source), false);
        self.racks_drained += 1;
        let src_idx = usize::from(source);
        let mut src = self.rack_shards[src_idx].take().expect(HOME);
        for vm in src.world.system.live_vms() {
            let Some(guest) = src.world.guest(vm) else {
                continue;
            };
            let moved = restart_across_racks(
                &front.controller,
                &mut self.rack_shards,
                RackId(source),
                now,
                &mut src.world,
                guest,
                ctx,
            );
            if moved.is_none() {
                self.drain_stranded += 1;
                continue;
            }
            // The old handle's scheduled events decay into no-ops; the
            // moved guest lives on under the fresh handle.
            let _ = src.world.system.release_vm(vm);
            src.world.counters.live -= 1;
            self.cross_rack_migrations += 1;
        }
        src.world.sample_utilization();
        self.rack_shards[src_idx] = Some(src);
    }

    /// One stage of the rolling upgrade: evacuate the rack, snapshot and
    /// restore its controller bit-identically, verify cluster-wide byte
    /// conservation, then readmit the rack into routing.
    fn upgrade_rack(
        &mut self,
        now: SimTime,
        rack: u16,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        let allocated_before = self.pool_allocated();
        self.evacuate_rack(now, rack, ctx);
        let stats = &mut self.ledger.stats;
        let world = home(&mut self.rack_shards, usize::from(rack));
        let bytes = SystemSnapshot::capture(&world.system).to_bytes();
        stats.upgrade_snapshot_bytes += bytes.len() as u64;
        match SystemSnapshot::from_bytes(&bytes) {
            Ok(snapshot) => {
                let restored = snapshot.into_system();
                if restored == world.system {
                    world.system = restored;
                } else {
                    stats.upgrade_restore_mismatches += 1;
                }
            }
            Err(_) => stats.upgrade_restore_mismatches += 1,
        }
        let allocated_after = self.pool_allocated();
        let stats = &mut self.ledger.stats;
        stats.upgrade_lost_bytes += allocated_before.saturating_sub(allocated_after);
        stats.upgrades += 1;
        self.front
            .as_mut()
            .expect(HOME)
            .controller
            .undrain_rack(RackId(rack));
        home(&mut self.rack_shards, usize::from(rack)).sample_utilization();
    }

    /// Delivers the `index`-th planned fault at an epoch barrier through
    /// the one recovery protocol, run on the struck rack's world. The
    /// federation adds only a restart hook: guests that rack can no longer
    /// hold restart on another rack, placed here by the coordinator.
    fn strike(&mut self, now: SimTime, index: usize, ctx: &mut SerialContext<'_, ScenarioEvent>) {
        let rack = self.ledger.site(index).rack;
        let mut struck = self.rack_shards[rack as usize].take().expect(HOME);
        let controller = &self.front.as_ref().expect(HOME).controller;
        let others = &mut self.rack_shards;
        self.ledger.strike(
            now,
            index,
            &mut struck.world,
            &mut |src: &mut ScenarioWorld<'_>, sink: &mut RackSink<'_, '_>, guest| {
                let source = RackId(rack as u16);
                restart_across_racks(controller, others, source, now, src, guest, sink.ctx)
            },
            &mut RackSink {
                ctx,
                shard: ShardId(1 + rack),
            },
        );
        self.rack_shards[rack as usize] = Some(struck);
    }

    /// Assembles the cluster report through the one report builder: rack
    /// worlds fold in rack order, the front door adds its final
    /// rejections, and the coordinator the cluster-tier and availability
    /// telemetry.
    pub(super) fn finish(
        mut self,
        outcome: RunOutcome,
        end: SimTime,
        events: u64,
    ) -> ScenarioReport {
        let front = self.front.take().expect("the run reunites the world");
        let worlds: Vec<ScenarioWorld<'a>> = self
            .rack_shards
            .into_iter()
            .map(|s| s.expect("the run reunites the world").world)
            .collect();
        // Every admission a rack world books arrived routed from the front
        // door, and its sweeps are its only power-offs.
        let stats = ClusterScenarioStats {
            racks: worlds.len() as u64,
            routed_admissions: worlds.iter().map(|w| w.counters.admitted).sum(),
            spillovers: front.spillovers,
            power_deferrals: front.power_deferrals,
            cross_rack_migrations: self.cross_rack_migrations,
            racks_drained: self.racks_drained,
            drain_stranded: self.drain_stranded,
            admissions_per_rack: worlds.iter().map(|w| w.counters.admitted).collect(),
            power_off_per_rack: worlds
                .iter()
                .map(|w| w.counters.bricks_powered_off)
                .collect(),
        };
        let mut worlds = worlds.into_iter();
        let mut first = worlds.next().expect("a federation has racks");
        // Final rejections live at the front door; racks only ever bounce
        // requests back for another candidate.
        first.counters.rejected += front.rejected;
        first.finish(worlds, self.ledger, Some(stats), outcome, end, events)
    }
}

/// Restarts `guest` of rack `source` (world `src`) on the first other
/// rack, in the front door's spillover preference, whose world admits it,
/// and books the move: the destination schedules the fresh guest's
/// departure and tracks its liveness, and the source records the
/// migration — its SDM controller orchestrated the hand-off, so it owns
/// the control-plane charge. Nothing stays resident across racks, so the
/// move pays a conventional full copy plus the destination's admission
/// orchestration. Returns that downtime, or `None` when no rack can hold
/// the guest.
fn restart_across_racks(
    controller: &ClusterController,
    rack_shards: &mut [Option<RackShard<'_>>],
    source: RackId,
    now: SimTime,
    src: &mut ScenarioWorld<'_>,
    guest: Guest,
    ctx: &mut SerialContext<'_, ScenarioEvent>,
) -> Option<SimDuration> {
    let (dest, new_vm) = controller
        .spillover_order(guest.vcpus, guest.memory, Some(source))
        .into_iter()
        .find_map(|dest| {
            let world = home(rack_shards, usize::from(dest.0));
            Some((
                dest,
                world.system.allocate_vm(guest.vcpus, guest.memory).ok()?,
            ))
        })?;
    let world = home(rack_shards, usize::from(dest.0));
    let to = world
        .system
        .vm_brick(new_vm)
        .expect("freshly placed VM is resident");
    let orchestration = world
        .system
        .admission_service_time(new_vm)
        .unwrap_or_default();
    world.counters.live += 1;
    world.counters.peak_live = world.counters.peak_live.max(world.counters.live);
    let lifetime = world.spec.lifetime.sample(&mut world.rng);
    ctx.schedule(
        ShardId(1 + u32::from(dest.0)),
        now + lifetime,
        ScenarioEvent::Departure { vm: new_vm },
    );
    let migration = &src.spec.system.migration;
    let full_copy = migration.conventional_migration(guest.memory);
    let report = MigrationReport {
        vm: guest.vm,
        from: guest.from,
        to,
        from_rack: RackId(0),
        to_rack: dest,
        moved_local_state: migration.local_state(guest.vcpus),
        preserved_memory: ByteSize::ZERO,
        orchestration_delay: orchestration,
        downtime: full_copy + orchestration,
        conventional_precopy: full_copy,
    };
    src.record_migration(now, &report);
    Some(report.downtime)
}

impl<'a> ParallelWorld for ClusterWorld<'a> {
    type Event = ScenarioEvent;
    type Worker = ClusterWorker<'a>;

    fn split(&mut self, shards: usize) -> Vec<ClusterWorker<'a>> {
        assert_eq!(shards, self.rack_shards.len() + 1);
        let mut workers = Vec::with_capacity(shards);
        workers.push(ClusterWorker::Front(
            self.front.take().expect("front door is home"),
        ));
        for slot in &mut self.rack_shards {
            workers.push(ClusterWorker::Rack(
                slot.take().expect("rack shard is home"),
            ));
        }
        workers
    }

    fn reunite(&mut self, workers: Vec<ClusterWorker<'a>>) {
        for worker in workers {
            match worker {
                ClusterWorker::Front(front) => self.front = Some(front),
                ClusterWorker::Rack(shard) => {
                    let slot = usize::from(shard.rack);
                    self.rack_shards[slot] = Some(shard);
                }
            }
        }
    }

    fn latency(&self, from: ShardId, to: ShardId) -> Option<SimDuration> {
        if from == to {
            return None;
        }
        if from.0 == 0 {
            // Front door → rack: one routing read plus the tier hop.
            return Some(self.timings.route + self.timings.hop);
        }
        if to.0 == 0 {
            // Rack → front door: spillovers and digest publishes travel
            // one routing read.
            return Some(self.timings.route);
        }
        // Racks never message each other directly: every cross-rack flow
        // goes through the front door or a serial barrier.
        None
    }

    fn handle_serial(
        &mut self,
        _shard: ShardId,
        now: SimTime,
        event: ScenarioEvent,
        ctx: &mut SerialContext<'_, ScenarioEvent>,
    ) {
        match event {
            ScenarioEvent::DrainRack { rack } => self.evacuate_rack(now, rack, ctx),
            ScenarioEvent::UpgradeRack { rack } => self.upgrade_rack(now, rack, ctx),
            ScenarioEvent::Fault { index } => self.strike(now, index, ctx),
            ScenarioEvent::Repair { index } => {
                let rack = self.ledger.site(index).rack as usize;
                self.ledger
                    .repair(now, index, home(&mut self.rack_shards, rack));
            }
            ScenarioEvent::Rebalance => {
                if let Some(policy) = self.spec.migration {
                    for rack in 0..self.rack_shards.len() {
                        let world = home(&mut self.rack_shards, rack);
                        world.rebalance(now, policy);
                        world.sample_utilization();
                    }
                    ctx.schedule_serial(ShardId(0), now + policy.every(), ScenarioEvent::Rebalance);
                }
            }
            _ => unreachable!("parallel event dispatched at a serial barrier"),
        }
    }
}
