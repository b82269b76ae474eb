//! The per-layer drive of the traced run.
//!
//! It feeds a job's generated demands, in arrival order, through the public
//! call of each layer crate and wraps every call in a span. Departures
//! follow the spec's lifetime model and churn follows its churn model, all
//! kept in one time-ordered heap. Like `ClusterWorld`, it runs one
//! single-rack `DredboxSystem` per rack behind a standalone
//! `ClusterController`.
//!
//! Once the heap is empty, every rack is checkpointed through the snapshot
//! wire format, so the snapshot layer is measured at every workload's
//! scale, not only in the rolling upgrade.
//!
//! The drive only approximates the scenario event loop: it has no
//! control-plane queues, offloads or faults, and it draws its own random
//! stream. Its numbers rank layers; `replay_s` stays the measure of record.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use dredbox::bricks::RackId;
use dredbox::interconnect::{charge_queueing, StageLoad};
use dredbox::memory::{MemoryGrant, MemoryPool};
use dredbox::optical::{read_route_stages, FabricLoad};
use dredbox::orchestrator::ClusterController;
use dredbox::prelude::*;
use dredbox::sim::rng::SimRng;
use dredbox::sim::time::SimTime;
use dredbox::sim::units::ByteSize;
use dredbox::workload::VmDemand;

use crate::trace::Tracer;
use crate::workload::{generate_arrivals, generate_demands, rack_config, rack_count, Job};

/// Transfer sizes of the per-admission remote reads, as the scenario
/// engine draws them.
const READ_SIZES: [u64; 4] = [64, 256, 1_024, 4_096];

/// Counts the spans cannot carry: failures per call and layer outputs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DriveCounts {
    /// Failed calls per span name.
    pub fails: BTreeMap<&'static str, u64>,
    /// Bricks the power sweeps switched off.
    pub bricks_off: u64,
    /// Snapshot bytes encoded.
    pub encode_bytes: u64,
}

impl DriveCounts {
    fn record<T, E>(&mut self, name: &'static str, result: &Result<T, E>) {
        if result.is_err() {
            *self.fails.entry(name).or_default() += 1;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    Arrival(usize),
    ScaleUp { vm: usize, cycles_left: u32 },
    ScaleDown { vm: usize, cycles_left: u32 },
    Departure(usize),
    Sweep,
    Rebalance,
    Drain(u16),
    Upgrade(u16),
}

/// One admitted VM as the drive tracks it.
struct LiveVm {
    rack: usize,
    handle: VmHandle,
    memory: ByteSize,
    vcpus: u32,
    grants: Vec<MemoryGrant>,
    churn: Vec<ByteSize>,
    /// Fabric route and the offered load published on it.
    route: Option<(ReadRoute, f64)>,
}

/// The drive's state for one job.
struct Drive<'a> {
    job: &'a Job,
    tracer: &'a mut Tracer,
    counts: &'a mut DriveCounts,
    systems: Vec<DredboxSystem>,
    controller: ClusterController,
    pools: Vec<MemoryPool>,
    fabric: Vec<FabricLoad>,
    offered: f64,
    max_utilization: f64,
    rng: SimRng,
    demands: Vec<VmDemand>,
    vms: Vec<Option<LiveVm>>,
    heap: BinaryHeap<Reverse<(SimTime, u64, Step)>>,
    seq: u64,
}

/// Drives every job of a pass through the layers, recording spans in
/// `tracer` and failures and outputs in `counts`.
pub fn drive(jobs: &[Job], tracer: &mut Tracer, counts: &mut DriveCounts) {
    for job in jobs {
        tracer.enter("drive.job");
        if let Some(mut drive) = Drive::set_up(job, tracer, counts) {
            drive.run();
        }
        tracer.exit();
    }
}

impl<'a> Drive<'a> {
    fn set_up(job: &'a Job, tracer: &'a mut Tracer, counts: &'a mut DriveCounts) -> Option<Self> {
        let spec = &job.spec;
        let mut rng = SimRng::seed(job.seed);
        let demands = tracer.span("workload.generate", || generate_demands(spec, &mut rng));
        let arrivals = tracer.span("workload.generate", || generate_arrivals(spec, &mut rng));
        let config = rack_config(spec);
        let mut systems = Vec::new();
        for _ in 0..rack_count(spec) {
            let built = tracer.span("core.build", || DredboxSystem::build(config.clone()));
            counts.record("core.build", &built);
            systems.push(built.ok()?);
        }
        let mut controller = ClusterController::new(spec.system.placement);
        controller.set_rack_budget(spec.system.rack_power_budget);
        for (r, system) in systems.iter().enumerate() {
            if let Some(digest) = system.cluster().digest(RackId(0)) {
                controller.upsert(rack_id(r), *digest);
            }
        }
        let pools = systems.iter().map(|s| s.sdm().pool().clone()).collect();
        let (offered, max_utilization) = match &spec.data_path {
            Some(dp) => match &dp.contention {
                Some(c) => (
                    dp.profile.reads_per_sec * dp.initial_granularity.bytes() as f64,
                    c.max_utilization,
                ),
                None => (0.0, 0.0),
            },
            None => (0.0, 0.0),
        };
        let mut drive = Drive {
            job,
            tracer,
            counts,
            fabric: vec![FabricLoad::new(); systems.len()],
            systems,
            controller,
            pools,
            offered,
            max_utilization,
            rng: rng.fork(3),
            vms: Vec::with_capacity(demands.len()),
            demands,
            heap: BinaryHeap::new(),
            seq: 0,
        };
        for (index, at) in arrivals.into_iter().enumerate() {
            drive.push(at, Step::Arrival(index));
        }
        if let Some(every) = spec.power_sweep_every {
            drive.push(SimTime::ZERO + every, Step::Sweep);
        }
        if let Some(policy) = &spec.migration {
            drive.push(SimTime::ZERO + policy.every(), Step::Rebalance);
        }
        if let Some(plan) = &spec.drain {
            drive.push(plan.at, Step::Drain(plan.rack));
        }
        if let Some(plan) = &spec.upgrade {
            for rack in 0..spec.system.racks {
                let at = plan.start + plan.stagger.saturating_mul(u64::from(rack));
                drive.push(at, Step::Upgrade(rack));
            }
        }
        Some(drive)
    }

    fn push(&mut self, at: SimTime, step: Step) {
        if at <= self.job.spec.horizon {
            self.seq += 1;
            self.heap.push(Reverse((at, self.seq, step)));
        }
    }

    fn federated(&self) -> bool {
        self.systems.len() > 1
    }

    fn run(&mut self) {
        while let Some(Reverse((now, _, step))) = self.heap.pop() {
            match step {
                Step::Arrival(index) => self.arrive(now, index),
                Step::ScaleUp { vm, cycles_left } => self.scale_up(now, vm, cycles_left),
                Step::ScaleDown { vm, cycles_left } => self.scale_down(now, vm, cycles_left),
                Step::Departure(vm) => self.depart(vm),
                Step::Sweep => self.sweep(now),
                Step::Rebalance => self.rebalance(now),
                Step::Drain(rack) => self.drain(usize::from(rack)),
                Step::Upgrade(rack) => self.upgrade(usize::from(rack)),
            }
        }
        for rack in 0..self.systems.len() {
            self.checkpoint(rack);
        }
    }

    /// Re-publishes `rack`'s digest to the front door, rebuilt from
    /// per-brick state. Called after admissions, departures, sweeps,
    /// rebalances and moves; churn alone does not republish.
    fn upsert(&mut self, rack: usize) {
        if !self.federated() {
            return;
        }
        let (systems, controller) = (&self.systems, &mut self.controller);
        self.tracer.span("orchestrator.upsert", || {
            if let Some(digest) = systems[rack].rebuild_rack_digest(RackId(0)) {
                controller.upsert(rack_id(rack), digest);
            }
        });
    }

    /// Places `demand` on `rack`, returning its handle.
    fn allocate(&mut self, rack: usize, demand: VmDemand) -> Option<VmHandle> {
        let system = &mut self.systems[rack];
        let placed = self.tracer.span("core.allocate_vm", || {
            system.allocate_vm(demand.vcpus, demand.memory)
        });
        self.counts.record("core.allocate_vm", &placed);
        placed.ok()
    }

    fn release(&mut self, rack: usize, handle: VmHandle) {
        let system = &mut self.systems[rack];
        let released = self
            .tracer
            .span("core.release_vm", || system.release_vm(handle));
        self.counts.record("core.release_vm", &released);
    }

    fn pool_allocate(
        &mut self,
        rack: usize,
        handle: VmHandle,
        size: ByteSize,
    ) -> Option<MemoryGrant> {
        let owner = self.systems[rack].vm_brick(handle)?;
        let pool = &mut self.pools[rack];
        let grant = self
            .tracer
            .span("memory.pool_allocate", || pool.allocate(owner, size));
        self.counts.record("memory.pool_allocate", &grant);
        grant.ok()
    }

    fn pool_release(&mut self, rack: usize, grant: &MemoryGrant) {
        let pool = &mut self.pools[rack];
        let released = self
            .tracer
            .span("memory.pool_release", || pool.release_grant(grant));
        self.counts.record("memory.pool_release", &released);
    }

    /// Routes one arrival through the front door (federated specs only),
    /// spilling over to the next rack when the chosen one rejects it.
    fn arrive(&mut self, now: SimTime, index: usize) {
        let demand = self.demands[index];
        let placed = if self.federated() {
            let controller = &self.controller;
            let route = self.tracer.span("orchestrator.route", || {
                controller.route(demand.vcpus, demand.memory)
            });
            let first = route.rack.or_else(|| {
                (0..self.systems.len())
                    .map(rack_id)
                    .find(|r| self.controller.is_schedulable(*r))
            });
            match first {
                Some(rack) => self.place_from(usize::from(rack.0), demand),
                None => None,
            }
        } else {
            self.allocate(0, demand).map(|h| (0, h))
        };
        let Some((rack, handle)) = placed else {
            return;
        };
        let vm = self.vms.len();
        let grant = self.pool_allocate(rack, handle, demand.memory);
        let route = self.systems[rack].vm_read_route(handle).map(|route| {
            for stage in read_route_stages(route.compute, route.membrick) {
                self.fabric[rack].publish(stage, self.offered);
            }
            (route, self.offered)
        });
        self.vms.push(Some(LiveVm {
            rack,
            handle,
            memory: demand.memory,
            vcpus: demand.vcpus,
            grants: grant.into_iter().collect(),
            churn: Vec::new(),
            route,
        }));
        self.upsert(rack);
        self.read(vm);
        let lifetime = self.job.spec.lifetime.sample(&mut self.rng);
        self.push(now + lifetime, Step::Departure(vm));
        if let Some(churn) = self.job.spec.churn {
            if churn.cycles_per_vm > 0 {
                self.push(
                    now + churn.hold,
                    Step::ScaleUp {
                        vm,
                        cycles_left: churn.cycles_per_vm,
                    },
                );
            }
        }
    }

    /// Tries `first`, then the front door's spillover order.
    fn place_from(&mut self, first: usize, demand: VmDemand) -> Option<(usize, VmHandle)> {
        if let Some(handle) = self.allocate(first, demand) {
            return Some((first, handle));
        }
        let order =
            self.controller
                .spillover_order(demand.vcpus, demand.memory, Some(rack_id(first)));
        for rack in order {
            let rack = usize::from(rack.0);
            if let Some(handle) = self.allocate(rack, demand) {
                return Some((rack, handle));
            }
        }
        None
    }

    /// Charges the spec's per-admission remote reads: the flat latency
    /// model, then queueing behind the fabric load other VMs publish.
    fn read(&mut self, vm: usize) {
        let Some(live) = self.vms[vm].as_ref() else {
            return;
        };
        let rack = live.rack;
        let stages: Vec<StageLoad> = match (live.route, &self.job.spec.data_path) {
            (Some((route, own)), Some(dp)) => match &dp.contention {
                Some(c) => {
                    let capacities = [c.brick_uplink, c.rack_switch, c.membrick_port];
                    read_route_stages(route.compute, route.membrick)
                        .into_iter()
                        .zip(capacities)
                        .map(|(stage, capacity)| StageLoad {
                            capacity,
                            background_bytes_per_sec: self.fabric[rack].background(stage, own),
                        })
                        .collect()
                }
                None => Vec::new(),
            },
            _ => Vec::new(),
        };
        for _ in 0..self.job.spec.reads_per_vm {
            let size =
                ByteSize::from_bytes(*self.rng.choose(&READ_SIZES).expect("sizes non-empty"));
            let system = &self.systems[rack];
            let flat = self.tracer.span("interconnect.read_latency", || {
                system.remote_read_latency(size)
            });
            let cap = self.max_utilization;
            self.tracer.span("interconnect.charge_queueing", || {
                charge_queueing(flat, size, &stages, cap)
            });
        }
    }

    fn scale_up(&mut self, now: SimTime, vm: usize, cycles_left: u32) {
        let Some(churn) = self.job.spec.churn else {
            return;
        };
        let Some((rack, handle)) = self.vms[vm].as_ref().map(|v| (v.rack, v.handle)) else {
            return;
        };
        let (lo, hi) = churn.amount_gib;
        let amount = ByteSize::from_gib(if lo >= hi {
            lo
        } else {
            self.rng.range(lo..=hi)
        });
        let system = &mut self.systems[rack];
        let grown = self
            .tracer
            .span("softstack.scale_up", || system.scale_up(handle, amount));
        self.counts.record("softstack.scale_up", &grown);
        if grown.is_ok() {
            let grant = self.pool_allocate(rack, handle, amount);
            let live = self.vms[vm].as_mut().expect("checked live above");
            live.grants.extend(grant);
            live.churn.push(amount);
            self.push(now + churn.hold, Step::ScaleDown { vm, cycles_left });
        }
    }

    fn scale_down(&mut self, now: SimTime, vm: usize, cycles_left: u32) {
        let Some(churn) = self.job.spec.churn else {
            return;
        };
        let Some(live) = self.vms[vm].as_mut() else {
            return;
        };
        let (rack, handle) = (live.rack, live.handle);
        let Some(amount) = live.churn.pop() else {
            return;
        };
        let grant = if live.grants.len() > 1 {
            live.grants.pop()
        } else {
            None
        };
        let system = &mut self.systems[rack];
        let shrunk = self
            .tracer
            .span("softstack.scale_down", || system.scale_down(handle, amount));
        self.counts.record("softstack.scale_down", &shrunk);
        if let Some(grant) = grant {
            self.pool_release(rack, &grant);
        }
        if cycles_left > 1 {
            self.push(
                now + churn.hold,
                Step::ScaleUp {
                    vm,
                    cycles_left: cycles_left - 1,
                },
            );
        }
    }

    /// Releases a departing VM everywhere the drive booked it.
    fn depart(&mut self, vm: usize) {
        let Some(live) = self.vms[vm].take() else {
            return;
        };
        self.release(live.rack, live.handle);
        self.unbook(live);
    }

    /// Returns a VM's standalone pool grants and retracts its fabric load.
    fn unbook(&mut self, mut live: LiveVm) {
        for grant in std::mem::take(&mut live.grants) {
            self.pool_release(live.rack, &grant);
        }
        if let Some((route, own)) = live.route.take() {
            for stage in read_route_stages(route.compute, route.membrick) {
                self.fabric[live.rack].retract(stage, own);
            }
        }
        self.upsert(live.rack);
    }

    fn sweep(&mut self, now: SimTime) {
        for rack in 0..self.systems.len() {
            let system = &mut self.systems[rack];
            let swept = self
                .tracer
                .span("core.power_sweep", || system.power_off_unused());
            self.counts.bricks_off += swept.total_off() as u64;
            self.upsert(rack);
        }
        if let Some(every) = self.job.spec.power_sweep_every {
            self.push(now + every, Step::Sweep);
        }
    }

    fn migrate(&mut self, rack: usize, handle: VmHandle, to: dredbox::bricks::BrickId) -> bool {
        let system = &mut self.systems[rack];
        let moved = self
            .tracer
            .span("core.migrate_vm", || system.migrate_vm(handle, to));
        self.counts.record("core.migrate_vm", &moved);
        moved.is_ok()
    }

    /// One pass of the spec's migration policy on every rack.
    fn rebalance(&mut self, now: SimTime) {
        let Some(policy) = self.job.spec.migration else {
            return;
        };
        for rack in 0..self.systems.len() {
            match policy {
                MigrationPolicy::Consolidate {
                    spare_below,
                    max_moves,
                    ..
                } => {
                    let mut moved = 0usize;
                    'sources: for brick in self.systems[rack].sparse_bricks(spare_below) {
                        for handle in self.systems[rack].vms_on(brick) {
                            if moved >= max_moves {
                                break 'sources;
                            }
                            let Some(target) = self.systems[rack].consolidation_target(handle)
                            else {
                                continue;
                            };
                            moved += usize::from(self.migrate(rack, handle, target));
                        }
                    }
                }
                MigrationPolicy::EvacuateHotspot { saturated_at, .. } => {
                    let Some(hot) = self.systems[rack].hotspot_brick(saturated_at) else {
                        continue;
                    };
                    for handle in self.systems[rack].vms_on(hot) {
                        if let Some(target) = self.systems[rack].evacuation_target(handle) {
                            self.migrate(rack, handle, target);
                        }
                    }
                }
            }
            self.upsert(rack);
        }
        self.push(now + policy.every(), Step::Rebalance);
    }

    /// Stops routing to `rack` and moves its VMs to other racks, as a
    /// federated drain does: place on the destination, then release the
    /// source. Each move is one `core.migrate_vm` span.
    fn drain(&mut self, rack: usize) {
        if !self.federated() {
            return;
        }
        self.controller.set_schedulable(rack_id(rack), false);
        for vm in 0..self.vms.len() {
            let Some(live) = self.vms[vm].as_ref().filter(|v| v.rack == rack) else {
                continue;
            };
            let (handle, vcpus, memory) = (live.handle, live.vcpus, live.memory);
            let order = self
                .controller
                .spillover_order(vcpus, memory, Some(rack_id(rack)));
            let systems = &mut self.systems;
            let moved = self.tracer.span("core.migrate_vm", || {
                for dest in order {
                    let dest = usize::from(dest.0);
                    if let Ok(new) = systems[dest].allocate_vm(vcpus, memory) {
                        let _ = systems[rack].release_vm(handle);
                        return Some((dest, new));
                    }
                }
                None
            });
            self.counts.record("core.migrate_vm", &moved.ok_or(()));
            let Some((dest, new)) = moved else {
                continue;
            };
            let live = self.vms[vm].take().expect("checked live above");
            let vcpus = live.vcpus;
            self.unbook(live);
            self.vms[vm] = Some(LiveVm {
                rack: dest,
                handle: new,
                memory,
                vcpus,
                grants: self.pool_allocate(dest, new, memory).into_iter().collect(),
                churn: Vec::new(),
                route: None,
            });
            self.upsert(dest);
        }
    }

    /// Drains `rack`, checkpoints it, then readmits the rack.
    fn upgrade(&mut self, rack: usize) {
        self.drain(rack);
        self.checkpoint(rack);
        self.controller.undrain_rack(rack_id(rack));
        self.upsert(rack);
    }

    /// Snapshots `rack` through the wire format, restores it and checks the
    /// restored system is identical.
    fn checkpoint(&mut self, rack: usize) {
        let system = &self.systems[rack];
        let snapshot = self
            .tracer
            .span("snap.capture", || SystemSnapshot::capture(system));
        let bytes = self.tracer.span("snap.encode", || snapshot.to_bytes());
        self.counts.encode_bytes += bytes.len() as u64;
        let restored = self.tracer.span("snap.restore", || {
            SystemSnapshot::from_bytes(&bytes).map(SystemSnapshot::into_system)
        });
        let restored = restored.map_err(|e| e.to_string()).and_then(|r| {
            if r == *system {
                Ok(r)
            } else {
                Err("restored system differs".to_owned())
            }
        });
        self.counts.record("snap.restore", &restored);
        if let Ok(restored) = restored {
            self.systems[rack] = restored;
        }
    }
}

fn rack_id(rack: usize) -> RackId {
    RackId(u16::try_from(rack).expect("rack counts fit in u16"))
}
