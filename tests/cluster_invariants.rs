//! Federation invariants of the two-level (cluster → rack) orchestration.
//!
//! A multi-rack datacenter is one single-rack [`DredboxSystem`] per rack
//! under a standalone [`ClusterController`] that never inspects bricks: it
//! routes on the capacity digest each rack publishes, maintained
//! incrementally after every mutating operation. These property tests
//! replay random routed-admit / release / migrate / sweep / cordon traces
//! through that split and assert after every step that
//!
//! * every rack's published [`RackDigest`] equals a from-scratch rebuild
//!   off the authoritative per-brick state
//!   ([`DredboxSystem::rebuild_rack_digest`]), and the controller routes on
//!   exactly those digests, so routing decisions can never act on stale
//!   aggregates; and
//! * every refused cluster request — an infeasible admission, an
//!   admission with every rack unschedulable — leaves every rack and the
//!   controller bit-identical: no partial spillover residue.
//!
//! Cross-rack drains and evacuations run in the scenario engine's cluster
//! world; `tests/determinism_prop.rs` and the `datacenter`,
//! `failure-storm` and `rolling-upgrade` goldens replay them.

use proptest::prelude::*;

use dredbox::bricks::RackId;
use dredbox::orchestrator::ClusterController;
use dredbox::prelude::*;
use dredbox::sim::units::{ByteSize, Watts};

/// One step of a random federated-orchestration trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Route a VM with `vcpus` cores and `gib` GiB through the cluster
    /// controller (digest screen → rack admission → spillover).
    Admit { vcpus: u32, gib: u64 },
    /// Release the `pick`-th live VM.
    Release { pick: usize },
    /// Live-migrate the `pick`-th live VM within its rack to the rack's
    /// evacuation target (rejections must be no-ops).
    Migrate { pick: usize },
    /// Mark the `rack`-th rack unschedulable (`cordon`) or schedulable.
    Cordon { rack: usize, cordon: bool },
    /// Power-sweep the `rack`-th rack.
    Sweep { rack: usize },
}

/// Decodes a sampled tuple: ~40% admissions, then a churn mix of releases,
/// migrations, cordons and sweeps, so racks fill, spill over and sleep.
fn decode((kind, a, b): (u8, u8, u8)) -> Op {
    match kind % 10 {
        0..=3 => Op::Admit {
            vcpus: u32::from(a % 4) + 1,
            gib: u64::from(b % 4) + 1,
        },
        4..=5 => Op::Release { pick: a as usize },
        6..=7 => Op::Migrate { pick: a as usize },
        8 => Op::Cordon {
            rack: b as usize,
            cordon: a % 2 == 0,
        },
        _ => Op::Sweep { rack: a as usize },
    }
}

/// Three single-rack systems under one cluster controller: each rack
/// 2 trays × (2 compute + 2 memory) bricks, under a rack power budget
/// tight enough that routing exercises the power-deferral path.
#[derive(Debug, Clone, PartialEq)]
struct Fleet {
    racks: Vec<DredboxSystem>,
    controller: ClusterController,
}

impl Fleet {
    fn build() -> Self {
        let config = SystemConfig::datacenter_rack(2, 2, 2)
            .with_rack_power_budget(Some(Watts::new(2_000.0)));
        let mut controller = ClusterController::new(config.placement);
        controller.set_rack_budget(config.rack_power_budget);
        let racks = (0..3)
            .map(|_| DredboxSystem::build(config.clone()).expect("build rack"))
            .collect();
        let mut fleet = Fleet { racks, controller };
        for rack in 0..fleet.racks.len() {
            fleet.publish(rack);
        }
        fleet
    }

    /// Copies rack `rack`'s published digest into the cluster controller.
    fn publish(&mut self, rack: usize) {
        let digest = *self.racks[rack]
            .cluster()
            .digest(RackId(0))
            .expect("a rack publishes its digest");
        self.controller.upsert(RackId(rack as u16), digest);
    }

    /// Routes an admission: the controller's pick (or, when no digest
    /// admits it, the first schedulable rack, whose SDM controller owns the
    /// authoritative rejection), then the remaining racks in spillover
    /// order.
    fn admit(&mut self, vcpus: u32, memory: ByteSize) -> Option<(usize, VmHandle)> {
        let route = self.controller.route(vcpus, memory);
        let first = route.rack.or_else(|| {
            (0..self.racks.len() as u16)
                .map(RackId)
                .find(|r| self.controller.is_schedulable(*r))
        })?;
        let spill = self.controller.spillover_order(vcpus, memory, Some(first));
        for rack in std::iter::once(first).chain(spill) {
            let rack = usize::from(rack.0);
            let admitted = self.racks[rack].allocate_vm(vcpus, memory);
            self.publish(rack);
            if let Ok(vm) = admitted {
                return Some((rack, vm));
            }
        }
        None
    }

    /// Every rack's digest must equal a from-scratch rebuild from
    /// per-brick state, and the controller must hold exactly what each
    /// rack published — the lockstep contract routing correctness rests on.
    fn check_digests(&self) {
        assert_eq!(self.controller.len(), self.racks.len());
        for (idx, system) in self.racks.iter().enumerate() {
            let published = system.cluster().digest(RackId(0)).expect("published");
            let rebuilt = system
                .rebuild_rack_digest(RackId(0))
                .expect("rack exists for rebuild");
            assert_eq!(
                published, &rebuilt,
                "rack {idx}: incremental digest diverged from a from-scratch rebuild"
            );
            assert_eq!(
                self.controller.digest(RackId(idx as u16)),
                Some(published),
                "rack {idx}: the controller routes on a stale digest"
            );
        }
    }
}

proptest! {
    #[test]
    fn federated_traces_keep_digests_in_lockstep_with_brick_state(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 1..50)
    ) {
        let mut fleet = Fleet::build();
        let racks = fleet.racks.len();
        let mut live: Vec<(usize, VmHandle)> = Vec::new();
        fleet.check_digests();

        for tuple in ops {
            match decode(tuple) {
                Op::Admit { vcpus, gib } => {
                    let before = fleet.clone();
                    match fleet.admit(vcpus, ByteSize::from_gib(gib)) {
                        Some(placed) => live.push(placed),
                        // A refused admission — every candidate rack full or
                        // unschedulable — must be a perfect no-op.
                        None => prop_assert_eq!(&fleet, &before),
                    }
                }
                Op::Release { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (rack, vm) = live.swap_remove(pick % live.len());
                    fleet.racks[rack].release_vm(vm).expect("live VM releases");
                    fleet.publish(rack);
                }
                Op::Migrate { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (rack, vm) = live[pick % live.len()];
                    let Some(to) = fleet.racks[rack].evacuation_target(vm) else {
                        continue;
                    };
                    let before = fleet.clone();
                    let moved = fleet.racks[rack].migrate_vm(vm, to).is_ok();
                    fleet.publish(rack);
                    if !moved {
                        // Rejected migrations must leave the fleet
                        // bit-identical.
                        prop_assert_eq!(&fleet, &before);
                    }
                }
                Op::Cordon { rack, cordon } => {
                    fleet
                        .controller
                        .set_schedulable(RackId((rack % racks) as u16), !cordon);
                }
                Op::Sweep { rack } => {
                    let rack = rack % racks;
                    fleet.racks[rack].power_off_unused();
                    fleet.publish(rack);
                }
            }
            fleet.check_digests();
        }

        // Drain the trace: releasing every surviving VM must return all
        // digests to lockstep with an idle cluster.
        for (rack, vm) in live.drain(..) {
            fleet.racks[rack].release_vm(vm).expect("live VM releases");
            fleet.publish(rack);
        }
        fleet.check_digests();
        for system in &fleet.racks {
            prop_assert_eq!(system.sdm().pool().total_allocated(), ByteSize::ZERO);
        }
    }

    #[test]
    fn infeasible_cluster_requests_leave_the_system_bit_identical(
        seeds in proptest::collection::vec((1u32..=4, 1u64..=4), 1..12),
        huge_vcpus in 1_000u32..=100_000,
        huge_gib in 10_000u64..=1_000_000,
    ) {
        let mut fleet = Fleet::build();
        let racks = fleet.racks.len();

        // Partially load the cluster so rejections race against real state.
        for (vcpus, gib) in seeds {
            let _ = fleet.admit(vcpus, ByteSize::from_gib(gib));
        }
        fleet.check_digests();
        let before = fleet.clone();

        // No rack can host this demand: the digest screen (or every rack's
        // admission) refuses, and nothing may move.
        prop_assert!(fleet
            .admit(huge_vcpus, ByteSize::from_gib(huge_gib))
            .is_none());
        prop_assert_eq!(&fleet, &before);

        // With every rack unschedulable, even a trivial request is refused
        // — and re-enabling restores routability with digests untouched.
        for idx in 0..racks {
            fleet.controller.set_schedulable(RackId(idx as u16), false);
        }
        prop_assert!(fleet.admit(1, ByteSize::from_gib(1)).is_none());
        for idx in 0..racks {
            fleet.controller.set_schedulable(RackId(idx as u16), true);
        }
        prop_assert_eq!(&fleet, &before);
        fleet.check_digests();
    }
}
