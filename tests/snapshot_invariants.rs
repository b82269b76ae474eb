//! Snapshot/restore invariants under arbitrary operation and fault traces.
//!
//! Live servicing rests on one promise: a [`SystemSnapshot`] captured at any
//! point — however tangled the history of routed admissions, releases,
//! migrations, offload sessions, brick/link/switch faults, repairs and
//! reclaims that led there — serializes, deserializes and restores to a
//! system that is bit-identical *and stays bit-identical under every
//! subsequent operation*. These property tests replay a random trace prefix
//! over a small federation (one single-rack system per rack under a cluster
//! controller), round-trip every rack through the wire format, then drive
//! the original and the restored federation through the same trace suffix
//! in lockstep, asserting equality (and digest-rebuild agreement) after
//! every step.
//!
//! A second property holds the decoder's ground: truncations of a valid
//! stream are always rejected with an error, never misread or panicked on.

use proptest::prelude::*;

use dredbox::bricks::{Brick, BrickId, RackId};
use dredbox::orchestrator::ClusterController;
use dredbox::prelude::*;
use dredbox::sim::units::ByteSize;
use dredbox::workload::OffloadDemand;

/// One step of a random servicing-era trace: the classic orchestration ops
/// plus the full fault/repair surface.
#[derive(Debug, Clone)]
enum Op {
    /// Route a VM through the cluster controller and admit it on the
    /// chosen rack.
    Admit {
        vcpus: u32,
        gib: u64,
    },
    /// Release the `pick`-th tracked VM (it may already be dead to a fault
    /// — the error is the behavior under test, not a trace bug).
    Release {
        pick: usize,
    },
    /// Live-migrate the `pick`-th tracked VM to its rack's evacuation
    /// target.
    Migrate {
        pick: usize,
    },
    /// Begin a near-data offload session on the `pick`-th tracked VM.
    Offload {
        pick: usize,
        kernel: u8,
    },
    /// End the `pick`-th tracked session (it may have been drained).
    EndOffload {
        pick: usize,
    },
    /// Fail the `pick`-th brick (across all racks) of one kind.
    FaultCompute {
        pick: usize,
    },
    FaultMemory {
        pick: usize,
    },
    FaultAccel {
        pick: usize,
    },
    /// Sever the `ordinal`-th cabled tray-to-switch link of a rack.
    FaultLink {
        rack: usize,
        ordinal: u32,
    },
    /// Kill a rack's optical switch (self-heals onto the standby).
    FaultSwitch {
        rack: usize,
    },
    /// Repair the `pick`-th brick of one kind, or re-splice a link.
    RepairCompute {
        pick: usize,
    },
    RepairMemory {
        pick: usize,
    },
    RepairAccel {
        pick: usize,
    },
    RepairLink {
        rack: usize,
        ordinal: u32,
    },
    /// Reclaim every rack's orphaned remote segments.
    Reclaim,
    /// Power-sweep every rack.
    Sweep,
}

/// Decodes a sampled tuple into an op: ~30% admissions, then a churn mix
/// weighted toward the fault/repair surface this suite exists to cover.
fn decode((kind, a, b): (u8, u8, u8)) -> Op {
    let (pick, ordinal) = (a as usize, u32::from(b));
    match kind % 20 {
        0..=5 => Op::Admit {
            vcpus: u32::from(a % 4) + 1,
            gib: u64::from(b % 4) + 1,
        },
        6..=7 => Op::Release { pick },
        8 => Op::Migrate { pick },
        9..=10 => Op::Offload {
            pick,
            kernel: b % 3,
        },
        11 => Op::EndOffload { pick },
        12 => Op::FaultCompute { pick },
        13 => Op::FaultMemory { pick },
        14 => Op::FaultAccel { pick },
        15 => Op::FaultLink {
            rack: pick,
            ordinal,
        },
        16 => Op::FaultSwitch { rack: pick },
        17 => match b % 4 {
            0 => Op::RepairCompute { pick },
            1 => Op::RepairMemory { pick },
            2 => Op::RepairAccel { pick },
            _ => Op::RepairLink {
                rack: pick,
                ordinal,
            },
        },
        18 => Op::Reclaim,
        _ => Op::Sweep,
    }
}

/// A small federation with every brick kind present: 2 single-rack
/// systems of 2 trays × (2 compute + 2 memory + 1 accel) bricks under one
/// cluster controller.
#[derive(Debug, Clone, PartialEq)]
struct Fleet {
    racks: Vec<DredboxSystem>,
    controller: ClusterController,
}

impl Fleet {
    fn build() -> Self {
        let config = dredbox::SystemConfig::accelerated_rack(2, 2, 2, 1);
        let mut controller = ClusterController::new(config.placement);
        controller.set_rack_budget(config.rack_power_budget);
        let racks = (0..2)
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

    /// Routes an admission to the controller's pick (rack 0 when no digest
    /// admits it), spilling over to the other racks in preference order.
    fn admit(&mut self, vcpus: u32, memory: ByteSize) -> Option<(usize, VmHandle)> {
        let first = self
            .controller
            .route(vcpus, memory)
            .rack
            .unwrap_or(RackId(0));
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

    /// The `pick`-th brick (across all racks) matching a kind filter.
    fn brick(&self, pick: usize, want: fn(&Brick) -> bool) -> Option<(usize, BrickId)> {
        let ids: Vec<(usize, BrickId)> = self
            .racks
            .iter()
            .enumerate()
            .flat_map(|(rack, s)| {
                s.rack()
                    .bricks()
                    .filter(|b| want(b))
                    .map(move |b| (rack, b.id()))
            })
            .collect();
        if ids.is_empty() {
            None
        } else {
            Some(ids[pick % ids.len()])
        }
    }

    /// Runs a brick-level operation on the `pick`-th brick of a kind and
    /// republishes that rack's digest.
    fn on_brick(
        &mut self,
        pick: usize,
        want: fn(&Brick) -> bool,
        op: impl FnOnce(&mut DredboxSystem, BrickId),
    ) {
        if let Some((rack, brick)) = self.brick(pick, want) {
            op(&mut self.racks[rack], brick);
            self.publish(rack);
        }
    }
}

fn demand(kernel: u8) -> OffloadDemand {
    OffloadDemand {
        kernel: format!("kernel-{kernel}"),
        bitstream: ByteSize::from_mib(8),
        input: ByteSize::from_mib(256),
    }
}

/// A tracked VM or offload session: the rack it lives on plus its handle.
type OnRack<T> = (usize, T);

fn is_compute(b: &Brick) -> bool {
    b.as_compute().is_some()
}

fn is_memory(b: &Brick) -> bool {
    b.as_memory().is_some()
}

fn is_accel(b: &Brick) -> bool {
    b.as_accelerator().is_some()
}

/// Applies one op. Rejections and operations on fault-killed handles are
/// deliberately tolerated: a restored federation must mirror the
/// original's behavior on the *whole* surface, errors included — the
/// lockstep equality check after each step is what catches any divergence.
fn apply(
    f: &mut Fleet,
    op: &Op,
    live: &mut Vec<OnRack<VmHandle>>,
    sessions: &mut Vec<OnRack<OffloadSessionId>>,
) {
    let racks = f.racks.len();
    match *op {
        Op::Admit { vcpus, gib } => {
            if let Some(placed) = f.admit(vcpus, ByteSize::from_gib(gib)) {
                live.push(placed);
            }
        }
        Op::Release { pick } => {
            if live.is_empty() {
                return;
            }
            let (rack, vm) = live.swap_remove(pick % live.len());
            let _ = f.racks[rack].release_vm(vm);
            f.publish(rack);
        }
        Op::Migrate { pick } => {
            if live.is_empty() {
                return;
            }
            let (rack, vm) = live[pick % live.len()];
            if let Some(to) = f.racks[rack].evacuation_target(vm) {
                let _ = f.racks[rack].migrate_vm(vm, to);
                f.publish(rack);
            }
        }
        Op::Offload { pick, kernel } => {
            if live.is_empty() {
                return;
            }
            let (rack, vm) = live[pick % live.len()];
            if let Ok(report) = f.racks[rack].begin_offload(vm, &demand(kernel)) {
                sessions.push((rack, report.session));
            }
            f.publish(rack);
        }
        Op::EndOffload { pick } => {
            if sessions.is_empty() {
                return;
            }
            let (rack, session) = sessions.swap_remove(pick % sessions.len());
            let _ = f.racks[rack].end_offload(session);
            f.publish(rack);
        }
        Op::FaultCompute { pick } => f.on_brick(pick, is_compute, |s, b| {
            let _ = s.fail_compute_brick(b);
        }),
        Op::FaultMemory { pick } => f.on_brick(pick, is_memory, |s, b| {
            let _ = s.fail_membrick(b);
        }),
        Op::FaultAccel { pick } => f.on_brick(pick, is_accel, |s, b| {
            let _ = s.fail_accel_brick(b);
        }),
        Op::FaultLink { rack, ordinal } => {
            let _ = f.racks[rack % racks].fail_link(ordinal);
        }
        Op::FaultSwitch { rack } => {
            let _ = f.racks[rack % racks].fail_switch();
        }
        Op::RepairCompute { pick } => f.on_brick(pick, is_compute, |s, b| {
            let _ = s.repair_compute_brick(b);
        }),
        Op::RepairMemory { pick } => f.on_brick(pick, is_memory, |s, b| {
            let _ = s.repair_membrick(b);
        }),
        Op::RepairAccel { pick } => f.on_brick(pick, is_accel, |s, b| {
            let _ = s.repair_accel_brick(b);
        }),
        Op::RepairLink { rack, ordinal } => {
            f.racks[rack % racks].repair_link(ordinal);
        }
        Op::Reclaim => {
            for rack in 0..racks {
                f.racks[rack].reclaim_orphans();
                f.publish(rack);
            }
        }
        Op::Sweep => {
            for rack in 0..racks {
                f.racks[rack].power_off_unused();
                f.publish(rack);
            }
        }
    }
}

/// Round-trips every rack through the wire format; the controller holds
/// only published digests, so it carries over as is.
fn thaw(fleet: &Fleet) -> Fleet {
    let racks = fleet
        .racks
        .iter()
        .map(|system| {
            let bytes = SystemSnapshot::capture(system).to_bytes();
            SystemSnapshot::from_bytes(&bytes)
                .expect("valid stream decodes")
                .into_system()
        })
        .collect();
    Fleet {
        racks,
        controller: fleet.controller.clone(),
    }
}

proptest! {
    /// The tentpole property: snapshot → serialize → restore anywhere in a
    /// random trace yields a system that is bit-identical now and stays
    /// bit-identical under the rest of the trace.
    #[test]
    fn restored_systems_replay_arbitrary_traces_bit_identically(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 2..40)
    ) {
        let mut system = Fleet::build();
        let mut live = Vec::new();
        let mut sessions = Vec::new();

        // Replay the trace prefix on the original alone.
        let split = ops.len() / 2;
        for tuple in &ops[..split] {
            apply(&mut system, &decode(*tuple), &mut live, &mut sessions);
        }

        // Round-trip every rack through the wire format.
        let mut thawed = thaw(&system);
        prop_assert_eq!(&thawed, &system);

        // Restored indexes must equal from-scratch rebuilds off the
        // restored per-brick state — no stale aggregates smuggled across.
        for (restored, original) in thawed.racks.iter().zip(&system.racks) {
            let rack = RackId(0);
            prop_assert_eq!(
                restored.rebuild_rack_digest(rack),
                original.rebuild_rack_digest(rack)
            );
            prop_assert_eq!(restored.cluster().digest(rack), original.cluster().digest(rack));
        }

        // Drive both through the trace suffix in lockstep: every decision —
        // placements, spillovers, fault recovery, orphan reclaim — must come
        // out the same, handle for handle.
        let mut thawed_live = live.clone();
        let mut thawed_sessions = sessions.clone();
        for tuple in &ops[split..] {
            let op = decode(*tuple);
            apply(&mut system, &op, &mut live, &mut sessions);
            apply(&mut thawed, &op, &mut thawed_live, &mut thawed_sessions);
            prop_assert_eq!(&thawed, &system, "diverged on {:?}", op);
            prop_assert_eq!(&thawed_live, &live);
            prop_assert_eq!(&thawed_sessions, &sessions);
        }
    }

    /// Truncating a valid stream anywhere must produce a decode error —
    /// never a panic, never a silently misread system.
    #[test]
    fn truncated_snapshots_are_rejected(
        ops in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 0..8),
        cut in 0.0f64..1.0
    ) {
        let mut fleet = Fleet::build();
        let mut live = Vec::new();
        let mut sessions = Vec::new();
        for tuple in &ops {
            apply(&mut fleet, &decode(*tuple), &mut live, &mut sessions);
        }
        for system in &fleet.racks {
            let bytes = SystemSnapshot::capture(system).to_bytes();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let len = ((bytes.len() - 1) as f64 * cut) as usize;
            prop_assert!(SystemSnapshot::from_bytes(&bytes[..len]).is_err());
        }
    }
}
