//! Two-level orchestration: a cluster controller federating many racks.
//!
//! The paper's SDM controller is deliberately rack-scoped ("resource
//! reservation and dynamic reconfiguration *within a rack*"), but the
//! dReDBox vision is a disaggregated datacenter. The [`ClusterController`]
//! is the level above: it owns N racks — each still managed by its own
//! [`crate::SdmController`] — and makes *inter-rack* decisions from
//! per-rack [`RackDigest`]s instead of per-brick state.
//!
//! ## The digest trick, one level up
//!
//! [`crate::CapacityIndex`] made per-brick availability inspection
//! incremental; the cluster applies the same move to racks. Every admit,
//! release, scale, migrate and power transition refreshes the owning
//! rack's digest (a handful of `O(1)`/`O(log bricks)` reads off the rack's
//! own indexes), and cluster routing then navigates rank sets keyed by
//! `(free cores, rack)`. A routing decision therefore costs
//! `O(log racks)` in the typical case and never scans per-brick state —
//! per-decision cost stays flat as racks are added.
//!
//! ## Admission screens are optimistic
//!
//! [`RackDigest::admits`] must never reject a request the rack itself
//! would accept, because for a single-rack cluster the controller has to
//! be decision-for-decision transparent (the golden-snapshot suite pins
//! this). The compute screen is exact — placement succeeds iff some
//! powered brick has enough free cores or some sleeping brick is large
//! enough, which is precisely what the digest records — while the memory
//! screen (`free_memory >= request`) is necessary but not sufficient
//! under fragmentation. The rack's own controller stays the authority:
//! routing proposes, the rack's admission decides, and a refusal falls
//! through to the next rack in preference order (spillover).
//!
//! ## Power budgets
//!
//! A rack whose *provisioned* power — powered-on brick count per kind
//! times that kind's active draw — has reached its budget is excluded
//! from routing (admission control), so new load lands on racks with
//! headroom and sweeps can pull over-budget racks back down. Provisioned
//! draw is the TCO study's currency: it upper-bounds the rack's
//! electrical draw the way Section VI's "units that cannot be switched
//! off" bound the conventional datacenter's.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use dredbox_bricks::RackId;
use dredbox_sim::time::SimDuration;
use dredbox_sim::units::{ByteSize, Watts};

use crate::placement::PlacementPolicy;

/// A cluster rank set: flat `(key, rack)` pairs ordered `(key asc, id
/// asc)`, the same shape as the brick-level rank sets one layer down.
///
/// A sorted vector, not a B-tree: a federation ranks tens of racks, and
/// every `DredboxSystem` keeps a one-rack controller it refreshes after
/// each operation, so a binary search plus a short shift beats a node
/// walk. It snapshots exactly as a `BTreeSet` of the same pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
struct RackRankSet(Vec<(u64, RackId)>);

impl RackRankSet {
    fn insert(&mut self, key: (u64, RackId)) {
        if let Err(at) = self.0.binary_search(&key) {
            self.0.insert(at, key);
        }
    }

    fn remove(&mut self, key: &(u64, RackId)) {
        if let Ok(at) = self.0.binary_search(key) {
            self.0.remove(at);
        }
    }

    fn iter(&self) -> std::slice::Iter<'_, (u64, RackId)> {
        self.0.iter()
    }
}

impl dredbox_snap::Snap for RackRankSet {
    fn snap(&self, out: &mut Vec<u8>) {
        self.0.snap(out);
    }

    fn unsnap(r: &mut dredbox_snap::Reader<'_>) -> Result<Self, dredbox_snap::SnapError> {
        // Decoded as a set, so any stream yields sorted, distinct pairs.
        let set = BTreeSet::<(u64, RackId)>::unsnap(r)?;
        Ok(RackRankSet(set.into_iter().collect()))
    }
}

/// The capacity facts of one rack, as digested for cluster decisions.
///
/// Every field is derivable in `O(1)`/`O(log bricks)` from the rack's own
/// incrementally maintained indexes, so keeping the digest in lockstep
/// adds constant work per orchestration operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RackDigest {
    /// Sum of free cores over powered-on dCOMPUBRICKs.
    pub free_cores: u64,
    /// Most free cores on any single powered-on dCOMPUBRICK — the largest
    /// VM the rack can place without a wake-up.
    pub largest_free_cores: u32,
    /// Largest total capacity among sleeping dCOMPUBRICKs — the largest VM
    /// the rack can place by waking a brick.
    pub largest_sleeping_cores: u32,
    /// Free bytes across the rack's memory pool.
    pub free_memory_bytes: u64,
    /// Largest contiguous free block on any single dMEMBRICK.
    pub largest_segment_bytes: u64,
    /// dACCELBRICKs currently streaming no offload session.
    pub idle_accels: u32,
    /// Total dACCELBRICKs in the rack.
    pub accel_bricks: u32,
    /// dCOMPUBRICKs running at least one VM.
    pub active_bricks: u32,
    /// Powered-on bricks of any kind.
    pub powered_bricks: u32,
    /// Provisioned electrical draw in milliwatts: powered-on brick counts
    /// per kind times that kind's active draw. Integer so digest equality
    /// is bitwise.
    pub provisioned_milliwatts: u64,
}

impl RackDigest {
    /// Whether the rack can possibly place a VM of `vcpus` cores and
    /// `memory` bytes. Optimistic by design (see the module docs): exact
    /// on compute, necessary-but-not-sufficient on memory.
    pub fn admits(&self, vcpus: u32, memory: ByteSize) -> bool {
        let compute_ok = self.largest_free_cores >= vcpus || self.largest_sleeping_cores >= vcpus;
        compute_ok && self.free_memory_bytes >= memory.as_bytes()
    }

    /// Free bytes across the rack's memory pool.
    pub fn free_memory(&self) -> ByteSize {
        ByteSize::from_bytes(self.free_memory_bytes)
    }

    /// Largest contiguous free block on any single dMEMBRICK.
    pub fn largest_segment(&self) -> ByteSize {
        ByteSize::from_bytes(self.largest_segment_bytes)
    }

    /// Provisioned electrical draw.
    pub fn provisioned_power(&self) -> Watts {
        Watts::new(self.provisioned_milliwatts as f64 / 1e3)
    }
}

/// Service-time model for the cluster tier, mirroring
/// [`crate::SdmTimings`] one level up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterTimings {
    /// Digest consultation and routing decision at the cluster controller.
    pub route: SimDuration,
    /// Handing a routed request down to the chosen rack's SDM controller
    /// (one control-network RPC between orchestration tiers).
    pub hop: SimDuration,
    /// Cadence of the cluster control loop: how often the front door
    /// dispatches queued arrivals and each rack republishes its capacity
    /// digest. This is the batching grain of cluster decisions — and, on
    /// the threaded runner, the natural epoch width between rack workers.
    #[serde(default = "ClusterTimings::default_control_interval")]
    pub control_interval: SimDuration,
}

impl ClusterTimings {
    /// Defaults in line with the SDM controller's REST-over-control-network
    /// timings: routing is an in-memory index read, the hop is an RPC, and
    /// the control loop ticks on a datacenter-telemetry cadence.
    pub fn dredbox_default() -> Self {
        ClusterTimings {
            route: SimDuration::from_micros(50),
            hop: SimDuration::from_micros(500),
            control_interval: Self::default_control_interval(),
        }
    }

    fn default_control_interval() -> SimDuration {
        SimDuration::from_secs(10)
    }
}

impl Default for ClusterTimings {
    fn default() -> Self {
        ClusterTimings::dredbox_default()
    }
}

/// Outcome of one routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RackRoute {
    /// The preferred rack, or `None` when no schedulable rack passes the
    /// digest screens.
    pub rack: Option<RackId>,
    /// Racks that passed the capacity screen but were skipped because
    /// their provisioned power had reached the rack budget.
    pub power_deferrals: u32,
}

/// The cluster-level orchestrator: per-rack digests plus rank sets over
/// them, navigated by the same placement policies the racks use one level
/// down.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterController {
    /// Rack-level placement policy (mirrors the per-rack policy).
    policy: PlacementPolicy,
    /// Authoritative digest per rack, so updates can unindex the old one.
    digests: BTreeMap<RackId, RackDigest>,
    /// All racks ranked by powered free cores.
    by_free: RackRankSet,
    /// Racks hosting at least one VM, ranked by powered free cores — the
    /// power-aware packing order.
    active_by_free: RackRankSet,
    /// Racks excluded from admission routing (draining or drained).
    unschedulable: BTreeSet<RackId>,
    /// Per-rack provisioned-power budget; `None` disables admission-time
    /// power screening.
    budget_milliwatts: Option<u64>,
}

impl ClusterController {
    /// Creates an empty controller routing with `policy`.
    pub fn new(policy: PlacementPolicy) -> Self {
        ClusterController {
            policy,
            ..ClusterController::default()
        }
    }

    /// The rack-level placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Number of federated racks.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// Whether no rack is federated.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// The digest of a rack, if federated.
    pub fn digest(&self, rack: RackId) -> Option<&RackDigest> {
        self.digests.get(&rack)
    }

    /// All digests, ascending by rack id.
    pub fn digests(&self) -> impl Iterator<Item = (RackId, &RackDigest)> {
        self.digests.iter().map(|(&r, d)| (r, d))
    }

    /// Sets or clears the per-rack provisioned-power budget.
    pub fn set_rack_budget(&mut self, budget: Option<Watts>) {
        self.budget_milliwatts = budget.map(|w| (w.as_watts() * 1e3).round() as u64);
    }

    /// The per-rack provisioned-power budget, if any.
    pub fn rack_budget(&self) -> Option<Watts> {
        self.budget_milliwatts.map(|mw| Watts::new(mw as f64 / 1e3))
    }

    /// Marks a rack as (un)schedulable. Unschedulable racks keep their
    /// digests maintained but are skipped by admission routing — the rack
    /// drain primitive.
    pub fn set_schedulable(&mut self, rack: RackId, schedulable: bool) {
        if schedulable {
            self.unschedulable.remove(&rack);
        } else {
            self.unschedulable.insert(rack);
        }
    }

    /// Whether admissions may be routed to `rack`.
    pub fn is_schedulable(&self, rack: RackId) -> bool {
        !self.unschedulable.contains(&rack)
    }

    /// Readmits a previously drained rack into admission routing — the
    /// inverse of the [`ClusterController::set_schedulable`]`(rack, false)`
    /// drain primitive, used when a serviced rack comes back.
    ///
    /// Returns `true` iff the rack is federated *and* was actually drained;
    /// undraining an unknown rack or one that was never drained is a
    /// bit-identical no-op returning `false`.
    pub fn undrain_rack(&mut self, rack: RackId) -> bool {
        if !self.digests.contains_key(&rack) || self.is_schedulable(rack) {
            return false;
        }
        self.set_schedulable(rack, true);
        true
    }

    /// Inserts or replaces a rack's digest, keeping the rank sets in sync.
    /// `O(log racks)`.
    pub fn upsert(&mut self, rack: RackId, digest: RackDigest) {
        if let Some(old) = self.digests.insert(rack, digest) {
            if old == digest {
                // An unchanged republish leaves the rank keys where they are.
                return;
            }
            self.by_free.remove(&(old.free_cores, rack));
            if old.active_bricks > 0 {
                self.active_by_free.remove(&(old.free_cores, rack));
            }
        }
        self.by_free.insert((digest.free_cores, rack));
        if digest.active_bricks > 0 {
            self.active_by_free.insert((digest.free_cores, rack));
        }
    }

    /// Removes a rack from the federation. `O(log racks)`.
    pub fn remove(&mut self, rack: RackId) {
        if let Some(old) = self.digests.remove(&rack) {
            self.by_free.remove(&(old.free_cores, rack));
            if old.active_bricks > 0 {
                self.active_by_free.remove(&(old.free_cores, rack));
            }
        }
        self.unschedulable.remove(&rack);
    }

    /// Total provisioned draw across the federation — the figure the TCO
    /// study compares against the all-on baseline. `O(racks)`.
    pub fn provisioned_power(&self) -> Watts {
        let mw: u64 = self
            .digests
            .values()
            .map(|d| d.provisioned_milliwatts)
            .sum();
        Watts::new(mw as f64 / 1e3)
    }

    /// Per-rack provisioned draws, ascending by rack id — the
    /// `dredbox-tco` fleet-power feed. `O(racks)`.
    pub fn provisioned_per_rack(&self) -> Vec<Watts> {
        self.digests
            .values()
            .map(|d| d.provisioned_power())
            .collect()
    }

    fn headroom_ok(&self, digest: &RackDigest) -> bool {
        match self.budget_milliwatts {
            Some(budget) => digest.provisioned_milliwatts < budget,
            None => true,
        }
    }

    /// Routes one admission: the first rack in the policy's preference
    /// order that is schedulable, passes the capacity screen and has power
    /// headroom. `O(log racks)` in the typical case — digests only, never
    /// per-brick state.
    pub fn route(&self, vcpus: u32, memory: ByteSize) -> RackRoute {
        let mut power_deferrals = 0;
        let mut rack = None;
        for candidate in self.preference_order(None) {
            let digest = &self.digests[&candidate];
            if !digest.admits(vcpus, memory) {
                continue;
            }
            if !self.headroom_ok(digest) {
                power_deferrals += 1;
                continue;
            }
            rack = Some(candidate);
            break;
        }
        RackRoute {
            rack,
            power_deferrals,
        }
    }

    /// The full spillover order for one admission: every schedulable rack
    /// passing both screens, best first, optionally excluding one rack
    /// (the drain source must not receive its own evacuees).
    pub fn spillover_order(
        &self,
        vcpus: u32,
        memory: ByteSize,
        exclude: Option<RackId>,
    ) -> Vec<RackId> {
        self.preference_order(exclude)
            .filter(|r| {
                let digest = &self.digests[r];
                digest.admits(vcpus, memory) && self.headroom_ok(digest)
            })
            .collect()
    }

    /// Schedulable racks in the policy's preference order. Rack-level
    /// mirror of the brick-level policies: FirstFit walks rack ids,
    /// PowerAware packs the fullest already-active rack first, Balanced
    /// spreads onto the emptiest rack.
    fn preference_order(&self, exclude: Option<RackId>) -> Box<dyn Iterator<Item = RackId> + '_> {
        let admissible = move |r: &RackId| exclude != Some(*r) && !self.unschedulable.contains(r);
        match self.policy {
            PlacementPolicy::FirstFit => {
                Box::new(self.digests.keys().copied().filter(move |r| admissible(r)))
            }
            PlacementPolicy::PowerAware => {
                // Fullest active rack first, then the remaining racks
                // fullest-first (all-idle racks tie at full free cores and
                // fall back to id order).
                let active = self
                    .active_by_free
                    .iter()
                    .map(|&(_, r)| r)
                    .filter(move |r| admissible(r));
                let rest = self.by_free.iter().map(|&(_, r)| r).filter(move |r| {
                    admissible(r) && self.digests.get(r).is_some_and(|d| d.active_bricks == 0)
                });
                Box::new(active.chain(rest))
            }
            PlacementPolicy::Balanced => Box::new(
                self.by_free
                    .iter()
                    .rev()
                    .map(|&(_, r)| r)
                    .filter(move |r| admissible(r)),
            ),
        }
    }
}

// Deterministic snapshot codec impls (see `dredbox_snap`).
dredbox_snap::snap_struct!(RackDigest {
    free_cores,
    largest_free_cores,
    largest_sleeping_cores,
    free_memory_bytes,
    largest_segment_bytes,
    idle_accels,
    accel_bricks,
    active_bricks,
    powered_bricks,
    provisioned_milliwatts,
});
dredbox_snap::snap_struct!(ClusterController {
    policy,
    digests,
    by_free,
    active_by_free,
    unschedulable,
    budget_milliwatts,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(free: u64, largest: u32, active: u32, mem_gib: u64, mw: u64) -> RackDigest {
        RackDigest {
            free_cores: free,
            largest_free_cores: largest,
            largest_sleeping_cores: 0,
            free_memory_bytes: ByteSize::from_gib(mem_gib).as_bytes(),
            largest_segment_bytes: ByteSize::from_gib(mem_gib).as_bytes(),
            idle_accels: 0,
            accel_bricks: 0,
            active_bricks: active,
            powered_bricks: 4,
            provisioned_milliwatts: mw,
        }
    }

    #[test]
    fn power_aware_routing_packs_the_fullest_active_rack() {
        let mut cluster = ClusterController::new(PlacementPolicy::PowerAware);
        cluster.upsert(RackId(0), digest(64, 32, 0, 64, 100_000));
        cluster.upsert(RackId(1), digest(16, 16, 2, 64, 100_000));
        cluster.upsert(RackId(2), digest(40, 32, 1, 64, 100_000));
        // Fullest active rack that fits wins; an idle rack only as fallback.
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(1)).rack,
            Some(RackId(1))
        );
        assert_eq!(
            cluster.route(24, ByteSize::from_gib(1)).rack,
            Some(RackId(2))
        );
        assert_eq!(
            cluster.route(32, ByteSize::from_gib(1)).rack,
            Some(RackId(2))
        );
        // Nothing fits 64 cores on one brick anywhere.
        assert_eq!(cluster.route(64, ByteSize::from_gib(1)).rack, None);
        // Spillover order lists every admissible rack, best first.
        assert_eq!(
            cluster.spillover_order(8, ByteSize::from_gib(1), None),
            vec![RackId(1), RackId(2), RackId(0)]
        );
        assert_eq!(
            cluster.spillover_order(8, ByteSize::from_gib(1), Some(RackId(1))),
            vec![RackId(2), RackId(0)]
        );
    }

    #[test]
    fn balanced_and_first_fit_mirror_their_brick_level_policies() {
        let mut cluster = ClusterController::new(PlacementPolicy::Balanced);
        cluster.upsert(RackId(0), digest(16, 16, 1, 64, 0));
        cluster.upsert(RackId(1), digest(48, 32, 1, 64, 0));
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(1)).rack,
            Some(RackId(1))
        );
        let mut cluster = ClusterController::new(PlacementPolicy::FirstFit);
        cluster.upsert(RackId(0), digest(16, 16, 1, 64, 0));
        cluster.upsert(RackId(1), digest(48, 32, 1, 64, 0));
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(1)).rack,
            Some(RackId(0))
        );
    }

    #[test]
    fn power_budget_excludes_racks_without_headroom() {
        let mut cluster = ClusterController::new(PlacementPolicy::PowerAware);
        cluster.upsert(RackId(0), digest(16, 16, 2, 64, 900_000));
        cluster.upsert(RackId(1), digest(64, 32, 0, 64, 100_000));
        cluster.set_rack_budget(Some(Watts::new(500.0)));
        let route = cluster.route(8, ByteSize::from_gib(1));
        assert_eq!(route.rack, Some(RackId(1)));
        assert_eq!(route.power_deferrals, 1);
        // Without a budget the packed rack wins again.
        cluster.set_rack_budget(None);
        let route = cluster.route(8, ByteSize::from_gib(1));
        assert_eq!(route.rack, Some(RackId(0)));
        assert_eq!(route.power_deferrals, 0);
        assert!((cluster.provisioned_power().as_watts() - 1000.0).abs() < 1e-9);
        assert_eq!(cluster.provisioned_per_rack().len(), 2);
    }

    #[test]
    fn unschedulable_racks_are_skipped_and_memory_screens_apply() {
        let mut cluster = ClusterController::new(PlacementPolicy::PowerAware);
        cluster.upsert(RackId(0), digest(16, 16, 2, 1, 0));
        cluster.upsert(RackId(1), digest(64, 32, 1, 64, 0));
        // Rack 0 packs tighter but cannot hold 8 GiB.
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(8)).rack,
            Some(RackId(1))
        );
        cluster.set_schedulable(RackId(1), false);
        assert!(!cluster.is_schedulable(RackId(1)));
        assert_eq!(cluster.route(8, ByteSize::from_gib(8)).rack, None);
        cluster.set_schedulable(RackId(1), true);
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(8)).rack,
            Some(RackId(1))
        );
        cluster.remove(RackId(1));
        assert_eq!(cluster.len(), 1);
        assert_eq!(cluster.route(8, ByteSize::from_gib(8)).rack, None);
    }

    #[test]
    fn undrain_is_a_noop_unless_the_rack_was_actually_drained() {
        let mut cluster = ClusterController::new(PlacementPolicy::PowerAware);
        cluster.upsert(RackId(0), digest(16, 16, 2, 64, 0));
        cluster.upsert(RackId(1), digest(64, 32, 1, 64, 0));

        // Undraining an unknown rack, or one that was never drained, must
        // leave the controller bit-identical.
        let before = cluster.clone();
        assert!(!cluster.undrain_rack(RackId(7)));
        assert!(!cluster.undrain_rack(RackId(0)));
        assert_eq!(cluster, before);

        // A real drain/undrain round-trips.
        cluster.set_schedulable(RackId(1), false);
        assert!(!cluster.is_schedulable(RackId(1)));
        assert!(cluster.undrain_rack(RackId(1)));
        assert!(cluster.is_schedulable(RackId(1)));
        assert_eq!(cluster, before);
        assert!(!cluster.undrain_rack(RackId(1)));
    }

    #[test]
    fn upsert_replaces_the_old_rank_entries() {
        let mut cluster = ClusterController::new(PlacementPolicy::Balanced);
        cluster.upsert(RackId(0), digest(64, 32, 0, 64, 0));
        cluster.upsert(RackId(1), digest(32, 32, 1, 64, 0));
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(1)).rack,
            Some(RackId(0))
        );
        // Rack 0 fills up; the rank sets must follow the new digest.
        cluster.upsert(RackId(0), digest(4, 4, 3, 64, 0));
        assert_eq!(
            cluster.route(8, ByteSize::from_gib(1)).rack,
            Some(RackId(1))
        );
        assert_eq!(cluster.digest(RackId(0)).unwrap().free_cores, 4);
    }
}
