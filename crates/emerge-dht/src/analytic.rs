//! A lightweight DHT substrate for paper-scale Monte-Carlo runs.
//!
//! [`AnalyticSubstrate`] carries the *same* deterministic population as
//! [`crate::overlay::Overlay`] (same generation-0 IDs, malicious marking
//! and churn timelines for a given `(OverlayConfig, seed)` pair — both
//! sample from [`crate::population::Genesis`]), but drops everything the
//! key-routing schemes do not need when measuring resilience:
//!
//! * **no routing tables** — holder addresses are resolved directly
//!   against a sorted ID index (bit-descent over the implicit binary
//!   trie), hundreds of times faster per resolution than the overlay's
//!   linear selection scan;
//! * **lazy churn** — each slot's generation timeline is sampled from its
//!   own per-slot stream only when first queried, so a Monte-Carlo trial
//!   that touches ~30 holders of a 10 000-node world never pays for the
//!   other 9 970 timelines;
//! * **no network model** — storage is an oracle: values land on the
//!   responsible slots instantly and lookups read them back directly;
//! * **recycled builds** — a dropped substrate parks its world's buffers
//!   (genesis, ID index, timelines, stores) on its thread, and
//!   [`AnalyticSubstrate::build`] takes them back and re-seeds them via
//!   [`AnalyticSubstrate::rebuild`]. A fresh world per trial then costs
//!   no allocation and no page faults once warm; at most one world is
//!   parked per thread.
//!
//! Because holder resolution is exact (the XOR-closest generation-0 ID)
//! and lazily sampled timelines are bit-identical to eagerly sampled ones,
//! every path plan, protocol run and emergence outcome matches the full
//! overlay bit for bit; `tests/substrate_parity.rs` in the workspace root
//! enforces this for all four schemes.

use crate::id::NodeId;
use crate::index::SortedIdIndex;
use crate::overlay::OverlayConfig;
use crate::population::{self, Genesis, NodeInfo};
use crate::storage::Store;
use emerge_obs::metrics::CounterId;
use emerge_sim::rng::SeedSource;
use emerge_sim::time::{SimDuration, SimTime};
use rand::Rng;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;

/// Holder resolutions served by the analytic substrate's sorted-ID
/// index (recorded into the thread's `emerge-obs` collector, if any).
static RESOLVES: CounterId = CounterId::new("dht.analytic.resolves");

/// The analytic (routing-free, lazily churned) DHT substrate.
#[derive(Debug)]
pub struct AnalyticSubstrate {
    config: OverlayConfig,
    seed: SeedSource,
    now: SimTime,
    world: World,
}

/// The heap storage of one analytic world, detached from its config and
/// seed. Dropping a substrate parks its world on the thread (see
/// [`SPARE_WORLD`]) and the next build there starts from it.
#[derive(Debug)]
struct World {
    genesis: Genesis,
    /// Per-slot generation timelines, materialized on first access.
    timelines: Vec<OnceCell<Vec<NodeInfo>>>,
    /// Timeline buffers recovered by [`AnalyticSubstrate::rebuild`],
    /// handed back out as later worlds materialize slots — the recycling
    /// that makes a warm rebuilt world allocation-free.
    timeline_pool: RefCell<Vec<Vec<NodeInfo>>>,
    /// The sorted generation-0 ID index behind closest-slot resolution
    /// (shared machinery with the full overlay).
    index: SortedIdIndex,
    /// Scratch for the genesis marking shuffle, then for the index's
    /// counting sort.
    scratch: Vec<u32>,
    /// Slot-local stores, created on first write.
    stores: HashMap<usize, Store>,
}

impl Default for World {
    fn default() -> Self {
        World {
            genesis: Genesis::empty(),
            timelines: Vec::new(),
            timeline_pool: RefCell::default(),
            index: SortedIdIndex::default(),
            scratch: Vec::new(),
            stores: HashMap::new(),
        }
    }
}

thread_local! {
    /// The world of the last substrate dropped on this thread: at most
    /// one world's buffers per thread, so a fresh build per trial neither
    /// allocates nor page-faults its storage back in.
    static SPARE_WORLD: Cell<Option<World>> = const { Cell::new(None) };
}

impl AnalyticSubstrate {
    /// Builds the substrate deterministically from `seed`. The population
    /// is identical to `Overlay::build(config, seed)`'s.
    ///
    /// The storage comes from the last substrate dropped on this thread,
    /// if any, so a warm build performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0` or `malicious_fraction ∉ [0, 1]`.
    pub fn build(config: OverlayConfig, seed: u64) -> Self {
        let world = SPARE_WORLD
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        let mut substrate = AnalyticSubstrate {
            config,
            seed: SeedSource::new(seed),
            now: SimTime::ZERO,
            world,
        };
        substrate.rebuild(seed);
        substrate
    }

    /// Re-seeds the substrate in place: bit-identical observable state to
    /// `AnalyticSubstrate::build(config, seed)` with the retained config,
    /// but recycling every buffer the previous world owned — genesis
    /// identity/marking vectors, the sorted ID index and the materialized
    /// slot timelines, which return to a pool and are reissued as the new
    /// world's slots are first queried. After a warm-up world of the same
    /// shape, a rebuild plus a trial's worth of queries performs no heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0` or `malicious_fraction ∉ [0, 1]`.
    pub fn rebuild(&mut self, seed: u64) {
        let seed = SeedSource::new(seed);
        self.seed = seed;
        self.now = SimTime::ZERO;
        let world = &mut self.world;
        world
            .genesis
            .resample(&self.config.population(), &seed, &mut world.scratch);
        world
            .index
            .rebuild(world.genesis.initial_ids(), &mut world.scratch);
        let pool = world.timeline_pool.get_mut();
        for cell in &mut world.timelines {
            if let Some(buf) = cell.take() {
                pool.push(buf);
            }
        }
        world
            .timelines
            .resize_with(world.genesis.n_nodes(), OnceCell::new);
        world.stores.clear();
    }

    /// The configuration this substrate was built with.
    pub fn config(&self) -> &OverlayConfig {
        &self.config
    }

    /// Number of population slots.
    pub fn n_nodes(&self) -> usize {
        self.world.genesis.n_nodes()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock (monotonic).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    pub fn advance_to(&mut self, t: SimTime) {
        // LINT-WAIVER(panic): documented # Panics contract: the substrate clock is monotone
        assert!(t >= self.now, "substrate clock cannot go backwards");
        self.now = t;
    }

    /// The initial (generation-0) node of a slot.
    pub fn initial(&self, slot: usize) -> &NodeInfo {
        &self.generations(slot)[0]
    }

    /// All generations of a slot, in order (sampled on first access into
    /// a pooled buffer when one is available).
    pub fn generations(&self, slot: usize) -> &[NodeInfo] {
        self.world.timelines[slot].get_or_init(|| {
            let mut buf = self
                .world
                .timeline_pool
                .borrow_mut()
                .pop()
                .unwrap_or_default();
            self.world.genesis.slot_generations_into(slot, &mut buf);
            buf
        })
    }

    /// How many slot timelines have been materialized so far (diagnostic
    /// for the laziness the Monte-Carlo engine relies on).
    pub fn materialized_timelines(&self) -> usize {
        self.world
            .timelines
            .iter()
            .filter(|c| c.get().is_some())
            .count()
    }

    /// The generation occupying `slot` at time `t`.
    pub fn generation_at(&self, slot: usize, t: SimTime) -> &NodeInfo {
        population::tenant_at(self.generations(slot), t)
    }

    /// Number of generations whose tenancy overlaps the half-open window `[from, to)`.
    pub fn exposures_during(&self, slot: usize, from: SimTime, to: SimTime) -> usize {
        population::exposures_during(self.generations(slot), from, to)
    }

    /// Whether any generation of `slot` overlapping the half-open window `[from, to)` is
    /// malicious.
    pub fn any_malicious_exposure(&self, slot: usize, from: SimTime, to: SimTime) -> bool {
        population::any_malicious_exposure(self.generations(slot), from, to)
    }

    /// Count of initially malicious nodes (generation 0; no timeline
    /// sampling needed).
    pub fn initial_malicious_count(&self) -> usize {
        self.world.genesis.initial_malicious_count()
    }

    /// The seed source, for components that fork protocol-level streams.
    pub fn seed(&self) -> SeedSource {
        self.seed
    }

    /// The `count` slots whose generation-0 IDs are XOR-closest to
    /// `target`, closest first — identical output to
    /// `Overlay::closest_slots`, computed by descending the implicit
    /// binary trie over the sorted ID index.
    pub fn closest_slots(&self, target: &NodeId, count: usize) -> Vec<usize> {
        self.world.index.closest_slots(target, count)
    }

    /// The slot responsible for `target` (XOR-closest generation-0 ID).
    pub fn resolve_holder(&self, target: &NodeId) -> usize {
        RESOLVES.incr();
        self.world.index.resolve(target)
    }

    /// Samples `count` distinct slots uniformly (same stream contract as
    /// `Overlay::sample_distinct_slots`).
    ///
    /// # Panics
    ///
    /// Panics if `count > n_nodes`.
    pub fn sample_distinct_slots<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        // LINT-WAIVER(panic): documented # Panics contract: cannot sample more slots than nodes
        assert!(
            count <= self.n_nodes(),
            "cannot sample more slots than exist"
        );
        rand::seq::index::sample(rng, self.n_nodes(), count).into_vec()
    }

    /// Stores `value` under `key` on the `replication` closest slots
    /// (oracle placement — no lookup traffic). Returns the slots written.
    pub fn store(&mut self, key: NodeId, value: Vec<u8>) -> Vec<usize> {
        self.store_with_ttl_opt(key, value, None)
    }

    /// Stores with a TTL.
    pub fn store_with_ttl(&mut self, key: NodeId, value: Vec<u8>, ttl: SimDuration) -> Vec<usize> {
        self.store_with_ttl_opt(key, value, Some(ttl))
    }

    fn store_with_ttl_opt(
        &mut self,
        key: NodeId,
        value: Vec<u8>,
        ttl: Option<SimDuration>,
    ) -> Vec<usize> {
        let targets = self.closest_slots(&key, self.config.replication);
        for &slot in &targets {
            self.world
                .stores
                .entry(slot)
                .or_default()
                .put(key, value.clone(), self.now, ttl);
        }
        targets
    }

    /// Reads a value back from the responsible slots (oracle lookup).
    pub fn find_value(&self, key: NodeId) -> Option<Vec<u8>> {
        let targets = self.closest_slots(&key, self.config.replication);
        for slot in targets {
            if let Some(v) = self
                .world
                .stores
                .get(&slot)
                .and_then(|store| store.get(&key, self.now))
            {
                return Some(v.value.clone());
            }
        }
        None
    }

    /// Direct access to a slot's local store (created on first use).
    pub fn store_of(&mut self, slot: usize) -> &mut Store {
        self.world.stores.entry(slot).or_default()
    }
}

impl Drop for AnalyticSubstrate {
    /// Parks this world's buffers for the thread's next build, replacing
    /// any world parked before. During thread teardown they are freed.
    fn drop(&mut self) {
        let world = std::mem::take(&mut self.world);
        let _ = SPARE_WORLD.try_with(|spare| spare.set(Some(world)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::sort_by_distance;
    use crate::overlay::Overlay;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(n: usize) -> OverlayConfig {
        OverlayConfig {
            n_nodes: n,
            ..OverlayConfig::default()
        }
    }

    #[test]
    fn population_matches_overlay_bit_for_bit() {
        let cfg = OverlayConfig {
            n_nodes: 200,
            malicious_fraction: 0.3,
            mean_lifetime: Some(2_000),
            horizon: 50_000,
            ..OverlayConfig::default()
        };
        let overlay = Overlay::build(cfg, 42);
        let analytic = AnalyticSubstrate::build(cfg, 42);
        for slot in 0..200 {
            assert_eq!(overlay.generations(slot), analytic.generations(slot));
        }
        assert_eq!(
            overlay.initial_malicious_count(),
            analytic.initial_malicious_count()
        );
    }

    #[test]
    fn rebuild_matches_fresh_build_bit_for_bit() {
        let cfg = OverlayConfig {
            n_nodes: 300,
            malicious_fraction: 0.25,
            mean_lifetime: Some(1_500),
            horizon: 40_000,
            ..OverlayConfig::default()
        };
        let mut warm = AnalyticSubstrate::build(cfg, 100);
        // Materialize a spread of timelines and dirty the clock/stores so
        // the rebuild has real state to recycle.
        for slot in [0usize, 7, 42, 199, 299] {
            let _ = warm.generations(slot);
        }
        warm.advance_to(SimTime::from_ticks(123));
        warm.store(NodeId::from_name(b"k"), b"v".to_vec());

        for seed in [100u64, 7, 0xDEAD] {
            warm.rebuild(seed);
            let fresh = AnalyticSubstrate::build(cfg, seed);
            assert_eq!(warm.now(), SimTime::ZERO);
            assert_eq!(warm.materialized_timelines(), 0);
            assert_eq!(
                warm.initial_malicious_count(),
                fresh.initial_malicious_count(),
                "seed {seed}"
            );
            for i in 0..50 {
                let target = NodeId::from_name(format!("probe-{i}").as_bytes());
                assert_eq!(warm.resolve_holder(&target), fresh.resolve_holder(&target));
                assert_eq!(
                    warm.closest_slots(&target, 6),
                    fresh.closest_slots(&target, 6)
                );
            }
            // Query out of order so rebuilt worlds hand out pooled buffers.
            for slot in [299usize, 0, 42, 7, 150, 42] {
                assert_eq!(
                    warm.generations(slot),
                    fresh.generations(slot),
                    "slot {slot}"
                );
            }
            assert_eq!(warm.find_value(NodeId::from_name(b"k")), None);
        }
    }

    #[test]
    fn recycled_builds_match_the_overlay_across_sizes() {
        // Each build starts from the world the previous iteration dropped,
        // dirty and of another size.
        for (n, seed) in [(500usize, 1u64), (120, 2), (900, 3), (1, 4)] {
            let cfg = OverlayConfig {
                n_nodes: n,
                malicious_fraction: 0.3,
                mean_lifetime: Some(2_000),
                horizon: 30_000,
                ..OverlayConfig::default()
            };
            let mut sub = AnalyticSubstrate::build(cfg, seed);
            let overlay = Overlay::build(cfg, seed);
            assert_eq!(sub.materialized_timelines(), 0);
            assert_eq!(sub.n_nodes(), n);
            for i in 0..20 {
                let target = NodeId::from_name(format!("probe-{i}").as_bytes());
                assert_eq!(
                    sub.closest_slots(&target, 4),
                    overlay.closest_slots(&target, 4)
                );
            }
            for slot in 0..n {
                assert_eq!(sub.generations(slot), overlay.generations(slot));
            }
            assert_eq!(sub.find_value(NodeId::from_name(b"dirt")), None);
            sub.store(NodeId::from_name(b"dirt"), b"v".to_vec());
            sub.advance_to(SimTime::from_ticks(77));
        }
    }

    #[test]
    fn timelines_are_lazy() {
        let cfg = OverlayConfig {
            n_nodes: 1_000,
            mean_lifetime: Some(1_000),
            horizon: 100_000,
            ..OverlayConfig::default()
        };
        let sub = AnalyticSubstrate::build(cfg, 9);
        assert_eq!(sub.materialized_timelines(), 0);
        let target = NodeId::from_name(b"one-holder");
        let slot = sub.resolve_holder(&target);
        assert_eq!(sub.materialized_timelines(), 0, "resolution needs no churn");
        let _ = sub.generation_at(slot, SimTime::from_ticks(500));
        assert_eq!(sub.materialized_timelines(), 1);
    }

    #[test]
    fn closest_slots_matches_brute_force() {
        let sub = AnalyticSubstrate::build(config(300), 7);
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..50 {
            let target = if i % 5 == 0 {
                NodeId::random(&mut rng)
            } else {
                NodeId::from_name(format!("probe-{i}").as_bytes())
            };
            let got = sub.closest_slots(&target, 8);
            let mut ids: Vec<NodeId> = (0..300).map(|s| sub.initial(s).id).collect();
            sort_by_distance(&mut ids, &target);
            for (rank, slot) in got.iter().enumerate() {
                assert_eq!(
                    sub.initial(*slot).id,
                    ids[rank],
                    "rank {rank} of {target:?}"
                );
            }
        }
    }

    #[test]
    fn resolution_agrees_with_overlay() {
        let overlay = Overlay::build(config(500), 21);
        let sub = AnalyticSubstrate::build(config(500), 21);
        for i in 0..100 {
            let target = NodeId::from_name(format!("addr-{i}").as_bytes());
            assert_eq!(overlay.resolve_holder(&target), sub.resolve_holder(&target));
            assert_eq!(
                overlay.closest_slots(&target, 5),
                sub.closest_slots(&target, 5)
            );
        }
    }

    #[test]
    fn fast_resolve_matches_general_traversal() {
        let sub = AnalyticSubstrate::build(config(257), 13);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..200 {
            let target = if i % 3 == 0 {
                NodeId::random(&mut rng)
            } else {
                // Also probe exact member IDs (distance-zero hits).
                sub.initial(i % 257).id
            };
            assert_eq!(
                sub.resolve_holder(&target),
                sub.closest_slots(&target, 1)[0],
                "target {target:?}"
            );
        }
    }

    #[test]
    fn closest_slots_handles_edge_counts() {
        let sub = AnalyticSubstrate::build(config(16), 3);
        let target = NodeId::from_name(b"x");
        assert!(sub.closest_slots(&target, 0).is_empty());
        assert_eq!(sub.closest_slots(&target, 16).len(), 16);
        assert_eq!(sub.closest_slots(&target, 100).len(), 16);
    }

    #[test]
    fn store_and_find_roundtrip() {
        let mut sub = AnalyticSubstrate::build(config(64), 5);
        let key = NodeId::from_name(b"k");
        let written = sub.store(key, b"v".to_vec());
        assert_eq!(written.len(), sub.config().replication);
        assert_eq!(sub.find_value(key), Some(b"v".to_vec()));
        assert_eq!(sub.find_value(NodeId::from_name(b"missing")), None);
    }

    #[test]
    fn ttl_expires_values() {
        let mut sub = AnalyticSubstrate::build(config(64), 6);
        let key = NodeId::from_name(b"ttl");
        sub.store_with_ttl(key, b"v".to_vec(), SimDuration::from_ticks(10));
        assert!(sub.find_value(key).is_some());
        sub.advance_to(SimTime::from_ticks(11));
        assert!(sub.find_value(key).is_none());
    }

    #[test]
    fn clock_is_monotonic() {
        let mut sub = AnalyticSubstrate::build(config(8), 1);
        sub.advance_to(SimTime::from_ticks(5));
        assert_eq!(sub.now(), SimTime::from_ticks(5));
    }

    #[test]
    #[should_panic(expected = "cannot go backwards")]
    fn clock_rejects_rewind() {
        let mut sub = AnalyticSubstrate::build(config(8), 1);
        sub.advance_to(SimTime::from_ticks(5));
        sub.advance_to(SimTime::from_ticks(4));
    }
}
