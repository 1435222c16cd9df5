//! The plan cache: one immutable DAG and sequential baseline per shape and
//! machine, shared by every request that names them.
//!
//! The paper counts the deviations and extra misses of a work-stealing
//! execution *against the sequential execution of the same DAG*. Both the
//! DAG of a [`ShapeSpec`] and its sequential baseline under
//! `(ForkPolicy, C)` are pure functions of those inputs — no
//! tenant seed, steal policy or processor count reaches them — so a
//! `Plan` holds exactly that pair and the server's `PlanCache` hands the
//! same `Arc<Plan>` to every submission with the same `PlanKey`.
//!
//! **Never cached:** the parallel result. The seeded stealing run is the
//! work the service exists to do, it differs per tenant, and a client that
//! replays a submission locally must keep checking something the server
//! actually computed.
//!
//! **Budget and eviction.** The cache holds at most [`PLAN_BUDGET_NODES`]
//! resident DAG nodes — the largest admissible shape fits alone. A hit
//! takes the read lock, clones the `Arc` and stamps the entry from a
//! relaxed clock; it never takes the write lock. A miss builds outside any
//! lock, then takes the write lock and evicts least-recently-hit entries
//! (smallest stamp; one scan of the resident plans per eviction) until the
//! new plan fits. A plan larger than the budget is used once and dropped.
//! Two workers missing the same key may both build; the second insert is
//! discarded in favour of the resident plan, so a key has at most one
//! resident plan. The history of a keyed cache partitions per key, so this
//! get-or-build is specified — and tested, `tests/plan_cache.rs` — one key
//! at a time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use wsf_core::{ForkPolicy, SeqReport, SequentialExecutor, SimConfig};
use wsf_dag::{Dag, DagBuilder};
use wsf_workloads::submission::{ShapeScratch, ShapeSpec, MAX_NODES};

/// Resident-node budget of a server's plan cache: the node cap of a single
/// admissible shape, so any shape a frame may name is cacheable alone.
pub const PLAN_BUDGET_NODES: u64 = MAX_NODES;

/// What every execution of a shape on a machine shares: the built DAG and
/// its sequential baseline. Immutable once built.
pub(crate) struct Plan {
    pub(crate) dag: Dag,
    pub(crate) seq: SeqReport,
}

impl Plan {
    /// Builds the shape and walks it sequentially on the key's machine —
    /// the only place the server does either.
    fn build(key: &PlanKey) -> Plan {
        let dag = key
            .spec
            .build_into(&mut DagBuilder::new(), &mut ShapeScratch::new());
        let seq = SequentialExecutor::new(key.fork_policy)
            .with_cache_lines(key.cache_lines)
            .run(&dag);
        Plan { dag, seq }
    }
}

/// What a [`Plan`] is a pure function of: the shape plus the two machine
/// parameters the sequential baseline reads. Everything else about the
/// tenant's machine (processors, seed, step bound) stays out, so two
/// tenants that differ only there share a key and no tenant seed enters
/// the cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    spec: ShapeSpec,
    fork_policy: ForkPolicy,
    cache_lines: usize,
}

impl PlanKey {
    pub(crate) fn new(spec: ShapeSpec, cfg: &SimConfig) -> Self {
        PlanKey {
            spec,
            fork_policy: cfg.fork_policy,
            cache_lines: cfg.cache_lines,
        }
    }
}

/// Plan-cache counters and residency, read at shutdown
/// ([`crate::ServerReport::plan`]) and on demand
/// ([`crate::ServerCore::plan_stats`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Executions served from a resident plan.
    pub hits: u64,
    /// Executions that built their plan (a racing double build counts
    /// twice).
    pub misses: u64,
    /// Plans evicted to make room for a newer one.
    pub evictions: u64,
    /// DAG nodes held by resident plans (at most [`PLAN_BUDGET_NODES`]).
    pub resident_nodes: u64,
    /// Resident plans.
    pub resident_plans: u64,
}

struct Entry {
    plan: Arc<Plan>,
    /// Clock value of the insert or the latest hit.
    stamp: AtomicU64,
}

#[derive(Default)]
struct Resident {
    plans: HashMap<PlanKey, Entry>,
    nodes: u64,
}

/// A bounded map from [`PlanKey`] to a shared [`Plan`]; see the module
/// docs for the budget and eviction rule.
pub(crate) struct PlanCache {
    budget: u64,
    resident: RwLock<Resident>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    pub(crate) fn new() -> Self {
        Self::with_budget(PLAN_BUDGET_NODES)
    }

    fn with_budget(budget: u64) -> Self {
        PlanCache {
            budget,
            resident: RwLock::default(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The resident plan for `key`, or a freshly built one (inserted if it
    /// fits the budget).
    pub(crate) fn get_or_build(&self, key: PlanKey) -> Arc<Plan> {
        {
            let resident = self.resident.read().expect("no panic under the plan lock");
            if let Some(entry) = resident.plans.get(&key) {
                entry.stamp.store(self.tick(), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.plan);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(Plan::build(&key));
        let nodes = plan.dag.num_nodes() as u64;
        if nodes > self.budget {
            return plan;
        }
        // Declared before the guard, so evicted plans are freed after the
        // write lock is released.
        let mut evicted = Vec::new();
        let mut resident = self.resident.write().expect("no panic under the plan lock");
        if let Some(entry) = resident.plans.get(&key) {
            return Arc::clone(&entry.plan); // lost the race: share the winner's
        }
        while resident.nodes + nodes > self.budget {
            let oldest = resident
                .plans
                .iter()
                .min_by_key(|(_, e)| e.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
                .expect("resident nodes > 0 means a resident plan");
            let entry = resident.plans.remove(&oldest).expect("key just found");
            resident.nodes -= entry.plan.dag.num_nodes() as u64;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted.push(entry.plan);
        }
        resident.nodes += nodes;
        let stamp = AtomicU64::new(self.tick());
        resident.plans.insert(
            key,
            Entry {
                plan: Arc::clone(&plan),
                stamp,
            },
        );
        plan
    }

    pub(crate) fn stats(&self) -> PlanStats {
        let resident = self.resident.read().expect("no panic under the plan lock");
        PlanStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_nodes: resident.nodes,
            resident_plans: resident.plans.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(leaves: u32) -> PlanKey {
        let cfg = SimConfig::new(4, 64, ForkPolicy::FutureFirst).with_seed(leaves as u64);
        PlanKey::new(ShapeSpec::Mergesort { leaves }, &cfg)
    }

    fn nodes(leaves: u32) -> u64 {
        Plan::build(&key(leaves)).dag.num_nodes() as u64
    }

    #[test]
    fn key_ignores_seed_and_processors_but_not_the_baseline_inputs() {
        let spec = ShapeSpec::Mergesort { leaves: 8 };
        let base = SimConfig::new(4, 64, ForkPolicy::FutureFirst);
        let k = PlanKey::new(spec, &base);
        assert_eq!(k, PlanKey::new(spec, &base.with_seed(99)));
        assert_eq!(
            k,
            PlanKey::new(spec, &SimConfig::new(2, 64, ForkPolicy::FutureFirst))
        );
        assert_ne!(
            k,
            PlanKey::new(spec, &SimConfig::new(4, 32, ForkPolicy::FutureFirst))
        );
        assert_ne!(
            k,
            PlanKey::new(spec, &SimConfig::new(4, 64, ForkPolicy::ParentFirst))
        );
        assert_ne!(k, PlanKey::new(ShapeSpec::Mergesort { leaves: 16 }, &base));
    }

    #[test]
    fn evicts_least_recently_hit_and_stays_within_budget() {
        let (a, b, c) = (nodes(8), nodes(16), nodes(32));
        // Room for the two larger plans together, not for all three.
        let cache = PlanCache::with_budget(b + c);
        cache.get_or_build(key(8));
        cache.get_or_build(key(16));
        cache.get_or_build(key(8)); // hit: 16 is now the least recently hit
        cache.get_or_build(key(32));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        assert_eq!((s.resident_plans, s.resident_nodes), (2, a + c));
        cache.get_or_build(key(8));
        assert_eq!(cache.stats().hits, 2, "the re-hit plan survived");
        cache.get_or_build(key(16));
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions), (4, 2), "16 was the one evicted");
        assert!(s.resident_nodes <= b + c);
    }

    #[test]
    fn a_plan_over_budget_is_built_and_not_kept() {
        let cache = PlanCache::with_budget(nodes(8));
        cache.get_or_build(key(8));
        let big = cache.get_or_build(key(64));
        assert_eq!(big.dag.num_nodes() as u64, nodes(64));
        let s = cache.stats();
        assert_eq!((s.resident_plans, s.evictions, s.misses), (1, 0, 2));
        cache.get_or_build(key(8));
        assert_eq!(cache.stats().hits, 1, "the resident plan was not displaced");
    }
}
