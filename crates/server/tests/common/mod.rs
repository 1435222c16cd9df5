//! Shared by the server's integration tests (`e2e.rs`, `plan_cache.rs`).

use wsf_core::{ParallelSimulator, PolicyScheduler};
use wsf_dag::{Dag, DagBuilder};
use wsf_server::TenantSpec;
use wsf_workloads::submission::{ShapeScratch, ShapeSpec};

/// Builds `spec` from scratch.
pub fn build(spec: ShapeSpec) -> Dag {
    spec.build_into(&mut DagBuilder::new(), &mut ShapeScratch::new())
}

/// Executes `spec` locally, from scratch, under `tenant`'s deterministic
/// simulator config — the ground truth a server completion must match.
pub fn local_replay(tenant: &TenantSpec, spec: ShapeSpec) -> (u64, u64) {
    let dag = build(spec);
    let sim = ParallelSimulator::new(tenant.sim_config());
    let seq = sim.sequential(&dag);
    let report = sim.run_against(&dag, &seq, &mut PolicyScheduler::new(tenant.policy), false);
    (report.cache_misses(), report.deviations())
}
