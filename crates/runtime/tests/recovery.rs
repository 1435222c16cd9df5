//! Crash-recovery tests: seeded fault schedules (worker kills, task
//! panics, injector stalls, delayed wakeups) driven through the streaming
//! epoch engine, asserting exactly-once committed effects.
//!
//! The fault seed is taken from `WSF_FAULT_SEED` when set (the CI
//! fault-matrix job sweeps it), so a failure reproduces by exporting the
//! printed seed.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use wsf_runtime::{
    fault_seed_from_env, sequential_reference, CheckpointStore, EpochConfig, FaultPlan, FaultSpec,
    Runtime, SpawnPolicy, StreamEngine, StreamSource, StreamStage,
};

/// Order-sensitive pipeline stage: a reordered or replayed fold changes
/// the committed state, so exactly-once violations are visible in it.
struct Mix(u64);

impl StreamStage for Mix {
    fn init(&self) -> u64 {
        self.0
    }
    fn transform(&self, state: u64, input: u64) -> u64 {
        (input ^ state)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15 | self.0)
            .rotate_left(7)
    }
    fn fold(&self, state: u64, output: u64) -> u64 {
        state.rotate_left(5).wrapping_add(output)
    }
}

fn stages() -> Vec<Arc<dyn StreamStage>> {
    vec![Arc::new(Mix(1)), Arc::new(Mix(2)), Arc::new(Mix(3))]
}

fn source(len: u64) -> impl StreamSource {
    move |i: u64| (i < len).then(|| i.wrapping_mul(0xd134_2543_de82_ef95) ^ 0x5eed)
}

fn config() -> EpochConfig {
    EpochConfig {
        epoch_items: 16,
        window: 4,
        max_retries: 6,
        retry_backoff: Duration::from_millis(1),
        task_timeout: Duration::from_secs(10),
    }
}

/// The fingerprint a fault-free run of `len` items commits (the ground
/// truth faulted runs must reproduce byte-for-byte).
fn baseline_fingerprint(len: u64) -> u64 {
    let rt = Arc::new(Runtime::builder().threads(2).build());
    let mut engine = StreamEngine::new(rt, stages(), config());
    engine.run(&source(len)).expect("fault-free baseline");
    engine.store().fingerprint()
}

#[test]
fn kill_worker_mid_epoch_recovers_exactly_once() {
    let seed = fault_seed_from_env().unwrap_or(1);
    let len = 96u64; // 6 epochs of 16
    let reference = sequential_reference(&stages(), &source(len), 16);
    let clean_fp = baseline_fingerprint(len);

    for policy in SpawnPolicy::ALL {
        let spec = FaultSpec {
            // Well under the ~96 dequeues the stream guarantees, so every
            // drawn fault actually fires.
            horizon: 48,
            panics: 3,
            kills: 2,
            stall_period: 5,
            stall: Duration::from_micros(100),
            wakeup_period: 3,
            wakeup_delay: Duration::from_micros(50),
        };
        let plan = Arc::new(FaultPlan::seeded(seed, &spec));
        let rt = Arc::new(
            Runtime::builder()
                .threads(3)
                .policy(policy)
                .fault_hooks(Arc::clone(&plan) as _)
                .build(),
        );

        let mut engine = StreamEngine::new(Arc::clone(&rt), stages(), config());
        let report = engine
            .run(&source(len))
            .unwrap_or_else(|e| panic!("seed {seed} / {policy}: run failed: {e}"));

        assert_eq!(report.epochs_committed, 6, "seed {seed} / {policy}");
        assert_eq!(report.items, len, "seed {seed} / {policy}");
        engine
            .store()
            .validate()
            .unwrap_or_else(|e| panic!("seed {seed} / {policy}: bad log: {e}"));
        assert_eq!(
            engine.committed_states(),
            reference,
            "seed {seed} / {policy}: exactly-once item effects"
        );
        assert_eq!(
            engine.store().fingerprint(),
            clean_fp,
            "seed {seed} / {policy}: checkpoints identical to the fault-free run"
        );

        // The schedule was actually exercised: both kills fired, each
        // killing one worker permanently.
        assert_eq!(plan.fired_kills(), 2, "seed {seed} / {policy}");
        assert_eq!(plan.fired_panics(), 3, "seed {seed} / {policy}");
        let stats = rt.stats();
        assert_eq!(stats.worker_deaths, 2, "seed {seed} / {policy}");
        assert_eq!(rt.live_workers(), 1, "seed {seed} / {policy}");
        assert!(
            report.retries >= 1,
            "seed {seed} / {policy}: faults mid-epoch force at least one retry"
        );
        eprintln!(
            "seed {seed} / {policy}: retries={} stalls={} delays={}",
            report.retries,
            plan.fired_stalls(),
            plan.fired_delays()
        );
    }
}

#[test]
fn restore_resumes_from_last_committed_checkpoint() {
    // Phase 1: a worker is killed mid-stream; the process "crashes" after
    // 3 committed epochs and persists its checkpoint log.
    let seed = fault_seed_from_env().unwrap_or(1);
    let len = 80u64; // 5 epochs of 16
    let words = {
        let spec = FaultSpec {
            horizon: 24,
            panics: 1,
            kills: 1,
            stall_period: 4,
            stall: Duration::from_micros(100),
            wakeup_period: 0,
            wakeup_delay: Duration::ZERO,
        };
        let plan = Arc::new(FaultPlan::seeded(seed, &spec));
        let rt = Arc::new(
            Runtime::builder()
                .threads(2)
                .fault_hooks(Arc::clone(&plan) as _)
                .build(),
        );
        let mut engine = StreamEngine::new(rt, stages(), config());
        let report = engine
            .run_epochs(&source(len), 3)
            .expect("first process commits 3 epochs");
        assert_eq!(report.epochs_committed, 3);
        engine.into_store().encode()
        // Runtime (with its dead worker) drops here: the crash.
    };

    // Phase 2: a fresh process decodes the log and resumes — replaying
    // nothing before the last barrier and finishing the stream.
    let store = CheckpointStore::decode(&words).expect("persisted log decodes");
    assert_eq!(store.len(), 3);
    let rt = Arc::new(Runtime::builder().threads(2).build());
    let mut engine = StreamEngine::resume(rt, stages(), config(), store).expect("log is resumable");
    assert_eq!(engine.next_item(), 48, "resume offset is the last barrier");
    engine.run(&source(len)).expect("resumed run finishes");

    assert_eq!(
        engine.committed_states(),
        sequential_reference(&stages(), &source(len), 16),
        "seed {seed}: restored stream commits the same final states"
    );
    assert_eq!(engine.store().fingerprint(), baseline_fingerprint(len));
}

#[test]
fn all_workers_dead_degrades_to_inline_commits() {
    // Kill the only worker early: the engine must shrink to zero workers
    // and keep committing inline on the driver thread rather than abort.
    let seed = fault_seed_from_env().unwrap_or(1);
    let spec = FaultSpec {
        horizon: 4,
        panics: 0,
        kills: 1,
        stall_period: 0,
        stall: Duration::ZERO,
        wakeup_period: 0,
        wakeup_delay: Duration::ZERO,
    };
    let plan = Arc::new(FaultPlan::seeded(seed, &spec));
    let rt = Arc::new(
        Runtime::builder()
            .threads(1)
            .fault_hooks(Arc::clone(&plan) as _)
            .build(),
    );
    let len = 48u64;
    let mut engine = StreamEngine::new(Arc::clone(&rt), stages(), config());
    let report = engine
        .run(&source(len))
        .expect("degraded run still commits");

    assert_eq!(plan.fired_kills(), 1, "seed {seed}");
    assert_eq!(rt.live_workers(), 0, "seed {seed}");
    assert!(
        report.inline_epochs >= 1,
        "seed {seed}: at least one epoch ran inline after the pool died"
    );
    assert_eq!(report.epochs_committed, 3, "seed {seed}");
    assert_eq!(
        engine.committed_states(),
        sequential_reference(&stages(), &source(len), 16),
        "seed {seed}"
    );
    assert_eq!(engine.store().fingerprint(), baseline_fingerprint(len));
}

/// Body of the property below (outside the macro: the vendored proptest
/// macro recurses per token, so keep the in-macro body tiny). Runs one
/// random fault schedule and checks the exactly-once commit invariants:
/// the log stays contiguous (no lost or duplicated epoch) and the
/// committed states match the sequential reference.
fn check_random_schedule(seed: u64, panics: usize, kills: usize) -> Result<(), String> {
    let spec = FaultSpec {
        horizon: 20,
        panics,
        kills,
        stall_period: 3,
        stall: Duration::from_micros(50),
        wakeup_period: 4,
        wakeup_delay: Duration::from_micros(50),
    };
    let plan = Arc::new(FaultPlan::seeded(seed, &spec));
    let rt = Arc::new(
        Runtime::builder()
            .threads(3)
            .fault_hooks(Arc::clone(&plan) as _)
            .build(),
    );
    let len = 40u64; // 5 epochs of 8
    let cfg = EpochConfig {
        epoch_items: 8,
        window: 3,
        max_retries: 8,
        retry_backoff: Duration::from_millis(1),
        task_timeout: Duration::from_secs(10),
    };
    let mut engine = StreamEngine::new(rt, stages(), cfg);
    let report = engine
        .run(&source(len))
        .map_err(|e| format!("seed {seed}: run failed: {e}"))?;
    if report.epochs_committed != 5 || report.items != len {
        return Err(format!("seed {seed}: bad report {report:?}"));
    }
    engine
        .store()
        .validate()
        .map_err(|e| format!("seed {seed}: commit log violated: {e}"))?;
    if engine.committed_states() != sequential_reference(&stages(), &source(len), 8) {
        return Err(format!("seed {seed}: committed states diverged"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random fault schedules never lose or duplicate epoch commits.
    #[test]
    fn random_fault_schedules_never_lose_or_duplicate_commits(
        (seed, panics, kills) in (any::<u64>(), 0usize..5, 0usize..3)
    ) {
        let outcome = check_random_schedule(seed, panics, kills);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}
