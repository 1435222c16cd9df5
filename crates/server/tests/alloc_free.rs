//! Proves the server's ingest hot path is allocation-free in steady state.
//!
//! This extends the simulator's counting-allocator proof
//! (`crates/core/tests/alloc_free.rs`) to the full decode → admit →
//! stage → `push_batch` path: a counting global allocator tracks *this
//! thread's* allocations while the test plays the connection-reader
//! role — feeding raw frame bytes through a [`FrameReader`] into
//! [`ServerCore::ingest_frame`]. After warm-up, a full ingest round must
//! allocate nothing at all on the ingest thread, round after round — only
//! possible if every buffer is reused: the frame reader's byte and word
//! arenas, the job staging buffer, and the injector's `VecDeque`. (Ingest
//! builds no DAG: the executing worker resolves the shape's shared plan.)
//!
//! Warm-up is adaptive rather than a fixed count: the staging buffer and
//! the injector's `VecDeque` allocate until each reaches its peak
//! capacity, and the test does not assume which round that is. It warms
//! until a long streak of zero-allocation rounds and only then asserts
//! the steady state.
//!
//! Executor-side work (the future cell, completion records) happens on
//! other threads and is out of scope here, per the counting-allocator
//! convention of measuring only the current thread;
//! `tests/plan_cache.rs` bounds the pool side of a warm hit.

use std::time::{Duration, Instant};

use wsf_server::{
    frame_request, AdmissionMode, Completion, FrameReader, ServerConfig, ServerCore, TenantSpec,
    STATUS_OK,
};
use wsf_workloads::submission::ShapeSpec;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::thread_allocs as allocs;

/// Zero-allocation rounds required before the steady state counts as
/// reached: long enough that the staging buffer and the injector's
/// `VecDeque` have reached their peak capacity.
const ZERO_STREAK: u32 = 30;
/// Warm-up bound; the streak itself takes `ZERO_STREAK` rounds.
const MAX_WARMUP_ROUNDS: u32 = 400;

#[test]
fn ingest_path_is_allocation_free_in_steady_state() {
    let core = ServerCore::new(ServerConfig {
        runtime_threads: 1,
        executors: 1,
        admission: AdmissionMode::QueueAll,
        tenants: vec![TenantSpec::default_with_seed(3)],
        fault_hooks: None,
    });
    let (mut ingest, conn) = core.connection();

    // Pre-encode one request frame per shape (buffers reused; the encode
    // itself is part of the warmed client, not the server's ingest path).
    let shapes = ShapeSpec::smoke_mix();
    let frames: Vec<Vec<u8>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let mut bytes = Vec::new();
            frame_request(0, &[(i as u64 + 1, s)], &mut bytes);
            bytes
        })
        .collect();

    let mut reader = FrameReader::new();
    let mut drained: Vec<Completion> = Vec::with_capacity(16);

    // One full ingest round, each frame's completion awaited before the
    // next frame is ingested. Only the ingest calls are inside the
    // measurement window.
    let mut round = || -> u64 {
        let mut count = 0;
        for bytes in &frames {
            let before = allocs();
            reader.push_bytes(bytes);
            while reader.poll_frame().expect("well-formed frame") {
                core.ingest_frame(&mut ingest, &conn, reader.words())
                    .expect("ingest");
            }
            count += allocs() - before;
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut got = 0;
            while got < 1 {
                assert!(Instant::now() < deadline, "completion timed out");
                drained.clear();
                got += conn.drain_completions(&mut drained, Duration::from_millis(50));
                for c in &drained {
                    assert_eq!(c.status, STATUS_OK);
                }
            }
        }
        count
    };

    let mut streak = 0u32;
    let mut warmup_rounds = 0u32;
    while streak < ZERO_STREAK {
        warmup_rounds += 1;
        assert!(
            warmup_rounds <= MAX_WARMUP_ROUNDS,
            "ingest never reached a {ZERO_STREAK}-round zero-allocation streak \
             within {MAX_WARMUP_ROUNDS} rounds: the hot path allocates in steady state"
        );
        if round() == 0 {
            streak += 1;
        } else {
            streak = 0;
        }
    }

    // Steady state: every further round must allocate nothing on this
    // thread.
    for i in 0..ZERO_STREAK {
        let steady = round();
        assert_eq!(
            steady, 0,
            "steady-state ingest round {i} allocated {steady} times on the reader \
             thread; decode → admit → stage → push_batch must reuse every buffer"
        );
    }

    let report = core.shutdown(Duration::from_secs(10));
    assert!(report.drained);
}
