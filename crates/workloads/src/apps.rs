//! Application-shaped fork-join DAGs.
//!
//! Section 4 of the paper observes that fork-join (Cilk-style) programs are
//! a strict subset of structured single-touch computations. These
//! generators model the classic divide-and-conquer kernels as computation
//! DAGs with realistic memory-block footprints, so the locality experiments
//! can report numbers for "programs people actually write" alongside the
//! worst-case figures.

use wsf_dag::{Block, Dag, DagBuilder, ThreadId};

/// Parallel `fib(n)`-style double recursion: each call spawns one future
/// for `fib(n-1)`, computes `fib(n-2)` itself and touches the future. Every
/// call touches one memory block representing its stack frame.
pub fn fib(n: usize) -> Dag {
    let mut b = DagBuilder::new();
    let mut next_block = 0u32;
    fib_rec(&mut b, ThreadId::MAIN, n, &mut next_block);
    b.task(ThreadId::MAIN);
    b.finish().expect("fib builds a valid DAG")
}

fn fib_rec(b: &mut DagBuilder, thread: ThreadId, n: usize, next_block: &mut u32) {
    let frame = Block(*next_block);
    *next_block += 1;
    let node = b.task(thread);
    b.set_block(node, frame);
    if n < 2 {
        return;
    }
    let f = b.fork(thread);
    fib_rec(b, f.future_thread, n - 1, next_block);
    // The continuation computes fib(n-2) inline.
    b.task(thread);
    fib_rec(b, thread, n - 2, next_block);
    // Touch the spawned future and combine, re-accessing the frame block.
    let t = b.touch_thread(thread, f.future_thread);
    let _ = t;
    let combine = b.task(thread);
    b.set_block(combine, frame);
}

/// Divide-and-conquer reduction (sum / mergesort skeleton) over `len`
/// elements with the given `grain`: leaves scan a contiguous run of blocks
/// (one block per `block_size` elements), inner nodes spawn the left half
/// and compute the right half.
pub fn reduce(len: usize, grain: usize, block_size: usize) -> Dag {
    let mut b = DagBuilder::new();
    reduce_rec(
        &mut b,
        ThreadId::MAIN,
        0,
        len.max(1),
        grain.max(1),
        block_size.max(1),
    );
    b.task(ThreadId::MAIN);
    b.finish().expect("reduce builds a valid DAG")
}

fn reduce_rec(
    b: &mut DagBuilder,
    thread: ThreadId,
    lo: usize,
    hi: usize,
    grain: usize,
    block_size: usize,
) {
    if hi - lo <= grain {
        // Leaf: scan the range, touching one block per `block_size` items.
        let mut i = lo;
        while i < hi {
            let n = b.task(thread);
            b.set_block(n, Block((i / block_size) as u32));
            i += block_size;
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let f = b.fork(thread);
    reduce_rec(b, f.future_thread, lo, mid, grain, block_size);
    b.task(thread);
    reduce_rec(b, thread, mid, hi, grain, block_size);
    b.touch_thread(thread, f.future_thread);
}

/// Blocked matrix multiplication skeleton: `tiles × tiles` output tiles,
/// each computed by a future thread that streams over a row of A-tiles and
/// a column of B-tiles. The parent touches the tiles in row-major (FIFO)
/// order, which is single-touch but not fork-join.
pub fn matmul(tiles: usize, inner: usize) -> Dag {
    let tiles = tiles.max(1);
    let inner = inner.max(1);
    let mut b = DagBuilder::new();
    let main = b.main_thread();
    let a_base = 0u32;
    let b_base = (tiles * inner) as u32;
    let c_base = 2 * (tiles * inner) as u32;

    let mut futures = Vec::new();
    for i in 0..tiles {
        for j in 0..tiles {
            let f = b.fork(main);
            for k in 0..inner {
                let n1 = b.task(f.future_thread);
                b.set_block(n1, Block(a_base + (i * inner + k) as u32));
                let n2 = b.task(f.future_thread);
                b.set_block(n2, Block(b_base + (k * tiles + j) as u32));
            }
            let out = b.task(f.future_thread);
            b.set_block(out, Block(c_base + (i * tiles + j) as u32));
            futures.push(f.future_thread);
        }
    }
    b.task(main);
    for t in futures {
        b.touch_thread(main, t);
    }
    b.task(main);
    b.finish().expect("matmul builds a valid DAG")
}

/// A map-reduce: `ways` independent mapper futures each scanning their own
/// input blocks, a reducer that touches them in creation order and folds
/// each result into one accumulator block, the first id past the mappers'.
pub fn map_reduce(ways: usize, work_per_way: usize) -> Dag {
    let ways = ways.max(1);
    let accumulator = Block((ways * work_per_way.max(1)) as u32);
    let mut b = DagBuilder::new();
    let main = b.main_thread();
    let mut futures = Vec::new();
    for w in 0..ways {
        let f = b.fork(main);
        for i in 0..work_per_way.max(1) {
            let n = b.task(f.future_thread);
            b.set_block(n, Block((w * work_per_way + i) as u32));
        }
        futures.push(f.future_thread);
    }
    b.task(main);
    for t in futures {
        b.touch_thread(main, t);
        let n = b.task(main);
        b.set_block(n, accumulator);
    }
    b.finish().expect("map_reduce builds a valid DAG")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsf_core::{ForkPolicy, ParallelSimulator, SimConfig};
    use wsf_dag::classify;

    #[test]
    fn fib_is_fork_join_and_single_touch() {
        let dag = fib(8);
        let class = classify(&dag);
        assert!(class.is_structured_single_touch(), "{:?}", class.violations);
        assert!(class.local_touch);
        assert!(class.fork_join, "fib spawns and syncs in LIFO order");
    }

    #[test]
    fn reduce_is_fork_join() {
        let dag = reduce(256, 16, 8);
        let class = classify(&dag);
        assert!(class.fork_join, "{:?}", class.violations);
        assert!(dag.num_threads() > 4);
    }

    #[test]
    fn matmul_and_map_reduce_are_single_touch_not_fork_join() {
        for dag in [matmul(3, 4), map_reduce(6, 10)] {
            let class = classify(&dag);
            assert!(class.is_structured_single_touch(), "{:?}", class.violations);
            assert!(class.local_touch);
            assert!(!class.fork_join, "FIFO touch order crosses intervals");
        }
    }

    #[test]
    fn map_reduce_numbers_its_blocks_densely() {
        for (ways, w) in [(1, 1), (4, 3), (16, 32)] {
            assert_eq!(map_reduce(ways, w).block_space(), ways * w + 1);
        }
    }

    #[test]
    fn app_dags_execute_and_benefit_from_parallelism() {
        let dag = reduce(512, 16, 8);
        let seq = ParallelSimulator::new(SimConfig::new(1, 32, ForkPolicy::FutureFirst)).run(&dag);
        let par = ParallelSimulator::new(SimConfig::new(8, 32, ForkPolicy::FutureFirst)).run(&dag);
        assert!(seq.completed && par.completed);
        assert!(
            par.makespan < seq.makespan,
            "8 processors shorten the makespan"
        );
    }
}
