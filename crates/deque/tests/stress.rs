//! Multi-threaded stress tests of the Chase–Lev deque and the MPMC
//! injector: N stealers race one owner (or N producers race M consumers),
//! and every pushed item must be delivered exactly once — no losses, no
//! duplications — including while buffers grow under contention.
//!
//! (The `chase_lev` safety argument promises exactly this; the injector
//! gets it from its lock.) One more injector test pins where its stall
//! hook fires: before the lock, so a stalled operation stalls only its
//! caller.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use wsf_deque::{deque, Injector, StallSite, Steal};

/// Runs one owner against `thieves` stealers: the owner pushes `total`
/// distinct items in bursts (interleaving pops of roughly half of each
/// burst), the stealers drain from the top until told to stop. Returns
/// every delivered item.
fn hammer(thieves: usize, total: usize, burst: usize) -> Vec<usize> {
    let (worker, stealer) = deque::<usize>();
    let received: Mutex<Vec<usize>> = Mutex::new(Vec::with_capacity(total));
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..thieves)
            .map(|_| {
                let stealer = stealer.clone();
                let received = &received;
                let done = &done;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        match stealer.steal() {
                            Steal::Success(v) => local.push(v),
                            Steal::Retry => {}
                            Steal::Empty => {
                                // Only stop once the producer is finished
                                // AND the deque has been observed empty
                                // afterwards, so no trailing items are lost.
                                if done.load(Ordering::Acquire) {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                        }
                    }
                    received.lock().unwrap().extend(local);
                })
            })
            .collect();

        let mut local = Vec::new();
        let mut next = 0usize;
        while next < total {
            let end = (next + burst).min(total);
            for v in next..end {
                worker.push(v);
            }
            next = end;
            for _ in 0..burst / 2 {
                if let Some(v) = worker.pop() {
                    local.push(v);
                }
            }
        }
        while let Some(v) = worker.pop() {
            local.push(v);
        }
        done.store(true, Ordering::Release);

        for h in handles {
            h.join().unwrap();
        }
        received.lock().unwrap().extend(local);
    });

    received.into_inner().unwrap()
}

/// Checks the exactly-once delivery of `0..total` in `delivered`.
fn assert_exactly_once(mut delivered: Vec<usize>, total: usize, context: &str) {
    assert_eq!(
        delivered.len(),
        total,
        "{context}: delivered {} of {total} items (lost or duplicated)",
        delivered.len()
    );
    delivered.sort_unstable();
    for (expect, got) in delivered.iter().enumerate() {
        assert_eq!(
            *got, expect,
            "{context}: item set is not exactly 0..{total}"
        );
    }
}

#[test]
fn one_stealer_vs_owner() {
    let total = 20_000;
    assert_exactly_once(hammer(1, total, 64), total, "1 thief");
}

#[test]
fn many_stealers_vs_owner() {
    // More thieves than cores forces constant CAS races on `top`.
    for thieves in [2usize, 4, 8] {
        let total = 20_000;
        assert_exactly_once(
            hammer(thieves, total, 128),
            total,
            &format!("{thieves} thieves"),
        );
    }
}

#[test]
fn growth_under_contention() {
    // Bursts far beyond the initial capacity force repeated `grow` calls
    // while stealers are actively reading; retired buffers must keep
    // in-flight reads valid (no torn values, exactly-once delivery).
    let total = 50_000;
    assert_exactly_once(hammer(4, total, 4_096), total, "growth bursts");
}

#[test]
fn stealers_never_fabricate_items() {
    // Thieves that race an owner popping *everything* must only ever
    // observe genuine values: each steal result is either a real item or
    // Empty/Retry, and the grand total stays exact.
    let (worker, stealer) = deque::<usize>();
    let stolen = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let total = 30_000usize;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let stealer = stealer.clone();
                let stolen = &stolen;
                let done = &done;
                scope.spawn(move || loop {
                    match stealer.steal() {
                        Steal::Success(v) => {
                            assert!(v < total, "stole fabricated value {v}");
                            stolen.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        let mut popped = 0usize;
        for v in 0..total {
            worker.push(v);
            // Aggressive owner: immediately tries to take it back.
            if worker.pop().is_some() {
                popped += 1;
            }
        }
        while worker.pop().is_some() {
            popped += 1;
        }
        done.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }

        assert_eq!(
            popped + stolen.load(Ordering::Relaxed),
            total,
            "pops + steals must account for every push exactly once"
        );
    });
}

/// Runs `producers` pushers against `consumers` poppers on one [`Injector`]
/// and returns everything delivered. Each producer pushes a disjoint range
/// of `0..producers * per_producer`.
fn hammer_injector(producers: usize, consumers: usize, per_producer: usize) -> Vec<usize> {
    let q: Injector<usize> = Injector::new();
    let received: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let live_producers = AtomicUsize::new(producers);

    std::thread::scope(|scope| {
        for t in 0..producers {
            let q = &q;
            let live_producers = &live_producers;
            scope.spawn(move || {
                for i in 0..per_producer {
                    q.push(t * per_producer + i);
                }
                live_producers.fetch_sub(1, Ordering::Release);
            });
        }
        for _ in 0..consumers {
            let q = &q;
            let received = &received;
            let live_producers = &live_producers;
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    match q.steal() {
                        Some(v) => local.push(v),
                        None => {
                            // Stop only after observing the queue empty with
                            // no producer left, so trailing items aren't
                            // dropped.
                            if live_producers.load(Ordering::Acquire) == 0 && q.steal().is_none() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                received.lock().unwrap().extend(local);
            });
        }
    });

    received.into_inner().unwrap()
}

#[test]
fn injector_mpmc_exactly_once() {
    // N producers, M consumers; every value must arrive exactly once.
    for (producers, consumers) in [(1usize, 1usize), (2, 2), (4, 2), (2, 4), (4, 4)] {
        let per_producer = 10_000;
        let total = producers * per_producer;
        assert_exactly_once(
            hammer_injector(producers, consumers, per_producer),
            total,
            &format!("{producers} producers x {consumers} consumers"),
        );
    }
}

#[test]
fn injector_preserves_fifo_per_producer() {
    // With one producer and one consumer the injector is a plain FIFO.
    let q: Injector<usize> = Injector::new();
    let total = 5_000usize;
    std::thread::scope(|scope| {
        let q = &q;
        scope.spawn(move || {
            for v in 0..total {
                q.push(v);
            }
        });
        let mut expect = 0usize;
        while expect < total {
            if let Some(v) = q.steal() {
                assert_eq!(v, expect, "single-consumer order must be FIFO");
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
    });
    assert!(q.is_empty());
}

#[test]
fn worker_is_send_across_threads() {
    // The owner handle may migrate between threads (it is Send, just not
    // Sync); delivery stays exactly-once across the move.
    let (worker, stealer) = deque::<usize>();
    for v in 0..100 {
        worker.push(v);
    }
    let handle = std::thread::spawn(move || {
        let mut got = Vec::new();
        while let Some(v) = worker.pop() {
            got.push(v);
        }
        got
    });
    let mut got = handle.join().unwrap();
    // Nothing was stolen, so the mover drained everything.
    assert!(stealer.steal().is_empty());
    got.sort_unstable();
    assert_eq!(got, (0..100).collect::<Vec<_>>());
}

#[test]
fn injector_push_batch_exactly_once_under_contention() {
    // Batched ingest must keep the exactly-once guarantee while racing
    // scalar producers and concurrent consumers. Batch sizes are mixed and
    // producers alternate batch/scalar pushes, so whole batches interleave
    // with single pushes.
    let producers = 3usize;
    let consumers = 3usize;
    let batches_per_producer = 120usize;
    let sizes = [1usize, 5, 61, 64, 73, 128];
    let per_producer: usize = (0..batches_per_producer)
        .map(|b| sizes[b % sizes.len()])
        .sum();

    let q: Injector<usize> = Injector::new();
    let received: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let live_producers = AtomicUsize::new(producers);

    std::thread::scope(|scope| {
        for t in 0..producers {
            let q = &q;
            let live_producers = &live_producers;
            scope.spawn(move || {
                let mut next = t * per_producer;
                for b in 0..batches_per_producer {
                    let size = sizes[b % sizes.len()];
                    if b % 3 == 2 {
                        // Every third batch goes through the scalar path.
                        for v in next..next + size {
                            q.push(v);
                        }
                    } else {
                        q.push_batch(next..next + size);
                    }
                    next += size;
                }
                live_producers.fetch_sub(1, Ordering::Release);
            });
        }
        for _ in 0..consumers {
            let q = &q;
            let received = &received;
            let live_producers = &live_producers;
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    match q.steal() {
                        Some(v) => local.push(v),
                        None => {
                            if live_producers.load(Ordering::Acquire) == 0 && q.steal().is_none() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                received.lock().unwrap().extend(local);
            });
        }
    });

    let total = producers * per_producer;
    assert_exactly_once(received.into_inner().unwrap(), total, "batched producers");
}

#[test]
fn injector_exactly_once_under_sustained_contention() {
    // Two producers and two consumers stay continuously in flight: the
    // producers throttle against a bounded in-flight window, so the queue
    // hovers near a small length and keeps draining to empty and refilling
    // while every value must still arrive exactly once.
    let q: Injector<usize> = Injector::new();
    let producers = 2usize;
    let consumers = 2usize;
    let per_producer = 256 * 64;
    let window = 8 * 64;
    let pushed = AtomicUsize::new(0);
    let popped = AtomicUsize::new(0);
    let live_producers = AtomicUsize::new(producers);
    let received: Mutex<Vec<usize>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..producers {
            let q = &q;
            let pushed = &pushed;
            let popped = &popped;
            let live_producers = &live_producers;
            scope.spawn(move || {
                for i in 0..per_producer {
                    // Bound the in-flight item count (wrapping_sub: the
                    // relaxed counter reads may be mutually stale, which at
                    // worst costs one extra yield).
                    while pushed
                        .load(Ordering::Relaxed)
                        .wrapping_sub(popped.load(Ordering::Relaxed))
                        >= window
                    {
                        std::thread::yield_now();
                    }
                    q.push(t * per_producer + i);
                    pushed.fetch_add(1, Ordering::Relaxed);
                }
                live_producers.fetch_sub(1, Ordering::Release);
            });
        }
        for _ in 0..consumers {
            let q = &q;
            let popped = &popped;
            let live_producers = &live_producers;
            let received = &received;
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    match q.steal() {
                        Some(v) => {
                            local.push(v);
                            popped.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if live_producers.load(Ordering::Acquire) == 0 {
                                match q.steal() {
                                    Some(v) => {
                                        local.push(v);
                                        popped.fetch_add(1, Ordering::Relaxed);
                                    }
                                    None => break,
                                }
                            } else {
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                received.lock().unwrap().extend(local);
            });
        }
    });

    let total = producers * per_producer;
    assert_exactly_once(
        received.into_inner().unwrap(),
        total,
        "sustained contention",
    );
}

#[test]
fn injector_stalled_operation_stalls_only_its_caller() {
    // Thread A's push parks in the stall hook. While it is parked, thread
    // B must push and steal its own value, then release A. If the hook
    // ever fired with the lock held, B would block on the lock and the
    // bounded wait below would fail instead of hanging.
    use std::sync::mpsc;
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(10);
    let q: Injector<usize> = Injector::new();
    let armed = AtomicBool::new(true);
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    // Only the first push (A's) parks; it gives up after twice the test's
    // own wait, so a regression fails the assertion before A moves on.
    let park = move |site| {
        if site == StallSite::Push && armed.swap(false, Ordering::SeqCst) {
            entered_tx.send(()).unwrap();
            let _ = release_rx.lock().unwrap().recv_timeout(2 * WAIT);
        }
    };
    assert!(q.install_stall_hook(park));

    std::thread::scope(|scope| {
        let q = &q;
        let (a_done_tx, a_done_rx) = mpsc::channel::<()>();
        scope.spawn(move || {
            q.push(1);
            a_done_tx.send(()).unwrap();
        });
        entered_rx
            .recv_timeout(WAIT)
            .expect("thread A never reached the stall hook");

        let (b_done_tx, b_done_rx) = mpsc::channel::<Option<usize>>();
        scope.spawn(move || {
            q.push(2);
            b_done_tx.send(q.steal()).unwrap();
            release_tx.send(()).unwrap();
        });
        let stolen = b_done_rx
            .recv_timeout(WAIT)
            .expect("thread B blocked behind thread A's stalled push");
        assert_eq!(stolen, Some(2), "B must steal its own value");
        a_done_rx
            .recv_timeout(WAIT)
            .expect("thread A never finished its push after release");
    });
    assert_eq!(q.steal(), Some(1));
    assert!(q.is_empty());
}
