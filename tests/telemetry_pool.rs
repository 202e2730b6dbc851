//! Cross-crate telemetry tests: counters shared by `ExecPool` workers
//! must sum exactly, and the pool must leave utilization metrics in
//! the global registry without perturbing results.

use simcore::ExecPool;

#[test]
fn concurrent_pool_increments_sum_exactly() {
    // One counter, many workers, dynamic shard claiming: every item
    // accounted for exactly once regardless of scheduling.
    let registry = obs::metrics::Registry::new();
    let counter = registry.counter("test.pool_increments");
    let items: Vec<u32> = (0..25_000).collect();
    for workers in [1, 2, 8] {
        let before = counter.get();
        let total = ExecPool::new(workers).par_chunks_fold(
            &items,
            7,
            |_, shard| {
                for _ in shard {
                    counter.inc();
                }
                shard.len()
            },
            0usize,
            |total, _, n| *total += n,
        );
        assert_eq!(total, items.len());
        assert_eq!(
            counter.get() - before,
            items.len() as u64,
            "workers={workers} lost or double-counted increments"
        );
    }
}

#[test]
fn pool_fanout_records_utilization_metrics() {
    let tasks = obs::metrics::counter("pool.tasks");
    let calls = obs::metrics::counter("pool.calls");
    let busy = obs::metrics::histogram("pool.worker_busy_ns", &obs::metrics::LATENCY_NS);
    let (t0, c0, b0) = (tasks.get(), calls.get(), busy.count());

    let sums = ExecPool::new(4).run_indexed(64, |shard| {
        (shard as u64 * 64..(shard as u64 + 1) * 64)
            .map(|v| v.wrapping_mul(31))
            .sum::<u64>()
    });
    assert_eq!(sums.len(), 64);

    // 64 shards dispatched, at least one parallel call, and busy-time
    // samples for its workers. Other tests in this binary may also use
    // the pool, so assert deltas as lower bounds.
    assert!(tasks.get() >= t0 + 64, "pool.tasks did not advance");
    assert!(calls.get() >= c0 + 1, "pool.calls did not advance");
    assert!(busy.count() >= b0 + 2, "no worker busy-time samples");

    let imbalance = obs::metrics::gauge("pool.imbalance").get();
    assert!(
        imbalance >= 1.0,
        "imbalance {imbalance} must be max/mean >= 1 after a parallel call"
    );
}

#[test]
fn serial_pool_skips_parallel_metrics_but_counts_tasks() {
    let tasks = obs::metrics::counter("pool.tasks");
    let before = tasks.get();
    let items: Vec<u8> = vec![0; 10];
    ExecPool::serial().par_chunks_fold(&items, 1, |_, s| s.len(), (), |_, _, _| {});
    assert!(tasks.get() >= before + 10);
}
