use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rpt_core::{Database, Mode, QueryOptions};
use rpt_workloads::Workload;

/// Scheduler overlap: the work-stealing worker pool over the TPC-H
/// workload tables with partitioned sinks. Alongside wall time, reports
/// the partition-overlap counter — consumer partition tasks that started
/// while their producer pipeline was still merging — and the pool's
/// utilization. The wall-clock win needs a multi-core runner; the overlap
/// and task counters are meaningful even on one core.
fn bench(c: &mut Criterion) {
    let cfg = rpt_bench::Config::tiny();
    let w: Workload = rpt_workloads::tpch(cfg.sf, cfg.seed);
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }

    let opts = QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_partition_count(8)
        .with_workers(4);

    // One-shot report: prove downstream partition tasks overlap producer
    // merges, and show the pool's task accounting.
    let mut total_overlap = 0u64;
    let mut total_tasks = 0u64;
    for qd in w.acyclic_queries() {
        let r = db
            .query(&qd.sql, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", qd.id));
        total_overlap += r.metrics.sched_overlap_tasks;
        total_tasks += r.metrics.sched_tasks;
        println!(
            "[sched_overlap] {}: tasks={} overlap={} queue-depth={} util={}%",
            qd.id,
            r.metrics.sched_tasks,
            r.metrics.sched_overlap_tasks,
            r.metrics.sched_max_queue_depth,
            r.metrics.scheduler_utilization_pct(),
        );
    }
    println!("[sched_overlap] total tasks={total_tasks} overlap={total_overlap}");

    let mut g = c.benchmark_group("sched_overlap");
    g.sample_size(10);
    g.bench_function("tpch_acyclic", |b| {
        b.iter(|| {
            for qd in w.acyclic_queries() {
                black_box(db.query(&qd.sql, &opts).expect("query"));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
