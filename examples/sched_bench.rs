//! Repartition-elision harness: runs corpus-style TPC-H / TPC-DS queries
//! on the work-stealing worker pool with repartition elision on and off,
//! checks row parity and counter engagement, times both legs, and writes
//! the comparison to `BENCH_sched.json` (the checked-in benchmark artifact
//! the roadmap tracks across PRs). The scheduler counters of the elision-on
//! leg (steals, local hits, promotions, utilization) are reported
//! alongside.
//!
//! Run from the repo root (release, or the numbers are meaningless):
//!
//! ```text
//! cargo run --release --example sched_bench
//! ```

use rpt::{Database, Mode, QueryOptions};
use rpt_common::ScalarValue;
use std::time::Instant;

/// Best-of-runs wall time per leg, in microseconds. The legs are sampled
/// round-robin within each run so frequency / cache drift over the
/// measurement window hits every leg equally, and the minimum is reported:
/// scheduling noise on a shared box is strictly additive, so the smallest
/// sample is the least-contaminated estimate of each leg's true cost.
fn time_legs(db: &Database, sql: &str, legs: &[&QueryOptions], runs: usize) -> Vec<u64> {
    let mut best = vec![u64::MAX; legs.len()];
    for _ in 0..runs {
        for (leg, opts) in legs.iter().enumerate() {
            let t0 = Instant::now();
            std::hint::black_box(db.query(sql, opts).expect("query"));
            best[leg] = best[leg].min(t0.elapsed().as_micros() as u64);
        }
    }
    best
}

/// Float aggregate cells compare with a relative tolerance (summation
/// order shifts the last ulps across legs); everything else exactly.
fn cell_matches(a: &ScalarValue, b: &ScalarValue) -> bool {
    match (a, b) {
        (ScalarValue::Float64(x), ScalarValue::Float64(y)) => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

fn assert_rows_match(expected: &[Vec<ScalarValue>], got: &[Vec<ScalarValue>], what: &str) {
    assert_eq!(expected.len(), got.len(), "{what}: row count");
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        for (c, (ev, gv)) in e.iter().zip(g).enumerate() {
            assert!(
                cell_matches(ev, gv),
                "{what}: row {i} col {c}: expected {ev:?}, got {gv:?}"
            );
        }
    }
}

fn main() {
    // Join + GROUP BY + ORDER BY shapes from the differential corpus:
    // exactly the pipelines where transfer-phase buffers feed hash builds
    // and grouped aggregates on matching keys (elision candidates) and
    // where partition-granular merge fan-out gives stealers work.
    let queries: &[(&str, &str, &str)] = &[
        (
            "tpch",
            "h_mkt_revenue",
            "SELECT c.c_mktsegment, COUNT(*) AS cnt, SUM(l.l_extendedprice) AS revenue \
             FROM customer c, orders o, lineitem l \
             WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
               AND o.o_orderdate < 1200 GROUP BY c.c_mktsegment \
             ORDER BY revenue DESC LIMIT 3",
        ),
        (
            "tpch",
            "h_returns_by_nation",
            "SELECT n.n_name, SUM(l.l_extendedprice) AS revenue \
             FROM customer c, orders o, lineitem l, nation n \
             WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
               AND c.c_nationkey = n.n_nationkey AND l.l_returnflag = 'R' \
             GROUP BY n.n_name ORDER BY 2 DESC, 1 LIMIT 5",
        ),
        (
            "tpch",
            "h_priority_counts",
            "SELECT o.o_orderpriority, COUNT(*) AS cnt FROM orders o, lineitem l \
             WHERE o.o_orderkey = l.l_orderkey AND o.o_orderdate BETWEEN 100 AND 1500 \
             GROUP BY o.o_orderpriority ORDER BY 1",
        ),
        (
            "tpcds",
            "ds_brand_counts",
            "SELECT d.d_year, i.i_brand, COUNT(*) AS cnt \
             FROM date_dim d, store_sales ss, item i \
             WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk \
               AND d.d_moy = 12 GROUP BY d.d_year, i.i_brand \
             ORDER BY 3 DESC, 2, 1 LIMIT 12",
        ),
        (
            "tpcds",
            "ds_state_counts",
            "SELECT ca.ca_state, COUNT(*) AS cnt \
             FROM store_sales ss, store s, customer_address ca, date_dim d \
             WHERE ss.ss_store_sk = s.s_store_sk AND ss.ss_sold_date_sk = d.d_date_sk \
               AND ss.ss_addr_sk = ca.ca_address_sk AND d.d_year = 1999 \
             GROUP BY ca.ca_state ORDER BY 2 DESC, 1 LIMIT 6",
        ),
    ];

    let mut tpch_db = Database::new();
    for t in &rpt_workloads::tpch(1.0, 42).tables {
        tpch_db.register_table(t.clone());
    }
    let mut tpcds_db = Database::new();
    for t in &rpt_workloads::tpcds(1.0, 7).tables {
        tpcds_db.register_table(t.clone());
    }

    let base = QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_partition_count(8)
        .with_threads(2)
        .with_workers(4);
    let elide = base.clone().with_repartition_elide(true);
    let noelide = base.clone().with_repartition_elide(false);

    let runs = 25;
    let mut entries = Vec::new();
    let mut total_elide = 0u64;
    let mut total_noelide = 0u64;
    let mut queries_with_elision = 0usize;
    let mut total_steals = 0u64;
    for (workload, id, sql) in queries {
        let db = if *workload == "tpch" {
            &tpch_db
        } else {
            &tpcds_db
        };

        // Parity + engagement before timing anything.
        let r_on = db.query(sql, &elide).expect("elide leg");
        let r_off = db.query(sql, &noelide).expect("no-elide leg");
        assert_rows_match(&r_on.rows, &r_off.rows, &format!("{id}: elide on vs off"));
        assert_eq!(
            r_off.metrics.repartition_elided_chunks, 0,
            "{id}: elided chunks while disabled"
        );
        let elided = r_on.metrics.repartition_elided_chunks;
        let steals = r_on.metrics.sched_steals;
        let local_hits = r_on.metrics.sched_local_hits;
        let promotions = r_on.metrics.sched_priority_promotions;
        let util = r_on.metrics.scheduler_utilization_pct();
        if elided > 0 {
            queries_with_elision += 1;
        }
        total_steals += steals;

        // Warm up, then sample the legs interleaved.
        time_legs(db, sql, &[&elide], 3);
        let timed = time_legs(db, sql, &[&elide, &noelide], runs);
        let (elide_us, noelide_us) = (timed[0], timed[1]);
        total_elide += elide_us;
        total_noelide += noelide_us;
        let elide_speedup = noelide_us as f64 / elide_us.max(1) as f64;
        println!(
            "[sched_bench] {id}: rows={} elided={elided} steals={steals} \
             local_hits={local_hits} promotions={promotions} util={util}% \
             elide={elide_us}us noelide={noelide_us}us elide_speedup={elide_speedup:.2}x",
            r_on.rows.len()
        );
        entries.push(format!(
            "    {{\n      \"workload\": \"{workload}\",\n      \"query\": \"{id}\",\n      \
             \"rows\": {},\n      \"repartition_elided_chunks\": {elided},\n      \
             \"sched_steals\": {steals},\n      \"sched_local_hits\": {local_hits},\n      \
             \"sched_priority_promotions\": {promotions},\n      \
             \"utilization_pct\": {util},\n      \"elide_us\": {elide_us},\n      \
             \"noelide_us\": {noelide_us},\n      \
             \"elide_speedup\": {elide_speedup:.3}\n    }}",
            r_on.rows.len()
        ));
    }

    assert!(
        queries_with_elision >= 2,
        "repartition elision engaged on only {queries_with_elision} queries"
    );
    assert!(total_steals > 0, "work-stealing scheduler never stole");

    let total_speedup = total_noelide as f64 / total_elide.max(1) as f64;
    let json = format!(
        "{{\n  \"bench\": \"sched_elide\",\n  \
         \"workloads\": \"tpch sf=1 seed=42, tpcds sf=1 seed=7\",\n  \
         \"config\": \"partition_count=8 threads=2 workers=4, best of {runs} interleaved runs\",\n  \
         \"legs\": \"elide=repartition elision on, noelide=elision off\",\n  \
         \"total_elide_us\": {total_elide},\n  \"total_noelide_us\": {total_noelide},\n  \
         \"total_elide_speedup\": {total_speedup:.3},\n  \
         \"queries_with_elision\": {queries_with_elision},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_sched.json", &json).expect("write BENCH_sched.json");
    println!("[sched_bench] wrote BENCH_sched.json");
}
