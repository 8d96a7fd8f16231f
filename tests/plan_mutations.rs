//! Static plan verifier: positive corpus coverage and negative mutation
//! coverage.
//!
//! Positive: every corpus query's compiled plan verifies clean across
//! `partition_count {1,8}` (statically) and end-to-end under
//! `RPT_PLAN_VERIFY=strict`.
//!
//! Negative: single mutations of a healthy plan — a dropped dependency
//! edge, an orphaned output buffer, a dropped writer claim — must each be
//! rejected with the expected stable rule id (`D6`, `D5`, `S1`), proving
//! the rule families fire independently.

use proptest::prelude::*;
use rpt_core::{Database, Mode, PhysicalPlan, Planner, QueryOptions};
use rpt_exec::VerifyMode;
use rpt_workloads::{tpch, Workload};

fn database_for(w: &Workload) -> Database {
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }
    db
}

/// A small cross-section of plan shapes: scan+filter+topk, join+group-by,
/// a deeper multi-way join, and a wide aggregation.
const CORPUS: &[&str] = &[
    "SELECT o.o_orderkey, o.o_totalprice FROM orders o \
     WHERE o.o_totalprice > 200000 ORDER BY 2 DESC LIMIT 15",
    "SELECT c.c_mktsegment, COUNT(*) AS cnt, SUM(l.l_extendedprice) AS revenue \
     FROM customer c, orders o, lineitem l \
     WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
       AND o.o_orderdate < 1200 GROUP BY c.c_mktsegment ORDER BY revenue DESC",
    "SELECT n.n_name, SUM(l.l_extendedprice) AS revenue \
     FROM customer c, orders o, lineitem l, nation n \
     WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
       AND c.c_nationkey = n.n_nationkey AND l.l_returnflag = 'R' \
     GROUP BY n.n_name ORDER BY 2 DESC, 1 LIMIT 5",
    "SELECT p.p_brand, COUNT(*) AS cnt FROM partsupp ps, part p, supplier s \
     WHERE p.p_partkey = ps.ps_partkey AND s.s_suppkey = ps.ps_suppkey \
     GROUP BY p.p_brand ORDER BY 2 DESC, 1 LIMIT 10",
];

fn opts(pc: usize) -> QueryOptions {
    QueryOptions::new(Mode::RobustPredicateTransfer)
        .with_partition_count(pc)
        .with_plan_verify(VerifyMode::Strict)
}

fn compile(db: &Database, sql: &str, o: &QueryOptions) -> PhysicalPlan {
    let q = db.bind_sql(sql).expect("corpus query binds");
    let order = db.choose_order(&q, o).expect("order chosen");
    Planner::new(&q, o)
        .compile(&order.plan())
        .expect("corpus query compiles")
}

#[test]
fn corpus_plans_verify_clean_static() {
    let db = database_for(&tpch(0.05, 42));
    for sql in CORPUS {
        for pc in [1usize, 8] {
            let plan = compile(&db, sql, &opts(pc));
            let rep = plan.verify();
            assert!(rep.is_clean(), "pc={pc} sql={sql}: {:?}", rep.errors);
            assert!(rep.checks_run > 0);
        }
    }
}

#[test]
fn corpus_runs_clean_under_strict_all_legs() {
    let db = database_for(&tpch(0.05, 42));
    for sql in CORPUS.iter().take(3) {
        for pc in [1usize, 8] {
            let o = opts(pc).with_workers(4);
            let r = db
                .query(sql, &o)
                .unwrap_or_else(|e| panic!("strict verify failed (pc={pc}): {e}"));
            assert!(
                r.metrics.verify_checks_run > 0,
                "no verify checks recorded (pc={pc})"
            );
        }
    }
}

/// The scheduler/scan observability counters stay live: a multi-pipeline
/// query populates them all with mutually consistent values. (The
/// `cargo xtask lint` dead-metric rule requires every counter to be
/// asserted somewhere — this is that somewhere for the scheduler family.)
#[test]
fn scheduler_metrics_are_live() {
    let db = database_for(&tpch(0.05, 42));
    let sql = CORPUS[2];
    for workers in [1usize, 4] {
        let o = opts(8).with_workers(workers).with_threads(2);
        let s = db.query(sql, &o).expect("query runs").metrics;
        assert!(s.scan_rows > 0, "w={workers}: scan_rows dead");
        assert!(
            s.bloom_probe_out <= s.bloom_probe_in,
            "w={workers}: probe out {} > in {}",
            s.bloom_probe_out,
            s.bloom_probe_in
        );
        assert!(s.sched_tasks > 0, "w={workers}: sched_tasks dead");
        assert!(s.sched_workers >= 1, "w={workers}: sched_workers dead");
        assert!(s.sched_wall_nanos > 0, "w={workers}: sched_wall_nanos dead");
        assert!(s.sched_busy_nanos > 0, "w={workers}: sched_busy_nanos dead");
        assert!(
            s.sched_max_queue_depth <= s.sched_tasks,
            "w={workers}: queue depth {} exceeds task count {}",
            s.sched_max_queue_depth,
            s.sched_tasks
        );
        assert!(
            s.sched_priority_promotions <= s.sched_tasks,
            "w={workers}: promotions exceed tasks"
        );
        // Every executed task was a local-deque hit, a steal, or an
        // injector pop.
        assert!(
            s.sched_local_hits + s.sched_steals <= s.sched_tasks,
            "w={workers}: local {} + steals {} > tasks {}",
            s.sched_local_hits,
            s.sched_steals,
            s.sched_tasks
        );
        assert!(
            s.sched_local_hits > 0,
            "w={workers}: the pool never hit its own deque"
        );
    }
}

// ---- Mutations: each class must be rejected with its stable rule id ----

fn rule_ids(plan: &PhysicalPlan) -> Vec<&'static str> {
    plan.verify().errors.iter().map(|e| e.rule.id()).collect()
}

fn healthy_plan(pc: usize) -> PhysicalPlan {
    let db = database_for(&tpch(0.05, 42));
    let plan = compile(&db, CORPUS[2], &opts(pc));
    assert!(plan.verify().is_clean(), "fixture plan must start clean");
    plan
}

#[test]
fn mutation_dropped_dep_edge_is_reads_divergence() {
    let mut plan = healthy_plan(8);
    let i = plan
        .deps
        .iter()
        .position(|d| !d.reads.is_empty())
        .expect("some pipeline reads something");
    plan.deps[i].reads.clear();
    let ids = rule_ids(&plan);
    assert!(ids.contains(&"D6"), "expected D6, got {ids:?}");
}

#[test]
fn mutation_dropped_writer_claim_is_writes_divergence() {
    let mut plan = healthy_plan(8);
    plan.deps[0].writes.clear();
    let ids = rule_ids(&plan);
    assert!(ids.contains(&"S1"), "expected S1, got {ids:?}");
    // The dangling readers of those grains surface too.
    assert!(ids.contains(&"D2"), "expected D2 alongside S1, got {ids:?}");
}

#[test]
fn mutation_orphaned_output_buffer_is_rejected() {
    let mut plan = healthy_plan(8);
    // Claim the result lives in a brand-new buffer that no pipeline writes.
    plan.num_buffers += 1;
    plan.output_buffer = plan.num_buffers - 1;
    let ids = rule_ids(&plan);
    assert!(ids.contains(&"D5"), "expected D5, got {ids:?}");
}

#[test]
fn mutation_rule_ids_are_distinct_per_class() {
    // The three headline mutation classes report three different rules —
    // a diagnostic that always says "plan invalid" would be useless.
    let ids = ["D6", "S1", "D5"];
    let unique: std::collections::BTreeSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any corpus query × any leg combination compiles to a plan the
    /// verifier accepts — planner claims and verifier derivations never
    /// diverge on healthy input.
    #[test]
    fn random_legs_verify_clean(
        qi in 0usize..4,
        pc_pow in 0u32..4,
    ) {
        let db = database_for(&tpch(0.05, 42));
        let plan = compile(&db, CORPUS[qi], &opts(1usize << pc_pow));
        let rep = plan.verify();
        prop_assert!(rep.is_clean(), "{:?}", rep.errors);
    }
}
