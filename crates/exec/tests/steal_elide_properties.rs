//! Property tests for the work-stealing scheduler × the Preserve sink
//! route: over random key streams and the full
//! `partition_count {1..8} × workers {1..4}` matrix, a DAG whose
//! consumers take partition-preserving routes must produce exactly what
//! radix re-partitioning produces — and with `workers == 1` (the
//! scheduler's ordered chains, `threads == 1` throughout) the output must
//! be bit-identical, chunk order included.

use proptest::prelude::*;
use rpt_common::{DataType, Field, ScalarValue, Schema, Vector};
use rpt_exec::{
    AggExpr, AggFunc, BloomSink, ExecContext, Executor, Expr, OpSpec, PipelinePlan, RouteMode,
    SinkSpec, SourceSpec,
};
use rpt_storage::Table;
use std::sync::Arc;

fn in_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Int64),
    ])
}

fn agg_schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("c", DataType::Int64),
        Field::new("s", DataType::Int64),
    ])
}

/// The three-pipeline DAG the planner's elision pass targets: a CreateBF
/// buffer distributed on the key column, a grouped aggregate consuming it
/// on the same key, and a CreateBF consumer of the aggregate's output —
/// both consumers take `route` (the planner marks them `Preserve` when
/// elision applies; `Radix` is the general path).
fn pipelines(keys: &[i64], route: RouteMode) -> Vec<PipelinePlan> {
    let t = Arc::new(
        Table::new(
            "t",
            in_schema(),
            vec![
                Vector::from_i64(keys.to_vec()),
                Vector::from_i64((0..keys.len() as i64).collect()),
            ],
        )
        .unwrap(),
    );
    let bloom = |filter_id: usize| BloomSink {
        filter_id,
        key_cols: vec![0],
        expected_keys: 256,
        fpr: 0.02,
    };
    let p0 = PipelinePlan {
        label: "createbf".into(),
        source: SourceSpec::Table(t),
        ops: vec![],
        sink: SinkSpec::Buffer {
            buf_id: 0,
            blooms: vec![bloom(0)],
        },
        intermediate: true,
        route: RouteMode::Radix,
        sink_schema: in_schema(),
    };
    let p1 = PipelinePlan {
        label: "aggregate".into(),
        source: SourceSpec::Buffer(0),
        ops: vec![],
        sink: SinkSpec::Aggregate {
            buf_id: 1,
            group_cols: vec![0],
            aggs: vec![
                AggExpr::count_star("c"),
                AggExpr {
                    func: AggFunc::Sum,
                    input: Some(Expr::col(1)),
                    alias: "s".into(),
                },
            ],
            input_types: vec![DataType::Int64, DataType::Int64],
            output_schema: agg_schema(),
            key_dicts: vec![],
        },
        intermediate: true,
        route,
        sink_schema: agg_schema(),
    };
    // Aggregate output is [group key, aggs...]: still distributed on
    // column 0, so a keyed buffer consumer stays elision-eligible.
    let p2 = PipelinePlan {
        label: "consume".into(),
        source: SourceSpec::Buffer(1),
        ops: vec![OpSpec::Project(vec![
            Expr::col(0),
            Expr::col(1),
            Expr::col(2),
        ])],
        sink: SinkSpec::Buffer {
            buf_id: 2,
            blooms: vec![bloom(1)],
        },
        intermediate: false,
        route,
        sink_schema: agg_schema(),
    };
    vec![p0, p1, p2]
}

/// Full row sequence of buffer 2 (partition concatenation order) plus the
/// run's elided-chunk count.
fn run(
    keys: &[i64],
    route: RouteMode,
    partitions: usize,
    workers: usize,
) -> (Vec<Vec<ScalarValue>>, u64) {
    let ctx = ExecContext::new()
        .with_workers(workers)
        .with_partitions(partitions);
    let mut exec = Executor::new(ctx, 3, 2, 0);
    exec.run_dag(&pipelines(keys, route)).unwrap();
    let rows: Vec<Vec<ScalarValue>> = exec
        .buffer(2)
        .unwrap()
        .iter()
        .flat_map(|c| c.rows())
        .collect();
    let m = exec.ctx.metrics.summary();
    (rows, m.repartition_elided_chunks)
}

fn sorted(mut rows: Vec<Vec<ScalarValue>>) -> Vec<Vec<ScalarValue>> {
    rows.sort_by_key(|r| (r[0].as_i64(), r[1].as_i64(), r[2].as_i64()));
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Preserve ≡ radix: identical group rows (exact sequence at
    /// `workers == 1`, multiset above), no elided chunks on the radix leg,
    /// and elision engaged whenever the plan is actually partitioned.
    #[test]
    fn preserve_matches_radix(
        keys in proptest::collection::vec(-60i64..60, 1..250),
        partitions in 1usize..=8,
        workers in 1usize..=4,
    ) {
        let (base, base_elided) = run(&keys, RouteMode::Radix, partitions, workers);
        prop_assert_eq!(base_elided, 0, "radix leg elided chunks");

        let (rows, elided) = run(&keys, RouteMode::Preserve, partitions, workers);
        // Partitioned runs must take the preserved route at least once per
        // consumer (single-partition plans legitimately fall back to plain
        // `sink`).
        if partitions > 1 {
            prop_assert!(elided > 0, "preserve never elided");
        }
        if workers == 1 {
            prop_assert_eq!(&rows, &base, "pc={} differs bit-for-bit", partitions);
        } else {
            prop_assert_eq!(
                sorted(rows), sorted(base),
                "pc={} workers={} differs", partitions, workers
            );
        }
    }

    /// Repeatability: the stealing scheduler with preserved routes is
    /// bit-deterministic under ordered chains (`threads == 1`,
    /// `workers == 1`) — two runs of the same config emit the same bytes.
    #[test]
    fn stealing_preserve_is_deterministic_single_threaded(
        keys in proptest::collection::vec(-60i64..60, 1..250),
        partitions in 1usize..=8,
    ) {
        let (a, _) = run(&keys, RouteMode::Preserve, partitions, 1);
        let (b, _) = run(&keys, RouteMode::Preserve, partitions, 1);
        prop_assert_eq!(a, b, "pc={} not deterministic", partitions);
    }
}
