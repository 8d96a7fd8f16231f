//! End-to-end tests for the block-encoded storage scan path: zone-map
//! pruning driven by pushed-down literal predicates and by transferred
//! Bloom key ranges must skip blocks (observable in the metrics) while
//! producing results identical to the raw-layout scan, across modes and
//! partition counts.

use rpt_common::chunk::VECTOR_SIZE;
use rpt_common::{DataType, Field, ScalarValue, Schema, Vector};
use rpt_core::{Database, Mode, QueryOptions};
use rpt_storage::Table;

fn table(name: &str, cols: Vec<(&str, Vector)>) -> Table {
    let schema = Schema::new(
        cols.iter()
            .map(|(n, v)| Field::new(*n, v.data_type()))
            .collect(),
    );
    Table::new(name, schema, cols.into_iter().map(|(_, v)| v).collect()).expect("valid table")
}

const FACT_ROWS: i64 = 40_000;

/// `fact.fk` is clustered (row i has fk = i), so zone maps are tight and a
/// selective range or key-range predicate can rule out most blocks.
/// `dim` holds a narrow id band in the middle of the fact's key space.
fn db() -> Database {
    let mut db = Database::new();
    db.register_table(table(
        "fact",
        vec![
            ("fk", Vector::from_i64((0..FACT_ROWS).collect())),
            (
                "val",
                Vector::from_i64((0..FACT_ROWS).map(|i| i % 100).collect()),
            ),
        ],
    ));
    db.register_table(table(
        "dim",
        vec![
            ("id", Vector::from_i64((10_000..10_050).collect())),
            ("flag", Vector::from_i64(vec![1; 50])),
            (
                "name",
                Vector::from_utf8((0..50).map(|i| format!("n{}", i % 5)).collect()),
            ),
        ],
    ));
    db
}

fn opts(mode: Mode, encoded: bool) -> QueryOptions {
    QueryOptions::new(mode).with_storage_encoding(encoded)
}

/// A selective `Int64 col < literal` scan prunes every block whose zone
/// range lies past the literal — and the raw-layout scan agrees on rows
/// while recording no block metrics at all.
#[test]
fn literal_range_scan_prunes_blocks() {
    let db = db();
    let sql = "SELECT COUNT(*) FROM fact WHERE fact.fk < 1000";
    let on = db.query(sql, &opts(Mode::Baseline, true)).unwrap();
    assert_eq!(on.scalar_i64(), Some(1000));
    let total_blocks = (FACT_ROWS as u64).div_ceil(VECTOR_SIZE as u64);
    // Only the first block intersects [0, 1000); all others prune.
    assert_eq!(on.metrics.blocks_scanned, 1, "trace: {:?}", on.trace);
    assert_eq!(on.metrics.blocks_pruned, total_blocks - 1);
    assert!(
        on.trace
            .iter()
            .any(|(l, v)| l.starts_with("[storage]") && *v > 0),
        "trace missing [storage] pruning entry: {:?}",
        on.trace
    );

    let off = db.query(sql, &opts(Mode::Baseline, false)).unwrap();
    assert_eq!(off.scalar_i64(), Some(1000));
    assert_eq!(off.metrics.blocks_scanned, 0);
    assert_eq!(off.metrics.blocks_pruned, 0);
}

/// Predicate transfer plants a Bloom filter on the dim side; the fact scan
/// then skips every block outside the filter's observed build-key range
/// [10000, 10049] — pruning driven by a *transferred* predicate, with no
/// base filter on the fact at all.
#[test]
fn transferred_bloom_range_prunes_fact_blocks() {
    let db = db();
    let sql = "SELECT COUNT(*) FROM fact, dim \
               WHERE fact.fk = dim.id AND dim.flag = 1";
    let rpt = db
        .query(sql, &opts(Mode::RobustPredicateTransfer, true))
        .unwrap();
    assert_eq!(rpt.scalar_i64(), Some(50));
    // The 50-key band covers one (maybe two) fact blocks; the rest prune.
    let total_blocks = (FACT_ROWS as u64).div_ceil(VECTOR_SIZE as u64);
    assert!(
        rpt.metrics.blocks_pruned >= total_blocks - 2,
        "expected most of {total_blocks} fact blocks pruned, got {} (trace: {:?})",
        rpt.metrics.blocks_pruned,
        rpt.trace
    );

    // Same query without predicate transfer: no Bloom filter exists, so
    // every fact block must be scanned.
    let base = db.query(sql, &opts(Mode::Baseline, true)).unwrap();
    assert_eq!(base.scalar_i64(), Some(50));
    assert_eq!(base.metrics.blocks_pruned, 0);
    assert!(base.metrics.blocks_scanned >= total_blocks);

    // And the raw layout agrees on the result.
    let off = db
        .query(sql, &opts(Mode::RobustPredicateTransfer, false))
        .unwrap();
    assert_eq!(off.scalar_i64(), Some(50));
}

/// Utf8 zone-map pruning through the sorted shared dictionary: `cat.grp`
/// is clustered (block `b` holds only the string `s{b}`), so a string
/// literal comparison rules out every non-intersecting block — dict codes
/// are assigned in lexicographic order, making the zone's string bounds
/// exactly the stored code bounds. A `=` literal absent from the
/// dictionary prunes *every* block, and the raw layout agrees on rows
/// throughout.
#[test]
fn utf8_dict_literal_scan_prunes_blocks() {
    let blocks = 4usize;
    let mut db = Database::new();
    db.register_table(table(
        "cat",
        vec![
            (
                "grp",
                Vector::from_utf8(
                    (0..blocks * VECTOR_SIZE)
                        .map(|i| format!("s{}", i / VECTOR_SIZE))
                        .collect(),
                ),
            ),
            (
                "v",
                Vector::from_i64((0..(blocks * VECTOR_SIZE) as i64).collect()),
            ),
        ],
    ));

    // Equality on one block's string: the other three blocks prune.
    let eq = "SELECT COUNT(*) FROM cat WHERE cat.grp = 's2'";
    let on = db.query(eq, &opts(Mode::Baseline, true)).unwrap();
    assert_eq!(on.scalar_i64(), Some(VECTOR_SIZE as i64));
    assert_eq!(on.metrics.blocks_scanned, 1, "trace: {:?}", on.trace);
    assert_eq!(on.metrics.blocks_pruned, blocks as u64 - 1);

    // Range below 's1': only block 0 ("s0") can hold a match.
    let lt = "SELECT COUNT(*) FROM cat WHERE cat.grp < 's1'";
    let on = db.query(lt, &opts(Mode::Baseline, true)).unwrap();
    assert_eq!(on.scalar_i64(), Some(VECTOR_SIZE as i64));
    assert_eq!(on.metrics.blocks_scanned, 1, "trace: {:?}", on.trace);
    assert_eq!(on.metrics.blocks_pruned, blocks as u64 - 1);

    // A literal outside the dictionary can match no row anywhere: every
    // block prunes without decoding a thing.
    let absent = "SELECT COUNT(*) FROM cat WHERE cat.grp = 'zzz'";
    let on = db.query(absent, &opts(Mode::Baseline, true)).unwrap();
    assert_eq!(on.scalar_i64(), Some(0));
    assert_eq!(on.metrics.blocks_scanned, 0, "trace: {:?}", on.trace);
    assert_eq!(on.metrics.blocks_pruned, blocks as u64);

    // The raw layout agrees on rows and records no block metrics.
    for sql in [eq, lt, absent] {
        let off = db.query(sql, &opts(Mode::Baseline, false)).unwrap();
        let on = db.query(sql, &opts(Mode::Baseline, true)).unwrap();
        assert_eq!(on.rows, off.rows, "{sql}");
        assert_eq!(off.metrics.blocks_scanned, 0);
        assert_eq!(off.metrics.blocks_pruned, 0);
    }
}

/// NULL join keys must survive pruning decisions: a block containing NULL
/// keys can never be Bloom-range-pruned (the probe keeps NULL rows only as
/// hash false positives, but literal semantics must not change), and
/// results stay identical to the raw layout.
#[test]
fn null_keys_not_mispruned() {
    let mut db = Database::new();
    // fk: NULLs sprinkled through a clustered key column.
    let mut fk = Vector::new_empty(DataType::Int64);
    for i in 0..6000i64 {
        if i % 97 == 0 {
            fk.push(&ScalarValue::Null).unwrap();
        } else {
            fk.push(&ScalarValue::Int64(i)).unwrap();
        }
    }
    let n = 6000usize;
    db.register_table(table(
        "f",
        vec![("fk", fk), ("v", Vector::from_i64((0..n as i64).collect()))],
    ));
    db.register_table(table(
        "d",
        vec![
            ("id", Vector::from_i64((100..160).collect())),
            ("flag", Vector::from_i64(vec![1; 60])),
        ],
    ));
    let sql = "SELECT COUNT(*) FROM f, d WHERE f.fk = d.id AND d.flag = 1";
    let on = db
        .query(sql, &opts(Mode::RobustPredicateTransfer, true))
        .unwrap();
    let off = db
        .query(sql, &opts(Mode::RobustPredicateTransfer, false))
        .unwrap();
    assert_eq!(on.rows, off.rows);
    // One match per dim id, except ids whose fact row was NULLed out
    // (multiples of 97).
    let expect = (100..160).filter(|i| i % 97 != 0).count() as i64;
    assert_eq!(on.scalar_i64(), Some(expect));
}

/// Full parity sweep: encoded and raw scans return byte-identical sorted
/// rows for filters, joins, and string GROUP BYs, across execution modes
/// and partition counts.
#[test]
fn encoded_and_raw_scans_agree() {
    let db = db();
    let queries = [
        "SELECT COUNT(*) FROM fact WHERE fact.fk >= 39000 AND fact.val < 7",
        "SELECT COUNT(*) FROM fact, dim WHERE fact.fk = dim.id AND dim.flag = 1",
        "SELECT dim.name, COUNT(*) AS n, SUM(fact.val) AS s FROM fact, dim \
         WHERE fact.fk = dim.id GROUP BY dim.name",
        "SELECT dim.name, dim.id FROM dim WHERE dim.id < 10010",
    ];
    for sql in queries {
        for mode in [Mode::Baseline, Mode::RobustPredicateTransfer] {
            for pc in [1usize, 8] {
                let on = db
                    .query(sql, &opts(mode, true).with_partition_count(pc))
                    .unwrap();
                let off = db
                    .query(sql, &opts(mode, false).with_partition_count(pc))
                    .unwrap();
                assert_eq!(
                    on.sorted_rows(),
                    off.sorted_rows(),
                    "{mode:?} pc={pc}: {sql}"
                );
            }
        }
    }
}

/// Multi-column join keys: the transferred Bloom filter tracks one key
/// range *per key position*, so a fact scan prunes on whichever position
/// is selective. Here key `a` is cyclic (every block spans its full 0..100
/// range — position 0 can prune nothing) while key `b` is clustered, so
/// all pruning must come from position 1's observed band — exactly what
/// the old single-key gate threw away.
#[test]
fn multi_column_bloom_key_ranges_prune_fact_blocks() {
    let mut db = Database::new();
    db.register_table(table(
        "fact2",
        vec![
            (
                "a",
                Vector::from_i64((0..FACT_ROWS).map(|i| i % 100).collect()),
            ),
            ("b", Vector::from_i64((0..FACT_ROWS).collect())),
        ],
    ));
    // dim2 matches fact2 rows 10_000..10_050 on (a, b) jointly.
    db.register_table(table(
        "dim2",
        vec![
            (
                "x",
                Vector::from_i64((10_000..10_050).map(|i| i % 100).collect()),
            ),
            ("y", Vector::from_i64((10_000..10_050).collect())),
            ("flag", Vector::from_i64(vec![1; 50])),
        ],
    ));
    let sql = "SELECT COUNT(*) FROM fact2, dim2 \
               WHERE fact2.a = dim2.x AND fact2.b = dim2.y AND dim2.flag = 1";
    let rpt = db
        .query(sql, &opts(Mode::RobustPredicateTransfer, true))
        .unwrap();
    assert_eq!(rpt.scalar_i64(), Some(50));
    let total_blocks = (FACT_ROWS as u64).div_ceil(VECTOR_SIZE as u64);
    assert!(
        rpt.metrics.blocks_pruned >= total_blocks - 2,
        "expected most of {total_blocks} fact blocks pruned via key position 1, got {} (trace: {:?})",
        rpt.metrics.blocks_pruned,
        rpt.trace
    );
    // The raw layout and the baseline agree on the result.
    let off = db
        .query(sql, &opts(Mode::RobustPredicateTransfer, false))
        .unwrap();
    assert_eq!(off.scalar_i64(), Some(50));
    let base = db.query(sql, &opts(Mode::Baseline, true)).unwrap();
    assert_eq!(base.scalar_i64(), Some(50));
    assert_eq!(base.metrics.blocks_pruned, 0);
}

/// Scans decode only the columns their pipeline reads, and the pushed-down
/// filter is bound to the scan's output positions. These queries filter on
/// columns that are neither selected nor join keys, on an intra-relation
/// `a.x = a.y` equality, and on join keys; every mode on both storage
/// layouts must return the rows a direct evaluation over the generated
/// data gives.
#[test]
fn filters_on_unselected_columns_agree_with_direct_evaluation() {
    const ORD_ROWS: i64 = 20_000;
    let mut db = Database::new();
    db.register_table(table(
        "ord",
        vec![
            ("ok", Vector::from_i64((0..ORD_ROWS).collect())),
            (
                "ck",
                Vector::from_i64((0..ORD_ROWS).map(|i| i % 500).collect()),
            ),
            (
                "qty",
                Vector::from_i64((0..ORD_ROWS).map(|i| i % 50).collect()),
            ),
            (
                "price",
                Vector::from_i64((0..ORD_ROWS).map(|i| i * 7 % 50).collect()),
            ),
            (
                "status",
                Vector::from_utf8((0..ORD_ROWS).map(|i| format!("s{}", i % 3)).collect()),
            ),
        ],
    ));
    db.register_table(table(
        "cust",
        vec![
            ("ck", Vector::from_i64((0..500).collect())),
            (
                "seg",
                Vector::from_utf8((0..500).map(|c| format!("g{}", c % 4)).collect()),
            ),
            ("bal", Vector::from_i64((0..500).collect())),
        ],
    ));
    let count_sum = |keep: &dyn Fn(i64) -> bool| {
        let kept: Vec<i64> = (0..ORD_ROWS).filter(|&i| keep(i)).collect();
        let qty: i64 = kept.iter().map(|i| i % 50).sum();
        vec![vec![
            ScalarValue::Int64(kept.len() as i64),
            ScalarValue::Int64(qty),
        ]]
    };
    let mut intra: Vec<Vec<ScalarValue>> = (0..5_000i64)
        .filter(|i| i % 50 == i * 7 % 50)
        .map(|i| {
            vec![
                ScalarValue::Int64(i),
                ScalarValue::Utf8(format!("g{}", i % 500 % 4)),
            ]
        })
        .collect();
    // `sorted_rows` orders rows by their text form.
    intra.sort_by_key(|r| format!("{}\u{1}{}", r[0], r[1]));
    let cases = [
        (
            // `price`, `status` and `bal` are read by filters only.
            "SELECT COUNT(*) AS n, SUM(ord.qty) AS q FROM ord, cust \
             WHERE ord.ck = cust.ck AND ord.price < 20 AND ord.status = 's1' \
             AND cust.bal > 100",
            count_sum(&|i| i * 7 % 50 < 20 && i % 3 == 1 && i % 500 > 100),
        ),
        (
            "SELECT ord.ok, cust.seg FROM ord, cust \
             WHERE ord.ck = cust.ck AND ord.qty = ord.price AND ord.ok < 5000",
            intra,
        ),
        (
            "SELECT COUNT(*) AS n, SUM(ord.qty) AS q FROM ord, cust \
             WHERE ord.ck = cust.ck AND cust.ck < 100 AND ord.ck >= 20",
            count_sum(&|i| (20..100).contains(&(i % 500))),
        ),
    ];
    for (sql, expected) in &cases {
        for mode in Mode::ALL {
            for encoded in [true, false] {
                let got = db
                    .query(sql, &opts(mode, encoded))
                    .unwrap_or_else(|e| panic!("{mode:?} encoded={encoded}: {sql}: {e}"));
                assert_eq!(
                    &got.sorted_rows(),
                    expected,
                    "{mode:?} encoded={encoded}: {sql}"
                );
            }
        }
    }
}
