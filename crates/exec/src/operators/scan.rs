//! Scan sources: in-memory table scans (with zone-map block pruning) and
//! buffer re-scans.

use super::{ChunkList, ResourceId, Resources, Source};
use crate::context::ExecContext;
use crate::expr::CmpOp;
use rpt_common::Result;
use rpt_storage::{BlockTable, Table, ZoneMap};
use std::sync::Arc;

/// Planner-recorded pruning opportunities for one table scan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanPrune {
    /// `Int64 col CMP literal` conjuncts of the scan's pushed-down filter
    /// (base-table column indices). Any block whose zone map proves the
    /// conjunct can never hold is skipped — the full filter still runs on
    /// surviving blocks, so pruning only removes rows the filter would
    /// drop anyway.
    pub predicates: Vec<(usize, CmpOp, i64)>,
    /// `Utf8 col CMP string-literal` conjuncts of the pushed-down filter.
    /// Only consulted for columns the block encoding gave a sorted shared
    /// dictionary: dict codes are assigned in lexicographic order, so the
    /// zone's string bounds order exactly like the stored codes, and an
    /// `=` literal absent from the dictionary can never match any row of
    /// the column.
    pub utf8_predicates: Vec<(usize, CmpOp, String)>,
    /// `(filter_id, key_pos, col)` triples: transferred Bloom filters
    /// probed on base column `col` (the `key_pos`-th probe key) downstream
    /// of this scan. When the published filter tracked a raw key range at
    /// that position, blocks of all-valid rows disjoint from it cannot
    /// contain a true semi-join match and are skipped — multi-column join
    /// keys contribute one independent range per position.
    pub bloom: Vec<(usize, usize, usize)>,
}

impl ScanPrune {
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty() && self.utf8_predicates.is_empty() && self.bloom.is_empty()
    }
}

/// Scan an in-memory columnar table, chunked into default-size morsels.
///
/// Only the scan's `columns` are produced, in list order: output column
/// `i` is base column `columns[i]`, and no other column is decoded or
/// sliced. [`ScanPrune`] specs stay in base-column indices, so pruning may
/// consult zone maps of columns the scan does not output.
///
/// With `ctx.storage_encoding` on, chunks are decoded from the table's
/// block-encoded form — one block per chunk — skipping (never decoding)
/// blocks the [`ScanPrune`] spec rules out via zone maps, and serving
/// dictionary-coded `Utf8` columns as dictionary-backed vectors. With it
/// off, the raw flat layout is sliced as before (parity path).
pub struct TableScan {
    table: Arc<Table>,
    columns: Vec<usize>,
    prune: ScanPrune,
}

impl TableScan {
    /// Scan every column of `table`, with no pruning.
    pub fn new(table: Arc<Table>) -> TableScan {
        let columns = (0..table.num_columns()).collect();
        TableScan::projected(table, columns, ScanPrune::default())
    }

    /// Scan the listed base columns of `table`, pruning blocks by `prune`.
    pub fn projected(table: Arc<Table>, columns: Vec<usize>, prune: ScanPrune) -> TableScan {
        TableScan {
            table,
            columns,
            prune,
        }
    }

    /// Can any row of a block with zone map `zone` satisfy `col CMP lit`?
    /// NULL rows never satisfy a SQL comparison, so all-NULL blocks prune
    /// under any literal conjunct.
    fn literal_may_match(zone: &ZoneMap, op: CmpOp, lit: i64) -> bool {
        if zone.all_null() {
            return false;
        }
        let Some((mn, mx)) = zone.i64_bounds() else {
            return true; // non-Int64 zone: never prune
        };
        match op {
            CmpOp::Eq => lit >= mn && lit <= mx,
            CmpOp::NotEq => !(mn == mx && mn == lit),
            CmpOp::Lt => mn < lit,
            CmpOp::LtEq => mn <= lit,
            CmpOp::Gt => mx > lit,
            CmpOp::GtEq => mx >= lit,
        }
    }

    /// Can any row of a block with zone map `zone` satisfy
    /// `col CMP 'lit'`? The string analog of [`Self::literal_may_match`];
    /// only called for dictionary-encoded columns, whose code order is the
    /// lexicographic order these bound comparisons use.
    fn utf8_literal_may_match(zone: &ZoneMap, op: CmpOp, lit: &str) -> bool {
        if zone.all_null() {
            return false;
        }
        let Some((mn, mx)) = zone.utf8_bounds() else {
            return true; // non-Utf8 zone: never prune
        };
        match op {
            CmpOp::Eq => lit >= mn && lit <= mx,
            CmpOp::NotEq => !(mn == mx && mn == lit),
            CmpOp::Lt => mn < lit,
            CmpOp::LtEq => mn <= lit,
            CmpOp::Gt => mx > lit,
            CmpOp::GtEq => mx >= lit,
        }
    }

    fn block_pruned(&self, enc: &BlockTable, b: usize, bloom_ranges: &[(usize, i64, i64)]) -> bool {
        for &(col, op, lit) in &self.prune.predicates {
            if !Self::literal_may_match(enc.zone(col, b), op, lit) {
                return true;
            }
        }
        for (col, op, lit) in &self.prune.utf8_predicates {
            // Dictionary gate: without the sorted shared dict the column's
            // stored form carries no code order to prune against.
            let Some(dict) = &enc.columns[*col].dict else {
                continue;
            };
            // `col = 'lit'` with a literal outside the dictionary can
            // never hold for any row of the column, whatever the block.
            if *op == CmpOp::Eq && dict.code_of(lit).is_none() {
                return true;
            }
            if !Self::utf8_literal_may_match(enc.zone(*col, b), *op, lit) {
                return true;
            }
        }
        for &(col, lo, hi) in bloom_ranges {
            let zone = enc.zone(col, b);
            // Only all-valid blocks are eligible: a NULL-keyed row's fate
            // is decided downstream (the Bloom probe may keep it), so
            // blocks containing NULLs are never range-pruned.
            if zone.null_count == 0 {
                if let Some((mn, mx)) = zone.i64_bounds() {
                    if mx < lo || mn > hi {
                        return true;
                    }
                }
            }
        }
        false
    }
}

impl Source for TableScan {
    fn chunks(&self, ctx: &ExecContext, res: &Resources) -> Result<Arc<ChunkList>> {
        if !ctx.storage_encoding {
            let out: ChunkList = self
                .table
                .column_chunks(&self.columns)
                .into_iter()
                .map(Arc::new)
                .collect();
            let rows: u64 = out.iter().map(|c| c.num_rows() as u64).sum();
            ctx.metrics.add(&ctx.metrics.scan_rows, rows);
            return Ok(Arc::new(out));
        }
        let enc = self.table.encoded();
        // Resolve transferred key ranges once per scan; filters named here
        // are in `reads()`, so they are published before the scan opens.
        let mut bloom_ranges = Vec::with_capacity(self.prune.bloom.len());
        for &(filter_id, key_pos, col) in &self.prune.bloom {
            if let Some((lo, hi)) = res.filter(filter_id)?.key_range_at(key_pos) {
                bloom_ranges.push((col, lo, hi));
            }
        }
        let mut out: ChunkList = Vec::new();
        let mut pruned = 0u64;
        for b in 0..enc.num_blocks() {
            if self.block_pruned(&enc, b, &bloom_ranges) {
                pruned = pruned.saturating_add(1);
            } else {
                out.push(Arc::new(enc.decode_block(b, &self.columns)));
            }
        }
        let m = &ctx.metrics;
        m.add(&m.blocks_pruned, pruned);
        m.add(&m.blocks_scanned, out.len() as u64);
        let rows: u64 = out.iter().map(|c| c.num_rows() as u64).sum();
        m.add(&m.scan_rows, rows);
        if pruned > 0 {
            m.trace_entry(
                format!("[storage] scan {} blocks-pruned", self.table.name),
                pruned,
            );
        }
        Ok(Arc::new(out))
    }

    fn reads(&self) -> Vec<ResourceId> {
        let mut ids: Vec<ResourceId> = self
            .prune
            .bloom
            .iter()
            .map(|&(filter_id, _, _)| ResourceId::Filter(filter_id))
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }
}

/// Re-scan the materialized output of an earlier pipeline (e.g. a CreateBF
/// buffer acting as the source of the backward pass or the join phase).
pub struct BufferScan {
    buf_id: usize,
}

impl BufferScan {
    pub fn new(buf_id: usize) -> BufferScan {
        BufferScan { buf_id }
    }
}

impl Source for BufferScan {
    fn chunks(&self, _ctx: &ExecContext, res: &Resources) -> Result<Arc<ChunkList>> {
        res.buffer(self.buf_id)
    }

    fn reads(&self) -> Vec<ResourceId> {
        vec![ResourceId::Buffer(self.buf_id)]
    }

    /// Buffer partitions seal independently, so the global scheduler can
    /// stream this source partition-by-partition while the producer is
    /// still merging the others.
    fn partitioned_input(&self) -> Option<usize> {
        Some(self.buf_id)
    }

    fn partition_chunks(
        &self,
        _ctx: &ExecContext,
        res: &Resources,
        part: usize,
    ) -> Result<Arc<ChunkList>> {
        res.buffer_partition(self.buf_id, part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_bloom::BloomFilter;
    use rpt_common::chunk::VECTOR_SIZE;
    use rpt_common::{DataType, Field, ScalarValue, Schema, Vector};

    /// Five blocks. `id` and `k` are clustered (row i holds i), `grp` is
    /// dictionary-coded with one value per block, `f` is a float payload
    /// and `n` is an `Int64` column with NULLs.
    fn table() -> Arc<Table> {
        let rows = 5 * VECTOR_SIZE;
        let mut n = Vector::new_empty(DataType::Int64);
        for i in 0..rows {
            let v = if i % 7 == 0 {
                ScalarValue::Null
            } else {
                ScalarValue::Int64(i as i64 % 100)
            };
            n.push(&v).unwrap();
        }
        let t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("grp", DataType::Utf8),
                Field::new("k", DataType::Int64),
                Field::new("f", DataType::Float64),
                Field::new("n", DataType::Int64),
            ]),
            vec![
                Vector::from_i64((0..rows as i64).collect()),
                Vector::from_utf8((0..rows).map(|i| format!("g{}", i / VECTOR_SIZE)).collect()),
                Vector::from_i64((0..rows as i64).collect()),
                Vector::from_f64((0..rows).map(|i| i as f64 / 4.0).collect()),
                n,
            ],
        )
        .unwrap();
        Arc::new(t)
    }

    /// Literal pruning drops block 4 (`id < 4·VS`), dictionary pruning
    /// drops block 0 (`grp >= 'g1'`), and the Bloom key range on `k` drops
    /// block 3 (`k` in `[0, 3·VS)`).
    fn prune() -> ScanPrune {
        let vs = VECTOR_SIZE as i64;
        ScanPrune {
            predicates: vec![(0, CmpOp::Lt, 4 * vs)],
            utf8_predicates: vec![(1, CmpOp::GtEq, "g1".into())],
            bloom: vec![(0, 0, 2)],
        }
    }

    fn resources() -> Resources {
        let res = Resources::new(0, 1, 0);
        let mut filter = BloomFilter::with_default_fpr(16);
        filter.observe_key_range(0, 3 * VECTOR_SIZE as i64 - 1);
        res.publish_filter(0, filter).unwrap();
        res
    }

    /// A projected scan's chunks are exactly the listed columns of the
    /// full-width scan's chunks, in list order, on both storage layouts and
    /// with literal, dictionary and Bloom-range pruning all active (prune
    /// specs name columns the projection leaves out).
    #[test]
    fn projected_chunks_match_full_decode() {
        let t = table();
        let cols = vec![4, 2, 1];
        let all: Vec<usize> = (0..t.num_columns()).collect();
        for encoded in [true, false] {
            let ctx = ExecContext::new().with_storage_encoding(encoded);
            let res = resources();
            let full = TableScan::projected(t.clone(), all.clone(), prune())
                .chunks(&ctx, &res)
                .unwrap();
            let proj = TableScan::projected(t.clone(), cols.clone(), prune())
                .chunks(&ctx, &res)
                .unwrap();
            // Encoded: blocks 1 and 2 survive; raw: no pruning.
            assert_eq!(full.len(), if encoded { 2 } else { 5 }, "encoded={encoded}");
            assert_eq!(proj.len(), full.len(), "encoded={encoded}");
            for (p, f) in proj.iter().zip(full.iter()) {
                assert_eq!(p.columns.len(), cols.len());
                for (j, &c) in cols.iter().enumerate() {
                    assert_eq!(p.columns[j], f.columns[c], "encoded={encoded} col {c}");
                }
            }
            if encoded {
                assert!(proj[0].columns[2].is_dict(), "dictionary column flattened");
                assert_eq!(
                    proj[0].columns[1].get(0),
                    ScalarValue::Int64(VECTOR_SIZE as i64)
                );
            }
        }
    }
}
