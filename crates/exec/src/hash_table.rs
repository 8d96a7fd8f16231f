//! Join hash tables (build side of hash joins and exact semi-joins), and
//! their hash-partitioned aggregate: a [`PartitionedHashTable`] holds one
//! [`JoinHashTable`] per radix partition so builds can run per-partition in
//! parallel, and routes every probe row to the single partition whose table
//! can contain its matches (build and probe share the [`Partitioner`]).
//!
//! A [`JoinHashTable`] is a flat chained table over its build rows: a
//! power-of-two `heads` array of chain starts, one `next` link per build
//! row, and each row's stored key hash. Rows are linked in reverse, so
//! every chain lists its build rows in ascending order and a probe row's
//! matches come out in build-row order.

use rpt_common::hash::{hash_columns, hash_columns_sel};
use rpt_common::{ColumnData, DataChunk, DataType, Error, Partitioner, Result, Vector};
use std::sync::Arc;

/// End of a chain (and the `heads` entry of an empty bucket); build row
/// indices therefore stop one short of `u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// A materialized build side: all build rows (flattened) plus a chained
/// hash index on the key columns.
pub struct JoinHashTable {
    /// Flattened build-side rows (all columns).
    pub data: DataChunk,
    pub key_cols: Vec<usize>,
    /// First build row of each bucket's chain (`EMPTY` if none); the bucket
    /// of a key hash is its low bits.
    heads: Vec<u32>,
    /// Next build row in the same chain, per build row.
    next: Vec<u32>,
    /// Key hash per build row, compared before any key column.
    row_hash: Vec<u64>,
}

/// Typed row-vs-row equality on one column (NULLs never equal).
#[inline]
fn values_equal(a: &Vector, ia: usize, b: &Vector, ib: usize) -> bool {
    if !a.is_valid(ia) || !b.is_valid(ib) {
        return false;
    }
    // Dictionary-backed string vectors: a same-dictionary pair compares
    // codes directly (the Int64 payload arm below); any other mix with a
    // dictionary side resolves both strings.
    match (&a.dict, &b.dict) {
        (None, None) => {}
        (Some(x), Some(y)) if Arc::ptr_eq(x, y) => {}
        _ => {
            if a.data_type() != DataType::Utf8 || b.data_type() != DataType::Utf8 {
                return false;
            }
            return a.utf8_at(ia) == b.utf8_at(ib);
        }
    }
    match (&a.data, &b.data) {
        (ColumnData::Int64(x), ColumnData::Int64(y)) => x[ia] == y[ib],
        (ColumnData::Float64(x), ColumnData::Float64(y)) => x[ia] == y[ib],
        (ColumnData::Utf8(x), ColumnData::Utf8(y)) => x[ia] == y[ib],
        (ColumnData::Bool(x), ColumnData::Bool(y)) => x[ia] == y[ib],
        _ => false,
    }
}

/// A build side's row count as a `u32` bound on its row indices. `EMPTY`
/// is reserved, so one table (one partition) holds fewer than `u32::MAX`
/// rows.
fn row_count(n: usize) -> Result<u32> {
    u32::try_from(n)
        .ok()
        .filter(|&rows| rows != EMPTY)
        .ok_or_else(|| {
            Error::Exec(format!(
                "hash-join build side has {n} rows; one partition holds at most {}",
                EMPTY - 1
            ))
        })
}

/// The one probe loop behind every probe of a [`JoinHashTable`] or a
/// [`PartitionedHashTable`]. Each logical row of `chunk` with a non-NULL
/// key (on `probe_keys`) goes to the table its key hash routes to, and
/// `on_match(logical row, table, build row)` sees that row's matches in
/// ascending build-row order until it returns `false`. Rows are visited in
/// ascending order.
fn probe_chunk(
    tables: &[JoinHashTable],
    partitioner: &Partitioner,
    chunk: &DataChunk,
    probe_keys: &[usize],
    mut on_match: impl FnMut(u32, usize, u32) -> bool,
) {
    // Keys are hashed and compared in place, through the selection.
    let cols: Vec<&Vector> = probe_keys.iter().map(|&k| &chunk.columns[k]).collect();
    let sel = chunk.selection.as_deref();
    let hashes = hash_columns_sel(&cols, sel, chunk.num_rows());
    for (row, &h) in hashes.iter().enumerate() {
        if h == u64::MAX {
            continue; // NULL key: never matches
        }
        let table = partitioner.of_hash(h);
        let phys = sel.map_or(row, |s| s[row] as usize);
        tables[table].walk(h, &cols, phys, |b| on_match(row as u32, table, b));
    }
}

/// The logical rows of `chunk` with at least one match: [`probe_chunk`]
/// stopping at each row's first match.
fn semi_probe_chunk(
    tables: &[JoinHashTable],
    partitioner: &Partitioner,
    chunk: &DataChunk,
    probe_keys: &[usize],
) -> Vec<u32> {
    let mut out = Vec::new();
    probe_chunk(tables, partitioner, chunk, probe_keys, |row, _, _| {
        out.push(row);
        false
    });
    out
}

impl JoinHashTable {
    /// Build from chunks (their selections are respected).
    pub fn build(chunks: &[DataChunk], key_cols: Vec<usize>) -> Result<JoinHashTable> {
        let data = match chunks.split_first() {
            Some((first, rest)) => {
                let mut acc = first.flattened();
                for c in rest {
                    acc.append(c)?;
                }
                acc
            }
            None => DataChunk::default(),
        };
        let n = data.num_rows();
        let rows = row_count(n)?;
        // An empty build side may have no columns at all (`build(&[], ..)`).
        let row_hash = if n == 0 {
            Vec::new()
        } else {
            let keys: Vec<&Vector> = key_cols.iter().map(|&k| &data.columns[k]).collect();
            hash_columns(&keys, n)
        };
        let mask = (2 * n).next_power_of_two() - 1;
        let mut heads = vec![EMPTY; mask + 1];
        let mut next = vec![EMPTY; n];
        // Link in reverse so each chain lists its rows in ascending order.
        for row in (0..rows).rev() {
            let h = row_hash[row as usize];
            if h == u64::MAX {
                continue; // NULL key: never matches
            }
            let head = &mut heads[h as usize & mask];
            next[row as usize] = *head;
            *head = row;
        }
        Ok(JoinHashTable {
            data,
            key_cols,
            heads,
            next,
            row_hash,
        })
    }

    pub fn num_rows(&self) -> usize {
        self.data.num_rows()
    }

    /// Walk the chain of key hash `hash`: call `on_match` with every build
    /// row whose key equals row `row` of the probe key columns `probe`, in
    /// ascending order, until it returns `false`.
    #[inline]
    fn walk(
        &self,
        hash: u64,
        probe: &[&Vector],
        row: usize,
        mut on_match: impl FnMut(u32) -> bool,
    ) {
        let mut at = self.heads[hash as usize & (self.heads.len() - 1)];
        while at != EMPTY {
            let b = at as usize;
            if self.row_hash[b] == hash
                && self
                    .key_cols
                    .iter()
                    .zip(probe)
                    .all(|(&kc, pv)| values_equal(pv, row, &self.data.columns[kc], b))
                && !on_match(at)
            {
                return;
            }
            at = self.next[b];
        }
    }

    /// Hash-join probe: for each logical row of `chunk` (keyed on
    /// `probe_keys`), emit one `(logical_probe_row, build_row)` pair per
    /// match, in probe-row order and, within a probe row, in ascending
    /// build-row order. Duplicates on the build side produce multiple
    /// pairs — this is where non-robust join orders blow up.
    pub fn probe(
        &self,
        chunk: &DataChunk,
        probe_keys: &[usize],
        probe_out: &mut Vec<u32>,
        build_out: &mut Vec<u32>,
    ) {
        if self.num_rows() == 0 {
            return;
        }
        probe_chunk(
            std::slice::from_ref(self),
            &Partitioner::new(1),
            chunk,
            probe_keys,
            |row, _, b| {
                probe_out.push(row);
                build_out.push(b);
                true
            },
        );
    }

    /// Exact semi-join probe: logical rows of `chunk` with ≥ 1 match
    /// (no duplication). This is the hash-based semi-join of the classic
    /// Yannakakis algorithm.
    pub fn semi_probe(&self, chunk: &DataChunk, probe_keys: &[usize]) -> Vec<u32> {
        semi_probe_chunk(
            std::slice::from_ref(self),
            &Partitioner::new(1),
            chunk,
            probe_keys,
        )
    }
}

/// A match emitted by a partitioned probe: `(partition, build row within
/// that partition's table)`.
pub type BuildRef = (u32, u32);

/// One [`JoinHashTable`] per radix partition, with probes routed by the
/// same key hash the build side partitioned on. With one partition this
/// degenerates to a plain wrapped table.
pub struct PartitionedHashTable {
    parts: Vec<JoinHashTable>,
    partitioner: Partitioner,
}

impl PartitionedHashTable {
    /// Wrap an unpartitioned table (partition count 1).
    pub fn single(table: JoinHashTable) -> PartitionedHashTable {
        PartitionedHashTable {
            parts: vec![table],
            partitioner: Partitioner::new(1),
        }
    }

    /// Assemble from per-partition tables (the length must be the
    /// partition count the build side routed with: a power of two).
    pub fn from_parts(parts: Vec<JoinHashTable>) -> PartitionedHashTable {
        assert!(
            parts.len().is_power_of_two(),
            "partition count must be a power of two, got {}",
            parts.len()
        );
        let partitioner = Partitioner::new(parts.len());
        PartitionedHashTable { parts, partitioner }
    }

    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    pub fn partition(&self, part: usize) -> &JoinHashTable {
        &self.parts[part]
    }

    pub fn num_rows(&self) -> usize {
        self.parts.iter().map(JoinHashTable::num_rows).sum()
    }

    /// Hash-join probe (see [`JoinHashTable::probe`]): each probe row is
    /// routed to exactly one partition — the one its key hash maps to —
    /// so matches and multiplicities are identical to an unpartitioned
    /// probe over the union of the partitions.
    pub fn probe(
        &self,
        chunk: &DataChunk,
        probe_keys: &[usize],
        probe_out: &mut Vec<u32>,
        build_out: &mut Vec<BuildRef>,
    ) {
        if self.num_rows() == 0 {
            return;
        }
        probe_chunk(
            &self.parts,
            &self.partitioner,
            chunk,
            probe_keys,
            |row, part, b| {
                probe_out.push(row);
                build_out.push((part as u32, b));
                true
            },
        );
    }

    /// Exact semi-join probe (see [`JoinHashTable::semi_probe`]).
    pub fn semi_probe(&self, chunk: &DataChunk, probe_keys: &[usize]) -> Vec<u32> {
        semi_probe_chunk(&self.parts, &self.partitioner, chunk, probe_keys)
    }

    /// Gather build-side column `col` for the given probe matches (the
    /// probe-side analogue of `Vector::take` across partitions). Stays
    /// vectorized: one bulk `take` per partition plus one permutation
    /// `take` to restore match order — no per-row scalar dispatch.
    pub fn gather(&self, col: usize, matches: &[BuildRef]) -> Vector {
        if self.parts.len() == 1 {
            let rows: Vec<u32> = matches.iter().map(|&(_, b)| b).collect();
            return self.parts[0].data.columns[col].take(&rows);
        }
        // Bucket the match indices per partition.
        let mut per_part: Vec<Vec<u32>> = vec![Vec::new(); self.parts.len()];
        for &(part, b) in matches {
            per_part[part as usize].push(b);
        }
        // Concatenate the per-partition bulk takes (partition-major)…
        let mut offsets = vec![0u32; self.parts.len()];
        let mut acc = 0u32;
        let mut concat = Vector::new_empty(self.parts[0].data.columns[col].data_type());
        for (p, idx) in per_part.iter().enumerate() {
            offsets[p] = acc;
            acc += idx.len() as u32;
            if !idx.is_empty() {
                concat
                    .append(&self.parts[p].data.columns[col].take(idx))
                    .expect("partition column types agree");
            }
        }
        // …then permute back into match order.
        let mut next = offsets;
        let perm: Vec<u32> = matches
            .iter()
            .map(|&(part, _)| {
                let pos = next[part as usize];
                next[part as usize] += 1;
                pos
            })
            .collect();
        concat.take(&perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_common::ScalarValue;

    fn build_chunk() -> DataChunk {
        DataChunk::new(vec![
            Vector::from_i64(vec![1, 2, 2, 3]),
            Vector::from_utf8(vec!["a".into(), "b".into(), "b2".into(), "c".into()]),
        ])
    }

    #[test]
    fn build_and_probe() {
        let ht = JoinHashTable::build(&[build_chunk()], vec![0]).unwrap();
        assert_eq!(ht.num_rows(), 4);
        let probe = DataChunk::new(vec![Vector::from_i64(vec![2, 5, 1])]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        // key 2 matches build rows 1 and 2 (ascending); key 1 matches
        // build row 0.
        assert_eq!(p, vec![0, 0, 2]);
        assert_eq!(b, vec![1, 2, 0]);
    }

    #[test]
    fn row_count_reserves_the_empty_sentinel() {
        assert_eq!(row_count(0).unwrap(), 0);
        assert_eq!(row_count(EMPTY as usize - 1).unwrap(), EMPTY - 1);
        assert!(matches!(row_count(EMPTY as usize), Err(Error::Exec(_))));
        assert!(matches!(row_count(usize::MAX), Err(Error::Exec(_))));
    }

    #[test]
    fn probe_respects_selection() {
        let ht = JoinHashTable::build(&[build_chunk()], vec![0]).unwrap();
        let mut probe = DataChunk::new(vec![Vector::from_i64(vec![2, 5, 1])]);
        probe.set_selection(vec![2]); // only the key 1 row, logical idx 0
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        assert_eq!(p, vec![0]);
        assert_eq!(b, vec![0]);
    }

    #[test]
    fn composite_keys() {
        let build = DataChunk::new(vec![
            Vector::from_i64(vec![1, 1, 2]),
            Vector::from_i64(vec![10, 20, 10]),
        ]);
        let ht = JoinHashTable::build(&[build], vec![0, 1]).unwrap();
        let probe = DataChunk::new(vec![
            Vector::from_i64(vec![1, 2, 1]),
            Vector::from_i64(vec![10, 10, 30]),
        ]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0, 1], &mut p, &mut b);
        assert_eq!(p, vec![0, 1]);
        assert_eq!(b, vec![0, 2]);
    }

    #[test]
    fn semi_probe_no_duplication() {
        let ht = JoinHashTable::build(&[build_chunk()], vec![0]).unwrap();
        let probe = DataChunk::new(vec![Vector::from_i64(vec![2, 5, 2])]);
        let sel = ht.semi_probe(&probe, &[0]);
        assert_eq!(sel, vec![0, 2]); // each matching row once
    }

    #[test]
    fn null_keys_never_match() {
        let mut keycol = Vector::new_empty(rpt_common::DataType::Int64);
        keycol.push(&ScalarValue::Int64(1)).unwrap();
        keycol.push(&ScalarValue::Null).unwrap();
        let ht = JoinHashTable::build(&[DataChunk::new(vec![keycol])], vec![0]).unwrap();
        let mut probe_key = Vector::new_empty(rpt_common::DataType::Int64);
        probe_key.push(&ScalarValue::Null).unwrap();
        probe_key.push(&ScalarValue::Int64(1)).unwrap();
        let probe = DataChunk::new(vec![probe_key]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        assert_eq!(p, vec![1]); // only the non-null key matches
        assert_eq!(b, vec![0]);
        assert_eq!(ht.semi_probe(&probe, &[0]), vec![1]);
    }

    #[test]
    fn equal_hashes_of_different_key_types_never_match() {
        // `false`/`true` hash like the integers 0 and 1, and 2.0 like the
        // integer with its bit pattern; only same-typed keys compare equal.
        let ht = JoinHashTable::build(
            &[DataChunk::new(vec![Vector::from_i64(vec![
                0,
                1,
                2.0f64.to_bits() as i64,
            ])])],
            vec![0],
        )
        .unwrap();
        for probe in [
            DataChunk::new(vec![Vector::from_bool(vec![false, true])]),
            DataChunk::new(vec![Vector::from_f64(vec![2.0])]),
        ] {
            let (mut p, mut b) = (vec![], vec![]);
            ht.probe(&probe, &[0], &mut p, &mut b);
            assert!(p.is_empty() && b.is_empty());
            assert!(ht.semi_probe(&probe, &[0]).is_empty());
        }
    }

    #[test]
    fn empty_build_side() {
        let ht = JoinHashTable::build(&[], vec![0]).unwrap();
        assert_eq!(ht.num_rows(), 0);
        let probe = DataChunk::new(vec![Vector::from_i64(vec![1])]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        assert!(p.is_empty() && b.is_empty());
    }

    /// Partition build chunks by key hash, rebuild per-partition tables,
    /// and verify probes and semi-probes match the unpartitioned table.
    #[test]
    fn partitioned_probe_matches_unpartitioned() {
        use rpt_common::hash::hash_columns;

        let keys: Vec<i64> = (0..500).map(|i| i % 37).collect();
        let vals: Vec<i64> = (0..500).collect();
        let build = DataChunk::new(vec![Vector::from_i64(keys), Vector::from_i64(vals)]);
        let flat = JoinHashTable::build(std::slice::from_ref(&build), vec![0]).unwrap();

        let partitioner = Partitioner::new(8);
        let hashes = hash_columns(&[&build.columns[0]], build.num_rows());
        let split = partitioner.split_chunk(&build, &hashes);
        let parts: Vec<JoinHashTable> = split
            .into_iter()
            .map(|c| JoinHashTable::build(&c.into_iter().collect::<Vec<_>>(), vec![0]).unwrap())
            .collect();
        let pht = PartitionedHashTable::from_parts(parts);
        assert_eq!(pht.num_rows(), flat.num_rows());

        let probe = DataChunk::new(vec![Vector::from_i64((0..60).collect())]);
        let (mut fp, mut fb) = (vec![], vec![]);
        flat.probe(&probe, &[0], &mut fp, &mut fb);
        let (mut pp, mut pb) = (vec![], vec![]);
        pht.probe(&probe, &[0], &mut pp, &mut pb);

        // Same matches as multisets of (probe key, build value).
        let key = |p: u32| probe.value(0, p as usize).as_i64().unwrap();
        let mut flat_pairs: Vec<(i64, i64)> = fp
            .iter()
            .zip(fb.iter())
            .map(|(&p, &b)| {
                (
                    key(p),
                    flat.data.columns[1].get(b as usize).as_i64().unwrap(),
                )
            })
            .collect();
        let gathered = pht.gather(1, &pb);
        let mut part_pairs: Vec<(i64, i64)> = pp
            .iter()
            .enumerate()
            .map(|(i, &p)| (key(p), gathered.get(i).as_i64().unwrap()))
            .collect();
        flat_pairs.sort_unstable();
        part_pairs.sort_unstable();
        assert_eq!(flat_pairs, part_pairs);

        // Semi-probe selections are identical (order included).
        assert_eq!(flat.semi_probe(&probe, &[0]), pht.semi_probe(&probe, &[0]));
    }

    #[test]
    fn multi_chunk_build() {
        let c1 = DataChunk::new(vec![Vector::from_i64(vec![1, 2])]);
        let c2 = DataChunk::new(vec![Vector::from_i64(vec![3])]);
        let ht = JoinHashTable::build(&[c1, c2], vec![0]).unwrap();
        assert_eq!(ht.num_rows(), 3);
        let probe = DataChunk::new(vec![Vector::from_i64(vec![3])]);
        let (mut p, mut b) = (vec![], vec![]);
        ht.probe(&probe, &[0], &mut p, &mut b);
        assert_eq!(b, vec![2]);
    }
}
