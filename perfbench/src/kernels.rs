//! Standalone kernel measurements on the workload's own columns: the
//! per-row cost of hashing, Bloom insert/probe, hash-table build/probe,
//! and block decode/encode, each called directly through its crate's
//! public API.

use crate::setup::Setup;
use crate::stats::median;
use crate::trace::Tracer;
use rpt_bloom::BloomFilter;
use rpt_common::hash::hash_columns_sel;
use rpt_common::{DataChunk, DataType, Error, Result, Schema, VECTOR_SIZE};
use rpt_exec::JoinHashTable;
use rpt_storage::encode::decode_i64;
use rpt_storage::{Block, Table};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions per kernel; the median is reported.
const REPS: usize = 5;

/// Nanoseconds per processed item of each kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCosts {
    pub hash_ns: f64,
    pub bloom_insert_ns: f64,
    pub bloom_probe_ns: f64,
    pub join_build_ns: f64,
    pub join_probe_ns: f64,
    pub decode_ns: f64,
    pub encode_ns: f64,
}

/// Accumulates `(elapsed ns, items)` per repetition across data sets.
#[derive(Default)]
struct Acc {
    ns: [u64; REPS],
    items: u64,
}

impl Acc {
    fn per_item(&self) -> f64 {
        let per: Vec<f64> = self
            .ns
            .iter()
            .map(|&ns| ns as f64 / self.items.max(1) as f64)
            .collect();
        median(&per).unwrap_or(0.0)
    }
}

fn table(setup: &Setup, db: usize, name: &str) -> Result<Arc<Table>> {
    Ok(setup.dbs[db].db.catalog().get(name)?.table.clone())
}

fn column_table(t: &Table, col: &str) -> Result<Table> {
    let idx = t.schema.index_of(col)?;
    Table::new(
        col,
        Schema::new(vec![t.schema.field(idx).clone()]),
        vec![t.column(idx).clone()],
    )
}

fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = tracer.span(0, None, name, f);
    (black_box(out), t0.elapsed().as_nanos() as u64)
}

/// Measure every kernel on the PK–FK edge of each of the workload's data
/// sets, recording one span per kernel call.
pub fn measure(setup: &Setup, tracer: &mut Tracer) -> Result<KernelCosts> {
    let mut acc: [Acc; 7] = Default::default();
    let [hash, insert, probe_bf, build, probe_ht, decode, encode] = &mut acc;
    for (db, d) in setup.dbs.iter().enumerate() {
        let (build_t, build_c, probe_t, probe_c) = d.data_set.kernel_edge();
        let build_table = table(setup, db, build_t)?;
        let probe_table = table(setup, db, probe_t)?;
        let build_col = column_table(&build_table, build_c)?;
        let probe_col = column_table(&probe_table, probe_c)?;
        let (nb, np) = (build_col.num_rows(), probe_col.num_rows());
        let build_hashes = hash_columns_sel(&[build_col.column(0)], None, nb);
        let probe_chunks = probe_col.chunks(VECTOR_SIZE);
        let encoded = probe_table.encoded();
        let int_blocks: Vec<&Block> = encoded
            .columns
            .iter()
            .filter(|c| c.data_type == DataType::Int64)
            .flat_map(|c| &c.blocks)
            .collect();
        let decoded_values: u64 = int_blocks.iter().map(|b| b.len as u64).sum();
        let cells = (probe_table.num_rows() * probe_table.num_columns()) as u64;

        hash.items += np as u64;
        insert.items += nb as u64;
        probe_bf.items += np as u64;
        build.items += nb as u64;
        probe_ht.items += np as u64;
        decode.items += decoded_values;
        encode.items += cells;
        for rep in 0..REPS {
            let (probe_hashes, ns) = timed(tracer, "kernel.hash", || {
                hash_columns_sel(&[probe_col.column(0)], None, np)
            });
            hash.ns[rep] += ns;

            let mut bloom = BloomFilter::with_default_fpr(nb);
            let (_, ns) = timed(tracer, "kernel.bloom_insert", || {
                bloom.insert_hashes(&build_hashes)
            });
            insert.ns[rep] += ns;
            let (_, ns) = timed(tracer, "kernel.bloom_probe", || {
                bloom.probe_hashes_bitmask(&probe_hashes)
            });
            probe_bf.ns[rep] += ns;

            let build_chunk = [DataChunk::new(vec![build_col.column(0).clone()])];
            let (ht, ns) = timed(tracer, "kernel.join_build", || {
                JoinHashTable::build(&build_chunk, vec![0])
            });
            build.ns[rep] += ns;
            let ht = ht?;
            let (_, ns) = timed(tracer, "kernel.join_probe", || {
                let (mut po, mut bo) = (Vec::new(), Vec::new());
                for c in &probe_chunks {
                    po.clear();
                    bo.clear();
                    ht.probe(c, &[0], &mut po, &mut bo);
                    black_box((&po, &bo));
                }
            });
            probe_ht.ns[rep] += ns;

            let (_, ns) = timed(tracer, "kernel.decode", || {
                for b in &int_blocks {
                    black_box(decode_i64(&b.data));
                }
            });
            decode.ns[rep] += ns;

            let fresh = Table::new(
                probe_table.name.clone(),
                probe_table.schema.clone(),
                probe_table.columns.clone(),
            )?;
            let (_, ns) = timed(tracer, "kernel.encode", || fresh.encoded());
            encode.ns[rep] += ns;
        }
    }
    if acc.iter().any(|a| a.items == 0) {
        return Err(Error::Plan("kernel measurement saw no rows".into()));
    }
    Ok(KernelCosts {
        hash_ns: acc[0].per_item(),
        bloom_insert_ns: acc[1].per_item(),
        bloom_probe_ns: acc[2].per_item(),
        join_build_ns: acc[3].per_item(),
        join_probe_ns: acc[4].per_item(),
        decode_ns: acc[5].per_item(),
        encode_ns: acc[6].per_item(),
    })
}
