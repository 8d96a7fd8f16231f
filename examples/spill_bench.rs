//! Spill trajectory harness: times the compressed + overlapped spill path
//! against decoded synchronous spilling and writes the comparison to
//! `BENCH_spill.json` — the checked-in single-core benchmark artifact the
//! roadmap tracks across PRs.
//!
//! Every leg runs under a 1-byte spill cap so *every* buffered chunk goes
//! through the spill file; what varies is how it goes:
//!
//! * `decoded_sync` — raw frames, restores read inline on the merge path;
//! * `compressed_sync` — block-codec frames (FOR/RLE Int64, dict-code
//!   Utf8), still restored inline: isolates the byte reduction;
//! * `compressed_overlap` — block-codec frames plus `SpillIo` prefetch
//!   tasks on the worker pool, so restores are decoded while other
//!   partitions still merge.
//!
//! Two query shapes, one per codec family: an Int64-heavy transfer join
//! (clustered keys → frame-of-reference) and a dict-Utf8 GROUP BY join
//! (32-bit codes instead of string bytes).
//!
//! Run from the repo root (release, or the numbers are meaningless):
//!
//! ```text
//! cargo run --release --example spill_bench
//! ```

use rpt::{Database, Mode, QueryOptions};
use std::time::Instant;

/// Median wall time per leg, in microseconds. Legs are interleaved within
/// each round so machine drift lands on all of them equally.
fn time_legs(db: &Database, sql: &str, legs: &[QueryOptions], runs: usize) -> Vec<u64> {
    let mut samples = vec![Vec::with_capacity(runs); legs.len()];
    for _ in 0..runs {
        for (i, opts) in legs.iter().enumerate() {
            let t0 = Instant::now();
            std::hint::black_box(db.query(sql, opts).expect("query"));
            samples[i].push(t0.elapsed().as_micros() as u64);
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_unstable();
            s[s.len() / 2]
        })
        .collect()
}

fn main() {
    // sf=2.0: 120k lineitems / 30k orders — enough spilled chunks per
    // partition for the byte and overlap numbers to mean something.
    let w = rpt_workloads::tpch(2.0, 7);
    let mut db = Database::new();
    for t in &w.tables {
        db.register_table(t.clone());
    }
    let dir = std::env::temp_dir();

    let queries: Vec<(&str, String)> = vec![
        (
            "int64_transfer_spill",
            "SELECT COUNT(*) AS c, SUM(l.l_quantity) AS q, SUM(l.l_partkey) AS p, \
             SUM(l.l_suppkey) AS s, SUM(l.l_shipdate) AS d \
             FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey"
                .to_string(),
        ),
        (
            "dict_utf8_group_spill",
            "SELECT l.l_returnflag, o.o_orderpriority, COUNT(*) AS c \
             FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey \
             GROUP BY l.l_returnflag, o.o_orderpriority"
                .to_string(),
        ),
    ];
    // Same engine shape on every leg — only the spill format and the
    // prefetch toggle vary.
    let opts = |encoding: bool, prefetch: bool| {
        QueryOptions::new(Mode::RobustPredicateTransfer)
            .with_threads(2)
            .with_workers(2)
            .with_partition_count(4)
            .with_spill(1, &dir)
            .with_spill_encoding(encoding)
            .with_spill_prefetch(prefetch)
    };

    let runs = 15;
    let mut entries = Vec::new();
    for (id, sql) in &queries {
        // Parity + mechanism engagement before timing anything.
        let raw = db.query(sql, &opts(false, false)).expect("decoded leg");
        let enc = db.query(sql, &opts(true, false)).expect("compressed leg");
        let ovl = db.query(sql, &opts(true, true)).expect("overlap leg");
        assert_eq!(raw.sorted_rows(), enc.sorted_rows(), "{id}: legs disagree");
        assert_eq!(raw.sorted_rows(), ovl.sorted_rows(), "{id}: legs disagree");
        assert!(
            raw.metrics.spill_bytes_written > 0,
            "{id}: nothing spilled under a 1-byte cap"
        );
        assert!(
            enc.metrics.spill_bytes_written * 2 <= raw.metrics.spill_bytes_written,
            "{id}: compressed frames not >=2x smaller ({} vs {})",
            enc.metrics.spill_bytes_written,
            raw.metrics.spill_bytes_written
        );
        assert!(
            ovl.metrics.spill_prefetch_hits >= 1,
            "{id}: overlapped leg never hit the prefetch cache"
        );

        // Warm up, then time the legs interleaved.
        let legs = [opts(false, false), opts(true, false), opts(true, true)];
        time_legs(&db, sql, &legs, 2);
        let medians = time_legs(&db, sql, &legs, runs);
        let (decoded_us, compressed_us, overlap_us) = (medians[0], medians[1], medians[2]);
        let reduction =
            raw.metrics.spill_bytes_written as f64 / enc.metrics.spill_bytes_written.max(1) as f64;
        let speedup = decoded_us as f64 / overlap_us.max(1) as f64;
        println!(
            "[spill_bench] {id}: bytes {} -> {} ({reduction:.2}x) decoded={decoded_us}us \
             compressed={compressed_us}us overlap={overlap_us}us speedup={speedup:.2}x \
             hits={} overlap_ns={}",
            raw.metrics.spill_bytes_written,
            enc.metrics.spill_bytes_written,
            ovl.metrics.spill_prefetch_hits,
            ovl.metrics.spill_io_overlap_nanos,
        );
        entries.push(format!(
            "    {{\n      \"query\": \"{id}\",\n      \"decoded_spill_bytes\": {},\n      \
             \"compressed_spill_bytes\": {},\n      \"byte_reduction\": {reduction:.3},\n      \
             \"prefetch_hits\": {},\n      \"spill_io_overlap_nanos\": {},\n      \
             \"decoded_sync_us\": {decoded_us},\n      \"compressed_sync_us\": {compressed_us},\n      \
             \"compressed_overlap_us\": {overlap_us},\n      \"speedup\": {speedup:.3}\n    }}",
            raw.metrics.spill_bytes_written,
            enc.metrics.spill_bytes_written,
            ovl.metrics.spill_prefetch_hits,
            ovl.metrics.spill_io_overlap_nanos,
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"compressed_overlapped_spill\",\n  \
         \"workload\": \"tpch sf=2.0 seed=7\",\n  \
         \"config\": \"global scheduler, threads=2 workers=2 partition_count=4, \
         1-byte spill cap, median of {runs} runs\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_spill.json", &json).expect("write BENCH_spill.json");
    println!("[spill_bench] wrote BENCH_spill.json");
}
