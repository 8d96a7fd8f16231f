//! The closed loop: one client sends the workload's queries one after
//! another, checks every result, and records latencies; the traced variant
//! also decomposes each query into its layer calls under spans.

use crate::check::{compare, spill_files};
use crate::setup::{canonical, Setup, Unit};
use crate::stats::SplitMix;
use crate::trace::Tracer;
use rpt_common::Error;
use rpt_core::binder::bind;
use rpt_core::{Planner, QueryResult};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Failure messages kept for printing; the rest are only counted.
const MAX_FAILURE_MESSAGES: usize = 5;

/// Everything the loop observed.
#[derive(Default)]
pub struct Observations {
    /// Per unit: latencies (ms) of the untraced executions of the timed loop.
    pub latencies: Vec<Vec<f64>>,
    /// Per unit: latencies (ms) of the traced executions (root span).
    pub traced: Vec<Vec<f64>>,
    /// Per unit: work metric of the warm-up execution (deterministic).
    pub work: Vec<u64>,
    /// Per unit: cost-weighted work of the warm-up execution.
    pub weighted_work: Vec<f64>,
    /// Per unit: bytes the warm-up execution wrote to spill files.
    pub spill_bytes: Vec<u64>,
    /// Per-layer counters summed over the traced executions.
    pub layers: LayerTotals,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub rounds: u64,
    pub measured_s: f64,
}

impl Observations {
    fn record_failure(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(what);
        }
    }
}

/// Engine counters summed over executions.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub executions: u64,
    pub wall_ns: u64,
    pub wall_x_workers_ns: u64,
    pub busy_ns: u64,
    pub tasks: u64,
    pub bloom_ns: u64,
    pub bloom_build_rows: u64,
    pub bloom_probe_in: u64,
    pub bloom_probe_out: u64,
    pub hash_build_rows: u64,
    pub join_probe_in: u64,
    pub join_output_rows: u64,
    pub intermediate_tuples: u64,
    pub scan_rows: u64,
    pub blocks_scanned: u64,
    pub blocks_pruned: u64,
    pub agg_fast_chunks: u64,
    pub agg_generic_chunks: u64,
    pub sort_rows_pruned: u64,
    pub sort_merge_tasks: u64,
    pub spill_bytes_written: u64,
    pub spill_bytes_read: u64,
    pub spilling_executions: u64,
    pub spill_compression_pct: u64,
    pub spill_evictions: u64,
    pub prefetch_hits: u64,
    pub prefetch_misses: u64,
    pub spill_overlap_ns: u64,
    /// Input bytes of the RPT executions (for spill bytes per input byte).
    pub rpt_input_bytes: u64,
    pub rpt_spill_bytes: u64,
}

impl LayerTotals {
    fn add(&mut self, r: &QueryResult, rpt: bool, input_bytes: u64) {
        let m = &r.metrics;
        let wall = u64::try_from(r.wall_time.as_nanos()).unwrap_or(u64::MAX);
        self.executions += 1;
        self.wall_ns += wall;
        self.wall_x_workers_ns += wall.saturating_mul(m.sched_workers);
        self.busy_ns += m.sched_busy_nanos;
        self.tasks += m.sched_tasks;
        self.bloom_ns += m.bloom_nanos;
        self.bloom_build_rows += m.bloom_build_rows;
        self.bloom_probe_in += m.bloom_probe_in;
        self.bloom_probe_out += m.bloom_probe_out;
        self.hash_build_rows += m.hash_build_rows;
        self.join_probe_in += m.join_probe_in;
        self.join_output_rows += m.join_output_rows;
        self.intermediate_tuples += m.intermediate_tuples;
        self.scan_rows += m.scan_rows;
        self.blocks_scanned += m.blocks_scanned;
        self.blocks_pruned += m.blocks_pruned;
        self.agg_fast_chunks += m.agg_fast_path_chunks;
        self.agg_generic_chunks += m.agg_generic_chunks;
        self.sort_rows_pruned += m.sort_rows_pruned;
        self.sort_merge_tasks += m.sort_merge_tasks;
        self.spill_bytes_written += m.spill_bytes_written;
        self.spill_bytes_read += m.spill_bytes_read;
        if m.spill_bytes_written > 0 {
            self.spilling_executions += 1;
            self.spill_compression_pct += m.spill_compression_ratio_pct;
        }
        self.spill_evictions += m.spill_victim_evictions;
        self.prefetch_hits += m.spill_prefetch_hits;
        self.prefetch_misses += m.spill_prefetch_misses;
        self.spill_overlap_ns += m.spill_io_overlap_nanos;
        if rpt {
            self.rpt_input_bytes += input_bytes;
            self.rpt_spill_bytes += m.spill_bytes_written;
        }
    }
}

/// Check one execution's outcome: no error, no spill file left behind,
/// and rows equal to the reference.
fn check(
    setup: &Setup,
    unit: &Unit,
    outcome: rpt_common::Result<QueryResult>,
    spill_dir: &Path,
) -> Result<QueryResult, String> {
    let q = &setup.queries[unit.query];
    let what = || format!("{} ({:?}, order {:?})", q.id, unit.mode, unit.order);
    let mut r = outcome.map_err(|e| format!("{}: {e}", what()))?;
    let leftovers = spill_files(spill_dir);
    if !leftovers.is_empty() {
        for f in &leftovers {
            let _ = std::fs::remove_file(spill_dir.join(f));
        }
        return Err(format!("{}: left spill files {leftovers:?}", what()));
    }
    let rows = canonical(std::mem::take(&mut r.rows), q.ordered);
    compare(&rows, &q.reference).map_err(|e| format!("{}: {e}", what()))?;
    Ok(r)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run a unit the way a client does: one `Database::query` call.
fn run_plain(setup: &Setup, u: usize, spill_dir: &Path) -> (f64, Result<QueryResult, String>) {
    let unit = &setup.units[u];
    let q = &setup.queries[unit.query];
    let db = &setup.dbs[q.db].db;
    let t0 = Instant::now();
    let outcome = db.query(&q.sql, &unit.opts);
    let elapsed = ms(t0.elapsed());
    (elapsed, check(setup, unit, outcome, spill_dir))
}

/// Run a unit as its layer calls, each under a span: parse, bind, join
/// ordering, physical planning, execution. `Database::execute` plans the
/// query again internally, which is part of the tracing overhead.
fn run_traced(
    setup: &Setup,
    u: usize,
    spill_dir: &Path,
    tracer: &mut Tracer,
    request: u64,
) -> (f64, Result<QueryResult, String>) {
    let unit = &setup.units[u];
    let q = &setup.queries[unit.query];
    let db = &setup.dbs[q.db].db;
    let t0 = Instant::now();
    let root = tracer.open(request, None, "query");
    let parent = Some(root);
    let outcome = (|| {
        let stmt = tracer
            .span(request, parent, "sql.parse", || {
                rpt_sql::parse_select(&q.sql)
            })
            .map_err(Error::Parse)?;
        let bound = tracer.span(request, parent, "core.bind", || bind(&stmt, db.catalog()))?;
        let order = tracer.span(request, parent, "core.optimize", || {
            db.choose_order(&bound, &unit.opts)
        })?;
        let opts = unit.opts.clone().with_order(order.clone());
        let plan = tracer.span(request, parent, "core.plan", || {
            Planner::new(&bound, &opts).compile(&order.plan())
        })?;
        black_box(plan);
        tracer.span(request, parent, "exec.execute", || {
            db.execute(&bound, &opts)
        })
    })();
    tracer.close(root);
    let elapsed = ms(t0.elapsed());
    (elapsed, check(setup, unit, outcome, spill_dir))
}

/// Warm up (every unit once, checked; records the work metrics), then run
/// the closed loop for `seconds`, visiting the units in a seeded shuffled
/// order each round. At least one full round is always completed. With a
/// tracer, every visit runs the unit both plainly and traced, alternating
/// which goes first.
pub fn run_loop(
    setup: &Setup,
    seconds: f64,
    visit_seed: u64,
    spill_dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Observations {
    let n = setup.units.len();
    let mut obs = Observations {
        latencies: vec![Vec::new(); n],
        traced: vec![Vec::new(); n],
        work: vec![0; n],
        weighted_work: vec![0.0; n],
        spill_bytes: vec![0; n],
        ..Default::default()
    };
    for u in 0..n {
        obs.attempted += 1;
        match run_plain(setup, u, spill_dir).1 {
            Ok(r) => {
                obs.work[u] = r.work();
                obs.weighted_work[u] = r.metrics.weighted_work();
                obs.spill_bytes[u] = r.metrics.spill_bytes_written;
            }
            Err(e) => obs.record_failure(e),
        }
    }

    let mut rng = SplitMix::new(visit_seed);
    let mut visit: Vec<usize> = (0..n).collect();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut request = 0u64;
    'rounds: loop {
        rng.shuffle(&mut visit);
        for (i, &u) in visit.iter().enumerate() {
            if obs.rounds > 0 && start.elapsed() >= deadline {
                break 'rounds;
            }
            let unit = &setup.units[u];
            let rpt = unit.mode == rpt_core::Mode::RobustPredicateTransfer;
            let input_bytes = setup.queries[unit.query].input_bytes;
            let traced_first = (obs.rounds + i as u64) % 2 == 1;
            let plain = |obs: &mut Observations| {
                obs.attempted += 1;
                match run_plain(setup, u, spill_dir) {
                    (ms, Ok(_)) => obs.latencies[u].push(ms),
                    (_, Err(e)) => obs.record_failure(e),
                }
            };
            if let Some(tracer) = tracer.as_deref_mut() {
                if !traced_first {
                    plain(&mut obs);
                }
                request += 1;
                obs.attempted += 1;
                match run_traced(setup, u, spill_dir, tracer, request) {
                    (ms, Ok(r)) => {
                        obs.traced[u].push(ms);
                        obs.layers.add(&r, rpt, input_bytes);
                    }
                    (_, Err(e)) => obs.record_failure(e),
                }
                if traced_first {
                    plain(&mut obs);
                }
            } else {
                plain(&mut obs);
            }
        }
        obs.rounds += 1;
        if start.elapsed() >= deadline {
            break;
        }
    }
    obs.measured_s = start.elapsed().as_secs_f64();
    obs
}
