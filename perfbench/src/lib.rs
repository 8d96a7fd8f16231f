//! # perfbench
//!
//! The engine's end-to-end benchmark. One client runs a workload's queries
//! in a closed loop through the public API (`Database::query`), checks
//! every result against a reference, and reports end-to-end metrics; a
//! separate traced run decomposes each query into its layer calls under
//! spans and adds engine counters and kernel costs per layer. See
//! `README.md` next to this crate for the workloads and metrics.

pub mod check;
pub mod kernels;
pub mod report;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;

pub use report::Metric;
pub use setup::{Seeds, Workload};

use std::path::{Path, PathBuf};

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies every workload's scale factor (1.0 = full size).
    pub scale: f64,
    /// Where spill files and the span file go.
    pub out_dir: PathBuf,
}

/// The outcome of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Human-readable lines (configuration, summaries).
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// The span file a traced run wrote.
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn json(&self) -> String {
        report::json_line(self.correct(), self.attempted, self.failed, &self.metrics)
    }
}

/// `RPT_*` environment variables that are set. Each changes what the
/// engine does, so the benchmark refuses to run with any of them.
fn engine_env_overrides() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("RPT_"))
        .collect()
}

/// A private directory for spill files; `TMPDIR` points at it because the
/// engine's spill directory defaults to the system temp directory.
fn private_spill_dir(out_dir: &Path) -> Result<PathBuf, String> {
    let dir = out_dir.join(format!("spill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::env::set_var("TMPDIR", &dir);
    Ok(dir)
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let overrides = engine_env_overrides();
    if !overrides.is_empty() {
        return Err(format!(
            "refusing to run with engine overrides set: {}",
            overrides.join(", ")
        ));
    }
    let spill_dir = private_spill_dir(&opts.out_dir)?;
    let result = run_in(opts, &spill_dir);
    let _ = std::fs::remove_dir_all(&spill_dir);
    result
}

fn run_in(opts: &Options, spill_dir: &Path) -> Result<Outcome, String> {
    let seeds = Seeds::from_seed(opts.seed);
    let setup = setup::setup(opts.workload, seeds, opts.scale).map_err(|e| e.to_string())?;
    let engine = &setup.units[0].opts;
    let config = format!(
        "config: workers={} threads={} partition_count={} memory_budget={:?}",
        engine
            .workers
            .unwrap_or_else(rpt_exec::default_worker_count),
        engine.threads,
        engine.partition_count,
        engine.memory_budget_bytes,
    );
    let host = format!(
        "host: profile={} nproc={}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let inputs = format!(
        "inputs: workload={} sf={} queries={} units={} data_seed={} order_seed={}",
        opts.workload.name(),
        setup.sf,
        setup.queries.len(),
        setup.units.len(),
        seeds.data,
        seeds.orders,
    );
    let set_up = format!(
        "setup: {} reps of {} s; references {:.3} s",
        setup.times.len(),
        setup
            .times
            .iter()
            .map(|t| format!("{:.3}", t.total()))
            .collect::<Vec<_>>()
            .join(" "),
        setup.reference_s
    );
    let mut lines = vec![config, host, inputs, set_up];

    let mut tracer = trace::Tracer::new();
    let (metrics, trace_file, obs) = if opts.trace {
        let kernels = kernels::measure(&setup, &mut tracer).map_err(|e| e.to_string())?;
        let obs = run::run_loop(
            &setup,
            opts.seconds,
            seeds.visits,
            spill_dir,
            Some(&mut tracer),
        );
        let metrics = report::per_layer(&setup, &obs, &kernels, &tracer);
        let path = opts.out_dir.join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        write_trace(&path, opts, &tracer, &metrics)?;
        (metrics, Some(path), obs)
    } else {
        let obs = run::run_loop(&setup, opts.seconds, seeds.visits, spill_dir, None);
        let (metrics, summary) = report::end_to_end(&setup, &obs)?;
        lines.extend(summary);
        (metrics, None, obs)
    };
    lines.push(format!(
        "loop: {} rounds in {:.2} s, {} operations, {} failed",
        obs.rounds, obs.measured_s, obs.attempted, obs.failed
    ));
    lines.extend(obs.failures.iter().map(|f| format!("FAILED: {f}")));
    Ok(Outcome {
        lines,
        metrics,
        attempted: obs.attempted,
        failed: obs.failed,
        trace_file,
    })
}

fn write_trace(
    path: &Path,
    opts: &Options,
    tracer: &trace::Tracer,
    metrics: &[Metric],
) -> Result<(), String> {
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"metrics\": {},\n\"spans\": {}}}\n",
        opts.workload.name(),
        opts.seed,
        report::metrics_json(metrics),
        tracer.to_json()
    );
    std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
}
