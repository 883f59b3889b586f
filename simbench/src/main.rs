//! The ACE simulator benchmark.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one worker thread (`threads = 1`, `sim_threads = 1`).
//! `--trace 0` times the workload's ops and prints the end-to-end
//! metrics; `--trace 1` runs the separate traced pass and prints the
//! per-layer metrics, writing its host-time spans to
//! `$CARGO_TARGET_DIR/simbench/` (default `target/`). The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! Every timing is host (wall-clock) time of the simulator; every
//! simulated quantity is labelled as such. The end-to-end metrics describe
//! one pass over the workload's op mix. The simulation workloads repeat
//! identical cells, so the spread between a cell's repeats is only the
//! shared host's load, which adds time but never removes it: each cell
//! counts at its best host time of the run. `sweep-service` counts every
//! submit, because its submits' cost also varies with the cache and
//! journal they grow. Simulated statistics start from
//! empty ACE SRAM and empty caches in every cell, and the model is
//! validated only against the ACE paper's published figures.

mod measure;
mod service;
mod sim;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use ace_serve::SplitMix64;

use measure::{peak_rss_mb, quantile, Spans};

/// The workloads, as named on the command line.
const WORKLOADS: [&str; 3] = ["collective-exact", "training-iter", "sweep-service"];

/// Every per-layer metric and its unit. A traced run reports all of them;
/// 0 means the workload does not exercise that layer.
const PER_LAYER: [(&str, &str); 35] = [
    ("system.executor.cell_ms", "ms"),
    ("system.executor.events_per_cell", "count"),
    ("system.executor.host_ns_per_event", "ns"),
    ("system.executor.chunks", "count"),
    ("system.executor.phases", "count"),
    ("system.executor.link_grants", "count"),
    ("system.executor.past_schedules", "count"),
    ("system.training.build_ms", "ms"),
    ("system.training.run_ms", "ms"),
    ("system.training.timeline_spans", "count"),
    ("workloads.lower_ms", "ms"),
    ("workloads.tasks", "count"),
    ("net.topology_build_ms", "ms"),
    ("collectives.plan_us", "us"),
    ("collectives.phases", "count"),
    ("collectives.analytic_cell_us", "us"),
    ("sweep.cache.hit_ratio", "ratio"),
    ("sweep.cache.hits", "count"),
    ("sweep.cache.executed", "count"),
    ("sweep.scheduler.run_job_ms", "ms"),
    ("sweep.protocol.parse_us", "us"),
    ("sweep.report.csv_ms", "ms"),
    ("sweep.persist.replay_ms", "ms"),
    ("sweep.persist.journal_bytes_per_cell", "bytes"),
    ("sweep.scenario.parse_us", "us"),
    ("sweep.grid.expand_us", "us"),
    ("sweep.grid.cells", "count"),
    ("trace.overhead_pct", "%"),
    ("sim.attr_compute_cycles", "cycles"),
    ("sim.attr_network_cycles", "cycles"),
    ("sim.attr_hbm_cycles", "cycles"),
    ("sim.attr_dma_cycles", "cycles"),
    ("sim.attr_bus_cycles", "cycles"),
    ("sim.attr_proc_cycles", "cycles"),
    ("sim.attr_other_cycles", "cycles"),
];

/// One run's settings and its seeded input stream.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub rng: SplitMix64,
    /// Scratch directory for files the run writes (the service journal).
    pub work_dir: PathBuf,
}

impl Run {
    /// `v` in seeded random order.
    pub fn shuffled<T>(&mut self, mut v: Vec<T>) -> Vec<T> {
        for i in (1..v.len()).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Op counts and the metrics of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Counts a failed output check.
    pub fn fail(&mut self, msg: &str) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("check failed: {msg}");
        }
    }

    /// The end-to-end metrics (host time) of whole passes over the
    /// workload's op mix, `ops` holding one host time (ms) per op of those
    /// passes, and the median of the set-up repeats.
    pub fn end_to_end(&mut self, ops: &[f64], setup_ms: &[f64]) {
        println!(
            "host time: {} ops of whole passes, {} set-ups",
            ops.len(),
            setup_ms.len()
        );
        self.metrics = vec![
            (
                "ops_per_s",
                ops.len() as f64 / ops.iter().sum::<f64>() * 1e3,
                "1/s",
            ),
            ("op_p50_ms", quantile(ops, 0.5), "ms"),
            ("op_p90_ms", quantile(ops, 0.9), "ms"),
            ("setup_s", quantile(setup_ms, 0.5) / 1e3, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ];
    }
}

/// Per-layer metric values of a traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("target".into()))
        .join("simbench");
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        // Decorrelate the workload's draws from small consecutive seeds.
        rng: SplitMix64::new(args.seed ^ 0x5eed_a11c_e0ff_5e75),
        work_dir: out_dir.join(format!("work-{}-{}", args.workload, std::process::id())),
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "note: 'host' numbers are wall-clock time of the simulator on this machine; 'sim' \
         numbers are simulated. Every cell starts with empty ACE SRAM and empty caches. The \
         model is validated only against the ACE paper's published figures."
    );
    let kind = match args.workload.as_str() {
        "collective-exact" => Some(sim::Kind::Collective),
        "training-iter" => Some(sim::Kind::Training),
        _ => None,
    };
    let (outcome, metrics) = if args.trace {
        let mut spans = Spans::new();
        let (outcome, layers) = match kind {
            Some(k) => sim::traced(k, &mut run, &mut spans),
            None => service::traced(&mut run, &mut spans),
        };
        let path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match spans.write_chrome(&path) {
            Ok(()) => println!("host-time spans: {}", path.display()),
            Err(e) => {
                eprintln!("simbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.0.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        (outcome, metrics)
    } else {
        let mut outcome = match kind {
            Some(k) => sim::timed(k, &mut run),
            None => service::timed(&mut run),
        };
        let metrics = std::mem::take(&mut outcome.metrics);
        (outcome, metrics)
    };
    let _ = std::fs::remove_dir_all(&run.work_dir);

    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0 && finite,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
