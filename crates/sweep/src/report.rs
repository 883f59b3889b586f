//! Sweep reports: CSV and JSON emitters plus per-axis summary
//! aggregation.
//!
//! All output is deterministic: fixed column order, fixed float
//! formatting, rows in grid order. A parallel run therefore emits a CSV
//! byte-identical to a single-threaded run of the same scenario.

use std::fmt::{self, Write as _};

use crate::grid::{PointKind, RunPoint};
use crate::protocol::json_escape;
use crate::runner::{RunResult, SweepOutcome};
use crate::scenario::EngineSpec;
use ace_net::NetworkParams;

/// The fixed CSV column set (a superset across the three sweep modes;
/// inapplicable cells are empty).
pub const CSV_COLUMNS: [&str; 39] = [
    "topology",
    "nodes",
    "engine",
    "op",
    "payload_bytes",
    "mem_gbps",
    "comm_sms",
    "sram_mb",
    "fsms",
    "config",
    "workload",
    "iterations",
    "arrival",
    "arrival_rate",
    "schedule",
    "microbatches",
    "faults",
    "contention",
    "straggler",
    "failed_links",
    "degradation_pct",
    "time_us",
    "completion_cycles",
    "gbps_per_npu",
    "mem_traffic_bytes",
    "network_bytes",
    "compute_us",
    "exposed_comm_us",
    "ttft_p50_us",
    "ttft_p95_us",
    "ttft_p99_us",
    "e2e_p50_us",
    "e2e_p95_us",
    "e2e_p99_us",
    "goodput_rps",
    "past_schedules",
    "fidelity",
    "cache_hit",
    "speedup_vs_baseline",
];

/// The optional bottleneck-attribution columns appended by
/// [`to_csv_with_attribution`] / [`to_json_with_attribution`] (cycles;
/// they sum to `completion_cycles` — the attribution total is not a
/// column of its own). Kept out of [`CSV_COLUMNS`] so default output is
/// byte-stable across releases.
pub const ATTRIBUTION_COLUMNS: [&str; 7] = [
    "attr_compute_cycles",
    "attr_network_cycles",
    "attr_hbm_cycles",
    "attr_dma_cycles",
    "attr_bus_cycles",
    "attr_proc_cycles",
    "attr_other_cycles",
];

/// Formats `bytes` with a binary-power suffix when exact (`64MB`),
/// falling back to raw bytes.
pub fn human_bytes(bytes: u64) -> String {
    for (shift, suffix) in [(30, "GB"), (20, "MB"), (10, "KB")] {
        if bytes >= (1 << shift) && bytes.is_multiple_of(1 << shift) {
            return format!("{}{suffix}", bytes >> shift);
        }
    }
    format!("{bytes}B")
}

/// Emits one row's cells, in [`CSV_COLUMNS`] order, to `cell` (an empty
/// cell is an inapplicable column). The one place that knows how each
/// column is formatted: CSV writes the cells straight into its output,
/// JSON names and types them.
fn row_cells(r: &RunResult, cell: &mut dyn FnMut(fmt::Arguments<'_>)) {
    fn blank(cell: &mut dyn FnMut(fmt::Arguments<'_>), n: usize) {
        for _ in 0..n {
            cell(format_args!(""));
        }
    }
    let point = &r.point;
    cell(format_args!("{}", point.topology));
    cell(format_args!("{}", point.topology.nodes()));
    // engine .. fsms, then config .. microbatches. Floats print with
    // `Display`, which drops an integral value's trailing `.0` — what
    // scenario authors wrote ("128") — and is deterministic.
    match &point.kind {
        PointKind::Collective {
            engine,
            op,
            payload_bytes,
        } => {
            cell(format_args!("{}", engine.family().name()));
            cell(format_args!("{op}"));
            cell(format_args!("{payload_bytes}"));
            match *engine {
                EngineSpec::Ideal => blank(cell, 4),
                EngineSpec::Baseline { mem_gbps, comm_sms } => {
                    cell(format_args!("{mem_gbps}"));
                    cell(format_args!("{comm_sms}"));
                    blank(cell, 2);
                }
                EngineSpec::Ace {
                    dma_mem_gbps,
                    sram_mb,
                    fsms,
                } => {
                    cell(format_args!("{dma_mem_gbps}"));
                    blank(cell, 1);
                    cell(format_args!("{sram_mb}"));
                    cell(format_args!("{fsms}"));
                }
            }
            blank(cell, 7);
        }
        PointKind::Training {
            config,
            workload,
            iterations,
            ..
        } => {
            blank(cell, 7);
            cell(format_args!("{config}"));
            cell(format_args!("{workload}"));
            cell(format_args!("{iterations}"));
            blank(cell, 4);
        }
        PointKind::Serving {
            config,
            workload,
            spec,
        } => {
            blank(cell, 7);
            cell(format_args!("{config}"));
            cell(format_args!("{workload}"));
            blank(cell, 1);
            cell(format_args!("{}", spec.arrival));
            cell(format_args!("{}", spec.rate_rps));
            cell(format_args!("{}", spec.schedule));
            cell(format_args!("{}", spec.microbatches));
        }
    }
    // `failed_links` / `degradation_pct` come from re-resolving the fault
    // plan against the row's topology — cheap, and spares RunResult a
    // field that only reports care about. Pristine rows short-circuit.
    let (failed_links, degradation_pct) = if point.conditions.is_pristine() {
        (0, 0.0)
    } else {
        match point
            .conditions
            .resolve(point.topology, &NetworkParams::paper_default())
        {
            Ok(plan) => (plan.failed_links(), plan.degradation_pct()),
            Err(_) => (0, 0.0),
        }
    };
    let m = &r.metrics;
    cell(format_args!("{}", point.conditions.faults));
    cell(format_args!("{}", point.conditions.contention));
    cell(format_args!("{}", point.conditions.straggler));
    cell(format_args!("{failed_links}"));
    cell(format_args!("{degradation_pct:.3}"));
    cell(format_args!("{:.3}", m.time_us));
    cell(format_args!("{}", m.completion_cycles));
    cell(format_args!("{:.3}", m.gbps_per_npu));
    cell(format_args!("{}", m.mem_traffic_bytes));
    cell(format_args!("{}", m.network_bytes));
    cell(format_args!("{:.3}", m.compute_us));
    cell(format_args!("{:.3}", m.exposed_comm_us));
    if let PointKind::Serving { .. } = point.kind {
        let s = &m.serving;
        for v in [
            s.ttft_p50_us,
            s.ttft_p95_us,
            s.ttft_p99_us,
            s.e2e_p50_us,
            s.e2e_p95_us,
            s.e2e_p99_us,
            s.goodput_rps,
        ] {
            cell(format_args!("{v:.3}"));
        }
    } else {
        blank(cell, 7);
    }
    cell(format_args!("{}", m.past_schedules));
    cell(format_args!("{}", r.fidelity));
    cell(format_args!("{}", u8::from(r.cache_hit)));
    match r.speedup_vs_baseline {
        Some(s) => cell(format_args!("{s:.4}")),
        None => blank(cell, 1),
    }
}

/// Renders the outcome as CSV (header + one row per grid cell).
pub fn to_csv(outcome: &SweepOutcome) -> String {
    csv_impl(outcome, false)
}

/// [`to_csv`] plus the [`ATTRIBUTION_COLUMNS`]: each row's
/// `completion_cycles` decomposed into compute / per-pipe-bound / other
/// buckets. A separate emitter so default output stays byte-stable.
pub fn to_csv_with_attribution(outcome: &SweepOutcome) -> String {
    csv_impl(outcome, true)
}

fn csv_impl(outcome: &SweepOutcome, attribution: bool) -> String {
    let mut out = String::new();
    out.push_str(&CSV_COLUMNS.join(","));
    if attribution {
        out.push(',');
        out.push_str(&ATTRIBUTION_COLUMNS.join(","));
    }
    out.push('\n');
    for r in &outcome.results {
        // Every cell is written followed by a ','; the row's last one is
        // replaced by the newline.
        row_cells(r, &mut |cell| {
            out.write_fmt(cell)
                .expect("writing to a String cannot fail");
            out.push(',');
        });
        if attribution {
            for (_, v) in r.metrics.attribution.buckets() {
                write!(out, "{v},").expect("writing to a String cannot fail");
            }
        }
        out.pop();
        out.push('\n');
    }
    out
}

fn format_f64(v: f64) -> String {
    // `Display` prints integral floats without a trailing `.0`, which is
    // what scenario authors wrote ("128"), and is deterministic.
    format!("{v}")
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders the outcome (rows + per-axis summary) as JSON.
pub fn to_json(outcome: &SweepOutcome) -> String {
    json_impl(outcome, false)
}

/// [`to_json`] plus per-row attribution fields (see
/// [`ATTRIBUTION_COLUMNS`]). A separate emitter so default output stays
/// byte-stable.
pub fn to_json_with_attribution(outcome: &SweepOutcome) -> String {
    json_impl(outcome, true)
}

fn json_impl(outcome: &SweepOutcome, attribution: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"scenario\": \"{}\",\n",
        json_escape(&outcome.scenario)
    ));
    out.push_str(&format!("  \"mode\": \"{}\",\n", outcome.mode));
    out.push_str(&format!("  \"fidelity\": \"{}\",\n", outcome.fidelity));
    out.push_str(&format!("  \"points\": {},\n", outcome.results.len()));
    out.push_str(&format!("  \"executed\": {},\n", outcome.executed));
    out.push_str(&format!(
        "  \"analytic_executed\": {},\n",
        outcome.analytic_executed
    ));
    out.push_str(&format!("  \"cache_hits\": {},\n", outcome.cache_hits));
    out.push_str("  \"results\": [\n");
    for (i, r) in outcome.results.iter().enumerate() {
        let mut cells: Vec<String> = Vec::with_capacity(CSV_COLUMNS.len());
        row_cells(r, &mut |cell| cells.push(cell.to_string()));
        let mut fields: Vec<String> = Vec::with_capacity(CSV_COLUMNS.len());
        for (name, cell) in CSV_COLUMNS.iter().zip(&cells) {
            if cell.is_empty() {
                continue;
            }
            // Numeric columns emit bare numbers; the rest are strings.
            let is_string = matches!(
                *name,
                "topology"
                    | "engine"
                    | "op"
                    | "config"
                    | "workload"
                    | "fidelity"
                    | "arrival"
                    | "schedule"
                    | "faults"
                    | "contention"
                    | "straggler"
            );
            if is_string {
                fields.push(format!("\"{name}\": \"{}\"", json_escape(cell)));
            } else if *name == "cache_hit" {
                fields.push(format!("\"cache_hit\": {}", cell == "1"));
            } else {
                fields.push(format!("\"{name}\": {cell}"));
            }
        }
        if attribution {
            for (name, (_, cell)) in ATTRIBUTION_COLUMNS
                .iter()
                .zip(r.metrics.attribution.buckets())
            {
                fields.push(format!("\"{name}\": {cell}"));
            }
        }
        let sep = if i + 1 == outcome.results.len() {
            ""
        } else {
            ","
        };
        out.push_str(&format!("    {{{}}}{sep}\n", fields.join(", ")));
    }
    out.push_str("  ],\n");
    out.push_str("  \"summary\": [\n");
    let summaries = summarize(outcome);
    for (i, s) in summaries.iter().enumerate() {
        let sep = if i + 1 == summaries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"axis\": \"{}\", \"value\": \"{}\", \"count\": {}, \"min_speedup\": {}, \"mean_speedup\": {}, \"max_speedup\": {}}}{sep}\n",
            json_escape(&s.axis),
            json_escape(&s.value),
            s.count,
            json_num(s.min),
            json_num(s.mean),
            json_num(s.max),
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Speedup statistics of one axis value (e.g. `mem_gbps = 128`).
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSummary {
    /// Axis name (`topology`, `engine`, `mem_gbps`, `config`, ...).
    pub axis: String,
    /// The axis value this row aggregates.
    pub value: String,
    /// Number of grid cells at this value carrying a speedup.
    pub count: usize,
    /// Minimum speedup vs the scenario baseline.
    pub min: f64,
    /// Arithmetic mean speedup.
    pub mean: f64,
    /// Maximum speedup.
    pub max: f64,
}

/// The (axis, value) coordinates a point contributes to.
fn axis_values(point: &RunPoint) -> Vec<(&'static str, String)> {
    let mut v = vec![("topology", point.topology.to_string())];
    v.push(("faults", point.conditions.faults.to_string()));
    v.push(("contention", point.conditions.contention.to_string()));
    v.push(("straggler", point.conditions.straggler.to_string()));
    match &point.kind {
        PointKind::Collective {
            engine,
            op,
            payload_bytes,
        } => {
            v.push(("engine", engine.family().name().to_string()));
            v.push(("op", op.to_string()));
            v.push(("payload", human_bytes(*payload_bytes)));
            match *engine {
                EngineSpec::Ideal => {}
                EngineSpec::Baseline { mem_gbps, comm_sms } => {
                    v.push(("mem_gbps", format_f64(mem_gbps)));
                    v.push(("comm_sms", comm_sms.to_string()));
                }
                EngineSpec::Ace {
                    dma_mem_gbps,
                    sram_mb,
                    fsms,
                } => {
                    v.push(("mem_gbps", format_f64(dma_mem_gbps)));
                    v.push(("sram_mb", sram_mb.to_string()));
                    v.push(("fsms", fsms.to_string()));
                }
            }
        }
        PointKind::Training {
            config, workload, ..
        } => {
            v.push(("config", config.to_string()));
            v.push(("workload", workload.to_string()));
        }
        PointKind::Serving {
            config,
            workload,
            spec,
        } => {
            v.push(("config", config.to_string()));
            v.push(("workload", workload.to_string()));
            v.push(("arrival_rate", format_f64(spec.rate_rps)));
            v.push(("schedule", spec.schedule.to_string()));
            v.push(("microbatches", spec.microbatches.to_string()));
        }
    }
    v
}

/// Aggregates speedup-vs-baseline per axis value, for every axis with at
/// least two distinct values among rows that carry a speedup. Axis and
/// value order follow first appearance in the grid, so the summary is
/// deterministic.
pub fn summarize(outcome: &SweepOutcome) -> Vec<AxisSummary> {
    // axis -> ordered (value, speedups)
    type ValueSamples = Vec<(String, Vec<f64>)>;
    let mut axes: Vec<(&'static str, ValueSamples)> = Vec::new();
    for r in &outcome.results {
        let Some(speedup) = r.speedup_vs_baseline else {
            continue;
        };
        for (axis, value) in axis_values(&r.point) {
            let entry = match axes.iter_mut().find(|(a, _)| *a == axis) {
                Some(e) => e,
                None => {
                    axes.push((axis, Vec::new()));
                    axes.last_mut().expect("just pushed")
                }
            };
            match entry.1.iter_mut().find(|(v, _)| *v == value) {
                Some((_, samples)) => samples.push(speedup),
                None => entry.1.push((value, vec![speedup])),
            }
        }
    }
    let mut out = Vec::new();
    for (axis, values) in axes {
        if values.len() < 2 {
            continue;
        }
        for (value, samples) in values {
            let count = samples.len();
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = samples.iter().sum::<f64>() / count as f64;
            out.push(AxisSummary {
                axis: axis.to_string(),
                value,
                count,
                min,
                mean,
                max,
            });
        }
    }
    out
}

/// Renders the axis summary as an aligned text table for terminals.
pub fn summary_table(summaries: &[AxisSummary]) -> String {
    if summaries.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>20} {:>6} {:>10} {:>10} {:>10}\n",
        "axis", "value", "count", "min", "mean", "max"
    ));
    for s in summaries {
        out.push_str(&format!(
            "{:<12} {:>20} {:>6} {:>9.3}x {:>9.3}x {:>9.3}x\n",
            s.axis, s.value, s.count, s.min, s.mean, s.max
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_scenario, RunnerOptions};
    use crate::scenario::{BaselineSpec, EngineFamily, Scenario};
    use ace_net::TopologySpec;

    fn outcome() -> SweepOutcome {
        let mut sc = Scenario::collective("report-test");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.engines = vec![EngineFamily::Ideal, EngineFamily::Baseline];
        sc.payload_bytes = vec![128 * 1024];
        sc.mem_gbps = vec![128.0, 450.0];
        sc.comm_sms = vec![6];
        sc.baseline = Some(BaselineSpec::Engine(EngineSpec::Ideal));
        run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn csv_shape_and_header() {
        let out = outcome();
        let csv = to_csv(&out);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + out.results.len());
        assert!(lines[0].starts_with("topology,nodes,engine,"));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), CSV_COLUMNS.len());
        }
        // Ideal rows leave the knob columns empty.
        assert!(lines[1].contains("ideal"));
    }

    #[test]
    fn json_is_structurally_sound() {
        let json = to_json(&outcome());
        // Cheap structural checks (no JSON parser in a std-only build):
        // balanced braces/brackets and the expected top-level keys.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"scenario\"",
            "\"results\"",
            "\"summary\"",
            "\"cache_hits\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn summary_covers_multi_valued_axes_only() {
        let out = outcome();
        let sums = summarize(&out);
        // engine has 2 values; mem_gbps has 2 (only baseline rows carry it);
        // topology/op/payload have 1 value each and are dropped.
        assert!(sums.iter().any(|s| s.axis == "engine"));
        assert!(sums.iter().any(|s| s.axis == "mem_gbps"));
        assert!(!sums.iter().any(|s| s.axis == "topology"));
        for s in &sums {
            assert!(s.min <= s.mean && s.mean <= s.max);
            assert!(s.count > 0);
        }
        let table = summary_table(&sums);
        assert!(table.contains("engine"));
    }

    #[test]
    fn attribution_emitters_extend_but_never_change_default_output() {
        let out = outcome();
        let csv = to_csv(&out);
        let csv_a = to_csv_with_attribution(&out);
        // Default output is untouched; the attribution variant appends
        // exactly the extra columns to every line.
        assert!(!csv.contains("attr_compute_cycles"));
        assert!(csv_a.lines().next().unwrap().ends_with("attr_other_cycles"));
        for (plain, ext) in csv.lines().zip(csv_a.lines()) {
            assert!(ext.starts_with(plain), "attribution row diverged");
            assert_eq!(
                ext.split(',').count(),
                CSV_COLUMNS.len() + ATTRIBUTION_COLUMNS.len()
            );
        }
        // Buckets in each row sum to that row's completion_cycles.
        for (r, line) in out.results.iter().zip(csv_a.lines().skip(1)) {
            let cells: Vec<&str> = line.split(',').collect();
            let sum: u64 = cells[CSV_COLUMNS.len()..]
                .iter()
                .map(|c| c.parse::<u64>().unwrap())
                .sum();
            assert_eq!(sum, r.metrics.completion_cycles);
        }
        let json_a = to_json_with_attribution(&out);
        assert!(json_a.contains("\"attr_network_cycles\":"));
        assert!(!to_json(&out).contains("attr_network_cycles"));
    }

    #[test]
    fn fault_columns_report_failed_links_and_degradation() {
        let mut sc = Scenario::collective("fault-report");
        sc.topologies = vec![TopologySpec::torus3(4, 4, 1).unwrap()];
        sc.engines = vec![EngineFamily::Ideal];
        sc.payload_bytes = vec![128 * 1024];
        sc.faults = vec!["none".parse().unwrap(), "kill:1@seed:42".parse().unwrap()];
        let out = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let csv = to_csv(&out);
        let lines: Vec<&str> = csv.lines().collect();
        let header: Vec<&str> = lines[0].split(',').collect();
        let fl = header.iter().position(|c| *c == "failed_links").unwrap();
        let dp = header.iter().position(|c| *c == "degradation_pct").unwrap();
        let fa = header.iter().position(|c| *c == "faults").unwrap();
        let pristine: Vec<&str> = lines[1].split(',').collect();
        let degraded: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(pristine[fa], "none");
        assert_eq!(pristine[fl], "0");
        assert_eq!(pristine[dp], "0.000");
        assert_eq!(degraded[fa], "kill:1@seed:42");
        assert_eq!(degraded[fl], "1");
        assert!(degraded[dp].parse::<f64>().unwrap() > 0.0);
        // Degraded rows must not be slower to *parse* than run: the JSON
        // view carries the same identity fields as strings.
        let json = to_json(&out);
        assert!(json.contains("\"faults\": \"kill:1@seed:42\""));
        assert!(json.contains("\"failed_links\": 1"));
    }

    #[test]
    fn human_bytes_suffixes() {
        assert_eq!(human_bytes(64 << 20), "64MB");
        assert_eq!(human_bytes(8 << 10), "8KB");
        assert_eq!(human_bytes(1 << 30), "1GB");
        assert_eq!(human_bytes(1000), "1000B");
        assert_eq!(human_bytes(3 << 19), "1536KB");
    }

    #[test]
    fn parallel_csv_is_byte_identical_to_serial() {
        let mut sc = Scenario::collective("determinism");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.engines = vec![EngineFamily::Baseline];
        sc.payload_bytes = vec![128 * 1024];
        sc.mem_gbps = vec![64.0, 128.0, 450.0];
        sc.comm_sms = vec![2, 6];
        let serial = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = run_scenario(
            &sc,
            RunnerOptions {
                threads: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(to_csv(&serial), to_csv(&parallel));
        assert_eq!(to_json(&serial), to_json(&parallel));
    }
}
