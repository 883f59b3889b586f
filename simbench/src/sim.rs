//! The two simulation workloads: every op is one grid cell, executed
//! from scratch (fresh executor, empty ACE SRAM, no sweep cache) by
//! `ace_sweep::execute`.

use std::collections::BTreeMap;
use std::time::Instant;

use ace_collectives::CollectivePlan;
use ace_net::{Network, NetworkParams};
use ace_serve::SplitMix64;
use ace_sweep::{Metrics, PointKind, RunPoint, Scenario};
use ace_system::{RunSpec, TrainSpec};
use ace_workloads::{LoweringOptions, Program};

use crate::measure::{ms_since, pooled_ms, quantile, CountingTracer, Digest, OpClass, Spans};
use crate::{Layers, Outcome, Run};

/// Which simulation workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Collective,
    Training,
}

/// `base` bytes moved by up to ±2 %, in whole KiB: the seed shifts the
/// payloads without changing the class of work.
fn jitter(base: u64, rng: &mut SplitMix64) -> u64 {
    let scaled = base as f64 * (0.98 + 0.04 * rng.next_f64());
    (scaled as u64 / 1024).max(1) * 1024
}

/// An exact collective grid on one torus, all engines and both ops.
fn collective_toml(topology: &str, payloads: &[u64]) -> String {
    let payloads: Vec<String> = payloads.iter().map(u64::to_string).collect();
    format!(
        "name = \"collective-exact-{topology}\"\nmode = \"collective\"\n\
         topologies = [\"{topology}\"]\n\
         engines = [\"ace\", \"baseline\", \"ideal\"]\n\
         ops = [\"all-reduce\", \"all-to-all\"]\n\
         payloads = [{}]\n",
        payloads.join(", ")
    )
}

/// The workload's scenarios, drawn from the seed; their cells in order
/// form the grid.
fn scenario_tomls(kind: Kind, rng: &mut SplitMix64) -> Vec<String> {
    match kind {
        // Fig. 5/6/9a shape: single exact collectives on every engine, both
        // ops, 16- and 64-NPU tori, payloads up to 64 MB. The event loop
        // does nearly all the work and events grow with payload, so
        // event-loop and fast-forward changes show here; the Program
        // scheduler is idle.
        Kind::Collective => {
            let small = [jitter(1 << 20, rng), jitter(8 << 20, rng)];
            vec![
                // The 64 MB point stays exact: it is the Fig. 9a payload.
                collective_toml("4x2x2", &[small[0], small[1], 64 << 20]),
                // No 64 MB on 64 NPUs: that all-reduce takes ~0.5 s of host
                // time, too long for its repeats to find a quiet spell on a
                // shared host. The traced pass still counts its events.
                collective_toml("4x4x4", &small),
            ]
        }
        // Fig. 11 / training-suite shape: compute interleaved with mid-size
        // collectives on the boxed-engine TrainingSim path, so dispatch and
        // the Program scheduler show here. The seed only reorders cells.
        // One iteration keeps the longest cell (GNMT) under ~0.3 s of host time.
        Kind::Training => vec!["name = \"training-iter\"\nmode = \"training\"\n\
             topologies = [\"4x2x2\"]\n\
             configs = [\"NoOverlap\", \"CommOpt\", \"CompOpt\", \"ACE\", \"Ideal\"]\n\
             workloads = [\"resnet50\", \"gnmt\", \"dlrm\"]\n\
             iterations = 1\n"
            .to_string()],
    }
}

/// Parses and expands `tomls` into one grid.
fn expand_all(tomls: &[String]) -> Vec<RunPoint> {
    tomls
        .iter()
        .flat_map(|t| {
            let scenario = Scenario::from_toml_str(t).expect("benchmark scenarios are valid");
            ace_sweep::expand(&scenario)
        })
        .collect()
}

/// The grid cell run (untimed) as part of every set-up, in expansion
/// order: a mid-cost cell (16-NPU ACE 8 MB all-reduce; ResNet-50 under
/// ACE).
const WARM_UP_INDEX: usize = 3;

/// The output checks of one result.
fn check(m: &Metrics, point: &RunPoint) -> Result<(), String> {
    if !(m.time_us.is_finite() && m.time_us > 0.0 && m.completion_cycles > 0) {
        return Err(format!("non-positive completion {} us", m.time_us));
    }
    if matches!(point.kind, PointKind::Training { .. })
        && !(m.attribution.conserves() && m.attribution.bucket_sum() == m.completion_cycles)
    {
        return Err("attribution buckets do not sum to total cycles".into());
    }
    Ok(())
}

/// Set-up: parse + expand + one warm-up cell. Returns the grid and the
/// host time, ms.
fn setup(tomls: &[String]) -> (Vec<RunPoint>, f64) {
    let t = Instant::now();
    let points = expand_all(tomls);
    std::hint::black_box(ace_sweep::execute(&points[WARM_UP_INDEX]));
    (points, ms_since(t))
}

/// The un-instrumented timed runs: passes over every cell until
/// `run.seconds` have elapsed, one set-up repeat per pass.
pub fn timed(kind: Kind, run: &mut Run) -> Outcome {
    let tomls = scenario_tomls(kind, &mut run.rng);
    let (points, first_ms) = setup(&tomls);
    let mut setup_ms = vec![first_ms];
    let mut classes: Vec<OpClass> = points.iter().map(|p| OpClass::new(p.label())).collect();
    // Each cell's first result and its debug rendering.
    let mut firsts: Vec<Option<(String, Metrics)>> = (0..points.len()).map(|_| None).collect();
    let mut out = Outcome::default();
    let start = Instant::now();
    let n = points.len();
    // The first pass runs in grid order, so the heap (and peak RSS) grows
    // the same way for every seed; later passes run in seeded order.
    let mut order: Vec<usize> = (0..n).collect();
    'run: loop {
        for i in order {
            if out.attempted >= n as u64 && start.elapsed().as_secs_f64() >= run.seconds {
                break 'run;
            }
            let t = Instant::now();
            let sim = ace_sweep::execute(&points[i]);
            classes[i].host_ms.push(ms_since(t));
            out.attempted += 1;
            let text = format!("{sim:?}");
            let verdict = check(&sim, &points[i]).and_then(|()| match &firsts[i] {
                Some((prev, _)) if *prev != text => Err("repeat run differs from the first".into()),
                _ => Ok(()),
            });
            if let Err(e) = verdict {
                out.fail(&format!("{}: {e}", points[i].label()));
            }
            if firsts[i].is_none() {
                firsts[i] = Some((text, sim));
            }
        }
        setup_ms.push(setup(&tomls).1);
        order = run.shuffled((0..n).collect());
    }

    let mut digest = Digest::default();
    println!(
        "# {:<58} {:>16} {:>13} {:>13} {:>7}",
        "cell", "sim time (us)", "host best ms", "host p50 ms", "samples"
    );
    for (c, first) in classes.iter().zip(&firsts) {
        let (text, sim) = first.as_ref().expect("the first pass runs every cell");
        digest.add(text);
        println!(
            "  {:<58} {:>16.3} {:>13.3} {:>13.3} {:>7}",
            c.label,
            sim.time_us,
            c.best_ms(),
            c.median_ms(),
            c.host_ms.len()
        );
    }
    println!(
        "simulated-statistics digest (seed {}): {}",
        run.seed,
        digest.hex()
    );
    if kind == Kind::Training {
        print_speedups(&points, &firsts);
    }
    // Each cell at its best host time: every repeat does the same work,
    // and a shared host's load only ever adds to it.
    let best: Vec<f64> = classes.iter().map(OpClass::best_ms).collect();
    out.end_to_end(&best, &setup_ms);
    out
}

/// ACE vs. the best overlap baseline (simulated iteration time), beside
/// the paper's Fig. 11 figures. Informational only: no bound gates it.
fn print_speedups(points: &[RunPoint], firsts: &[Option<(String, Metrics)>]) {
    let mut by_workload: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for (p, first) in points.iter().zip(firsts) {
        if let (
            PointKind::Training {
                config, workload, ..
            },
            Some((_, m)),
        ) = (&p.kind, first)
        {
            by_workload
                .entry(workload.to_string())
                .or_default()
                .insert(config.to_string(), m.time_us);
        }
    }
    println!("ACE vs best baseline, simulated iteration time on 4x2x2 (ungated):");
    for (workload, paper) in [("resnet50", 1.41), ("gnmt", 1.12), ("dlrm", 1.13)] {
        let Some(t) = by_workload.get(workload) else {
            continue;
        };
        let best = ["NoOverlap", "CommOpt", "CompOpt"]
            .iter()
            .filter_map(|c| t.get(*c))
            .fold(f64::INFINITY, |a, &b| a.min(b));
        if let Some(ace) = t.get("ACE") {
            println!("  {workload:<9} {:.3}x  (paper {paper:.2}x)", best / ace);
        }
    }
}

/// The traced pass: every cell once untraced and once through
/// `RunSpec`/`TrainSpec` with the counting tracer, plus per-layer probes,
/// repeated until `run.seconds` have elapsed.
pub fn traced(kind: Kind, run: &mut Run, spans: &mut Spans) -> (Outcome, Layers) {
    let tomls = scenario_tomls(kind, &mut run.rng);
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let id = spans.enter("setup");
    let (points, _) = setup(&tomls);
    spans.exit(id);
    let n = points.len();
    let mut untraced: Vec<OpClass> = points.iter().map(|p| OpClass::new(p.label())).collect();
    let mut traced: Vec<OpClass> = points.iter().map(|p| OpClass::new(p.label())).collect();
    let mut counts: Vec<Option<CountingTracer>> = vec![None; n];
    let mut sim_outs: Vec<Option<Metrics>> = vec![None; n];
    let mut lower_tasks = Vec::new();
    let mut plan_phases = Vec::new();

    let start = Instant::now();
    let mut order: Vec<usize> = (0..n).collect();
    'run: loop {
        for toml in &tomls {
            let scenario = spans.time("sweep.scenario.parse", || {
                Scenario::from_toml_str(toml).expect("benchmark scenarios are valid")
            });
            std::hint::black_box(spans.time("sweep.grid.expand", || ace_sweep::expand(&scenario)));
        }
        probe_fabric(&points, spans, &mut plan_phases);
        for i in order {
            if out.attempted >= n as u64 && start.elapsed().as_secs_f64() >= run.seconds {
                break 'run;
            }
            let point = &points[i];
            let op = spans.enter("op");
            let id = spans.enter("ace_sweep.execute");
            let m = ace_sweep::execute(point);
            untraced[i].host_ms.push(spans.exit(id));
            out.attempted += 1;
            if let Err(e) = check(&m, point) {
                out.fail(&format!("{}: {e}", point.label()));
            }
            let t = Instant::now();
            match &point.kind {
                PointKind::Collective {
                    engine,
                    op,
                    payload_bytes,
                } => {
                    let (report, c) = spans.time("system.executor.traced_cell", || {
                        RunSpec::new(point.topology, engine.to_engine_kind(), *op, *payload_bytes)
                            .tracer(CountingTracer::default())
                            .run_traced()
                            .expect("pristine collective cells run")
                    });
                    if report.completion.cycles() != m.completion_cycles {
                        out.fail(&format!("{}: traced run differs", point.label()));
                    }
                    counts[i] = Some(c);
                }
                PointKind::Training {
                    config,
                    workload,
                    iterations,
                    ..
                } => {
                    let w = workload.instantiate(point.topology.nodes());
                    let opts = LoweringOptions {
                        iterations: *iterations,
                        overlap: config.overlaps(),
                    };
                    let program = spans.time("workloads.lower", || {
                        Program::lower(&w, w.parallelism(), &opts)
                    });
                    lower_tasks.push(program.len() as f64);
                    let sim = spans.time("system.training.build", || {
                        TrainSpec::new(*config, program, point.topology)
                            .tracer(CountingTracer::default())
                            .build()
                            .expect("pristine training cells build")
                    });
                    let (report, c) = spans.time("system.training.run", || sim.run_with_tracer());
                    if report.total_cycles() != m.completion_cycles {
                        out.fail(&format!("{}: traced run differs", point.label()));
                    }
                    counts[i] = Some(c);
                }
                PointKind::Serving { .. } => unreachable!("no serving cells here"),
            }
            traced[i].host_ms.push(ms_since(t));
            spans.exit(op);
            sim_outs[i].get_or_insert(m);
        }
        order = run.shuffled((0..n).collect());
    }

    layers.set(
        "sweep.scenario.parse_us",
        spans.median_ms("sweep.scenario.parse") * 1e3,
    );
    layers.set(
        "sweep.grid.expand_us",
        spans.median_ms("sweep.grid.expand") * 1e3,
    );
    layers.set("sweep.grid.cells", n as f64);
    layers.set(
        "net.topology_build_ms",
        spans.median_ms("net.topology_build"),
    );
    layers.set(
        "collectives.plan_us",
        spans.median_ms("collectives.plan") * 1e3,
    );
    layers.set("collectives.phases", mean(&plan_phases));
    if !lower_tasks.is_empty() {
        layers.set("workloads.lower_ms", spans.median_ms("workloads.lower"));
        layers.set("workloads.tasks", mean(&lower_tasks));
    }
    let mut total = CountingTracer::default();
    for c in counts.iter().flatten() {
        total += *c;
    }
    let cells = n as f64;
    let untraced_ms: f64 = untraced.iter().map(OpClass::median_ms).sum();
    let traced_ms: f64 = traced.iter().map(OpClass::median_ms).sum();
    layers.set(
        "system.executor.cell_ms",
        quantile(&pooled_ms(&untraced), 0.5),
    );
    layers.set(
        "system.executor.events_per_cell",
        total.events() as f64 / cells,
    );
    layers.set(
        "system.executor.host_ns_per_event",
        untraced_ms * 1e6 / total.events().max(1) as f64,
    );
    layers.set("system.executor.chunks", total.chunks as f64 / cells);
    layers.set("system.executor.phases", total.phases as f64 / cells);
    layers.set(
        "system.executor.link_grants",
        total.link_grants as f64 / cells,
    );
    layers.set(
        "trace.overhead_pct",
        (traced_ms / untraced_ms - 1.0) * 100.0,
    );
    let mut past = 0u64;
    let mut attr = [0u64; 7];
    for m in sim_outs.iter().flatten() {
        past += m.past_schedules;
        for (slot, (_, v)) in attr.iter_mut().zip(m.attribution.buckets()) {
            *slot += v;
        }
    }
    layers.set("system.executor.past_schedules", past as f64 / cells);
    for (name, v) in ATTR_METRICS.iter().zip(attr) {
        layers.set(name, v as f64);
    }
    if kind == Kind::Training {
        layers.set(
            "system.training.build_ms",
            spans.median_ms("system.training.build"),
        );
        layers.set(
            "system.training.run_ms",
            spans.median_ms("system.training.run"),
        );
        layers.set(
            "system.training.timeline_spans",
            total.timeline_spans as f64 / cells,
        );
    }
    if kind == Kind::Collective {
        report_fig9a_events(spans);
    }
    (out, layers)
}

/// The simulated-attribution per-layer metrics, in
/// [`ace_trace::Attribution::buckets`] order.
const ATTR_METRICS: [&str; 7] = [
    "sim.attr_compute_cycles",
    "sim.attr_network_cycles",
    "sim.attr_hbm_cycles",
    "sim.attr_dma_cycles",
    "sim.attr_bus_cycles",
    "sim.attr_proc_cycles",
    "sim.attr_other_cycles",
];

/// Times building each distinct topology's network and planning each
/// collective on it.
pub fn probe_fabric(points: &[RunPoint], spans: &mut Spans, plan_phases: &mut Vec<f64>) {
    let mut topologies: Vec<_> = points.iter().map(|p| p.topology).collect();
    topologies.dedup();
    for topo in topologies {
        std::hint::black_box(spans.time("net.topology_build", || {
            Network::new(topo, NetworkParams::paper_default())
        }));
        let fabric = topo.build();
        for op in [
            ace_collectives::CollectiveOp::AllReduce,
            ace_collectives::CollectiveOp::AllToAll,
        ] {
            let plan = spans.time("collectives.plan", || {
                CollectivePlan::for_topology(op, &*fabric)
            });
            plan_phases.push(plan.phases().len() as f64);
        }
    }
}

/// Counts the events of the 64 MB ACE all-reduce (the Fig. 9a design
/// point) on the 16- and 64-NPU tori, one traced run each, and prints
/// them with their mean, the per-cell figure the ROADMAP quotes for the
/// Fig. 9a grid.
fn report_fig9a_events(spans: &mut Spans) {
    let toml = "name = \"fig9a\"\nmode = \"collective\"\n\
                topologies = [\"4x2x2\", \"4x4x4\"]\nengines = [\"ace\"]\n\
                ops = [\"all-reduce\"]\npayloads = [67108864]\n";
    let mut events = Vec::new();
    for p in expand_all(&[toml.to_string()]) {
        let PointKind::Collective {
            engine,
            op,
            payload_bytes,
        } = &p.kind
        else {
            unreachable!("a collective scenario")
        };
        let (_, c) = spans.time("system.executor.fig9a_cell", || {
            RunSpec::new(p.topology, engine.to_engine_kind(), *op, *payload_bytes)
                .tracer(CountingTracer::default())
                .run_traced()
                .expect("pristine collective cells run")
        });
        println!(
            "events: {} ~{} simulated events ({} dispatch samples x {})",
            p.label(),
            c.events(),
            c.dispatch,
            crate::measure::DISPATCH_SAMPLE_EVENTS
        );
        events.push(c.events() as f64);
    }
    println!("events: mean over the Fig. 9a tori ~{:.0}", mean(&events));
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
