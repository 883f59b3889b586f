//! The `sweep-service` workload: one closed-loop client submitting
//! inline scenarios to a resident [`SweepService`] with a journal, over
//! an in-memory reader and writer.
//!
//! Simulation work is nearly nil (analytic-tier cells), so the cache,
//! persist, protocol and report layers show here and nowhere else.
//! About 70 % of submits are fully cached resubmits (the read path); the
//! rest carry new cells (the write path: cache insert, journal append,
//! CSV render), so `op_p50_ms` tracks reads and `op_p90_ms` writes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ace_sweep::protocol::{self, Request, Value};
use ace_sweep::{Journal, RunnerOptions, Scenario, ServiceOptions, SweepService, Tier};

use crate::measure::{ms_since, quantile, OpClass, Spans};
use crate::{Layers, Outcome, Run};

/// Distinct read scenarios the client resubmits.
const READ_SCENARIOS: u64 = 8;
/// Submits per pass: 14 reads and 6 writes.
const READS_PER_PASS: u32 = 14;
const WRITES_PER_PASS: u32 = 6;
/// Cells per submitted scenario (2 tori x 3 engines x 2 ops x 2 payloads).
const CELLS_PER_SUBMIT: usize = 24;
/// Payloads of the pre-generated history grid: 64 KiB steps.
const HISTORY_PAYLOADS: u64 = 128;
/// Minimum host time between two set-up repeats.
const SETUP_EVERY_S: f64 = 1.0;
/// The client starts one pass per period (think time fills the rest), so
/// the number of writes, and with it the cache and journal, grows with
/// run length rather than host speed.
const PASS_PERIOD_S: f64 = 0.05;
/// Passes per timing window. The cache and journal grow through a run, so
/// only submits of one window (one second) count as the same work.
const WINDOW_PASSES: u32 = 20;

/// Sleeps until pass `passes` of a client paced from `start` is due.
fn pace(start: Instant, passes: u32) {
    let due = start + std::time::Duration::from_secs_f64(PASS_PERIOD_S * f64::from(passes));
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// An analytic-tier collective grid of [`CELLS_PER_SUBMIT`] cells.
fn grid_toml(name: &str, payloads: [u64; 2]) -> String {
    format!(
        "name = \"{name}\"\nmode = \"collective\"\nfidelity = \"analytic\"\n\
         topologies = [\"4x2x2\", \"4x4x4\"]\n\
         engines = [\"ace\", \"baseline\", \"ideal\"]\n\
         ops = [\"all-reduce\", \"all-to-all\"]\n\
         payloads = [{}, {}]\n",
        payloads[0], payloads[1]
    )
}

/// The journal history replayed at set-up: thousands of analytic rows on
/// four fabrics (payloads up to 8 MiB; reads and writes use larger ones,
/// so they never hit it).
fn history_toml() -> String {
    let payloads: Vec<String> = (1..=HISTORY_PAYLOADS)
        .map(|i| (i * (64 << 10)).to_string())
        .collect();
    format!(
        "name = \"history\"\nmode = \"collective\"\nfidelity = \"analytic\"\n\
         topologies = [\"4x2x2\", \"4x4x4\", \"8x8\", \"switch:16\"]\n\
         engines = [\"ace\", \"baseline\", \"ideal\"]\n\
         ops = [\"all-reduce\", \"all-to-all\"]\n\
         payloads = [{}]\n",
        payloads.join(", ")
    )
}

fn submit_line(toml: &str) -> String {
    protocol::request_line(&Request::Submit {
        toml: Some(toml.to_string()),
        path: None,
        base: None,
        threads: None,
        fidelity: None,
    })
}

/// What one submit returned.
#[derive(Debug, Default)]
struct Response {
    csv: Option<String>,
    executed: u64,
    cache_hits: u64,
    errors: Vec<String>,
}

/// Submits one request line and returns its response and host time.
fn submit(svc: &SweepService, line: &str) -> (Response, f64) {
    let mut wire = Vec::new();
    let t = Instant::now();
    let served = svc.serve_stream(line.as_bytes(), &mut wire);
    let ms = ms_since(t);
    let mut resp = Response::default();
    if let Err(e) = served {
        resp.errors.push(e);
    }
    for l in String::from_utf8_lossy(&wire).lines() {
        let obj = match protocol::parse_object(l) {
            Ok(o) => o,
            Err(e) => {
                resp.errors.push(e);
                continue;
            }
        };
        let num = |k: &str| obj.get(k).and_then(Value::as_num).unwrap_or(0.0) as u64;
        match obj.get("event").and_then(Value::as_str) {
            Some("result") => resp.csv = obj.get("csv").and_then(Value::as_str).map(String::from),
            Some("finished") => {
                resp.executed = num("executed") + num("analytic_executed");
                resp.cache_hits = num("cache_hits");
            }
            Some("error" | "failed" | "superseded") => resp.errors.push(l.to_string()),
            _ => {}
        }
    }
    (resp, ms)
}

/// The CSV without its `cache_hit` column (the second-to-last field, and
/// like the last one free of commas): a warm resubmit must match the
/// cold run in every other byte.
fn without_cache_hit(csv: &str) -> String {
    csv.lines()
        .map(|l| {
            let mut f = l.rsplitn(3, ',');
            let (last, _hit, rest) = (f.next(), f.next(), f.next());
            format!("{},{}\n", rest.unwrap_or(""), last.unwrap_or(""))
        })
        .collect()
}

fn options(journal: &Path) -> ServiceOptions {
    ServiceOptions {
        threads: 1,
        sim_threads: 1,
        journal: Some(journal.to_path_buf()),
    }
}

/// A read scenario: its TOML, request line and cold CSV (without
/// `cache_hit`).
struct Read {
    toml: String,
    line: String,
    cold: String,
}

/// One submit of a pass.
enum Submit {
    /// Resubmit of `reads[k]`.
    Read(usize),
    /// A new scenario's request line.
    Write(String),
}

/// The client's state: the live service, its journal, the read scenarios
/// and every write issued so far.
struct Client {
    svc: SweepService,
    journal: PathBuf,
    pristine: PathBuf,
    reads: Vec<Read>,
    writes: Vec<String>,
    write_base: u64,
    seed: u64,
}

/// Opens the service on a copy of the pre-generated journal; returns
/// the open's host time, ms.
fn open_timed(journal: &Path) -> (SweepService, f64) {
    let t = Instant::now();
    let svc = SweepService::open(options(journal)).expect("the benchmark journal replays");
    (svc, ms_since(t))
}

impl Client {
    /// Pre-generates the journal (history grid + the cold read
    /// scenarios), then opens the live service on it. Returns the client
    /// and the open's host time.
    fn start(run: &mut Run, out: &mut Outcome) -> (Client, f64) {
        std::fs::create_dir_all(&run.work_dir).expect("benchmark work directory is writable");
        let journal = run.work_dir.join("service.journal");
        let pristine = run.work_dir.join("pristine.journal");
        let _ = std::fs::remove_file(&journal);
        let gen = SweepService::open(options(&journal)).expect("a fresh journal opens");
        let (history, _) = submit(&gen, &submit_line(&history_toml()));
        if !history.errors.is_empty() || history.csv.is_none() {
            out.fail(&format!("history submit: {:?}", history.errors));
        }
        let mut reads = Vec::new();
        for k in 0..READ_SCENARIOS {
            // Reads use 16/32 MiB-range payloads shifted by the seed.
            let shift = (run.rng.next_u64() % 1024) << 10;
            let toml = grid_toml(
                &format!("read-{k}"),
                [
                    (16 << 20) + shift + (k << 12),
                    (32 << 20) + shift + (k << 12),
                ],
            );
            let line = submit_line(&toml);
            let (cold, _) = submit(&gen, &line);
            match cold.csv {
                Some(csv) if cold.errors.is_empty() => reads.push(Read {
                    toml,
                    line,
                    cold: without_cache_hit(&csv),
                }),
                _ => out.fail(&format!("cold read-{k}: {:?}", cold.errors)),
            }
        }
        drop(gen);
        std::fs::copy(&journal, &pristine).expect("journal copy");
        let (svc, ms) = open_timed(&journal);
        let client = Client {
            svc,
            journal,
            pristine,
            reads,
            writes: Vec::new(),
            write_base: (48 << 20) + ((run.rng.next_u64() % 1024) << 20),
            seed: run.seed,
        };
        (client, ms)
    }

    /// One set-up repeat: replay the pre-generated journal into a fresh
    /// service.
    fn setup_ms(&self) -> f64 {
        open_timed(&self.pristine).1
    }

    /// A pass's submits in seeded order.
    fn pass(&mut self, run: &mut Run) -> Vec<Submit> {
        let mut kinds = vec![false; READS_PER_PASS as usize];
        kinds.extend(vec![true; WRITES_PER_PASS as usize]);
        run.shuffled(kinds)
            .into_iter()
            .map(|write| {
                if write {
                    let n = self.writes.len() as u64;
                    let toml = grid_toml(
                        &format!("write-{}-{n}", self.seed),
                        [
                            self.write_base + (n << 11),
                            self.write_base + (n << 11) + 1024,
                        ],
                    );
                    let line = submit_line(&toml);
                    self.writes.push(toml);
                    Submit::Write(line)
                } else {
                    Submit::Read((run.rng.next_u64() % self.reads.len() as u64) as usize)
                }
            })
            .collect()
    }

    /// Submits one request and runs its output checks.
    fn op(&self, submit_op: &Submit, out: &mut Outcome) -> (Response, f64) {
        let line = match submit_op {
            Submit::Read(k) => &self.reads[*k].line,
            Submit::Write(line) => line,
        };
        let (resp, ms) = submit(&self.svc, line);
        out.attempted += 1;
        let cells = CELLS_PER_SUBMIT as u64;
        let verdict = match (&resp.csv, submit_op) {
            _ if !resp.errors.is_empty() => Err(format!("error response {:?}", resp.errors)),
            (None, _) => Err("no result line".into()),
            (Some(_), Submit::Write(_)) if resp.executed != cells => {
                Err(format!("write executed {} of {cells} cells", resp.executed))
            }
            (Some(_), Submit::Read(_)) if resp.cache_hits != cells => {
                Err(format!("read hit {} of {cells} cells", resp.cache_hits))
            }
            (Some(csv), Submit::Read(k)) if without_cache_hit(csv) != self.reads[*k].cold => {
                Err("warm CSV differs from the cold CSV".into())
            }
            _ => Ok(()),
        };
        if let Err(e) = verdict {
            out.fail(&e);
        }
        (resp, ms)
    }

    /// Replays the live journal and checks that every cell the run
    /// executed is restored.
    fn check_journal(&self, out: &mut Outcome) {
        let replay = match Journal::replay(&self.journal) {
            Ok(r) => r,
            Err(e) => return out.fail(&format!("journal replay: {e}")),
        };
        for toml in &self.writes {
            let scenario = Scenario::from_toml_str(toml).expect("write scenarios are valid");
            let missing = ace_sweep::expand(&scenario)
                .iter()
                .filter(|p| !replay.cache.contains_tier(Tier::Analytic, p))
                .count();
            if missing > 0 {
                out.fail(&format!(
                    "{missing} cells of {} not restored",
                    scenario.name
                ));
            }
        }
    }
}

/// The timed runs: passes of 20 submits until `run.seconds` have elapsed,
/// with a set-up repeat at most once per second.
pub fn timed(run: &mut Run) -> Outcome {
    let mut out = Outcome::default();
    let (mut client, first_ms) = Client::start(run, &mut out);
    let mut setup_ms = vec![first_ms];
    let mut reads = OpClass::new("cached resubmit (read)".into());
    let mut writes = OpClass::new("new analytic cells (write)".into());
    // Per window: its reads and its writes.
    let mut windows: Vec<[OpClass; 2]> = Vec::new();
    let start = Instant::now();
    let mut last_setup = Instant::now();
    let mut passes = 0;
    while out.attempted == 0 || start.elapsed().as_secs_f64() < run.seconds {
        pace(start, passes);
        if passes % WINDOW_PASSES == 0 {
            windows.push([OpClass::new("read".into()), OpClass::new("write".into())]);
        }
        passes += 1;
        let window = windows.last_mut().expect("a window is open");
        for op in client.pass(run) {
            let (_, ms) = client.op(&op, &mut out);
            let (all, win) = match op {
                Submit::Read(_) => (&mut reads, &mut window[0]),
                Submit::Write(_) => (&mut writes, &mut window[1]),
            };
            all.host_ms.push(ms);
            win.host_ms.push(ms);
        }
        if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            setup_ms.push(client.setup_ms());
            last_setup = Instant::now();
        }
    }
    client.check_journal(&mut out);
    // A window's submits do the same work, and a shared host's load only
    // ever adds to it: each window counts at its best read and best write,
    // and the run at its median window.
    let mut best = [0.0; 2];
    for (k, c) in [&reads, &writes].into_iter().enumerate() {
        let per_window: Vec<f64> = windows
            .iter()
            .filter(|w| !w[k].host_ms.is_empty())
            .map(|w| w[k].best_ms())
            .collect();
        best[k] = quantile(&per_window, 0.5);
        println!(
            "  {:<30} host median {:.4} ms  best of a window: first {:.4}, median {:.4}, \
             last {:.4} ms  samples {}",
            c.label,
            c.median_ms(),
            per_window.first().copied().unwrap_or(0.0),
            best[k],
            per_window.last().copied().unwrap_or(0.0),
            c.host_ms.len()
        );
    }
    println!(
        "journal: {} writes of {CELLS_PER_SUBMIT} cells restored on replay",
        client.writes.len()
    );
    let mut pass = vec![best[0]; READS_PER_PASS as usize];
    pass.extend(vec![best[1]; WRITES_PER_PASS as usize]);
    out.end_to_end(&pass, &setup_ms);
    out
}

/// The traced pass: the same submit loop under host-time spans, plus
/// probes of the layers the service calls.
pub fn traced(run: &mut Run, spans: &mut Spans) -> (Outcome, Layers) {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let id = spans.enter("setup");
    let (mut client, _) = Client::start(run, &mut out);
    spans.exit(id);
    let journal_start = file_len(&client.journal);
    let (mut hits, mut executed, mut written) = (0u64, 0u64, 0u64);
    let mut plan_phases = Vec::new();
    let read_toml = client.reads[0].toml.clone();
    let read_line = client.reads[0].line.clone();
    let probe_points = {
        let s =
            Scenario::from_toml_str(&grid_toml("probe", [(40 << 20) + 4096, (40 << 20) + 8192]))
                .expect("probe scenario is valid");
        ace_sweep::expand(&s)
    };

    let start = Instant::now();
    let mut passes = 0;
    while out.attempted == 0 || start.elapsed().as_secs_f64() < run.seconds {
        pace(start, passes);
        passes += 1;
        for op in client.pass(run) {
            let id = spans.enter("sweep.service.serve_stream");
            let (resp, _) = client.op(&op, &mut out);
            spans.exit(id);
            hits += resp.cache_hits;
            executed += resp.executed;
            if let Submit::Write(_) = op {
                written += CELLS_PER_SUBMIT as u64;
            }
        }
        let _ = std::hint::black_box(spans.time("sweep.protocol.parse", || {
            protocol::parse_request(&read_line)
        }));
        let scenario = spans.time("sweep.scenario.parse", || {
            Scenario::from_toml_str(&read_toml).expect("read scenarios are valid")
        });
        let points = spans.time("sweep.grid.expand", || ace_sweep::expand(&scenario));
        let outcome = spans.time("sweep.scheduler.run_job", || {
            client.svc.scheduler().run_job(
                &scenario,
                RunnerOptions {
                    threads: 1,
                    sim_threads: 1,
                },
                &mut |_| {},
            )
        });
        match outcome {
            Ok(o) => {
                std::hint::black_box(spans.time("sweep.report.csv", || ace_sweep::to_csv(&o)));
            }
            Err(e) => out.fail(&format!("run_job: {e}")),
        }
        for p in &probe_points {
            std::hint::black_box(spans.time("collectives.analytic_cell", || {
                ace_sweep::execute_analytic(p)
            }));
        }
        let _ = std::hint::black_box(
            spans.time("sweep.persist.replay", || Journal::replay(&client.pristine)),
        );
        crate::sim::probe_fabric(&points, spans, &mut plan_phases);
    }
    client.check_journal(&mut out);

    let all = spans.durations_ms("sweep.service.serve_stream");
    println!(
        "traced submits: {}, host median {:.4} ms",
        all.len(),
        quantile(&all, 0.5)
    );
    layers.set("sweep.cache.hits", hits as f64);
    layers.set("sweep.cache.executed", executed as f64);
    layers.set(
        "sweep.cache.hit_ratio",
        hits as f64 / (hits + executed).max(1) as f64,
    );
    layers.set(
        "sweep.scheduler.run_job_ms",
        spans.median_ms("sweep.scheduler.run_job"),
    );
    layers.set(
        "sweep.protocol.parse_us",
        spans.median_ms("sweep.protocol.parse") * 1e3,
    );
    layers.set("sweep.report.csv_ms", spans.median_ms("sweep.report.csv"));
    layers.set(
        "sweep.persist.replay_ms",
        spans.median_ms("sweep.persist.replay"),
    );
    layers.set(
        "sweep.persist.journal_bytes_per_cell",
        (file_len(&client.journal) - journal_start) as f64 / written.max(1) as f64,
    );
    layers.set(
        "sweep.scenario.parse_us",
        spans.median_ms("sweep.scenario.parse") * 1e3,
    );
    layers.set(
        "sweep.grid.expand_us",
        spans.median_ms("sweep.grid.expand") * 1e3,
    );
    layers.set("sweep.grid.cells", CELLS_PER_SUBMIT as f64);
    layers.set(
        "collectives.analytic_cell_us",
        spans.median_ms("collectives.analytic_cell") * 1e3,
    );
    layers.set(
        "net.topology_build_ms",
        spans.median_ms("net.topology_build"),
    );
    layers.set(
        "collectives.plan_us",
        spans.median_ms("collectives.plan") * 1e3,
    );
    layers.set(
        "collectives.phases",
        plan_phases.iter().sum::<f64>() / plan_phases.len().max(1) as f64,
    );
    (out, layers)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
