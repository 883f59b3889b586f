//! Measurement plumbing shared by every workload: op classes and their
//! host-time statistics, host-time spans, the counting tracer, the
//! simulated-statistics digest and peak RSS.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use ace_simcore::SimTime;
use ace_trace::{Tracer, Track};

/// Event deliveries between two `dispatch` samples of the executor's
/// tracer hook (`TRACE_SAMPLE_POPS` in `ace-system`'s executor).
pub const DISPATCH_SAMPLE_EVENTS: u64 = 256;

/// Nearest-rank quantile (`q` in `[0, 1]`) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A class of identical operations (the same cell, or one kind of
/// submit) and the host time of each one it ran, ms.
#[derive(Debug)]
pub struct OpClass {
    pub label: String,
    pub host_ms: Vec<f64>,
}

impl OpClass {
    pub fn new(label: String) -> OpClass {
        OpClass {
            label,
            host_ms: Vec::new(),
        }
    }

    /// The class's median host time, ms.
    pub fn median_ms(&self) -> f64 {
        quantile(&self.host_ms, 0.5)
    }

    /// The class's best (lowest) host time, ms.
    pub fn best_ms(&self) -> f64 {
        quantile(&self.host_ms, 0.0)
    }
}

/// Every op sample of every class, ms.
pub fn pooled_ms(classes: &[OpClass]) -> Vec<f64> {
    classes
        .iter()
        .flat_map(|c| c.host_ms.iter().copied())
        .collect()
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the debug rendering of every simulated statistic: equal
/// digests for the same seed show that a speed-only change left the
/// simulated outputs identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One host-time span around a call into a layer.
#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Host-time spans, kept in memory and written out once at the end.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one); returns its length, ms.
    pub fn exit(&mut self, id: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Lengths of every span named `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The median length of the spans named `name`, ms (0 if none).
    pub fn median_ms(&self, name: &str) -> f64 {
        quantile(&self.durations_ms(name), 0.5)
    }

    /// Writes the spans as Chrome/Perfetto `trace_event` JSON (complete
    /// events, microseconds; `args` carry the span and parent ids).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A [`Tracer`] that only counts the executor's and training scheduler's
/// hooks.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingTracer {
    /// `dispatch` samples, one per [`DISPATCH_SAMPLE_EVENTS`] events.
    pub dispatch: u64,
    /// `chunk` spans opened (collective chunks injected).
    pub chunks: u64,
    /// `phase` spans opened (node 0's chunk phases).
    pub phases: u64,
    /// `link:` spans (link transmit grants).
    pub link_grants: u64,
    /// `task:` spans on the training timeline.
    pub timeline_spans: u64,
}

impl CountingTracer {
    /// Simulated events delivered, to within one sampling interval.
    pub fn events(&self) -> u64 {
        self.dispatch * DISPATCH_SAMPLE_EVENTS
    }
}

impl Tracer for CountingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&mut self, _track: Track, name: &str, _start: SimTime, _end: SimTime) {
        if name.starts_with("link:") {
            self.link_grants += 1;
        } else if name.starts_with("task:") {
            self.timeline_spans += 1;
        }
    }

    fn begin(&mut self, _track: Track, name: &str, _id: u64, _at: SimTime) {
        match name {
            "chunk" => self.chunks += 1,
            "phase" => self.phases += 1,
            _ => {}
        }
    }

    fn instant(&mut self, _track: Track, name: &str, _at: SimTime) {
        if name == "dispatch" {
            self.dispatch += 1;
        }
    }
}

impl std::ops::AddAssign for CountingTracer {
    fn add_assign(&mut self, o: CountingTracer) {
        self.dispatch += o.dispatch;
        self.chunks += o.chunks;
        self.phases += o.phases;
        self.link_grants += o.link_grants;
        self.timeline_spans += o.timeline_spans;
    }
}
