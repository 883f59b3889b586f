//! The sweep service wire protocol: newline-delimited JSON.
//!
//! One request or response per line, each a **flat** JSON object
//! (string / number / boolean / null values only — no nesting), so the
//! protocol stays trivially parseable by `nc`, `awk`, or the hand-rolled
//! reader here (the workspace is std-only; there is no serde).
//!
//! Requests (client → daemon):
//!
//! ```text
//! {"cmd":"submit","path":"/abs/scenario.toml"}
//! {"cmd":"submit","toml":"name = \"x\"\n…","base":"/dir/for/file-refs"}
//! {"cmd":"submit","path":"…","threads":4,"fidelity":"hybrid"}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Responses (daemon → client), streamed as the job runs:
//!
//! ```text
//! {"event":"accepted","job":1,"scenario":"fig09a","generation":1,"mode":"collective","fidelity":"exact","cells":48}
//! {"event":"batch","job":1,"tier":"exact","queued":40,"cached":8}
//! {"event":"cell","job":1,"tier":"exact","index":1,"total":40,"label":"…","time_us":12.5,"gbps_per_npu":98.2}
//! {"event":"finished","job":1,"scenario":"fig09a","points":48,"executed":40,"analytic_executed":0,"cache_hits":8}
//! {"event":"result","job":1,"csv":"topology,nodes,…"}
//! {"event":"stats","entries":48,"exact":48,"analytic":0}
//! {"event":"superseded","job":1,"scenario":"fig09a"}
//! {"event":"failed","job":1,"error":"…"}
//! {"event":"error","error":"…"}
//! {"event":"shutdown"}
//! ```
//!
//! A `submit` streams `accepted` → (`batch` | `cell`)* → `finished` →
//! `result`; the `result` line carries the full CSV (exactly what
//! `sweep <scenario> --csv` would write) so clients and CI can compare
//! daemon output byte-for-byte against the one-shot CLI.

use std::collections::BTreeMap;

use crate::bus::BusEvent;
use crate::fidelity::Fidelity;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a scenario: either `toml` inline (with an optional `base`
    /// directory that relative `file:` workload references resolve
    /// against) or `path` to a TOML file the daemon reads.
    Submit {
        /// Inline scenario TOML, if given.
        toml: Option<String>,
        /// Path to a scenario TOML file, if given.
        path: Option<String>,
        /// Base directory for relative `file:` references of inline TOML.
        base: Option<String>,
        /// Worker-thread override for this job (`0`/absent = default).
        threads: Option<usize>,
        /// Fidelity override for this job.
        fidelity: Option<Fidelity>,
    },
    /// Query cache occupancy.
    Stats,
    /// Gracefully stop the daemon.
    Shutdown,
}

/// A scalar JSON value of the flat-object protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string (unescaped).
    Str(String),
    /// A JSON number.
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Escapes `s` as the body of a JSON string literal. Runs of bytes that
/// need no escape are copied whole: every escaped character is ASCII, so
/// a match never lands inside a multi-byte UTF-8 sequence.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out
}

/// Parses one flat JSON object line into its key → value map.
///
/// # Errors
///
/// Returns a message on malformed JSON or on nested arrays/objects (the
/// protocol is deliberately flat).
pub fn parse_object(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut p = Parser {
        chars: line.char_indices().peekable(),
        src: line,
    };
    p.skip_ws();
    p.expect('{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.try_consume('}') {
        p.skip_ws();
        return p.finish(map);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        let value = p.value()?;
        map.insert(key, value);
        p.skip_ws();
        if p.try_consume(',') {
            continue;
        }
        p.expect('}')?;
        p.skip_ws();
        return p.finish(map);
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected '{want}' at byte {i}, found '{c}'")),
            None => Err(format!("expected '{want}', found end of line")),
        }
    }

    fn try_consume(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some((_, c)) if *c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn finish(&mut self, map: BTreeMap<String, Value>) -> Result<BTreeMap<String, Value>, String> {
        match self.chars.next() {
            None => Ok(map),
            Some((i, c)) => Err(format!("trailing '{c}' at byte {i}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".into()),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (i, c) = self.chars.next().ok_or("truncated \\u escape")?;
                            let d = c
                                .to_digit(16)
                                .ok_or_else(|| format!("bad \\u digit '{c}' at byte {i}"))?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    Some((i, c)) => return Err(format!("bad escape '\\{c}' at byte {i}")),
                    None => return Err("truncated escape".into()),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.chars.peek() {
            Some((_, '"')) => Ok(Value::Str(self.string()?)),
            Some((_, 't')) => self.literal("true", Value::Bool(true)),
            Some((_, 'f')) => self.literal("false", Value::Bool(false)),
            Some((_, 'n')) => self.literal("null", Value::Null),
            Some((_, '{')) | Some((_, '[')) => {
                Err("nested objects/arrays are not part of this protocol".into())
            }
            Some(&(start, _)) => {
                let mut end = start;
                while let Some(&(i, c)) = self.chars.peek() {
                    if c == ',' || c == '}' || c.is_ascii_whitespace() {
                        break;
                    }
                    end = i + c.len_utf8();
                    self.chars.next();
                }
                let text = &self.src[start..end];
                text.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number '{text}'"))
            }
            None => Err("expected a value, found end of line".into()),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        for want in text.chars() {
            match self.chars.next() {
                Some((_, c)) if c == want => {}
                _ => return Err(format!("bad literal (expected '{text}')")),
            }
        }
        Ok(value)
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a message on malformed JSON, an unknown `cmd`, or a `submit`
/// carrying neither `toml` nor `path` (or both).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let map = parse_object(line)?;
    let cmd = map
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or("missing \"cmd\"")?;
    match cmd {
        "submit" => {
            let field = |k: &str| map.get(k).and_then(Value::as_str).map(str::to_string);
            let toml = field("toml");
            let path = field("path");
            if toml.is_some() == path.is_some() {
                return Err("submit needs exactly one of \"toml\" or \"path\"".into());
            }
            let threads = match map.get("threads") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_num()
                        .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                        .ok_or("bad \"threads\"")? as usize,
                ),
            };
            let fidelity = match map.get("fidelity") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_str().ok_or("bad \"fidelity\"")?.parse::<Fidelity>()?),
            };
            Ok(Request::Submit {
                toml,
                path: field("path"),
                base: field("base"),
                threads,
                fidelity,
            })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd \"{other}\"")),
    }
}

/// Serializes a request as one protocol line (no trailing newline).
pub fn request_line(req: &Request) -> String {
    match req {
        Request::Submit {
            toml,
            path,
            base,
            threads,
            fidelity,
        } => {
            let mut fields = vec![("cmd", "\"submit\"".to_string())];
            if let Some(t) = toml {
                fields.push(("toml", format!("\"{}\"", json_escape(t))));
            }
            if let Some(p) = path {
                fields.push(("path", format!("\"{}\"", json_escape(p))));
            }
            if let Some(b) = base {
                fields.push(("base", format!("\"{}\"", json_escape(b))));
            }
            if let Some(n) = threads {
                fields.push(("threads", n.to_string()));
            }
            if let Some(f) = fidelity {
                fields.push(("fidelity", format!("\"{f}\"")));
            }
            render(&fields)
        }
        Request::Stats => render(&[("cmd", "\"stats\"".to_string())]),
        Request::Shutdown => render(&[("cmd", "\"shutdown\"".to_string())]),
    }
}

fn render(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders a job-scoped [`BusEvent`] as its streaming protocol line.
/// Returns `None` for events with no wire representation.
pub fn event_line(ev: &BusEvent) -> Option<String> {
    let line = match ev {
        BusEvent::JobAccepted {
            job,
            scenario,
            generation,
            mode,
            fidelity,
            cells,
        } => render(&[
            ("event", "\"accepted\"".into()),
            ("job", job.to_string()),
            ("scenario", format!("\"{}\"", json_escape(scenario))),
            ("generation", generation.to_string()),
            ("mode", format!("\"{mode}\"")),
            ("fidelity", format!("\"{fidelity}\"")),
            ("cells", cells.to_string()),
        ]),
        BusEvent::BatchStarted {
            job,
            tier,
            queued,
            cached,
        } => render(&[
            ("event", "\"batch\"".into()),
            ("job", job.to_string()),
            ("tier", format!("\"{tier}\"")),
            ("queued", queued.to_string()),
            ("cached", cached.to_string()),
        ]),
        BusEvent::CellCompleted {
            job,
            tier,
            index,
            total,
            point,
            metrics,
        } => render(&[
            ("event", "\"cell\"".into()),
            ("job", job.to_string()),
            ("tier", format!("\"{tier}\"")),
            ("index", index.to_string()),
            ("total", total.to_string()),
            ("label", format!("\"{}\"", json_escape(&point.label()))),
            ("time_us", num(metrics.time_us)),
            ("gbps_per_npu", num(metrics.gbps_per_npu)),
        ]),
        BusEvent::CellFailed {
            job, label, error, ..
        } => render(&[
            ("event", "\"failed\"".into()),
            ("job", job.to_string()),
            ("label", format!("\"{}\"", json_escape(label))),
            ("error", format!("\"{}\"", json_escape(error))),
        ]),
        BusEvent::JobSuperseded { job, scenario, .. } => render(&[
            ("event", "\"superseded\"".into()),
            ("job", job.to_string()),
            ("scenario", format!("\"{}\"", json_escape(scenario))),
        ]),
        BusEvent::JobFinished {
            job,
            scenario,
            points,
            executed,
            analytic_executed,
            cache_hits,
        } => render(&[
            ("event", "\"finished\"".into()),
            ("job", job.to_string()),
            ("scenario", format!("\"{}\"", json_escape(scenario))),
            ("points", points.to_string()),
            ("executed", executed.to_string()),
            ("analytic_executed", analytic_executed.to_string()),
            ("cache_hits", cache_hits.to_string()),
        ]),
        BusEvent::CacheStats {
            entries,
            exact,
            analytic,
        } => render(&[
            ("event", "\"stats\"".into()),
            ("entries", entries.to_string()),
            ("exact", exact.to_string()),
            ("analytic", analytic.to_string()),
        ]),
    };
    Some(line)
}

/// The `result` line closing a successful submit: the job's full CSV,
/// exactly what the one-shot CLI would write.
pub fn result_line(job: u64, csv: &str) -> String {
    render(&[
        ("event", "\"result\"".into()),
        ("job", job.to_string()),
        ("csv", format!("\"{}\"", json_escape(csv))),
    ])
}

/// An `error` line for request-level failures.
pub fn error_line(error: &str) -> String {
    render(&[
        ("event", "\"error\"".into()),
        ("error", format!("\"{}\"", json_escape(error))),
    ])
}

/// The acknowledgement line of a graceful shutdown.
pub fn shutdown_line() -> String {
    render(&[("event", "\"shutdown\"".into())])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit {
                toml: Some("name = \"x\"\nmode = \"collective\"\n".into()),
                path: None,
                base: Some("/tmp/dir".into()),
                threads: Some(4),
                fidelity: Some(Fidelity::Hybrid),
            },
            Request::Submit {
                toml: None,
                path: Some("/abs/s.toml".into()),
                base: None,
                threads: None,
                fidelity: None,
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = request_line(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn escapes_survive_the_wire() {
        let nasty = "line1\nline\\2 \"quoted\"\ttab\r\u{1}bell é";
        let line = request_line(&Request::Submit {
            toml: Some(nasty.into()),
            path: None,
            base: None,
            threads: None,
            fidelity: None,
        });
        assert!(!line.contains('\n'), "one request = one line");
        match parse_request(&line).unwrap() {
            Request::Submit { toml: Some(t), .. } => assert_eq!(t, nasty),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse_request("").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request("{\"cmd\":\"nope\"}").is_err());
        // Neither toml nor path.
        assert!(parse_request("{\"cmd\":\"submit\"}").is_err());
        // Both toml and path.
        assert!(parse_request("{\"cmd\":\"submit\",\"toml\":\"a\",\"path\":\"b\"}").is_err());
        // Nesting is out of protocol.
        assert!(parse_request("{\"cmd\":\"submit\",\"toml\":{\"x\":1}}").is_err());
        // Trailing garbage.
        assert!(parse_request("{\"cmd\":\"stats\"} extra").is_err());
        // Fractional thread counts.
        assert!(parse_request("{\"cmd\":\"submit\",\"path\":\"p\",\"threads\":1.5}").is_err());
    }

    #[test]
    fn parse_object_handles_scalars() {
        let map =
            parse_object("{\"s\":\"x\",\"n\":-2.5e3,\"t\":true,\"f\":false,\"z\":null,\"i\":42}")
                .unwrap();
        assert_eq!(map["s"], Value::Str("x".into()));
        assert_eq!(map["n"], Value::Num(-2500.0));
        assert_eq!(map["t"], Value::Bool(true));
        assert_eq!(map["f"], Value::Bool(false));
        assert_eq!(map["z"], Value::Null);
        assert_eq!(map["i"], Value::Num(42.0));
        assert_eq!(parse_object("{}").unwrap().len(), 0);
        assert_eq!(parse_object("  { }  ").unwrap().len(), 0);
    }

    #[test]
    fn unicode_escapes_decode() {
        let map = parse_object("{\"s\":\"a\\u0041\\u00e9\"}").unwrap();
        assert_eq!(map["s"], Value::Str("aAé".into()));
    }

    #[test]
    fn event_lines_parse_back() {
        let ev = BusEvent::JobFinished {
            job: 3,
            scenario: "fig09a".into(),
            points: 48,
            executed: 40,
            analytic_executed: 0,
            cache_hits: 8,
        };
        let line = event_line(&ev).unwrap();
        let map = parse_object(&line).unwrap();
        assert_eq!(map["event"], Value::Str("finished".into()));
        assert_eq!(map["job"], Value::Num(3.0));
        assert_eq!(map["cache_hits"], Value::Num(8.0));

        let csv = "a,b\n1,2\n";
        let map = parse_object(&result_line(3, csv)).unwrap();
        assert_eq!(map["csv"], Value::Str(csv.into()));
    }
}
