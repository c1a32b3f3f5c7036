//! Flight-recorder export: JSONL journal dumps, Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`) and the post-mortem dump
//! the runtime writes when a run goes sideways.
//!
//! The Chrome trace lays the pipeline out as one process (`pid` 1) with
//! one track per [`Stage`] (`tid` = stage index): every recorded
//! [`Hop`](crate::telemetry::Hop) becomes a `"X"` complete event whose
//! duration is the handle time, and every [`JournalEvent`] becomes a
//! `"i"` instant on a dedicated `journal` track ([`JOURNAL_TID`]). All
//! timed events are globally sorted by timestamp before serialisation,
//! so per-track timestamps are monotonically non-decreasing by
//! construction.
//!
//! Everything here is hand-rolled (encoder *and* a small recursive-
//! descent JSON reader) so dumps can be parsed back and asserted on
//! without external dependencies — the `e10_blackbox` experiment replays
//! a chaos schedule and checks the dump reconstructs the injected fault
//! sequence.

use crate::fleet::{Fleet, FleetHop};
use crate::telemetry::journal::{EventKind, JournalEvent, Severity};
use crate::telemetry::trace::{Stage, TraceId, TraceSpan};
use crate::telemetry::Telemetry;
use simcpu::units::Nanos;
use std::path::{Path, PathBuf};

/// The Chrome-trace `tid` journal instants are emitted on (stages own
/// tids 0–5).
pub const JOURNAL_TID: u64 = 9;

/// The Chrome-trace `tid` sampling-rate transitions are emitted on:
/// [`EventKind::RateChange`] instants get their own track so the
/// adaptive controller's decisions read as a timeline next to the
/// pipeline stages instead of drowning in the general journal.
pub const RATE_TID: u64 = 10;

/// Chrome-trace `pid` base for fleet host tracks: host N's journey
/// events live in process `FLEET_PID_BASE + N` (pid 1 stays the
/// single-host pipeline).
pub const FLEET_PID_BASE: u64 = 2;

// ---------------------------------------------------------------------------
// JSON string escaping
// ---------------------------------------------------------------------------

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON value + reader
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects keep insertion order (no hashing, stable
/// round-trips); numbers are `f64`, which is exact for every integer the
/// exporter emits (< 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest in a document [`parse_json`]
/// accepts. The exporter writes at most four levels; the cap keeps the
/// reader's recursion off the end of the stack on arbitrary input.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document (rejects trailing garbage and
/// arrays or objects nested more than 128 deep). Linear in the
/// document's length.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Reader {
        b: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.i
            )),
        }
    }

    /// Parses a container one level deeper, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH} at byte {}", self.i));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.i,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.i,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".into());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // The run of plain characters up to the next quote or
                    // escape. Both stops are ASCII and the input is a
                    // `&str`, so the run is whole UTF-8.
                    let start = self.i;
                    while self.peek().is_some_and(|c| c != b'"' && c != b'\\') {
                        self.i += 1;
                    }
                    let run = std::str::from_utf8(&self.b[start..self.i]);
                    out.push_str(run.map_err(|e| e.to_string())?);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.b.len() {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&self.b[self.i..self.i + 4]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u digits".to_string())?;
        self.i += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.i += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{s}' at byte {start}"))
    }
}

// ---------------------------------------------------------------------------
// JSONL journal encoding
// ---------------------------------------------------------------------------

/// Encodes one journal event as a single JSON object (one JSONL line,
/// without the trailing newline).
pub fn encode_event(e: &JournalEvent) -> String {
    format!(
        "{{\"seq\":{},\"at_ns\":{},\"severity\":\"{}\",\"kind\":\"{}\",\"subject\":\"{}\",\"detail\":\"{}\",\"trace\":{}}}",
        e.seq,
        e.at.as_u64(),
        e.severity.label(),
        e.kind.label(),
        escape_json(&e.subject),
        escape_json(&e.detail),
        e.trace.0
    )
}

/// Inverse of [`encode_event`]: parses one JSONL line back into the
/// exact event it was encoded from.
pub fn parse_event(line: &str) -> Result<JournalEvent, String> {
    let v = parse_json(line)?;
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing/bad \"{key}\" in journal line"))
    };
    let text = |key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing/bad \"{key}\" in journal line"))
    };
    Ok(JournalEvent {
        seq: num("seq")?,
        at: Nanos(num("at_ns")?),
        severity: Severity::from_label(text("severity")?)
            .ok_or_else(|| "unknown severity".to_string())?,
        kind: EventKind::from_label(text("kind")?).ok_or_else(|| "unknown kind".to_string())?,
        subject: text("subject")?.to_string(),
        detail: text("detail")?.to_string(),
        trace: TraceId(num("trace")?),
    })
}

/// Serialises events as JSONL, one object per line, trailing newline.
pub fn dump_jsonl(events: &[JournalEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        out.push_str(&encode_event(e));
        out.push('\n');
    }
    out
}

/// Parses a JSONL dump back into events (blank lines ignored).
pub fn parse_jsonl(text: &str) -> Result<Vec<JournalEvent>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_event)
        .collect()
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Exact microseconds with nanosecond precision (Chrome-trace `ts`/`dur`
/// are in µs; fractional values are allowed).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Builds a Chrome trace-event JSON document from spans, journal events
/// and fleet journey hops, loadable in Perfetto or `chrome://tracing`.
/// Hop start times anchor on the span's simulated tick timestamp plus
/// the hop's wall offset, so tracks line up with simulated time at tick
/// granularity. Every [`FleetHop`] becomes an instant on process
/// `FLEET_PID_BASE + host` with `tid` = the frame's sequence number, so
/// one (pid, tid) pair *is* one frame's causal track — produce → send
/// (per attempt) → apply/drop — and every instant's `args.trace` names
/// the origin tick trace shared by all of the frame's copies.
/// `fleet_tick_ns` converts hop ticks to the sim clock (0 is treated as
/// 1; a trace without fleet hops passes `&[]` and 0).
pub fn chrome_trace(
    spans: &[TraceSpan],
    events: &[JournalEvent],
    fleet_hops: &[FleetHop],
    fleet_tick_ns: u64,
) -> String {
    let tick_ns = fleet_tick_ns.max(1);
    let mut timed: Vec<(u64, String)> = Vec::new();
    let mut stage_used = [false; 6];
    let mut fleet_pids: Vec<u64> = Vec::new();
    for hop in fleet_hops {
        let pid = FLEET_PID_BASE + u64::from(hop.host.0);
        if !fleet_pids.contains(&pid) {
            fleet_pids.push(pid);
        }
        let ts_ns = hop.tick.saturating_mul(tick_ns);
        let shard_arg = match hop.stage.shard() {
            Some(s) => format!(",\"shard\":{s}"),
            None => String::new(),
        };
        timed.push((
            ts_ns,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"fleet\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"args\":{{\"trace\":{},\"seq\":{},\"attempt\":{}{shard_arg}}}}}",
                hop.stage.label(),
                hop.seq,
                micros(ts_ns),
                hop.trace.0,
                hop.seq,
                hop.attempt
            ),
        ));
    }
    fleet_pids.sort_unstable();
    for span in spans {
        for hop in &span.hops {
            stage_used[hop.stage.index()] = true;
            let start_ns = span.tick_ts.as_u64() + hop.at_ns.saturating_sub(hop.handle_ns);
            let dur_ns = hop.handle_ns.max(1);
            timed.push((
                start_ns,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"pipeline\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"trace\":{},\"queue_ns\":{},\"handle_ns\":{}}}}}",
                    escape_json(&format!("{}:{}", hop.stage.label(), hop.actor)),
                    hop.stage.index(),
                    micros(start_ns),
                    micros(dur_ns),
                    span.trace.0,
                    hop.queue_ns,
                    hop.handle_ns
                ),
            ));
        }
    }
    for e in events {
        let ts_ns = e.at.as_u64();
        // Rate transitions ride a dedicated track; everything else lands
        // on the shared journal track.
        let tid = if e.kind == EventKind::RateChange {
            RATE_TID
        } else {
            JOURNAL_TID
        };
        timed.push((
            ts_ns,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"journal\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"args\":{{\"seq\":{},\"severity\":\"{}\",\"subject\":\"{}\",\"detail\":\"{}\",\"trace\":{}}}}}",
                e.kind.label(),
                micros(ts_ns),
                e.seq,
                e.severity.label(),
                escape_json(&e.subject),
                escape_json(&e.detail),
                e.trace.0
            ),
        ));
    }
    // Global sort by timestamp (stable, so same-ts events keep emission
    // order) ⇒ every track's timestamps are non-decreasing.
    timed.sort_by_key(|&(ts, _)| ts);

    let mut parts: Vec<String> = Vec::with_capacity(timed.len() + 8);
    parts.push(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"ts\":0,\"args\":{\"name\":\"powerapi-pipeline\"}}"
            .to_string(),
    );
    for stage in Stage::ALL {
        if stage_used[stage.index()] {
            parts.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\"ts\":0,\"args\":{{\"name\":\"{}\"}}}}",
                stage.index(),
                stage.label()
            ));
        }
    }
    if events.iter().any(|e| e.kind != EventKind::RateChange) {
        parts.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{JOURNAL_TID},\"ts\":0,\"args\":{{\"name\":\"journal\"}}}}"
        ));
    }
    if events.iter().any(|e| e.kind == EventKind::RateChange) {
        parts.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{RATE_TID},\"ts\":0,\"args\":{{\"name\":\"sampling-rate\"}}}}"
        ));
    }
    for pid in &fleet_pids {
        parts.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"ts\":0,\"args\":{{\"name\":\"fleet host-{}\"}}}}",
            pid - FLEET_PID_BASE
        ));
    }
    parts.extend(timed.into_iter().map(|(_, json)| json));
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}",
        parts.join(",\n")
    )
}

// ---------------------------------------------------------------------------
// Post-mortem dump
// ---------------------------------------------------------------------------

/// What a post-mortem dump wrote and why — surfaced on
/// [`RunOutcome::flight_recorder`].
///
/// [`RunOutcome::flight_recorder`]: crate::runtime::RunOutcome
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortemReport {
    /// Directory the dump files were written to.
    pub dir: PathBuf,
    /// Why the dump fired (`panic-escalation`, `degraded-shutdown`,
    /// `recalibration-latched`, `requested`, or a `+`-joined combination).
    pub reason: String,
    /// Journal events in the dump (the whole retained ring).
    pub events: usize,
    /// Trace spans in the dump (every span the tracer retains).
    pub spans: usize,
    /// Total bytes written across the three dump files.
    pub bytes: u64,
}

/// Writes `journal.jsonl`, `trace.json` and `metrics.prom` into `dir`
/// (created if missing): everything the journal ring and the tracer
/// retain — both are bounded already, so the dump needs no window of
/// its own. With a `fleet`, `trace.json` also carries its journey tracks
/// (see [`chrome_trace`]) and `metrics.prom` its `powerapi_fleet_*`
/// families ([`Fleet::render_prometheus`]) — the dump a fleet bench or
/// an exhausted SLO budget writes.
pub fn write_post_mortem(
    dir: &Path,
    telemetry: &Telemetry,
    fleet: Option<&Fleet>,
    reason: &str,
) -> std::io::Result<PostMortemReport> {
    std::fs::create_dir_all(dir)?;
    let events = telemetry.journal().events();
    let spans = telemetry.tracer().spans();
    let jsonl = dump_jsonl(&events);
    let (hops, tick_ns) = fleet.map_or((Vec::new(), 0), |f| (f.journeys().snapshot(), f.tick_ns()));
    let trace = chrome_trace(&spans, &events, &hops, tick_ns);
    let mut prom = format!("# powerapi post-mortem: {reason}\n");
    prom.push_str(&telemetry.render_prometheus());
    if let Some(f) = fleet {
        prom.push_str(&f.render_prometheus());
    }
    std::fs::write(dir.join("journal.jsonl"), &jsonl)?;
    std::fs::write(dir.join("trace.json"), &trace)?;
    std::fs::write(dir.join("metrics.prom"), &prom)?;
    Ok(PostMortemReport {
        dir: dir.to_path_buf(),
        reason: reason.to_string(),
        events: events.len(),
        spans: spans.len(),
        bytes: (jsonl.len() + trace.len() + prom.len()) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::journal::Journal;
    use crate::telemetry::metrics::Counter;
    use crate::telemetry::trace::Tracer;
    use std::sync::Arc;

    fn sample_events() -> Vec<JournalEvent> {
        let j = Journal::new(true, 64, Counter::default(), Counter::default());
        j.emit_at(
            Nanos::from_secs(1),
            EventKind::ActorStart,
            "sensor-hpc",
            "spawned",
            TraceId::NONE,
        );
        j.emit_at(
            Nanos::from_secs(2),
            EventKind::FaultInjected,
            "Disconnect",
            "3 sample(s) \"lost\"\nover\ttwo lines \\ with unicode é",
            TraceId(7),
        );
        j.emit_at(
            Nanos::from_secs(3),
            EventKind::ActorPanic,
            "formula",
            "boom",
            TraceId(8),
        );
        j.events()
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let events = sample_events();
        let dump = dump_jsonl(&events);
        let parsed = parse_jsonl(&dump).expect("parse back");
        assert_eq!(parsed, events);
    }

    #[test]
    fn json_reader_accepts_the_grammar_and_rejects_garbage() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\u00e9\n","c":null,"d":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str(), Some("xé\n"));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(
            parse_json("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\\u12\"",
            "{\"a\" 1}",
        ] {
            assert!(parse_json(bad).is_err(), "{bad} should not parse");
        }
    }

    /// A megabyte of strings parses in time linear in its length (the
    /// bound is far above what the reader needs, even unoptimised).
    #[test]
    fn a_string_heavy_document_parses_in_linear_time() {
        let item = |i: usize| format!("\"event {i}: détail {} \\\"q\\\"\"", "x".repeat(40));
        let doc = format!("[{}]", (0..20_000).map(item).collect::<Vec<_>>().join(","));
        assert!(doc.len() >= 1 << 20, "{} bytes", doc.len());
        let started = std::time::Instant::now();
        let v = parse_json(&doc).expect("parses");
        let took = started.elapsed();
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), 20_000);
        assert_eq!(
            items[7].as_str(),
            Some(&*format!("event 7: détail {} \"q\"", "x".repeat(40)))
        );
        assert!(took.as_secs_f64() < 10.0, "took {took:?}");
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let doc = open.repeat(100_000);
            let err = parse_json(&doc).expect_err("too deep");
            assert!(err.contains("nested deeper"), "{err}");
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_cap).is_ok());
        let past = format!("[{at_cap}]");
        assert!(parse_json(&past).is_err());
    }

    #[test]
    fn chrome_trace_is_valid_sorted_json_with_named_tracks() {
        let tracer = Tracer::new();
        let id2 = tracer.trace_for_tick(Nanos::from_secs(2));
        let id1 = tracer.trace_for_tick(Nanos::from_secs(1));
        let sensor: Arc<str> = Arc::from("sensor-hpc");
        let reporter: Arc<str> = Arc::from("reporter-\"quoted\"");
        tracer.record_hop(id1, Stage::Sensor, &sensor, 100, 5_000);
        tracer.record_hop(id1, Stage::Reporter, &reporter, 50, 2_000);
        tracer.record_hop(id2, Stage::Sensor, &sensor, 100, 4_000);
        let text = chrome_trace(&tracer.spans(), &sample_events(), &[], 0);
        let doc = parse_json(&text).expect("valid JSON");
        let items = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(items.len() >= 3 + 3 + 4, "hops + instants + metadata");
        let names: Vec<&str> = items
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"sensor") && names.contains(&"reporter"));
        assert!(names.contains(&"journal"));
        assert!(!names.contains(&"formula"), "unused stages get no track");
        // Per-track ts monotonicity over the timed events.
        let mut last: std::collections::BTreeMap<u64, f64> = Default::default();
        for e in items {
            if e.get("ph").and_then(Json::as_str) == Some("M") {
                continue;
            }
            let tid = e.get("tid").unwrap().as_u64().unwrap();
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            if let Some(prev) = last.insert(tid, ts) {
                assert!(ts >= prev, "track {tid} went backwards");
            }
        }
    }

    #[test]
    fn rate_changes_get_their_own_track() {
        let j = Journal::new(true, 64, Counter::default(), Counter::default());
        j.emit_at(
            Nanos::from_secs(1),
            EventKind::RateChange,
            "sampling-controller",
            "in-band backoff: period 1000000000 -> 2000000000 ns",
            TraceId(3),
        );
        j.emit_at(
            Nanos::from_secs(2),
            EventKind::DriftAlarm,
            "model-health",
            "cusum",
            TraceId(4),
        );
        let text = chrome_trace(&[], &j.events(), &[], 0);
        let doc = parse_json(&text).expect("valid JSON");
        let items = doc.get("traceEvents").unwrap().as_array().unwrap();
        let rate = items
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("rate-change"))
            .expect("rate-change instant");
        assert_eq!(rate.get("tid").and_then(Json::as_u64), Some(RATE_TID));
        let alarm = items
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("drift-alarm"))
            .expect("drift-alarm instant");
        assert_eq!(alarm.get("tid").and_then(Json::as_u64), Some(JOURNAL_TID));
        let track_names: Vec<&str> = items
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(track_names.contains(&"sampling-rate"));
        assert!(track_names.contains(&"journal"));
    }

    #[test]
    fn post_mortem_writes_three_files_with_the_whole_journal() {
        let t = Telemetry::new();
        let id = t.trace_for_tick(Nanos::from_secs(9));
        let name: Arc<str> = Arc::from("sensor-hpc");
        t.tracer().record_hop(id, Stage::Sensor, &name, 10, 100);
        t.journal().emit_at(
            Nanos::from_secs(1),
            EventKind::ActorStart,
            "early",
            "at the start of the run",
            TraceId::NONE,
        );
        t.journal().emit_at(
            Nanos::from_secs(9),
            EventKind::DriftAlarm,
            "model-health",
            "at the end",
            id,
        );
        let dir = std::env::temp_dir().join(format!("powerapi-pm-test-{}", std::process::id()));
        let report = write_post_mortem(&dir, &t, None, "requested").expect("dump");
        assert_eq!(report.events, 2, "every retained event, however old");
        assert_eq!(report.spans, 1);
        assert!(report.bytes > 0);
        let jsonl = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        assert_eq!(parse_jsonl(&jsonl).unwrap(), t.journal().events());
        let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        parse_json(&trace).expect("dump trace is valid JSON");
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.starts_with("# powerapi post-mortem: requested\n"));
        assert!(prom.contains("powerapi_journal_events_total"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_hops_become_per_frame_tracks() {
        use crate::fleet::observe::HopStage;
        use crate::fleet::HostId;
        let hop = |tick, host, seq, trace, attempt, stage| FleetHop {
            tick,
            host: HostId(host),
            seq,
            trace: TraceId(trace),
            attempt,
            stage,
        };
        let hops = vec![
            hop(1, 0, 0, 11, 0, HopStage::Produce),
            hop(1, 0, 0, 11, 0, HopStage::Send),
            hop(3, 0, 0, 11, 0, HopStage::Apply { shard: 1 }),
            hop(2, 4, 7, 12, 1, HopStage::DropFault),
        ];
        let text = chrome_trace(&[], &sample_events(), &hops, 1_000);
        let doc = parse_json(&text).expect("valid JSON");
        let items = doc.get("traceEvents").unwrap().as_array().unwrap();
        let fleet: Vec<&Json> = items
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("fleet"))
            .collect();
        assert_eq!(fleet.len(), 4);
        // Host 0's frame 0: all three instants share pid 2 / tid 0 and
        // the same origin trace — one causal track per frame journey.
        let track: Vec<&&Json> = fleet
            .iter()
            .filter(|e| {
                e.get("pid").and_then(Json::as_u64) == Some(2)
                    && e.get("tid").and_then(Json::as_u64) == Some(0)
            })
            .collect();
        assert_eq!(track.len(), 3);
        for e in &track {
            assert_eq!(
                e.get("args").unwrap().get("trace").unwrap().as_u64(),
                Some(11)
            );
        }
        let names: Vec<&str> = track
            .iter()
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["produce", "send", "apply"],
            "journey in ts order"
        );
        assert_eq!(
            track[2].get("args").unwrap().get("shard").unwrap().as_u64(),
            Some(1),
            "apply names its shard"
        );
        // Host 4's drop lands on its own process, with its process_name.
        let drop = fleet
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("drop-fault"))
            .unwrap();
        assert_eq!(drop.get("pid").and_then(Json::as_u64), Some(6));
        assert_eq!(
            drop.get("args").unwrap().get("attempt").unwrap().as_u64(),
            Some(1)
        );
        let proc_names: Vec<&str> = items
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(proc_names.contains(&"fleet host-0"));
        assert!(proc_names.contains(&"fleet host-4"));
    }

    #[test]
    fn post_mortem_with_fleet_writes_every_hop() {
        use crate::fleet::{FleetConfig, FrameSource};
        use crate::formula::per_freq::PerFrequencyFormula;
        use crate::frame::{FrameBuilder, FramePool, TickFrame};
        use perf_sim::events::Event;

        /// Half a second of one process's CPU time per one-second tick.
        struct OneRow(u64);
        impl FrameSource for OneRow {
            fn produce(&mut self, pool: &FramePool) -> TickFrame {
                self.0 += 1;
                let mut b = FrameBuilder::pooled(pool);
                b.push_time_row(os_sim::process::Pid(1), Nanos::from_millis(500), |_| {});
                let tick = Nanos::from_secs(1);
                b.finish(
                    Nanos(self.0 * tick.as_u64()),
                    tick,
                    Arc::from([] as [Event; 0]),
                    None,
                )
            }
            fn truth_w(&self) -> f64 {
                40.0
            }
        }

        let t = Telemetry::new();
        let sources = (0..2)
            .map(|_| Box::new(OneRow(0)) as Box<dyn FrameSource>)
            .collect();
        let formula = PerFrequencyFormula::cpu_load(30.0, 20.0);
        let mut fleet = Fleet::new(FleetConfig::default(), &formula, sources, t.clone());
        fleet.run(6);
        let dir = std::env::temp_dir().join(format!("powerapi-pmf-test-{}", std::process::id()));
        let report =
            write_post_mortem(&dir, &t, Some(&fleet), "slo-budget-exhausted").expect("dump");
        assert_eq!(report.reason, "slo-budget-exhausted");
        let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        let doc = parse_json(&trace).expect("valid JSON");
        let hops: Vec<(String, u64)> = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("fleet"))
            .map(|e| {
                let seq = e.get("args").unwrap().get("seq").unwrap().as_u64().unwrap();
                (e.get("name").unwrap().as_str().unwrap().to_string(), seq)
            })
            .collect();
        let logged: Vec<(String, u64)> = fleet
            .journeys()
            .hops()
            .map(|h| (h.stage.label().to_string(), h.seq))
            .collect();
        assert!(!logged.is_empty());
        assert_eq!(hops, logged, "every hop, oldest first");
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("powerapi_journal_events_total"));
        assert!(prom.contains(&fleet.render_prometheus()), "{prom}");
        assert!(prom.contains("powerapi_fleet_frames_produced_total 12"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn micros_formats_exact_nanosecond_fractions() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(1_000_000_007), "1000000.007");
    }
}
