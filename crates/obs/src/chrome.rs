//! chrome://tracing export: labeled tracks, causal flow arrows, and a
//! parser so tests (and the fault injector) can verify a dump instead of
//! eyeballing it.
//!
//! [`chrome_trace`] is the one writer, for an engine profile and a serving
//! dump alike. A serving request's life crosses the connection plane, a
//! shard queue, a worker's batch, and the engine, each on its own thread,
//! so the writer:
//!
//! * emits `process_name` / `thread_name` metadata (`"ph":"M"`) so the
//!   viewer labels the planes instead of showing bare tids;
//! * places spans on a stable tid per plane (connection plane, shard
//!   queues, workers, engine, events) — an engine profile's `RUN`/`NODE`
//!   spans all land on the engine track;
//! * draws flow arrows (`"ph":"s"/"t"/"f"`, one flow id per request
//!   trace) through the request's span chain — ACCEPT → ADMIT → QUEUE →
//!   the owning batch's BATCH_RUN/SCATTER (joined via MEMBER fan-in
//!   instants) → REPLY — which chrome renders as arrows from slice to
//!   slice;
//! * renders MEMBER/EVENT records as thread-scoped instants.
//!
//! Nothing depends on the order of the input events: flow chains are
//! sorted by time, and the viewer places slices by timestamp.
//!
//! Trace ids are serialized as JSON *strings* (`"args":{"trace":"…"}`):
//! batch traces live above 2^62 ([`crate::flight::BATCH_TRACE_BASE`])
//! and would silently lose precision as f64 JSON numbers.
//!
//! The reading half — [`parse_chrome_trace`] (a dependency-free JSON
//! parser specialized to the Trace Event Format) and
//! [`find_complete_chain`] — is what CI gates on: "this dump contains at
//! least one request traceable end to end".

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::flight::{batch_trace, is_batch_trace, BATCH_TRACE_BASE};
use crate::ring::{cause, kind, Event, NO_NODE, NO_TRACE};

/// Track (tid) layout of the linked export, one per plane.
mod tid {
    pub const CONN: u64 = 1;
    pub const QUEUES: u64 = 2;
    pub const WORKERS: u64 = 3;
    pub const ENGINE: u64 = 4;
    pub const EVENTS: u64 = 5;

    pub const ALL: [(u64, &str); 5] = [
        (CONN, "conn-plane"),
        (QUEUES, "shard-queues"),
        (WORKERS, "workers"),
        (ENGINE, "engine"),
        (EVENTS, "events"),
    ];
}

fn tid_of(k: u32) -> u64 {
    match k {
        kind::ACCEPT | kind::ADMIT | kind::REPLY => tid::CONN,
        kind::QUEUE => tid::QUEUES,
        kind::GATHER | kind::STAGE | kind::BATCH_RUN | kind::SCATTER | kind::MEMBER => tid::WORKERS,
        kind::RUN | kind::NODE => tid::ENGINE,
        _ => tid::EVENTS,
    }
}

/// A readable default span name: the kind label, specialized with the
/// node / cause where that means something.
pub fn default_name(e: &Event) -> String {
    match e.kind {
        kind::EVENT => format!("event:{}", cause::label(e.node)),
        kind::NODE => format!("node{}", e.node),
        kind::MEMBER => "member".to_string(),
        kind::BATCH_RUN => format!("batch_run(b={})", e.node),
        _ if e.node != NO_NODE => format!("{}[{}]", kind::label(e.kind), e.node),
        _ => kind::label(e.kind).to_string(),
    }
}

/// Render `events` as a labeled, flow-linked chrome://tracing document.
/// `name_of` maps each span to its display name ([`default_name`] is a
/// reasonable choice).
pub fn chrome_trace<'a, I, F>(events: I, mut name_of: F) -> String
where
    I: IntoIterator<Item = &'a Event>,
    F: FnMut(&Event) -> String,
{
    let events: Vec<&Event> = events.into_iter().collect();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |out: &mut String, body: &str| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('{');
        out.push_str(body);
        out.push('}');
    };

    // Metadata: label the process and every plane's track.
    emit(
        &mut out,
        "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"temco\"}",
    );
    for (t, label) in tid::ALL {
        emit(
            &mut out,
            &format!(
                "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{t},\"args\":{{\"name\":\"{label}\"}}"
            ),
        );
    }

    // Spans and instants.
    for e in &events {
        let mut body = String::new();
        let instant = e.kind == kind::MEMBER || e.kind == kind::EVENT;
        let _ = write!(
            body,
            "\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{}",
            escape_json(&name_of(e)),
            kind::label(e.kind),
            if instant { "i" } else { "X" },
            e.start_ns as f64 / 1e3,
            tid_of(e.kind),
        );
        if instant {
            body.push_str(",\"s\":\"t\"");
        } else {
            let _ = write!(body, ",\"dur\":{}", e.dur_ns as f64 / 1e3);
        }
        body.push_str(",\"args\":{");
        let mut first_arg = true;
        if e.node != NO_NODE {
            let _ = write!(body, "\"node\":{}", e.node);
            first_arg = false;
        }
        if e.trace != NO_TRACE {
            if !first_arg {
                body.push(',');
            }
            let _ = write!(body, "\"trace\":\"{}\"", e.trace);
        }
        body.push('}');
        emit(&mut out, &body);
    }

    // Flow arrows: one polyline per request trace, routed through the
    // owning batch's spans via the MEMBER fan-in instants.
    let mut chains: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    let mut batches: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in &events {
        if e.trace == NO_TRACE {
            continue;
        }
        if is_batch_trace(e.trace) {
            if e.kind == kind::BATCH_RUN || e.kind == kind::SCATTER {
                batches.entry(e.trace).or_default().push(e);
            }
        } else if e.kind != kind::EVENT {
            chains.entry(e.trace).or_default().push(e);
        }
    }
    for (trace, spans) in &chains {
        let mut chain: Vec<&Event> = Vec::new();
        for e in spans {
            if e.kind == kind::MEMBER {
                if let Some(batch) = batches.get(&batch_trace(e.node)) {
                    chain.extend(batch.iter().copied());
                }
            } else {
                chain.push(e);
            }
        }
        chain.sort_by_key(|e| (e.start_ns, e.kind));
        chain.dedup_by(|a, b| std::ptr::eq(*a, *b));
        if chain.len() < 2 {
            continue;
        }
        let last = chain.len() - 1;
        for (i, e) in chain.iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i == last {
                "f"
            } else {
                "t"
            };
            let mut body = format!(
                "\"name\":\"request\",\"cat\":\"flow\",\"ph\":\"{}\",\"id\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{}",
                ph,
                trace,
                e.start_ns as f64 / 1e3,
                tid_of(e.kind),
            );
            if ph == "f" {
                body.push_str(",\"bp\":\"e\"");
            }
            emit(&mut out, &body);
        }
    }

    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Reading half: a minimal JSON parser + Trace Event Format extraction.
// ---------------------------------------------------------------------

/// A parsed JSON value. Objects keep insertion order; numbers are f64
/// (which is why trace ids travel as strings — see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset for debuggability.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, at: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.at != b.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.at < self.b.len() && self.b[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.at).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.at)),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.b[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.at + 4 > self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.at..self.at + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape `\\{}`", c as char)),
                    }
                }
                Some(_) => {
                    // Copy the whole UTF-8 run up to the next quote/escape.
                    let start = self.at;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.at += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.at])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let v = self.value()?;
            fields.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }
}

/// One event out of a parsed Trace Event Format document, with the
/// fields the validators care about lifted out of `args`.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: String,
    pub cat: String,
    pub ph: String,
    pub ts: f64,
    pub dur: f64,
    pub tid: u64,
    /// Flow id (`s`/`t`/`f` events), as serialized.
    pub id: Option<String>,
    /// `args.trace`, decoded from its string form.
    pub trace: Option<u64>,
    /// `args.node`.
    pub node: Option<u64>,
}

/// Parse a chrome trace document into its event list.
pub fn parse_chrome_trace(doc: &str) -> Result<Vec<TraceEvent>, String> {
    let root = parse_json(doc)?;
    let events = root
        .get("traceEvents")
        .and_then(|v| match v {
            Json::Arr(a) => Some(a),
            _ => None,
        })
        .ok_or("no traceEvents array")?;
    let mut out = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let field_str =
            |k: &str| e.get(k).and_then(Json::as_str).map(str::to_string).unwrap_or_default();
        let field_num = |k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        if !matches!(e, Json::Obj(_)) {
            return Err(format!("traceEvents[{i}] is not an object"));
        }
        let args = e.get("args");
        out.push(TraceEvent {
            name: field_str("name"),
            cat: field_str("cat"),
            ph: field_str("ph"),
            ts: field_num("ts"),
            dur: field_num("dur"),
            tid: field_num("tid") as u64,
            id: e.get("id").and_then(|v| match v {
                Json::Str(s) => Some(s.clone()),
                Json::Num(n) => Some(format!("{n}")),
                _ => None,
            }),
            trace: args
                .and_then(|a| a.get("trace"))
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok()),
            node: args.and_then(|a| a.get("node")).and_then(Json::as_f64).map(|n| n as u64),
        });
    }
    Ok(out)
}

/// Search a parsed dump for a request traceable end to end: ACCEPT,
/// ADMIT, QUEUE, and REPLY spans carrying one request trace; a MEMBER
/// fan-in naming its batch; that batch's BATCH_RUN span plus at least
/// one engine node span tagged with the batch trace; and an unbroken
/// flow polyline (`s` … `f`) under the request's flow id. Returns the
/// first such trace id.
pub fn find_complete_chain(events: &[TraceEvent]) -> Option<u64> {
    let has_span = |cat: &str, trace: u64| {
        events.iter().any(|e| e.ph == "X" && e.cat == cat && e.trace == Some(trace))
    };
    let has_flow = |ph: &str, id: &str| {
        events.iter().any(|e| e.cat == "flow" && e.ph == ph && e.id.as_deref() == Some(id))
    };
    let mut candidates: Vec<u64> = events
        .iter()
        .filter(|e| e.ph == "X" && e.cat == "accept")
        .filter_map(|e| e.trace)
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    for t in candidates {
        if !(has_span("admit", t) && has_span("queue", t) && has_span("reply", t)) {
            continue;
        }
        let id = t.to_string();
        if !(has_flow("s", &id) && has_flow("f", &id)) {
            continue;
        }
        // Fan into the owning batch: MEMBER instant → batch trace →
        // BATCH_RUN + tagged engine node spans.
        let batch_ok = events
            .iter()
            .filter(|e| e.cat == "member" && e.trace == Some(t))
            .filter_map(|m| m.node)
            .any(|b| {
                let bt = BATCH_TRACE_BASE | b;
                has_span("batch_run", bt) && has_span("node", bt)
            });
        if batch_ok {
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(k: u32, node: u32, trace: u64, start: u64, dur: u64) -> Event {
        Event { kind: k, node, trace, start_ns: start, dur_ns: dur }
    }

    /// A synthetic but shape-faithful request life: frame arrival,
    /// admission, queueing, batch membership, engine nodes, scatter,
    /// reply — exactly the records serve emits.
    fn request_life(trace: u64, batch: u32) -> Vec<Event> {
        vec![
            span(kind::ACCEPT, NO_NODE, trace, 1_000, 2_000),
            span(kind::ADMIT, 0, trace, 3_000, 500),
            span(kind::QUEUE, 0, trace, 3_500, 4_000),
            span(kind::MEMBER, batch, trace, 7_500, 0),
            span(kind::BATCH_RUN, 2, batch_trace(batch), 7_500, 6_000),
            span(kind::NODE, 0, batch_trace(batch), 7_600, 2_000),
            span(kind::NODE, 1, batch_trace(batch), 9_700, 2_000),
            span(kind::SCATTER, 2, batch_trace(batch), 13_600, 400),
            span(kind::REPLY, NO_NODE, trace, 14_200, 300),
        ]
    }

    #[test]
    fn round_trip_preserves_shape_metadata_and_flows() {
        let events = request_life(42, 7);
        let doc = chrome_trace(events.iter(), default_name);
        let parsed = parse_chrome_trace(&doc).unwrap();

        // Metadata: process name + all five plane labels.
        let meta: Vec<&TraceEvent> = parsed.iter().filter(|e| e.ph == "M").collect();
        assert_eq!(meta.len(), 6);
        assert!(meta.iter().any(|e| e.name == "process_name"));
        assert_eq!(meta.iter().filter(|e| e.name == "thread_name").count(), 5);

        // Every non-instant span round-trips as a complete event with
        // its trace id intact (batch ids above 2^62 included).
        let xs: Vec<&TraceEvent> = parsed.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(xs.len(), 8);
        assert!(xs.iter().any(|e| e.cat == "node" && e.trace == Some(batch_trace(7))));
        assert!(xs.iter().any(|e| e.cat == "accept" && e.trace == Some(42)));

        // The MEMBER fan-in renders as a thread-scoped instant.
        let member = parsed.iter().find(|e| e.cat == "member").unwrap();
        assert_eq!(member.ph, "i");
        assert_eq!((member.trace, member.node), (Some(42), Some(7)));

        // Flow polyline: one start, one finish, intermediates between,
        // all under the request's id.
        let flows: Vec<&TraceEvent> = parsed.iter().filter(|e| e.cat == "flow").collect();
        assert_eq!(flows.iter().filter(|e| e.ph == "s").count(), 1);
        assert_eq!(flows.iter().filter(|e| e.ph == "f").count(), 1);
        assert!(flows.len() >= 4);
        assert!(flows.iter().all(|e| e.id.as_deref() == Some("42")));
        // Flow starts at the accept span's position, ends at reply's.
        let start = flows.iter().find(|e| e.ph == "s").unwrap();
        let end = flows.iter().find(|e| e.ph == "f").unwrap();
        assert_eq!(start.ts, 1.0);
        assert_eq!(end.ts, 14.2);

        assert_eq!(find_complete_chain(&parsed), Some(42));
    }

    #[test]
    fn writer_and_chain_finder_ignore_input_order() {
        // A worker publishes its batch after the connection plane already
        // wrote the reply, and the flight ring may wrap anywhere: reversed
        // and rotated inputs render the same chain.
        let mut events = request_life(42, 7);
        events.reverse();
        events.rotate_left(3);
        let parsed = parse_chrome_trace(&chrome_trace(events.iter(), default_name)).unwrap();
        assert_eq!(find_complete_chain(&parsed), Some(42));
        let flow = |ph: &str| parsed.iter().find(|e| e.cat == "flow" && e.ph == ph).unwrap().ts;
        assert_eq!((flow("s"), flow("f")), (1.0, 14.2));
    }

    #[test]
    fn chain_finder_rejects_broken_chains() {
        // Missing REPLY: not a complete life.
        let mut events = request_life(42, 7);
        events.retain(|e| e.kind != kind::REPLY);
        let parsed = parse_chrome_trace(&chrome_trace(events.iter(), default_name)).unwrap();
        assert_eq!(find_complete_chain(&parsed), None);

        // Missing the engine node spans: the batch isn't attributable.
        let mut events = request_life(42, 7);
        events.retain(|e| e.kind != kind::NODE);
        let parsed = parse_chrome_trace(&chrome_trace(events.iter(), default_name)).unwrap();
        assert_eq!(find_complete_chain(&parsed), None);
    }

    #[test]
    fn cause_events_render_as_instants_on_the_event_track() {
        let e = span(kind::EVENT, cause::DEADLINE, 9, 5_000, 0);
        let doc = chrome_trace([e].iter(), default_name);
        let parsed = parse_chrome_trace(&doc).unwrap();
        let inst = parsed.iter().find(|e| e.cat == "event").unwrap();
        assert_eq!(inst.ph, "i");
        assert_eq!(inst.tid, 5);
        assert_eq!(inst.name, "event:deadline");
    }

    #[test]
    fn names_are_json_escaped_and_round_trip() {
        let e = span(kind::NODE, 0, NO_TRACE, 0, 1);
        let doc = chrome_trace([e].iter(), |_| "a\"b\\c\nd\u{1}".to_string());
        assert!(doc.contains("a\\\"b\\\\c\\nd\\u0001"), "{doc}");
        let parsed = parse_chrome_trace(&doc).unwrap();
        assert!(parsed.iter().any(|p| p.ph == "X" && p.name == "a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn empty_input_is_a_valid_document() {
        let doc = chrome_trace([].iter(), default_name);
        let parsed = parse_chrome_trace(&doc).unwrap();
        assert!(parsed.iter().all(|e| e.ph == "M"));
        assert_eq!(find_complete_chain(&parsed), None);
    }

    #[test]
    fn json_parser_handles_the_usual_suspects() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"\nA","c":true,"d":null,"e":{}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"\nA"));
        assert_eq!(v.get("c").unwrap(), &Json::Bool(true));
        assert_eq!(v.get("d").unwrap(), &Json::Null);
        assert_eq!(v.get("e").unwrap(), &Json::Obj(vec![]));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("{} extra").is_err());
    }

    #[test]
    fn two_requests_in_one_batch_fan_in_separately() {
        let mut events = request_life(100, 3);
        // Second member of the same batch (batch spans deduplicate).
        events.push(span(kind::ACCEPT, NO_NODE, 101, 1_100, 1_000));
        events.push(span(kind::ADMIT, 1, 101, 2_200, 300));
        events.push(span(kind::QUEUE, 1, 101, 2_500, 5_000));
        events.push(span(kind::MEMBER, 3, 101, 7_500, 0));
        events.push(span(kind::REPLY, NO_NODE, 101, 14_600, 200));
        let doc = chrome_trace(events.iter(), default_name);
        let parsed = parse_chrome_trace(&doc).unwrap();
        // Both requests chain completely through the shared batch.
        let flows_100 =
            parsed.iter().filter(|e| e.cat == "flow" && e.id.as_deref() == Some("100")).count();
        let flows_101 =
            parsed.iter().filter(|e| e.cat == "flow" && e.id.as_deref() == Some("101")).count();
        assert!(flows_100 >= 4 && flows_101 >= 4);
        assert_eq!(find_complete_chain(&parsed), Some(100));
    }
}
