//! The benchmark's own span recorder: spans are taken around the calls
//! into each layer, kept in memory, and written out as a chrome trace
//! when the run ends. Nothing here lives inside the program under test.

use std::fmt::Write as _;
use std::time::Instant;

/// Op id of spans that belong to set-up rather than to one timed op.
pub const SETUP_OP: u64 = 0;

/// Ops of a traced phase whose spans go into the chrome trace; the per-layer
/// metrics are taken over every traced op.
pub const TRACE_OPS_KEPT: u64 = 32;

/// One recorded interval. `parent` is the span that was open on the same
/// recorder when this one began; spans of one op share `op`.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Open a span under the innermost open one; close it with [`Spans::exit`].
    pub fn enter(&mut self, name: &str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.enter(name, op);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Record an interval measured elsewhere (another thread, or the
    /// engine's node recorder) as a child of `parent`.
    pub fn add(&mut self, name: &str, op: u64, parent: Option<usize>, start_ns: u64, end_ns: u64) {
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent, op });
    }

    /// Self time per span: its duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Mean self time, in seconds, of the spans named `name` (0 if none).
    pub fn mean_self_seconds(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let of_name: Vec<u64> =
            self.spans.iter().zip(&own).filter(|(s, _)| s.name == name).map(|(_, o)| *o).collect();
        if of_name.is_empty() {
            return 0.0;
        }
        of_name.iter().sum::<u64>() as f64 / of_name.len() as f64 / 1e9
    }

    /// Trace Event Format document: one complete (`X`) event per span, the
    /// layer (the name up to the first `.`) as its category, and parent, op
    /// id and self time under `args`.
    pub fn chrome_trace(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, (s, own_ns)) in self.spans.iter().zip(&own).enumerate() {
            let layer = s.name.split('.').next().unwrap_or("");
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\
                 \"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                escape(&s.name),
                escape(layer),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                *own_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Graph node names are model-generated identifiers, but nothing promises
/// they stay free of quotes.
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}
