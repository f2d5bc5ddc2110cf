//! In-memory spans for the traced run.
//!
//! A span is a name, a start and an end (ns since the tracer's origin),
//! a parent span, and the id of the tick or request it belongs to.
//! Spans are recorded from the benchmark's own files: around its calls
//! into each crate's public functions, and from a [`PhaseObserver`]
//! attached through `tn_obs::TickObserver`, which splits every engine
//! tick into the phases the engine announces. They are kept in memory
//! and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tn_obs::{TickObserver, TickPhase, TickSummary};

/// Spans kept per run; later spans are counted, not stored, so a long
/// traced run cannot grow without bound.
const MAX_SPANS: usize = 2_000_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The tick or request this span belongs to.
    pub id: u64,
    /// Index of the parent span in the tracer, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    dropped: u64,
}

pub struct Tracer {
    /// An untraced run's tracer records nothing.
    enabled: bool,
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled,
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        })
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Open a span; close it with [`Tracer::close`]. Returns its index.
    pub fn open(&self, name: &'static str, id: u64, parent: Option<usize>, start_ns: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let mut g = self.inner.lock().expect("tracer lock poisoned");
        if g.spans.len() >= MAX_SPANS {
            g.dropped += 1;
            return usize::MAX;
        }
        g.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        g.spans.len() - 1
    }

    pub fn close(&self, idx: usize, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut g = self.inner.lock().expect("tracer lock poisoned");
        if let Some(s) = g.spans.get_mut(idx) {
            s.end_ns = end_ns;
        }
    }

    /// Record a finished span.
    pub fn span(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let idx = self.open(name, id, parent, self.ns(start));
        self.close(idx, self.ns(end));
        idx
    }

    /// Self time per span name (duration minus the time covered by its
    /// children), and how many spans of that name there were.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let g = self.inner.lock().expect("tracer lock poisoned");
        let mut child_ns = vec![0u64; g.spans.len()];
        for s in &g.spans {
            if let Some(p) = s.parent {
                if p < child_ns.len() {
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in g.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            e.1 += 1;
        }
        out
    }

    /// Self time of `name` in ms per span of `per` (e.g. per tick).
    pub fn self_ms_per(&self, name: &str, per: &str) -> f64 {
        let t = self.self_times();
        let total = t.get(name).map_or(0, |x| x.0);
        let n = t.get(per).map_or(0, |x| x.1);
        if n == 0 {
            0.0
        } else {
            total as f64 / 1e6 / n as f64
        }
    }

    /// Append every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path, section: &str) -> std::io::Result<()> {
        let g = self.inner.lock().expect("tracer lock poisoned");
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut w = std::io::BufWriter::new(f);
        for (i, s) in g.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"section\": \"{section}\", \"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        if g.dropped > 0 {
            writeln!(
                w,
                "{{\"section\": \"{section}\", \"dropped_spans\": {}}}",
                g.dropped
            )?;
        }
        w.flush()
    }
}

/// A `TickObserver` that turns the engine's span hooks into a `tick`
/// span (child of the benchmark's current `step` span) with one child
/// span per announced phase.
pub struct PhaseObserver {
    tracer: Arc<Tracer>,
    state: Mutex<PhaseState>,
}

#[derive(Default)]
struct PhaseState {
    parent: Option<usize>,
    tick: Option<usize>,
    phase: Option<usize>,
}

fn phase_name(p: TickPhase) -> &'static str {
    match p {
        TickPhase::Faults => "faults",
        TickPhase::Input => "input",
        TickPhase::Neurons => "neurons",
        TickPhase::Routing => "routing",
        TickPhase::Merge => "merge",
    }
}

impl PhaseObserver {
    pub fn new(tracer: Arc<Tracer>) -> Arc<PhaseObserver> {
        Arc::new(PhaseObserver {
            tracer,
            state: Mutex::new(PhaseState::default()),
        })
    }

    /// The span the next tick span hangs under.
    pub fn set_parent(&self, parent: Option<usize>) {
        self.state.lock().expect("observer lock poisoned").parent = parent;
    }
}

impl TickObserver for PhaseObserver {
    fn on_tick_start(&self, tick: u64) {
        let now = self.tracer.now_ns();
        let mut st = self.state.lock().expect("observer lock poisoned");
        st.tick = Some(self.tracer.open("tick", tick, st.parent, now));
        st.phase = None;
    }

    fn on_phase(&self, tick: u64, phase: TickPhase) {
        let now = self.tracer.now_ns();
        let mut st = self.state.lock().expect("observer lock poisoned");
        if let Some(p) = st.phase.take() {
            self.tracer.close(p, now);
        }
        st.phase = Some(self.tracer.open(phase_name(phase), tick, st.tick, now));
    }

    fn on_tick_end(&self, _summary: &TickSummary) {
        let now = self.tracer.now_ns();
        let mut st = self.state.lock().expect("observer lock poisoned");
        if let Some(p) = st.phase.take() {
            self.tracer.close(p, now);
        }
        if let Some(t) = st.tick.take() {
            self.tracer.close(t, now);
        }
    }
}
