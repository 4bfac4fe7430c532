//! Deterministic observability: hierarchical spans, a typed counter/gauge
//! registry, and two exporters built on [`crate::json`].
//!
//! Production code opens **spans** ([`span`] / [`span_with`]) around phases
//! of work, drops **instant events** ([`event`] / [`event_with`]) at
//! decision points, and accumulates into a typed registry of named
//! **counters** (u64, additive) and **gauges** (f64, last-write-wins).
//! A binary or test *arms* the layer ([`arm`] / [`arm_from_env`]); while
//! armed, everything recorded on the arming thread is kept in order and can
//! be exported as a flat metrics snapshot ([`metrics_json`]) or a Chrome
//! `chrome://tracing` trace-event file ([`chrome_trace_json`]) that opens
//! directly in Perfetto (<https://ui.perfetto.dev>).
//!
//! Design rules (the [`crate::fault`] pattern):
//!
//! * **Zero cost disarmed.** Every entry point checks one relaxed atomic
//!   and returns immediately — no lock, no allocation. Argument closures
//!   ([`span_with`] / [`event_with`]) are never invoked while disarmed, so
//!   instrumented hot paths stay allocation-free (`tests/zero_alloc.rs`
//!   enforces this).
//! * **Deterministic armed.** Timestamps come from a **logical clock** —
//!   one tick per recorded event — so a deterministic program produces a
//!   byte-identical trace on every run. Wall-clock timestamps (microseconds,
//!   explicitly non-reproducible) are opt-in via `DEFCON_OBS_WALL=1`.
//! * **Single recording thread.** The recorder binds to the thread that
//!   armed it; calls from any other thread are silently dropped. So
//!   [`crate::par::map`] runs its items inline, in order, on the calling
//!   thread while the layer is armed: no worker's spans are lost, and a
//!   trace is the same bytes at every `DEFCON_THREADS` setting.
//! * **One armed scope at a time.** [`arm`] holds a global lock for the
//!   lifetime of the returned guard; everything disarms (and unlocks) on
//!   drop, even across a panic.

use crate::error::DefconError;
use crate::json::{Json, JsonError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// How the recorder stamps events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Clock {
    /// One tick per recorded event — byte-reproducible traces.
    #[default]
    Logical,
    /// Microseconds since arming — real durations, never reproducible.
    Wall,
}

/// Configuration for [`arm`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsConfig {
    /// Timestamp source; defaults to [`Clock::Logical`].
    pub clock: Clock,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Begin,
    End,
    Instant,
}

struct Event {
    name: String,
    kind: Kind,
    ts: u64,
    args: Vec<(String, Json)>,
}

struct Recorder {
    /// `Some(arm instant)` in wall-clock mode, `None` for the logical clock.
    epoch: Option<Instant>,
    clock: u64,
    home: ThreadId,
    events: Vec<Event>,
    /// Indices into `events` of the currently-open `Begin` events.
    open: Vec<usize>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Recorder {
    fn tick(&mut self) -> u64 {
        match self.epoch {
            Some(t0) => t0.elapsed().as_micros() as u64,
            None => {
                let t = self.clock;
                self.clock += 1;
                t
            }
        }
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

fn arm_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn recorder() -> MutexGuard<'static, Option<Recorder>> {
    // A panic while holding the recorder lock (never expected: the locked
    // sections are straight-line) must not wedge later tests.
    RECORDER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Guard for an armed observability scope; disarms on drop. When created
/// via [`arm_from_env`] with `DEFCON_TRACE` set, drop also writes the
/// Chrome trace to that path (errors go to stderr — a failed trace write
/// must not fail the traced run).
pub struct ObsGuard {
    _serial: MutexGuard<'static, ()>,
    write_path: Option<PathBuf>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        if let Some(path) = self.write_path.take() {
            if let Some(doc) = chrome_trace_json() {
                if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
                    eprintln!("defcon: failed to write trace {}: {e}", path.display());
                }
            }
        }
        ARMED.store(false, Ordering::SeqCst);
        *recorder() = None;
    }
}

/// Arms the recorder on the **current thread**, serializing against any
/// other armed scope in the process (the previous scope must drop first).
pub fn arm(cfg: ObsConfig) -> ObsGuard {
    let serial = arm_lock().lock().unwrap_or_else(|e| e.into_inner());
    *recorder() = Some(Recorder {
        epoch: match cfg.clock {
            Clock::Wall => Some(Instant::now()),
            Clock::Logical => None,
        },
        clock: 0,
        home: std::thread::current().id(),
        events: Vec::new(),
        open: Vec::new(),
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
    });
    ARMED.store(true, Ordering::SeqCst);
    ObsGuard {
        _serial: serial,
        write_path: None,
    }
}

/// Holds the arming lock **without arming anything**: recording stays
/// inert until the guard drops. Tests asserting disarmed behaviour take
/// this to serialize against concurrently-running tests that arm.
pub fn quiesce() -> ObsGuard {
    let serial = arm_lock().lock().unwrap_or_else(|e| e.into_inner());
    ObsGuard {
        _serial: serial,
        write_path: None,
    }
}

/// Arms from the environment: `DEFCON_TRACE=<path>` enables tracing (the
/// guard writes the Chrome trace there on drop), `DEFCON_OBS_WALL=1`
/// switches to wall-clock timestamps. Returns `Ok(None)` when tracing is
/// off; both variables are strict-parsed via [`crate::env`].
pub fn arm_from_env() -> Result<Option<ObsGuard>, DefconError> {
    let Some(path) = crate::env::trace_path()? else {
        return Ok(None);
    };
    let clock = if crate::env::flag(crate::env::OBS_WALL)? {
        Clock::Wall
    } else {
        Clock::Logical
    };
    let mut guard = arm(ObsConfig { clock });
    guard.write_path = Some(path);
    Ok(Some(guard))
}

/// True while an armed scope is live. One relaxed atomic load; use to gate
/// arg computation that [`span_with`]'s deferred closure cannot express.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// An open span; records its `End` event on drop. Inert (all methods
/// no-op) when obtained while disarmed or from a non-recording thread.
#[must_use = "dropping the guard closes the span"]
pub struct Span {
    idx: Option<usize>,
}

impl Span {
    /// Appends an argument to the span's `Begin` event — for values (loss,
    /// cycles) only known after the work inside the span ran.
    pub fn record(&self, key: &'static str, value: Json) {
        let Some(idx) = self.idx else {
            return;
        };
        let mut reg = recorder();
        let Some(reg) = reg.as_mut() else {
            return;
        };
        if reg.open.contains(&idx) {
            reg.events[idx].args.push((key.to_string(), value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(idx) = self.idx else {
            return;
        };
        let mut reg = recorder();
        let Some(reg) = reg.as_mut() else {
            return;
        };
        // Guard against a stale index from a span that outlived its armed
        // scope (misuse; the events would belong to a different recording).
        if !reg.open.contains(&idx) {
            return;
        }
        let ts = reg.tick();
        let name = reg.events[idx].name.clone();
        reg.events.push(Event {
            name,
            kind: Kind::End,
            ts,
            args: Vec::new(),
        });
        reg.open.retain(|&i| i != idx);
    }
}

/// Opens a span with no arguments.
#[inline]
pub fn span(name: &str) -> Span {
    if !ARMED.load(Ordering::Relaxed) {
        return Span { idx: None };
    }
    Span {
        idx: begin(name, Vec::new()),
    }
}

/// Opens a span with arguments. The closure is invoked **only while
/// armed**, so building the argument vector costs nothing when tracing is
/// off (the disarmed path is a single relaxed atomic load).
#[inline]
pub fn span_with(name: &str, args: impl FnOnce() -> Vec<(&'static str, Json)>) -> Span {
    if !ARMED.load(Ordering::Relaxed) {
        return Span { idx: None };
    }
    Span {
        idx: begin(name, args()),
    }
}

fn begin(name: &str, args: Vec<(&'static str, Json)>) -> Option<usize> {
    let mut reg = recorder();
    let reg = reg.as_mut()?;
    if std::thread::current().id() != reg.home {
        return None;
    }
    let ts = reg.tick();
    reg.events.push(Event {
        name: name.to_string(),
        kind: Kind::Begin,
        ts,
        args: args.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    });
    let idx = reg.events.len() - 1;
    reg.open.push(idx);
    Some(idx)
}

/// Records an instant event with no arguments.
#[inline]
pub fn event(name: &str) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    instant(name, Vec::new());
}

/// Records an instant event with arguments; the closure is invoked only
/// while armed (see [`span_with`]).
#[inline]
pub fn event_with(name: &str, args: impl FnOnce() -> Vec<(&'static str, Json)>) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    instant(name, args());
}

fn instant(name: &str, args: Vec<(&'static str, Json)>) {
    let mut reg = recorder();
    let Some(reg) = reg.as_mut() else {
        return;
    };
    if std::thread::current().id() != reg.home {
        return;
    }
    let ts = reg.tick();
    reg.events.push(Event {
        name: name.to_string(),
        kind: Kind::Instant,
        ts,
        args: args.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    });
}

/// Adds to a named u64 counter in the typed registry. Counters do not tick
/// the clock; they surface in the metrics snapshot and under the trace's
/// top-level `metrics` key, sorted by name.
#[inline]
pub fn counter_add(name: &str, v: u64) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    counter_add_slow(name, v);
}

fn counter_add_slow(name: &str, v: u64) {
    let mut reg = recorder();
    let Some(reg) = reg.as_mut() else {
        return;
    };
    if std::thread::current().id() != reg.home {
        return;
    }
    *reg.counters.entry(name.to_string()).or_insert(0) += v;
}

/// Sets a named f64 gauge (last write wins).
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    gauge_set_slow(name, v);
}

fn gauge_set_slow(name: &str, v: f64) {
    let mut reg = recorder();
    let Some(reg) = reg.as_mut() else {
        return;
    };
    if std::thread::current().id() != reg.home {
        return;
    }
    reg.gauges.insert(name.to_string(), v);
}

/// Current value of a counter (0 when absent or disarmed). Test helper.
pub fn counter(name: &str) -> u64 {
    recorder()
        .as_ref()
        .and_then(|r| r.counters.get(name).copied())
        .unwrap_or(0)
}

/// Current value of a gauge (`None` when absent or disarmed). Test helper.
pub fn gauge(name: &str) -> Option<f64> {
    recorder()
        .as_ref()
        .and_then(|r| r.gauges.get(name).copied())
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

fn metrics_from(counters: &BTreeMap<String, u64>, gauges: &BTreeMap<String, f64>) -> Json {
    Json::obj(vec![
        (
            "counters",
            Json::Obj(
                counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// The flat metrics snapshot: `{"counters": {...}, "gauges": {...}}` with
/// keys sorted. `None` while disarmed.
pub fn metrics_json() -> Option<Json> {
    let reg = recorder();
    let reg = reg.as_ref()?;
    Some(metrics_from(&reg.counters, &reg.gauges))
}

/// The full Chrome trace-event document — load it in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`. Span begins/ends map
/// to `ph:"B"`/`ph:"E"` pairs, instants to `ph:"i"`; the metrics snapshot
/// rides along under a top-level `metrics` key (ignored by viewers).
/// `None` while disarmed.
pub fn chrome_trace_json() -> Option<Json> {
    let reg = recorder();
    let reg = reg.as_ref()?;
    let mut events: Vec<Json> = Vec::with_capacity(reg.events.len());
    for e in &reg.events {
        let mut obj: Vec<(String, Json)> = vec![
            ("name".to_string(), Json::str(&e.name)),
            (
                "ph".to_string(),
                Json::str(match e.kind {
                    Kind::Begin => "B",
                    Kind::End => "E",
                    Kind::Instant => "i",
                }),
            ),
            ("ts".to_string(), Json::from(e.ts)),
            ("pid".to_string(), Json::from(0u64)),
            ("tid".to_string(), Json::from(0u64)),
        ];
        if e.kind == Kind::Instant {
            obj.push(("s".to_string(), Json::str("t")));
        }
        if !e.args.is_empty() {
            obj.push(("args".to_string(), Json::Obj(e.args.clone())));
        }
        events.push(Json::Obj(obj));
    }
    Some(Json::obj(vec![
        ("displayTimeUnit", Json::str("ms")),
        ("metrics", metrics_from(&reg.counters, &reg.gauges)),
        ("traceEvents", Json::Arr(events)),
    ]))
}

// ---------------------------------------------------------------------------
// Span-tree snapshots (test oracle)
// ---------------------------------------------------------------------------

/// One node of the reconstructed span forest: a closed span (with
/// `dur = end − begin`) or an instant event (`instant == true`, `dur == 0`).
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span/event name.
    pub name: String,
    /// Begin timestamp (logical ticks or wall µs).
    pub ts: u64,
    /// End − begin; 0 for instants.
    pub dur: u64,
    /// True for instant events.
    pub instant: bool,
    /// Arguments in recording order.
    pub args: Vec<(String, Json)>,
    /// Nested spans/events in recording order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Looks up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&Json> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Numeric argument by key.
    pub fn num_arg(&self, key: &str) -> Option<f64> {
        self.arg(key)?.as_f64()
    }

    /// Integer argument by key.
    pub fn u64_arg(&self, key: &str) -> Option<u64> {
        self.arg(key)?.as_u64()
    }

    /// String argument by key.
    pub fn str_arg(&self, key: &str) -> Option<&str> {
        self.arg(key)?.as_str()
    }
}

/// All nodes named `name`, depth-first across the forest.
pub fn find_spans<'a>(forest: &'a [SpanNode], name: &str) -> Vec<&'a SpanNode> {
    fn walk<'a>(n: &'a SpanNode, name: &str, out: &mut Vec<&'a SpanNode>) {
        if n.name == name {
            out.push(n);
        }
        for c in &n.children {
            walk(c, name, out);
        }
    }
    let mut out = Vec::new();
    for n in forest {
        walk(n, name, &mut out);
    }
    out
}

struct RawEvent {
    name: String,
    kind: Kind,
    ts: u64,
    args: Vec<(String, Json)>,
}

fn build_forest(events: Vec<RawEvent>) -> Vec<SpanNode> {
    fn attach(roots: &mut Vec<SpanNode>, stack: &mut [SpanNode], n: SpanNode) {
        match stack.last_mut() {
            Some(parent) => parent.children.push(n),
            None => roots.push(n),
        }
    }
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    for e in events {
        let node = SpanNode {
            name: e.name,
            ts: e.ts,
            dur: 0,
            instant: e.kind == Kind::Instant,
            args: e.args,
            children: Vec::new(),
        };
        match e.kind {
            Kind::Begin => stack.push(node),
            Kind::End => {
                if let Some(mut open) = stack.pop() {
                    open.dur = e.ts.saturating_sub(open.ts);
                    attach(&mut roots, &mut stack, open);
                }
            }
            Kind::Instant => attach(&mut roots, &mut stack, node),
        }
    }
    // Still-open spans (snapshot taken mid-run): close them where they are.
    while let Some(open) = stack.pop() {
        attach(&mut roots, &mut stack, open);
    }
    roots
}

/// Reconstructs the span forest of the current recording. Empty while
/// disarmed. Arguments recorded via [`Span::record`] are included.
pub fn snapshot() -> Vec<SpanNode> {
    let reg = recorder();
    let Some(reg) = reg.as_ref() else {
        return Vec::new();
    };
    build_forest(
        reg.events
            .iter()
            .map(|e| RawEvent {
                name: e.name.clone(),
                kind: e.kind,
                ts: e.ts,
                args: e.args.clone(),
            })
            .collect(),
    )
}

/// Parses a Chrome trace-event document (as produced by
/// [`chrome_trace_json`]) back into a span forest — the conformance tests'
/// oracle for traces written by separate processes. Unknown phase types
/// (`M`, `C`, …) are skipped.
pub fn forest_from_chrome(doc: &Json) -> Result<Vec<SpanNode>, JsonError> {
    let events = doc.field("traceEvents")?;
    let Some(arr) = events.as_arr() else {
        return Err(JsonError::msg("traceEvents is not an array"));
    };
    let mut raw = Vec::with_capacity(arr.len());
    for e in arr {
        let kind = match e.str_field("ph")? {
            "B" => Kind::Begin,
            "E" => Kind::End,
            "i" => Kind::Instant,
            _ => continue,
        };
        raw.push(RawEvent {
            name: e.str_field("name")?.to_string(),
            kind,
            ts: e.u64_field("ts")?,
            args: match e.field("args") {
                Ok(Json::Obj(pairs)) => pairs.clone(),
                _ => Vec::new(),
            },
        });
    }
    Ok(build_forest(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_inert() {
        let _q = quiesce();
        let sp = span("nope");
        sp.record("k", Json::from(1u64));
        event("nope");
        counter_add("c", 1);
        gauge_set("g", 1.0);
        drop(sp);
        assert!(snapshot().is_empty());
        assert!(chrome_trace_json().is_none());
        assert!(metrics_json().is_none());
        assert_eq!(counter("c"), 0);
        assert_eq!(gauge("g"), None);
    }

    #[test]
    fn spans_nest_and_logical_clock_ticks_per_event() {
        let _g = arm(ObsConfig::default());
        {
            let outer = span("outer");
            {
                let inner = span_with("inner", || vec![("k", Json::from(7u64))]);
                event("ping");
                drop(inner);
            }
            outer.record("late", Json::from(1.5));
        }
        let forest = snapshot();
        assert_eq!(forest.len(), 1);
        let outer = &forest[0];
        assert_eq!(outer.name, "outer");
        assert_eq!((outer.ts, outer.dur), (0, 4));
        assert_eq!(outer.num_arg("late"), Some(1.5));
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner");
        assert_eq!((inner.ts, inner.dur), (1, 2));
        assert_eq!(inner.u64_arg("k"), Some(7));
        assert_eq!(inner.children.len(), 1);
        assert!(inner.children[0].instant);
        assert_eq!(inner.children[0].ts, 2);
    }

    #[test]
    fn counters_add_and_gauges_overwrite() {
        let _g = arm(ObsConfig::default());
        counter_add("hits", 2);
        counter_add("hits", 3);
        gauge_set("rate", 0.25);
        gauge_set("rate", 0.75);
        assert_eq!(counter("hits"), 5);
        assert_eq!(gauge("rate"), Some(0.75));
        let m = metrics_json().unwrap();
        assert_eq!(
            m.to_string(),
            r#"{"counters":{"hits":5},"gauges":{"rate":0.75}}"#
        );
    }

    #[test]
    fn chrome_trace_is_byte_identical_across_runs() {
        let run = || {
            let _g = arm(ObsConfig::default());
            let sp = span_with("work", || vec![("n", Json::from(3u64))]);
            event_with("mark", || vec![("x", Json::from(1.0))]);
            sp.record("cycles", Json::from(123.0));
            drop(sp);
            counter_add("blocks", 3);
            gauge_set("hit_rate", 0.5);
            chrome_trace_json().unwrap().to_string()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains(r#""ph":"B""#) && a.contains(r#""ph":"E""#));
        assert!(a.contains(r#""ph":"i""#));
    }

    #[test]
    fn chrome_round_trips_through_forest_parser() {
        let _g = arm(ObsConfig::default());
        let sp = span_with("outer", || vec![("a", Json::from(1u64))]);
        event("tick");
        drop(sp);
        let direct = snapshot();
        let doc = chrome_trace_json().unwrap();
        let parsed = forest_from_chrome(&Json::parse(&doc.to_string()).unwrap()).unwrap();
        assert_eq!(parsed.len(), direct.len());
        assert_eq!(parsed[0].name, direct[0].name);
        assert_eq!(parsed[0].dur, direct[0].dur);
        assert_eq!(parsed[0].u64_arg("a"), Some(1));
        assert_eq!(parsed[0].children.len(), 1);
        assert!(parsed[0].children[0].instant);
    }

    #[test]
    fn foreign_thread_records_are_dropped() {
        let _g = arm(ObsConfig::default());
        std::thread::spawn(|| {
            let sp = span("worker");
            event("worker-event");
            counter_add("worker-counter", 1);
            drop(sp);
        })
        .join()
        .unwrap();
        assert!(snapshot().is_empty());
        assert_eq!(counter("worker-counter"), 0);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let _g = arm(ObsConfig { clock: Clock::Wall });
        let sp = span("timed");
        event("mid");
        drop(sp);
        let forest = snapshot();
        assert_eq!(forest.len(), 1);
        assert!(forest[0].children[0].ts >= forest[0].ts);
    }

    /// Once a guard has dropped, another test may arm before this one
    /// looks; holding the arming lock waits that test out, so `!armed()`
    /// observes this guard's disarm.
    #[test]
    fn drop_disarms_and_clears() {
        {
            let _g = arm(ObsConfig::default());
            let _sp = span("x");
            assert!(armed());
        }
        let _q = quiesce();
        assert!(!armed());
        assert!(snapshot().is_empty());
    }

    /// Serializes the tests that set or read the process-global
    /// `DEFCON_TRACE`. Taken before the arming lock, always.
    fn trace_env_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn arm_from_env_writes_trace_on_drop() {
        let _env = trace_env_lock();
        let path =
            std::env::temp_dir().join(format!("defcon_obs_test_{}.json", std::process::id()));
        std::env::set_var(crate::env::TRACE, &path);
        {
            let guard = arm_from_env().unwrap();
            assert!(guard.is_some());
            drop(span("traced"));
        }
        std::env::remove_var(crate::env::TRACE);
        let _q = quiesce();
        assert!(!armed());
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let forest = forest_from_chrome(&Json::parse(&body).unwrap()).unwrap();
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].name, "traced");
    }

    #[test]
    fn arm_from_env_off_when_unset() {
        // DEFCON_TRACE is not set in the test environment by default, and
        // the lock keeps the test above from setting it meanwhile.
        let _env = trace_env_lock();
        assert!(arm_from_env().unwrap().is_none());
    }

    #[test]
    fn unclosed_spans_survive_snapshot() {
        let _g = arm(ObsConfig::default());
        let _open = span("still-open");
        let forest = snapshot();
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].name, "still-open");
        assert_eq!(forest[0].dur, 0);
    }
}
