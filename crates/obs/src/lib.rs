// Unit tests assert by panicking; the panic-free gate applies to library
// code only (see [workspace.lints] in the root Cargo.toml).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]
//! Zero-dependency telemetry for the PLOS solvers.
//!
//! The paper's evaluation depends on seeing *inside* the training loops:
//! per-CCCP-iteration objectives (Eq. 10–11), cutting-plane working-set
//! growth (Eq. 12–15), and ADMM primal/dual residuals (Eq. 24). This crate
//! is the single funnel for that visibility — spans with wall-clock timers
//! and structured per-iteration trace events, every count riding on the
//! event that reports it — with two hard guarantees:
//!
//! 1. **Near-zero overhead when disabled.** Every entry point checks one
//!    relaxed atomic load and returns immediately when no sink is
//!    installed. No allocation, no locking, no clock reads.
//! 2. **No perturbation.** Telemetry only *reads* solver state; a run with
//!    tracing enabled produces bit-identical models to a run without it
//!    (enforced by the `trace_parity` gate in `ci.sh`).
//!
//! # Enabling the trace
//!
//! Set `PLOS_TRACE=<path>` to stream every event as one JSON object per
//! line (JSONL) to `<path>`. The environment is read once, lazily, on the
//! first telemetry call. Tests and embedders can instead install a sink
//! programmatically with [`set_sink`] (which takes precedence over the
//! environment).
//!
//! # Event shape
//!
//! Every event renders as a flat JSON object with an `"event"` key naming
//! it, e.g.
//!
//! ```json
//! {"event":"admm_round","round":3,"primal_residual":0.0125,"dual_residual":0.0031}
//! ```
//!
//! See DESIGN.md §9 for the full event catalogue.

pub mod json;

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

/// One telemetry field value. Numeric variants cover every count and
/// residual the solvers emit; `Str` is reserved for identifiers (span
/// names, scenario labels) so constructing events stays allocation-light.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, sizes, rounds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (objectives, residuals, rates).
    F64(f64),
    /// Boolean flag (convergence, degradation).
    Bool(bool),
    /// Short string label.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One structured trace event: a name plus ordered key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (the `"event"` key in the JSONL rendering).
    pub name: &'static str,
    /// Ordered fields; order is preserved in the rendering.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Field as `f64`, converting integer variants.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            Value::Bool(_) | Value::Str(_) => None,
        }
    }

    /// Field as `u64`.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }
}

/// Destination for trace events. Implementations must be thread-safe: the
/// solver hot loops record from whichever thread holds the iteration.
pub trait Sink: Send + Sync {
    /// Records one event. Must not panic; I/O errors are swallowed (losing
    /// telemetry must never fail training).
    fn record(&self, event: &Event);
}

/// Fast-path switch. `false` until a sink is installed (via environment or
/// [`set_sink`]), so disabled telemetry costs one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Guards the one-time `PLOS_TRACE` environment read. [`set_sink`] also
/// sets it so a programmatic sink is never clobbered by the environment.
static INIT: OnceLock<()> = OnceLock::new();

/// The installed sink, if any.
fn sink_slot() -> &'static RwLock<Option<Arc<dyn Sink>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn Sink>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

fn init_from_env() {
    INIT.get_or_init(|| {
        if let Ok(path) = std::env::var("PLOS_TRACE") {
            if !path.is_empty() {
                if let Ok(sink) = JsonlSink::create(&path) {
                    *sink_slot().write() = Some(Arc::new(sink));
                    ENABLED.store(true, Ordering::SeqCst);
                }
            }
        }
    });
}

/// Whether telemetry is live. The first call reads `PLOS_TRACE` (unless a
/// sink was already installed with [`set_sink`]); after that it is a single
/// relaxed atomic load.
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Installs (or with `None`, removes) the process-wide sink, overriding the
/// `PLOS_TRACE` environment. Intended for tests and embedders that need to
/// capture events in memory.
pub fn set_sink(sink: Option<Arc<dyn Sink>>) {
    // Mark env init done first, so a concurrent first call to `enabled()`
    // cannot re-install the environment sink over this one.
    let _ = INIT.set(());
    let on = sink.is_some();
    *sink_slot().write() = sink;
    ENABLED.store(on, Ordering::SeqCst);
}

/// Emits one event to the installed sink. A no-op (one atomic load) when
/// telemetry is disabled. Field slices are typically stack-allocated at the
/// call site:
///
/// ```
/// plos_obs::emit("cccp_round", &[("round", 2u64.into()), ("objective", 0.5.into())]);
/// ```
pub fn emit(name: &'static str, fields: &[(&'static str, Value)]) {
    if !enabled() {
        return;
    }
    let event = Event { name, fields: fields.to_vec() };
    let guard = sink_slot().read();
    if let Some(sink) = guard.as_deref() {
        sink.record(&event);
    }
}

/// A wall-clock span. Construction stamps the clock (only when telemetry is
/// enabled); dropping emits a `span` event with the elapsed microseconds:
///
/// ```json
/// {"event":"span","name":"centralized_fit","duration_us":10250}
/// ```
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Opens a span. Free (no clock read) when telemetry is disabled.
    pub fn enter(name: &'static str) -> Span {
        // plos-lint: allow(D2): span timing feeds telemetry duration fields only, never model state
        let start = if enabled() { Some(Instant::now()) } else { None };
        Span { name, start }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let micros = start.elapsed().as_micros();
            // u64::MAX µs is ~585k years; saturate rather than truncate.
            let micros = u64::try_from(micros).unwrap_or(u64::MAX);
            emit("span", &[("name", self.name.into()), ("duration_us", micros.into())]);
        }
    }
}

/// Sink that appends one JSON object per event to a file (JSONL). Writes
/// are line-buffered and flushed per record so the trace is complete even
/// if the process exits without dropping the global sink.
pub struct JsonlSink {
    out: Mutex<std::io::BufWriter<fs::File>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<JsonlSink> {
        let file = fs::File::create(path)?;
        Ok(JsonlSink { out: Mutex::new(std::io::BufWriter::new(file)) })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = json::render(event);
        let mut out = self.out.lock();
        // Telemetry loss must never fail training: I/O errors are dropped.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// Sink that buffers events in memory. Test scaffolding for asserting on
/// exactly what the solvers emitted.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Clones out everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock())
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events.lock().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink slot is process-global; tests that install sinks serialize
    // on this lock so they cannot observe each other.
    fn global_guard() -> parking_lot::MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD.get_or_init(|| Mutex::new(())).lock()
    }

    #[test]
    fn disabled_emit_is_a_no_op() {
        let _g = global_guard();
        set_sink(None);
        emit("never", &[("x", 1u64.into())]);
        assert!(!enabled());
    }

    #[test]
    fn memory_sink_captures_events_in_order() {
        let _g = global_guard();
        let sink = Arc::new(MemorySink::new());
        set_sink(Some(sink.clone()));
        emit("a", &[("n", 1u64.into())]);
        emit("b", &[("x", 2.5.into()), ("ok", true.into())]);
        set_sink(None);
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].field_f64("x"), Some(2.5));
        assert_eq!(events[1].field("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn span_emits_duration() {
        let _g = global_guard();
        let sink = Arc::new(MemorySink::new());
        set_sink(Some(sink.clone()));
        drop(Span::enter("unit_test_span"));
        set_sink(None);
        let events = sink.take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "span");
        assert_eq!(events[0].field("name"), Some(&Value::Str("unit_test_span".into())));
        assert!(events[0].field_u64("duration_us").is_some());
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = global_guard();
        set_sink(None);
        let span = Span::enter("dark");
        assert!(span.start.is_none(), "no clock read when disabled");
        drop(span);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let _g = global_guard();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("plos_obs_test_{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&Event { name: "e1", fields: vec![("k", Value::U64(7))] });
        sink.record(&Event { name: "e2", fields: vec![("s", Value::Str("x\"y".into()))] });
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"event\":\"e1\",\"k\":7}");
        assert_eq!(lines[1], "{\"event\":\"e2\",\"s\":\"x\\\"y\"}");
    }
}
