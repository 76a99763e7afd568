//! `vcps-obs`: the workspace's unified observability layer — a
//! structured tracing facade, a lock-free metrics registry, and
//! per-phase profiling hooks, with zero dependencies (DESIGN.md §14).
//!
//! Everything hangs off one cheap, cloneable handle:
//!
//! * [`Obs::disabled`] is a null pointer. Every recording method starts
//!   with one `Option` check and touches *no* clock, lock, or atomic
//!   when disabled — the no-op fast path the hot simulator loops carry
//!   (overhead measured in `BENCH_obs.json`). Observability must never
//!   change results: instrumented code records *about* its computation,
//!   never *into* it, so estimates are bit-identical on and off.
//! * [`Obs::enabled`] / [`Obs::with_subscriber`] activate the layer: a
//!   [`Registry`] of counters, gauges, and fixed-bucket histograms over
//!   `AtomicU64` cells (parallel workers record without contention), and
//!   a level-filtered event stream fanned to a pluggable [`Subscriber`]
//!   ([`NullSubscriber`], ring-buffered [`CollectingSubscriber`], or
//!   [`JsonLinesSubscriber`]).
//! * [`Obs::phase`] opens a [`PhaseTimer`] for one of the pipeline
//!   [`Phase`]s (encode, receive, decode, O–D matrix, retry); dropping
//!   it records a `phase.<name>.ns` histogram and a
//!   `phase.<name>.calls` counter. [`Obs::span`] is the free-form
//!   tracing twin, emitting enter/exit events instead.
//! * Hot paths never resolve a name per item. The handle resolves each
//!   phase's cells once, [`Obs::counter`] hands out a [`CounterHandle`]
//!   resolved once, and a parallel loop can time its items into a local
//!   [`HistogramSnapshot`] and fold it in after the join with
//!   [`Obs::merge_phase`] — one registry update per metric instead of
//!   one per item (see the [`Registry`] docs for what a named update
//!   costs).
//!
//! Events carry both monotonic wall time (nanoseconds since the handle
//! was created) and the simulation clock ([`Obs::set_sim_time`]).
//! [`Obs::snapshot`] freezes the registry into a [`RegistrySnapshot`]
//! whose [`merge`](RegistrySnapshot::merge) is associative and
//! commutative, and [`snapshot_json`] / [`snapshot_text`] render it for
//! the `--obs-json` experiment flag and the benchmark artifacts.
//!
//! # Example
//!
//! ```
//! use vcps_obs::{Level, Obs, Phase};
//!
//! let obs = Obs::enabled(Level::Info);
//! {
//!     let _timer = obs.phase(Phase::Encode);
//!     obs.add("reports", 128);
//! }
//! let snap = obs.snapshot();
//! assert_eq!(snap.counters["reports"], 128);
//! assert_eq!(snap.counters["phase.encode.calls"], 1);
//! assert!(vcps_obs::snapshot_json(&snap).contains("\"reports\":128"));
//!
//! // Disabled: same calls, no work, no state.
//! let off = Obs::disabled();
//! off.add("reports", 128);
//! assert!(off.snapshot().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod registry;
mod trace;

pub use export::{fmt_f64_json, json_escape, snapshot_json, snapshot_text};
pub use registry::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    RegistrySnapshot, HISTOGRAM_BUCKETS,
};
pub use trace::{
    CollectingSubscriber, EventKind, JsonLinesSubscriber, Level, NullSubscriber, Subscriber,
    TraceEvent, Value,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The instrumented pipeline phases (profiled via [`Obs::phase`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Vehicle-side report generation (query → bit index).
    Encode,
    /// RSU-side report ingestion.
    Receive,
    /// Server-side pair decode (unfold + combined zero count + MLE).
    Decode,
    /// All-pairs O–D matrix assembly.
    OdMatrix,
    /// Upload retry/backoff handling.
    Retry,
    /// Write-ahead-log append + fsync on the durable ingest path.
    WalAppend,
    /// Crash recovery: checkpoint load + WAL tail replay.
    WalRecover,
}

impl Phase {
    /// Lower-case phase name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Encode => "encode",
            Phase::Receive => "receive",
            Phase::Decode => "decode",
            Phase::OdMatrix => "od_matrix",
            Phase::Retry => "retry",
            Phase::WalAppend => "wal_append",
            Phase::WalRecover => "wal_recover",
        }
    }

    /// Registry name of the duration histogram.
    #[must_use]
    pub fn ns_metric(self) -> &'static str {
        match self {
            Phase::Encode => "phase.encode.ns",
            Phase::Receive => "phase.receive.ns",
            Phase::Decode => "phase.decode.ns",
            Phase::OdMatrix => "phase.od_matrix.ns",
            Phase::Retry => "phase.retry.ns",
            Phase::WalAppend => "phase.wal_append.ns",
            Phase::WalRecover => "phase.wal_recover.ns",
        }
    }

    /// Registry name of the invocation counter.
    #[must_use]
    pub fn calls_metric(self) -> &'static str {
        match self {
            Phase::Encode => "phase.encode.calls",
            Phase::Receive => "phase.receive.calls",
            Phase::Decode => "phase.decode.calls",
            Phase::OdMatrix => "phase.od_matrix.calls",
            Phase::Retry => "phase.retry.calls",
            Phase::WalAppend => "phase.wal_append.calls",
            Phase::WalRecover => "phase.wal_recover.calls",
        }
    }
}

/// Number of [`Phase`] variants.
const PHASES: usize = 7;
const _: () = assert!(Phase::WalRecover as usize + 1 == PHASES);

/// One phase's registry cells: its duration histogram and call counter.
#[derive(Debug)]
struct PhaseCells {
    ns: Arc<Histogram>,
    calls: Counter,
}

#[derive(Debug)]
struct ObsInner {
    level: Level,
    registry: Registry,
    subscriber: Arc<dyn Subscriber>,
    epoch: Instant,
    /// Simulation clock, as `f64` bits (NaN until a driver sets it).
    sim_time: AtomicU64,
    /// Each phase's cells, indexed by `Phase as usize`. Resolved once,
    /// on the phase's first recording rather than up front, so the
    /// registry holds only phases that actually ran and snapshots are
    /// the same as with name-keyed recording.
    phases: [OnceLock<PhaseCells>; PHASES],
}

impl ObsInner {
    fn phase_cells(&self, phase: Phase) -> &PhaseCells {
        self.phases[phase as usize].get_or_init(|| PhaseCells {
            ns: self.registry.histogram(phase.ns_metric()),
            calls: self.registry.counter(phase.calls_metric()),
        })
    }

    fn emit(
        &self,
        level: Level,
        kind: EventKind,
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) {
        let event = TraceEvent {
            level,
            kind,
            name,
            wall_ns: u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            sim_time: f64::from_bits(self.sim_time.load(Ordering::Relaxed)),
            fields,
        };
        self.subscriber.record(&event);
    }
}

/// The observability handle (see the crate docs).
///
/// `Clone` is an `Arc` bump; clones share one registry, subscriber, and
/// clock epoch, so a handle can be fanned across threads and snapshotted
/// once. The `Default` handle is disabled.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// The no-op handle: every recording method is a single `None`
    /// check.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An active handle filtering events at `level`, with a
    /// [`NullSubscriber`] (registry only — the common experiment
    /// configuration).
    #[must_use]
    pub fn enabled(level: Level) -> Self {
        Self::with_subscriber(level, Arc::new(NullSubscriber))
    }

    /// An active handle fanning events at-or-below `level` to
    /// `subscriber`. Keep your own `Arc` clone of the subscriber to read
    /// collected events back later.
    #[must_use]
    pub fn with_subscriber(level: Level, subscriber: Arc<dyn Subscriber>) -> Self {
        Self {
            inner: Some(Arc::new(ObsInner {
                level,
                registry: Registry::new(),
                subscriber,
                epoch: Instant::now(),
                sim_time: AtomicU64::new(f64::NAN.to_bits()),
                phases: std::array::from_fn(|_| OnceLock::new()),
            })),
        }
    }

    /// `true` when recording does anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The configured event level ([`Level::Off`] when disabled).
    #[must_use]
    pub fn level(&self) -> Level {
        self.inner.as_ref().map_or(Level::Off, |i| i.level)
    }

    /// `true` when an event at `level` would reach the subscriber. Use
    /// this to guard field construction on hot paths.
    #[must_use]
    pub fn enabled_at(&self, level: Level) -> bool {
        level != Level::Off && level <= self.level()
    }

    /// The live registry, when enabled.
    #[must_use]
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_ref().map(|i| &i.registry)
    }

    /// Adds `v` to a named counter.
    #[inline]
    pub fn add(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.add(name, v);
        }
    }

    /// Adds one to a named counter.
    #[inline]
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// A handle to the named counter for a hot path: the name is
    /// resolved on the handle's first update and never again. On a
    /// disabled `Obs` the handle records nothing.
    #[must_use]
    pub fn counter(&self, name: &'static str) -> CounterHandle {
        CounterHandle {
            target: self.inner.as_ref().map(|inner| (Arc::clone(inner), name)),
            cell: OnceLock::new(),
        }
    }

    /// Stores `v` in a named gauge.
    #[inline]
    pub fn gauge(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.set_gauge(name, v);
        }
    }

    /// Records `v` into a named histogram.
    #[inline]
    pub fn observe(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(name, v);
        }
    }

    /// Advances the simulation clock stamped onto subsequent events, and
    /// mirrors it to the `sim_time` gauge.
    #[inline]
    pub fn set_sim_time(&self, t: f64) {
        if let Some(inner) = &self.inner {
            inner.sim_time.store(t.to_bits(), Ordering::Relaxed);
            inner.registry.set_gauge("sim_time", t);
        }
    }

    /// The last simulation clock value set (NaN when unset or disabled).
    #[must_use]
    pub fn sim_time(&self) -> f64 {
        self.inner.as_ref().map_or(f64::NAN, |i| {
            f64::from_bits(i.sim_time.load(Ordering::Relaxed))
        })
    }

    /// Emits a point-in-time event if `level` passes the filter.
    ///
    /// The fields slice is cloned only when the event actually fires;
    /// guard expensive field *construction* with [`enabled_at`](Self::enabled_at).
    pub fn event(&self, level: Level, name: &'static str, fields: &[(&'static str, Value)]) {
        if let Some(inner) = &self.inner {
            if level != Level::Off && level <= inner.level {
                inner.emit(level, EventKind::Instant, name, fields.to_vec());
            }
        }
    }

    /// Opens a tracing span: an `Enter` event now, an `Exit` event with
    /// an `ns` duration field when the guard drops. Purely for the event
    /// stream; use [`phase`](Self::phase) for registry-backed profiling.
    pub fn span(&self, level: Level, name: &'static str) -> SpanGuard {
        match &self.inner {
            Some(inner) if level != Level::Off && level <= inner.level => {
                inner.emit(level, EventKind::Enter, name, Vec::new());
                SpanGuard {
                    state: Some((Arc::clone(inner), level, name, Instant::now())),
                }
            }
            _ => SpanGuard { state: None },
        }
    }

    /// Starts profiling one pipeline phase; the returned timer records
    /// on drop. When disabled this reads no clock at all.
    pub fn phase(&self, phase: Phase) -> PhaseTimer<'_> {
        match &self.inner {
            Some(inner) => {
                if Level::Trace <= inner.level {
                    inner.emit(Level::Trace, EventKind::Enter, phase.label(), Vec::new());
                }
                PhaseTimer {
                    state: Some((inner, phase, Instant::now())),
                }
            }
            None => PhaseTimer { state: None },
        }
    }

    /// Folds `tally`, a histogram of `phase` durations timed outside a
    /// [`PhaseTimer`], into the phase's `ns` histogram, and advances its
    /// `calls` counter by the tally's count. The registry ends up as if
    /// each tallied call had been a timer (no `Trace` events are
    /// emitted). An empty tally records nothing, so a phase that never
    /// ran leaves no registry entry.
    pub fn merge_phase(&self, phase: Phase, tally: &HistogramSnapshot) {
        if let Some(inner) = &self.inner {
            if tally.count > 0 {
                let cells = inner.phase_cells(phase);
                cells.ns.merge_snapshot(tally);
                cells.calls.add(tally.count);
            }
        }
    }

    /// Freezes the registry (empty when disabled).
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.inner
            .as_ref()
            .map_or_else(RegistrySnapshot::default, |i| i.registry.snapshot())
    }
}

/// A counter handle from [`Obs::counter`]: resolved against the
/// registry on its first update, then cached, so every later update is
/// one read of the cached cell plus the cell's own atomic add — no
/// lock, no map walk, no `Arc` refcount traffic. Resolving lazily
/// keeps the registry holding only counters that were recorded. The
/// `Default` handle, like one from a disabled `Obs`, records nothing.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle {
    target: Option<(Arc<ObsInner>, &'static str)>,
    cell: OnceLock<Counter>,
}

impl CounterHandle {
    /// Adds `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some((inner, name)) = &self.target {
            self.cell
                .get_or_init(|| inner.registry.counter(name))
                .add(v);
        }
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// Guard for [`Obs::span`]; emits the `Exit` event on drop.
#[derive(Debug)]
#[must_use = "dropping the guard ends the span"]
pub struct SpanGuard {
    state: Option<(Arc<ObsInner>, Level, &'static str, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, level, name, start)) = self.state.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            inner.emit(level, EventKind::Exit, name, vec![("ns", Value::U64(ns))]);
        }
    }
}

/// Guard for [`Obs::phase`]; records duration histogram + call counter
/// (and a `Trace`-level exit event) on drop. It borrows the handle, so
/// opening one costs no reference-count traffic.
#[derive(Debug)]
#[must_use = "dropping the timer records the phase duration"]
pub struct PhaseTimer<'a> {
    state: Option<(&'a ObsInner, Phase, Instant)>,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some((inner, phase, start)) = self.state.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let cells = inner.phase_cells(phase);
            cells.ns.record(ns);
            cells.calls.inc();
            if Level::Trace <= inner.level {
                inner.emit(
                    Level::Trace,
                    EventKind::Exit,
                    phase.label(),
                    vec![("ns", Value::U64(ns))],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        obs.inc("a");
        obs.gauge("g", 1.0);
        obs.observe("h", 5);
        obs.set_sim_time(9.0);
        obs.event(Level::Error, "boom", &[]);
        drop(obs.span(Level::Error, "s"));
        drop(obs.phase(Phase::Encode));
        assert!(!obs.is_enabled());
        assert!(obs.snapshot().is_empty());
        assert!(obs.sim_time().is_nan());
        assert_eq!(obs.level(), Level::Off);
        assert!(!obs.enabled_at(Level::Error));
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Obs::default().is_enabled());
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::enabled(Level::Info);
        let clone = obs.clone();
        std::thread::scope(|scope| {
            scope.spawn(|| clone.add("x", 2));
        });
        obs.inc("x");
        assert_eq!(obs.snapshot().counters["x"], 3);
    }

    #[test]
    fn level_filter_gates_events() {
        let sub = Arc::new(CollectingSubscriber::new(16));
        let obs = Obs::with_subscriber(Level::Info, Arc::clone(&sub) as Arc<dyn Subscriber>);
        obs.event(Level::Debug, "hidden", &[]);
        obs.event(Level::Info, "shown", &[("k", Value::U64(1))]);
        assert!(obs.enabled_at(Level::Info));
        assert!(!obs.enabled_at(Level::Debug));
        let events = sub.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "shown");
        assert_eq!(events[0].fields, vec![("k", Value::U64(1))]);
    }

    #[test]
    fn spans_emit_enter_and_exit() {
        let sub = Arc::new(CollectingSubscriber::new(16));
        let obs = Obs::with_subscriber(Level::Debug, Arc::clone(&sub) as Arc<dyn Subscriber>);
        obs.set_sim_time(2.5);
        drop(obs.span(Level::Debug, "work"));
        let events = sub.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Enter);
        assert_eq!(events[1].kind, EventKind::Exit);
        assert!(events[1].fields.iter().any(|(k, _)| *k == "ns"));
        assert_eq!(events[1].sim_time, 2.5);
        assert!(events[1].wall_ns >= events[0].wall_ns);
        // A filtered span emits nothing.
        drop(obs.span(Level::Trace, "silent"));
        assert_eq!(sub.events().len(), 2);
    }

    #[test]
    fn phase_timer_records_histogram_and_counter() {
        let obs = Obs::enabled(Level::Info);
        for _ in 0..3 {
            let _t = obs.phase(Phase::Decode);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counters["phase.decode.calls"], 3);
        assert_eq!(snap.histograms["phase.decode.ns"].count, 3);
    }

    #[test]
    fn merged_phase_tally_matches_timers() {
        let obs = Obs::enabled(Level::Info);
        obs.merge_phase(Phase::Decode, &HistogramSnapshot::default());
        assert!(obs.snapshot().is_empty(), "an empty tally records nothing");
        let mut tally = HistogramSnapshot::default();
        for ns in [10u64, 200, 3000] {
            tally.record(ns);
        }
        drop(obs.phase(Phase::Decode));
        obs.merge_phase(Phase::Decode, &tally);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["phase.decode.calls"], 4);
        let h = &snap.histograms["phase.decode.ns"];
        assert_eq!(h.count, 4);
        assert!(h.sum >= 3210);
        assert!(Obs::disabled().snapshot().is_empty());
    }

    #[test]
    fn counter_handles_resolve_on_first_use() {
        let obs = Obs::enabled(Level::Info);
        let handle = obs.counter("hits");
        let clone = handle.clone();
        assert!(obs.snapshot().is_empty(), "no entry before the first add");
        std::thread::scope(|scope| {
            scope.spawn(|| clone.add(2));
        });
        handle.inc();
        obs.inc("hits");
        assert_eq!(obs.snapshot().counters["hits"], 4);
        let off = Obs::disabled().counter("hits");
        off.inc();
        CounterHandle::default().inc();
    }

    #[test]
    fn sim_time_is_stamped_and_gauged() {
        let obs = Obs::enabled(Level::Info);
        obs.set_sim_time(1234.5);
        assert_eq!(obs.sim_time(), 1234.5);
        assert_eq!(obs.snapshot().gauges["sim_time"], 1234.5);
    }

    #[test]
    fn obs_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
        assert_send_sync::<Registry>();
    }
}
