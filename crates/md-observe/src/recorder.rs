//! The [`Recorder`]: a shared, cheaply-cloneable sink for typed spans,
//! counters, histograms, and per-step samples.
//!
//! Design constraints (the paper is a *characterization* study, so the
//! instrument must not perturb the measurement):
//!
//! - **Disabled fast path.** `Recorder::disabled()` costs one relaxed
//!   atomic load per call site — no allocation, no lock, no `Instant::now`.
//!   The engine can therefore keep its hooks wired permanently.
//! - **Two clocks.** Real-engine spans use wall time against the recorder's
//!   epoch; the virtual cluster records spans at explicit *simulated*
//!   timestamps. Both land in the same event stream, one lane (`tid`) per
//!   virtual rank, so `chrome://tracing` shows Fig. 4/5-style imbalance as
//!   a timeline.
//! - **Bounded memory.** Events and step samples are capped; evictions are
//!   counted and reported rather than silently dropped.

use crate::hist::{HistSummary, LogHistogram};
use crate::series::{StepSample, StepSeries};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Chrome `trace_event` phase of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Complete span (`ph: "X"`, has a duration).
    Span,
    /// Instant event (`ph: "i"`).
    Instant,
    /// Counter sample (`ph: "C"`).
    Counter,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Lane (virtual rank / thread); Chrome `tid`.
    pub lane: u32,
    /// Category (e.g. `"task"`, `"mpi"`, `"kspace"`); Chrome `cat`.
    pub cat: &'static str,
    /// Event name (e.g. `"Pair"`, `"MPI_Wait"`, `"fft_forward"`).
    pub name: &'static str,
    /// Phase.
    pub phase: Phase,
    /// Start timestamp, microseconds on the trace clock.
    pub ts_us: f64,
    /// Duration, microseconds (spans only).
    pub dur_us: f64,
    /// Counter value (counters only).
    pub value: f64,
}

/// An owned, point-in-time copy of everything a [`Recorder`] has retained —
/// the hand-off surface between the recording layer and analysis code
/// (md-insight) that must not hold the recorder's lock while it works.
#[derive(Debug, Clone, Default)]
pub struct ObserveSnapshot {
    /// Retained trace events, in recording order.
    pub events: Vec<TraceEvent>,
    /// Retained per-step samples, oldest → newest.
    pub steps: Vec<StepSample>,
    /// Step samples evicted from the ring to stay within capacity.
    pub evicted_steps: u64,
    /// Step samples ever recorded (retained + evicted).
    pub total_steps: u64,
    /// Trace events dropped at the event cap.
    pub dropped_events: u64,
    /// Counter and gauge values by name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Histogram summaries by name.
    pub hists: BTreeMap<&'static str, HistSummary>,
    /// Lane names (`tid` → label).
    pub lanes: BTreeMap<u32, String>,
}

/// Configuration for a [`Recorder`].
#[derive(Debug, Clone)]
pub struct ObserveConfig {
    /// Whether recording starts enabled.
    pub enabled: bool,
    /// Maximum retained step samples (ring buffer).
    pub step_capacity: usize,
    /// Maximum retained trace events.
    pub max_events: usize,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            enabled: true,
            step_capacity: 1 << 16,
            max_events: 1 << 20,
        }
    }
}

impl ObserveConfig {
    /// Reads configuration from the environment:
    /// `MD_OBSERVE` (`1`/`true` enables), `MD_OBSERVE_STEPS`,
    /// `MD_OBSERVE_EVENTS` override the capacities.
    pub fn from_env() -> Self {
        let enabled = matches!(
            std::env::var("MD_OBSERVE").as_deref(),
            Ok("1") | Ok("true") | Ok("on")
        );
        let defaults = ObserveConfig::default();
        let step_capacity = std::env::var("MD_OBSERVE_STEPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.step_capacity);
        let max_events = std::env::var("MD_OBSERVE_EVENTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.max_events);
        ObserveConfig {
            enabled,
            step_capacity,
            max_events,
        }
    }
}

#[derive(Debug)]
pub(crate) struct RecorderState {
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) dropped_events: u64,
    pub(crate) steps: StepSeries,
    pub(crate) hists: BTreeMap<&'static str, LogHistogram>,
    pub(crate) counters: BTreeMap<&'static str, f64>,
    pub(crate) lanes: BTreeMap<u32, String>,
    max_events: usize,
}

struct Inner {
    enabled: AtomicBool,
    epoch: Instant,
    state: Mutex<RecorderState>,
}

/// Shared observability sink; `Clone` is an `Arc` bump, so one recorder can
/// be threaded through engine, k-space solver, and virtual cluster.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(ObserveConfig::default())
    }
}

impl Recorder {
    /// A recorder with explicit configuration.
    pub fn new(cfg: ObserveConfig) -> Self {
        Recorder {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(cfg.enabled),
                epoch: Instant::now(),
                state: Mutex::new(RecorderState {
                    events: Vec::new(),
                    dropped_events: 0,
                    steps: StepSeries::new(cfg.step_capacity),
                    hists: BTreeMap::new(),
                    counters: BTreeMap::new(),
                    lanes: BTreeMap::new(),
                    max_events: cfg.max_events,
                }),
            }),
        }
    }

    /// A recorder that starts disabled (the no-overhead default for
    /// engines that are not being profiled).
    pub fn disabled() -> Self {
        Recorder::new(ObserveConfig {
            enabled: false,
            ..ObserveConfig::default()
        })
    }

    /// A recorder configured from `MD_OBSERVE*` environment variables.
    pub fn from_env() -> Self {
        Recorder::new(ObserveConfig::from_env())
    }

    /// Whether recording is currently on (one relaxed atomic load).
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds since the recorder's epoch (wall clock).
    #[inline]
    pub fn now_us(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Names a lane (one lane per virtual rank; lane 0 is the real engine).
    pub fn set_lane_name(&self, lane: u32, name: impl Into<String>) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.inner.state.lock().expect("recorder state");
        st.lanes.insert(lane, name.into());
    }

    fn push_event(&self, ev: TraceEvent) {
        let mut st = self.inner.state.lock().expect("recorder state");
        if st.events.len() >= st.max_events {
            st.dropped_events += 1;
            return;
        }
        st.events.push(ev);
    }

    /// Starts a wall-clock span; recorded on guard drop. When disabled this
    /// is a single atomic load and the guard is inert.
    #[inline]
    pub fn span(&self, lane: u32, cat: &'static str, name: &'static str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard {
                rec: None,
                lane,
                cat,
                name,
                start: None,
            };
        }
        SpanGuard {
            rec: Some(self),
            lane,
            cat,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Records a completed wall-clock span that started at `start` and took
    /// `seconds` (for call sites that already timed themselves).
    #[inline]
    pub fn record_span(
        &self,
        lane: u32,
        cat: &'static str,
        name: &'static str,
        start: Instant,
        seconds: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let ts_us = start.duration_since(self.inner.epoch).as_secs_f64() * 1e6;
        self.push_event(TraceEvent {
            lane,
            cat,
            name,
            phase: Phase::Span,
            ts_us,
            dur_us: seconds * 1e6,
            value: 0.0,
        });
    }

    /// Records a span at an explicit timestamp on a *simulated* clock
    /// (`ts_us`/`dur_us` in microseconds of virtual time).
    #[inline]
    pub fn record_span_at(
        &self,
        lane: u32,
        cat: &'static str,
        name: &'static str,
        ts_us: f64,
        dur_us: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push_event(TraceEvent {
            lane,
            cat,
            name,
            phase: Phase::Span,
            ts_us,
            dur_us,
            value: 0.0,
        });
    }

    /// Records an instant event at the current wall clock.
    #[inline]
    pub fn instant(&self, lane: u32, cat: &'static str, name: &'static str) {
        if !self.is_enabled() {
            return;
        }
        let ts_us = self.now_us();
        self.push_event(TraceEvent {
            lane,
            cat,
            name,
            phase: Phase::Instant,
            ts_us,
            dur_us: 0.0,
            value: 0.0,
        });
    }

    /// Adds `delta` to the named cumulative counter and emits a counter
    /// event with the new total at the current wall clock.
    #[inline]
    pub fn count(&self, lane: u32, name: &'static str, delta: f64) {
        if !self.is_enabled() {
            return;
        }
        let ts_us = self.now_us();
        let total = {
            let mut st = self.inner.state.lock().expect("recorder state");
            let slot = st.counters.entry(name).or_insert(0.0);
            *slot += delta;
            *slot
        };
        self.push_event(TraceEvent {
            lane,
            cat: "counter",
            name,
            phase: Phase::Counter,
            ts_us,
            dur_us: 0.0,
            value: total,
        });
    }

    /// Sets the named gauge to an absolute value (counter event, no sum).
    #[inline]
    pub fn gauge(&self, lane: u32, name: &'static str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let ts_us = self.now_us();
        {
            let mut st = self.inner.state.lock().expect("recorder state");
            st.counters.insert(name, value);
        }
        self.push_event(TraceEvent {
            lane,
            cat: "counter",
            name,
            phase: Phase::Counter,
            ts_us,
            dur_us: 0.0,
            value,
        });
    }

    /// Records `value` into the named log-bucketed histogram.
    #[inline]
    pub fn observe(&self, name: &'static str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.inner.state.lock().expect("recorder state");
        st.hists.entry(name).or_default().observe(value);
    }

    /// Appends one per-timestep sample to the ring-buffered series.
    #[inline]
    pub fn push_step(&self, sample: StepSample) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.inner.state.lock().expect("recorder state");
        st.steps.push(sample);
    }

    /// Current value of a cumulative counter or gauge.
    pub fn counter_value(&self, name: &str) -> Option<f64> {
        let st = self.inner.state.lock().expect("recorder state");
        st.counters.get(name).copied()
    }

    /// Summary of a histogram, if it has been observed.
    pub fn hist_summary(&self, name: &str) -> Option<HistSummary> {
        let st = self.inner.state.lock().expect("recorder state");
        st.hists.get(name).map(|h| h.summary())
    }

    /// A snapshot of the retained trace events (cloned; intended for tests
    /// and small traces — exporters use the internal state directly).
    pub fn events(&self) -> Vec<TraceEvent> {
        let st = self.inner.state.lock().expect("recorder state");
        st.events.clone()
    }

    /// The most recent step sample, if any.
    pub fn last_step(&self) -> Option<StepSample> {
        let st = self.inner.state.lock().expect("recorder state");
        st.steps.last().copied()
    }

    /// Number of retained trace events.
    pub fn event_count(&self) -> usize {
        let st = self.inner.state.lock().expect("recorder state");
        st.events.len()
    }

    /// Number of retained step samples.
    pub fn step_count(&self) -> usize {
        let st = self.inner.state.lock().expect("recorder state");
        st.steps.len()
    }

    /// An owned copy of everything retained so far, for analysis layers
    /// that must not hold the recorder's lock while they work (the lock is
    /// taken once, for the duration of the copy).
    pub fn snapshot(&self) -> ObserveSnapshot {
        let st = self.inner.state.lock().expect("recorder state");
        ObserveSnapshot {
            events: st.events.clone(),
            steps: st.steps.iter().copied().collect(),
            evicted_steps: st.steps.evicted(),
            total_steps: st.steps.total_pushed(),
            dropped_events: st.dropped_events,
            counters: st.counters.clone(),
            hists: st.hists.iter().map(|(&k, h)| (k, h.summary())).collect(),
            lanes: st.lanes.clone(),
        }
    }

    /// Runs `f` with a read view of the internal state (used by exporters).
    pub(crate) fn with_state<T>(&self, f: impl FnOnce(&RecorderState) -> T) -> T {
        let st = self.inner.state.lock().expect("recorder state");
        f(&st)
    }
}

/// RAII guard for [`Recorder::span`]; records the span on drop.
pub struct SpanGuard<'a> {
    rec: Option<&'a Recorder>,
    lane: u32,
    cat: &'static str,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(rec), Some(start)) = (self.rec, self.start) {
            let dur = start.elapsed().as_secs_f64();
            rec.record_span(self.lane, self.cat, self.name, start, dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        {
            let _g = r.span(0, "task", "Pair");
        }
        r.count(0, "neighbor_rebuilds", 1.0);
        r.observe("step_latency_us", 12.0);
        r.push_step(StepSample::default());
        assert_eq!(r.event_count(), 0);
        assert_eq!(r.step_count(), 0);
        assert!(r.hist_summary("step_latency_us").is_none());
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let r = Recorder::default();
        r.count(0, "rebuilds", 1.0);
        r.count(0, "rebuilds", 2.0);
        r.gauge(0, "drift", 0.25);
        r.gauge(0, "drift", 0.5);
        assert_eq!(r.counter_value("rebuilds"), Some(3.0));
        assert_eq!(r.counter_value("drift"), Some(0.5));
        assert_eq!(r.event_count(), 4);
    }

    #[test]
    fn event_cap_drops_and_counts() {
        let r = Recorder::new(ObserveConfig {
            max_events: 2,
            ..ObserveConfig::default()
        });
        for _ in 0..5 {
            r.instant(0, "task", "tick");
        }
        assert_eq!(r.event_count(), 2);
        r.with_state(|st| assert_eq!(st.dropped_events, 3));
    }

    #[test]
    fn explicit_timestamp_spans_take_virtual_time() {
        let r = Recorder::default();
        r.record_span_at(7, "mpi", "MPI_Wait", 1000.0, 250.0);
        r.with_state(|st| {
            assert_eq!(st.events[0].ts_us, 1000.0);
            assert_eq!(st.events[0].dur_us, 250.0);
            assert_eq!(st.events[0].lane, 7);
        });
    }

    #[test]
    fn snapshot_copies_all_retained_state() {
        let r = Recorder::default();
        r.set_lane_name(0, "engine");
        r.record_span_at(0, "task", "Pair", 0.0, 10.0);
        r.count(0, "neighbor_rebuilds", 2.0);
        r.observe("step_latency_us", 12.0);
        r.push_step(StepSample {
            step: 7,
            ..StepSample::default()
        });
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 2, "span + counter event");
        assert_eq!(snap.steps.len(), 1);
        assert_eq!(snap.steps[0].step, 7);
        assert_eq!(snap.total_steps, 1);
        assert_eq!(snap.evicted_steps, 0);
        assert_eq!(snap.counters.get("neighbor_rebuilds"), Some(&2.0));
        assert_eq!(snap.hists["step_latency_us"].count, 1);
        assert_eq!(snap.lanes.get(&0).map(String::as_str), Some("engine"));
        // The snapshot is a copy: further recording does not mutate it.
        r.count(0, "neighbor_rebuilds", 1.0);
        assert_eq!(snap.counters.get("neighbor_rebuilds"), Some(&2.0));
    }

    #[test]
    fn clone_shares_the_sink() {
        let r = Recorder::default();
        let r2 = r.clone();
        r2.instant(0, "task", "from-clone");
        assert_eq!(r.event_count(), 1);
    }
}
