//! Spans around the calls the benchmark makes into each crate, kept in an
//! `md_observe::Recorder` the benchmark owns and written with
//! `md_observe::chrome_trace_json` when the workload ends. The timed pass
//! hands in a disabled recorder, where [`call`] is an `Instant` around the
//! call and one atomic load. A span's category is the crate it goes into
//! (`bench` for the benchmark's own phases), its lane is named after the
//! workload, and its parent is the span that contains it in time: the one
//! client makes one call at a time, so containment is the call tree.

use md_observe::{Recorder, SpanGuard};
use std::time::Instant;

/// The one lane of the one client.
const LANE: u32 = 0;

/// The recorder of one pass; its lane carries the workload's name.
pub fn recorder(enabled: bool, workload: &str) -> Recorder {
    if !enabled {
        return Recorder::disabled();
    }
    let rec = Recorder::default();
    rec.set_lane_name(LANE, workload);
    rec
}

/// Opens a phase of the benchmark itself (set-up, window, probes, checks);
/// it ends when the guard drops.
pub fn phase<'a>(rec: &'a Recorder, name: &'static str) -> SpanGuard<'a> {
    rec.span(LANE, "bench", name)
}

/// Runs one call into a layer and returns its result with the seconds it
/// took.
pub fn call<T>(
    rec: &Recorder,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let seconds = start.elapsed().as_secs_f64();
    rec.record_span(LANE, layer, name, start, seconds);
    (out, seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_observe::Json;

    #[test]
    fn spans_nest_by_containment_in_a_loadable_chrome_trace() {
        let rec = recorder(true, "lj_melt");
        {
            let _workload = phase(&rec, "workload");
            let _window = phase(&rec, "window");
            let (v, secs) = call(&rec, "md-core", "step", || 7);
            assert_eq!(v, 7);
            assert!(secs >= 0.0);
        }
        assert_eq!(rec.event_count(), 3);
        let json = Json::parse(&md_observe::chrome_trace_json(&rec)).expect("valid JSON");
        let events = json.get("traceEvents").and_then(Json::as_array).unwrap();
        let span = |name: &str| {
            let e = events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("no span {name}"));
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            (ts, ts + e.get("dur").and_then(Json::as_f64).unwrap())
        };
        // The exporter rounds to a thousandth of a microsecond.
        let contains = |outer: (f64, f64), inner: (f64, f64)| {
            outer.0 <= inner.0 + 0.01 && inner.1 <= outer.1 + 0.01
        };
        assert!(contains(span("workload"), span("window")));
        assert!(contains(span("window"), span("step")));
        let lane = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .and_then(|e| e.get("args")?.get("name")?.as_str().map(str::to_string));
        assert_eq!(lane.as_deref(), Some("lj_melt"));
    }

    #[test]
    fn a_disabled_recorder_times_but_keeps_nothing() {
        let rec = recorder(false, "lj_melt");
        let _workload = phase(&rec, "workload");
        let ((), secs) = call(&rec, "md-core", "step", || ());
        assert!(secs >= 0.0);
        assert_eq!(rec.event_count(), 0);
    }
}
