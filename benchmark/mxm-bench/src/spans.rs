//! The benchmark's own spans: recorded around the calls it makes —
//! request/response round trips in `mxm-bench`, direct layer calls in
//! `mxm-bench-layers` — kept in memory, written as chrome-trace JSON at
//! exit. Nothing here reaches into the program under test.

use crate::json::Json;
use std::time::Instant;

/// One closed span. `parent` is the id of the span that caused it (`0`
/// for a root); every span of one workload cycle shares `cycle`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub cycle: u32,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

/// An in-memory span recorder for one thread of the benchmark. Ids are
/// `lane`-prefixed so recorders of parallel connections merge without
/// collisions; `lane` doubles as the chrome-trace thread id.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    lane: u32,
    next: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// `epoch` is shared by all lanes of a run so their timestamps align.
    pub fn new(enabled: bool, epoch: Instant, lane: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Reserve an id for a span that will be recorded after its
    /// children (a cycle, a request).
    pub fn reserve(&mut self) -> u32 {
        self.next += 1;
        (self.lane << 24) | self.next
    }

    /// Record a finished span under a reserved id. A no-op when tracing
    /// is off — the untraced run pays one branch per call.
    pub fn record(
        &mut self,
        id: u32,
        parent: u32,
        cycle: u32,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            cycle,
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Run `f` inside a span and return its result with the elapsed
    /// seconds.
    pub fn time<T>(
        &mut self,
        parent: u32,
        cycle: u32,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.reserve();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(id, parent, cycle, name, start, end);
        (out, end.duration_since(start).as_secs_f64())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete event
/// per span; id, parent and cycle travel in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::str(&s.name)),
                ("ph", Json::str("X")),
                ("ts", s.start_us.into()),
                ("dur", (s.end_us - s.start_us).into()),
                ("pid", 1u64.into()),
                ("tid", u64::from(s.id >> 24).into()),
                (
                    "args",
                    Json::obj(vec![
                        ("id", u64::from(s.id).into()),
                        ("parent", u64::from(s.parent).into()),
                        ("cycle", u64::from(s.cycle).into()),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![("traceEvents", Json::Arr(events))]).to_line()
}

/// Self time per span name: each span's duration minus what its direct
/// children cover, summed by name (µs).
pub fn self_times(spans: &[Span]) -> Vec<(String, f64)> {
    let mut child_us = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_us.entry(s.parent).or_insert(0.0) += s.end_us - s.start_us;
    }
    let mut by_name: Vec<(String, f64)> = Vec::new();
    for s in spans {
        let own = (s.end_us - s.start_us) - child_us.get(&s.id).copied().unwrap_or(0.0);
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => by_name.push((s.name.clone(), own)),
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::time::Duration;

    #[test]
    fn spans_carry_parent_and_cycle_into_the_trace() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch, 2);
        let cycle = tr.reserve();
        let ((), _) = tr.time(cycle, 7, "mxm", || ());
        tr.record(
            cycle,
            0,
            7,
            "cycle",
            epoch,
            epoch + Duration::from_micros(50),
        );
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        let doc = json::parse(&chrome_trace(&spans)).unwrap();
        let ev = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(ev[0].get("tid").and_then(Json::as_u64), Some(2));
        let args = ev[0].get("args").unwrap();
        assert_eq!(args.get("cycle").and_then(Json::as_u64), Some(7));
        assert_eq!(
            args.get("parent").and_then(Json::as_u64),
            Some(u64::from(cycle))
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false, Instant::now(), 0);
        let (v, secs) = tr.time(0, 0, "x", || 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(tr.into_spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, name: &str, start_us, end_us| Span {
            id,
            parent,
            cycle: 1,
            name: name.into(),
            start_us,
            end_us,
        };
        let spans = [
            span(1, 0, "op", 0.0, 100.0),
            span(2, 1, "kernel", 10.0, 70.0),
        ];
        assert_eq!(
            self_times(&spans),
            vec![("op".to_string(), 40.0), ("kernel".to_string(), 60.0)]
        );
    }
}
