//! Harness-side spans: one record per call into a layer of the program,
//! kept in memory and written out when the slice ends. Spans inside the
//! program itself are a later change; here the benchmark brackets the
//! public calls it makes (`choosing-metrics` section 4).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use obs::json::Json;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one job share this identifier; 0 is slice-level work.
    pub job: u64,
}

/// A span store shared by the threads of one slice. Disabled (the
/// untraced slices) it records nothing and `begin` costs one branch.
#[derive(Clone)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    store: Arc<Mutex<Vec<Span>>>,
}

/// Handle returned by [`Spans::begin`]; pass it to [`Spans::end`] and as
/// the `parent` of child spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            store: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.store.lock().expect("a span writer panicked")
    }

    pub fn begin(&self, name: &'static str, parent: SpanId, job: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut store = self.lock();
        store.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            job,
        });
        SpanId(Some(store.len() - 1))
    }

    pub fn end(&self, id: SpanId) {
        if let Some(ix) = id.0 {
            let end_ns = self.now_ns();
            self.lock()[ix].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, job);
        let out = f();
        self.end(id);
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// A span's self time: its duration minus the part its direct children
/// cover (children of one parent never overlap here: each thread opens
/// them one after another).
pub fn self_ns(spans: &[Span], ix: usize) -> u64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(ix))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    (spans[ix].end_ns - spans[ix].start_ns).saturating_sub(covered)
}

/// The trace file: `{"workload": …, "spans": [{name, start_ns, end_ns,
/// self_ns, parent, job}, …]}`; `parent` is an index into `spans` or null.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let items = spans
        .iter()
        .enumerate()
        .map(|(ix, s)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("self_ns".into(), Json::Num(self_ns(spans, ix) as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("job".into(), Json::Num(s.job as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("spans".into(), Json::Arr(items)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_store_records_nothing() {
        let spans = Spans::new(false);
        let id = spans.begin("job", SpanId::NONE, 1);
        assert_eq!(id, SpanId::NONE);
        spans.end(id);
        assert_eq!(spans.scope("x", id, 1, || 7), 7);
        assert!(spans.snapshot().is_empty());
    }

    #[test]
    fn children_point_at_their_parent_and_reduce_its_self_time() {
        let spans = Spans::new(true);
        let job = spans.begin("job", SpanId::NONE, 9);
        spans.scope("engine.try_run", job, 9, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.end(job);
        let all = spans.snapshot();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!((all[0].job, all[1].job), (9, 9));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        let child = all[1].end_ns - all[1].start_ns;
        assert!(child >= 2_000_000);
        assert_eq!(self_ns(&all, 0), all[0].end_ns - all[0].start_ns - child);
        assert_eq!(durations_ms(&all, "engine.try_run").len(), 1);
    }

    #[test]
    fn trace_json_round_trips_through_the_parser() {
        let spans = Spans::new(true);
        let root = spans.begin("slice", SpanId::NONE, 0);
        spans.scope("circuit.generate", root, 0, || ());
        spans.end(root);
        let text = crate::json::render(&to_json("ks128-seq", &spans.snapshot()));
        let parsed = obs::json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("workload").and_then(Json::as_str),
            Some("ks128-seq")
        );
        let items = parsed
            .get("spans")
            .and_then(Json::as_arr)
            .expect("spans array");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("parent"), Some(&Json::Null));
        assert_eq!(items[1].get("parent").and_then(Json::as_f64), Some(0.0));
    }
}
