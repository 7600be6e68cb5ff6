//! Shared per-thread observability probe for engine hot loops.
//!
//! Every engine wraps its node-run body in the same way: time a
//! `NodeRun` span, record it as one duration-carrying complete record,
//! and feed the two standard histograms (`sim_node_run_ns`,
//! `sim_event_process_ns`). [`RunProbe`] is that pattern in one place.
//! With a disabled recorder every method is a handful of `Option`
//! branches — no clock reads, no allocation. A span is pushed only when
//! it closes, so the overwrite-oldest ring can never orphan a begin
//! from its end and every exported `NodeRun` carries its duration.
//!
//! Hot-path records are **sampled 1-in-64**: a node run can be tens of
//! nanoseconds, so unconditional clock reads and ring pushes per run
//! (and per event delivery) would multiply the runtime rather than
//! observe it. Sampling keeps the latency histograms and the trace
//! representative at a bounded cost. Rare-but-diagnostic records
//! (trylock retries, backoffs, mailbox stalls, migrations, rebalance
//! barriers) bypass sampling — engines emit those through
//! [`RunProbe::tracer`] directly so none are lost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use obs::{Counter, Gauge, Histogram, Recorder, SpanKind, Tracer};

/// Hot records keep 1 in `HOT_SAMPLE_MASK + 1`; must be `2^k - 1`.
pub(crate) const HOT_SAMPLE_MASK: u64 = 63;

/// One worker thread's tracing + timing handles, fetched once at setup.
pub(crate) struct RunProbe {
    tracer: Tracer,
    node_run_ns: Histogram,
    event_process_ns: Histogram,
    /// Events queued on this shard thread's ports (`sim_arena_live`).
    queued: Gauge,
    /// Most events ever queued there at once (`sim_arena_high_water`).
    queued_high: Gauge,
    /// Ready-batch size per node wakeup (`sim_drain_batch_events`).
    batch_events: Histogram,
    /// Node-run sampling clock (first run is always sampled).
    runs: AtomicU64,
    /// Per-event instant sampling clock, independent of `runs` so
    /// deliver instants don't phase-lock to span sampling.
    hot_ticks: AtomicU64,
    /// Recorder + base label set (engine, and rank for distributed
    /// ranks), kept so engines can mint extra metrics that carry the
    /// same identity (e.g. per-peer NULL-wait counters).
    recorder: Recorder,
    base: Vec<(String, String)>,
}

impl RunProbe {
    /// Register `thread` with `recorder` and fetch the standard
    /// histograms, labelled by engine — and by `rank` when given, the
    /// uniform identity scheme for distributed runs, where one
    /// Prometheus endpoint aggregates several processes. Inert when the
    /// recorder is off.
    pub(crate) fn with_rank(
        recorder: &Recorder,
        engine: &str,
        thread: &str,
        rank: Option<u64>,
    ) -> RunProbe {
        let rank_str = rank.map(|r| r.to_string());
        let mut labels: Vec<(&str, &str)> = vec![("engine", engine)];
        let mut thread_labels: Vec<(&str, &str)> = vec![("thread", thread)];
        if let Some(r) = rank_str.as_deref() {
            labels.push(("rank", r));
            thread_labels.push(("rank", r));
        }
        let base = labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        RunProbe {
            tracer: recorder.tracer(thread),
            node_run_ns: recorder.histogram("sim_node_run_ns", &labels),
            event_process_ns: recorder.histogram("sim_event_process_ns", &labels),
            queued: recorder.gauge(obs::ARENA_LIVE, &thread_labels),
            queued_high: recorder.gauge(obs::ARENA_HIGH_WATER, &thread_labels),
            batch_events: recorder.histogram(obs::DRAIN_BATCH_EVENTS, &labels),
            runs: AtomicU64::new(0),
            hot_ticks: AtomicU64::new(0),
            recorder: recorder.clone(),
            base,
        }
    }

    /// Mint a counter carrying this probe's base identity labels
    /// (engine, and rank when distributed) plus `extra`.
    pub(crate) fn counter(&self, name: &str, extra: &[(&str, &str)]) -> Counter {
        let mut labels: Vec<(&str, &str)> =
            self.base.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        labels.extend_from_slice(extra);
        self.recorder.counter(name, &labels)
    }

    /// The fully inert probe.
    #[allow(dead_code)]
    pub(crate) const fn off() -> RunProbe {
        RunProbe {
            tracer: Tracer::off(),
            node_run_ns: Histogram::off(),
            event_process_ns: Histogram::off(),
            queued: Gauge::off(),
            queued_high: Gauge::off(),
            batch_events: Histogram::off(),
            runs: AtomicU64::new(0),
            hot_ticks: AtomicU64::new(0),
            recorder: Recorder::off(),
            base: Vec::new(),
        }
    }

    /// A sampled instant for per-event hot paths (event deliveries,
    /// NULL sends/receives): 1 in 64 reaches the ring. Disabled path is
    /// one branch — no atomics, no clock.
    #[inline]
    pub(crate) fn hot_instant(&self, kind: SpanKind, a: u64, b: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        if sample(&self.hot_ticks) {
            self.tracer.instant(kind, a, b);
        }
    }

    /// Publish the thread's queued events (now + high water). One
    /// relaxed store each when enabled, one branch when not.
    #[inline]
    pub(crate) fn queued(&self, now: usize, high_water: usize) {
        self.queued.set(now as u64);
        self.queued_high.set_max(high_water as u64);
    }

    /// Record the size of one drained ready-batch (batched delivery
    /// telemetry: how many events each node wakeup amortizes over).
    #[inline]
    pub(crate) fn batch(&self, events: u64) {
        if events > 0 {
            self.batch_events.record(events);
        }
    }

    /// This thread's tracer, for engine-specific instants.
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether any record goes anywhere.
    #[inline]
    #[allow(dead_code)]
    pub(crate) fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Open a `NodeRun` span for `node` on sampled runs (1 in 64; the
    /// first run is always sampled). Returns the start time iff this
    /// run is recorded, so the disabled path never reads the clock and
    /// unsampled runs cost a relaxed load and store. Nothing reaches the
    /// ring until [`RunProbe::end`] emits the complete record.
    #[inline]
    pub(crate) fn begin(&self, _node: usize) -> Option<Instant> {
        if !self.tracer.is_enabled() || !sample(&self.runs) {
            return None;
        }
        Some(Instant::now())
    }

    /// Close the span opened by [`RunProbe::begin`]: one complete
    /// `NodeRun` record carrying the span's duration, plus the run's
    /// duration histogram (and per-event share, when `events > 0`).
    #[inline]
    pub(crate) fn end(&self, start: Option<Instant>, node: usize, events: u64) {
        let Some(start) = start else { return };
        let ns = start.elapsed().as_nanos() as u64;
        self.tracer.complete(SpanKind::NodeRun, node as u64, events, start);
        self.node_run_ns.record(ns);
        if let Some(per_event) = ns.checked_div(events) {
            self.event_process_ns.record(per_event);
        }
    }
}

/// Advance a sampling clock and say whether this tick is kept (1 in
/// `HOT_SAMPLE_MASK + 1`). A relaxed load and store, not a `fetch_add`:
/// the hot path pays no atomic read-modify-write. A shard thread owns
/// its probe, so its ticks are exact; `hj` tasks share one probe across
/// workers, where a tick lost to a racing store only shifts which
/// record is sampled.
#[inline]
fn sample(clock: &AtomicU64) -> bool {
    let tick = clock.load(Ordering::Relaxed);
    clock.store(tick.wrapping_add(1), Ordering::Relaxed);
    tick & HOT_SAMPLE_MASK == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::ObsConfig;

    #[test]
    fn off_probe_never_reads_the_clock() {
        let probe = RunProbe::off();
        assert!(!probe.is_enabled());
        let start = probe.begin(3);
        assert!(start.is_none());
        probe.end(start, 3, 10); // no-op
    }

    #[test]
    fn hot_records_keep_one_in_sixty_four() {
        let rec = Recorder::new(&ObsConfig::enabled());
        let probe = RunProbe::with_rank(&rec, "test[s]", "w0", None);
        for _ in 0..128 {
            probe.hot_instant(SpanKind::EventDeliver, 1, 2);
        }
        let dump = &rec.recent_traces(usize::MAX)[0];
        assert_eq!(dump.records.len(), 2, "2 of 128 instants sampled");
        let sampled = (0..128).filter(|_| probe.begin(1).is_some()).count();
        assert_eq!(sampled, 2, "2 of 128 spans sampled");
    }

    #[test]
    fn live_probe_records_complete_span_and_histograms() {
        let rec = Recorder::new(&ObsConfig::enabled());
        let probe = RunProbe::with_rank(&rec, "test[x]", "w0", None);
        let start = probe.begin(5);
        assert!(start.is_some());
        std::thread::sleep(std::time::Duration::from_millis(1));
        probe.end(start, 5, 2);
        let dump = &rec.recent_traces(8)[0];
        // One record per span: the begin never reaches the ring, so a
        // wrapped ring cannot orphan a span from its duration.
        assert_eq!(dump.records.len(), 1);
        let span = &dump.records[0];
        assert_eq!(span.span_kind(), Some(SpanKind::NodeRun));
        assert_eq!(obs::Phase::from_u8(span.phase), obs::Phase::Complete);
        assert_eq!(span.b, 2);
        assert!(span.dur_ns >= 1_000_000, "span duration recorded");
        let hists = rec.histogram_values();
        assert_eq!(hists.len(), 3);
        let counted: Vec<_> = hists.iter().filter(|(_, _, h)| h.count == 1).collect();
        assert_eq!(counted.len(), 2, "node-run + per-event histograms recorded");
    }

    #[test]
    fn ranked_probe_labels_metrics_with_rank() {
        let rec = Recorder::new(&ObsConfig::enabled());
        let probe = RunProbe::with_rank(&rec, "dist[p=1/2]", "shard-3", Some(1));
        probe.end(probe.begin(0), 0, 1);
        probe.queued(1, 1);
        probe.counter("sim_null_wait_ns_total", &[("peer", "2")]).add(7);
        let hists = rec.histogram_values();
        let node_run = hists
            .iter()
            .find(|(n, _, _)| n == "sim_node_run_ns")
            .expect("node-run histogram registered");
        assert!(node_run.1.contains(r#"rank="1""#), "labels: {}", node_run.1);
        let gauges = rec.gauge_values();
        let arena = gauges
            .iter()
            .find(|(n, _, _)| n == obs::ARENA_LIVE)
            .expect("arena gauge registered");
        assert!(arena.1.contains(r#"rank="1""#), "labels: {}", arena.1);
        let counters = rec.counter_values();
        let wait = counters
            .iter()
            .find(|(n, _, _)| n == "sim_null_wait_ns_total")
            .expect("minted counter registered");
        assert!(
            wait.1.contains(r#"peer="2""#) && wait.1.contains(r#"engine="dist[p=1/2]""#),
            "labels: {}",
            wait.1
        );
        assert_eq!(wait.2, 7);
    }

    #[test]
    fn arena_and_batch_metrics_flow_through() {
        let rec = Recorder::new(&ObsConfig::enabled());
        let probe = RunProbe::with_rank(&rec, "test[a]", "w0", None);
        probe.queued(5, 9);
        probe.queued(2, 7); // high water is monotone, live tracks current
        probe.batch(4);
        probe.batch(0); // empty wakeups are not recorded
        let gauges = rec.gauge_values();
        let get = |name: &str| {
            gauges
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
                .unwrap_or_else(|| panic!("{name} not registered"))
        };
        assert_eq!(get(obs::ARENA_LIVE), 2);
        assert_eq!(get(obs::ARENA_HIGH_WATER), 9);
        let hists = rec.histogram_values();
        let batch = hists
            .iter()
            .find(|(n, _, _)| n == obs::DRAIN_BATCH_EVENTS)
            .expect("batch histogram registered");
        assert_eq!(batch.2.count, 1);
    }
}
