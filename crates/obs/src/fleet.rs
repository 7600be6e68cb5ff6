//! Fleet-wide observability: merging per-rank telemetry into one view.
//!
//! A distributed run has one recorder per process, each with its own
//! monotonic epoch, its own trace rings, and its own metrics registry.
//! This module is the coordinator side of DESIGN.md §16: workers
//! serialize a [`RankReport`] (metrics snapshot + sampled trace-ring
//! flush) into an opaque blob the transport ships as a `Telemetry`
//! frame, and the coordinator's [`FleetCollector`] absorbs those
//! reports plus NTP-style ping/pong stamps per link to produce
//!
//! * one **offset-corrected Perfetto timeline** — rank → process
//!   track, shard/net thread → thread track — where cross-rank
//!   `WireSpan` begin/end pairs line up after each rank's timestamps
//!   are shifted by the estimated clock offset;
//! * one **rank-labelled Prometheus exposition**, every series from
//!   every rank with a `rank="N"` label spliced in;
//! * a **straggler report** rolling `sim_null_wait_ns_total{peer=...}`
//!   up into "who stalled whom".
//!
//! The blob codec lives here, not in `sim-net`: the wire carries it
//! opaquely, and `sim-obs` must stay dependency-free of the transport.
//! It is total like the wire codec — corrupt input decodes to an
//! error, never a panic.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::metrics::{bucket_upper_bound, HistogramSnapshot};
use crate::recorder::Recorder;
use crate::ring::{ThreadTraceDump, TraceRecord};
use crate::{perfetto, PairedSpan};

/// Blob format version (bumped independently of the wire version).
const BLOB_VERSION: u8 = 1;

// ---------------------------------------------------------------------
// Blob codec (LEB128 varints + length-prefixed strings, total decode).
// ---------------------------------------------------------------------

fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Malformed telemetry blob. Deliberately unstructured: the collector
/// drops bad reports, it does not dissect them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobError(pub &'static str);

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed telemetry blob: {}", self.0)
    }
}

impl std::error::Error for BlobError {}

fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, BlobError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = buf.get(*pos).ok_or(BlobError("truncated varint"))?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(BlobError("varint overflows u64"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(BlobError("varint too long"));
        }
    }
}

fn get_len(buf: &[u8], pos: &mut usize) -> Result<usize, BlobError> {
    let len = get_uvarint(buf, pos)?;
    let len = usize::try_from(len).map_err(|_| BlobError("length overflows usize"))?;
    // Every counted element costs at least one byte, so a count beyond
    // the remaining bytes is corruption — reject it before allocating.
    if len > buf.len() - *pos {
        return Err(BlobError("length exceeds remaining bytes"));
    }
    Ok(len)
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, BlobError> {
    let len = get_len(buf, pos)?;
    let bytes = &buf[*pos..*pos + len];
    *pos += len;
    String::from_utf8(bytes.to_vec()).map_err(|_| BlobError("string is not UTF-8"))
}

// ---------------------------------------------------------------------
// RankReport
// ---------------------------------------------------------------------

/// One rank's telemetry snapshot: cumulative metric values plus the
/// retained trace rings, stamped with a sequence number so stale
/// reports (telemetry is lossy and unordered across links) never
/// overwrite newer ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankReport {
    /// Sending process rank.
    pub rank: u64,
    /// Engine name the rank runs (e.g. `dist[p=1/2]`).
    pub engine: String,
    /// Monotonic per-rank report number.
    pub seq: u64,
    /// `(name, rendered_labels, value)` — cumulative counter values.
    pub counters: Vec<(String, String, u64)>,
    /// `(name, rendered_labels, value)` — current gauge values.
    pub gauges: Vec<(String, String, u64)>,
    /// `(name, rendered_labels, snapshot)` — histogram distributions.
    pub histograms: Vec<(String, String, HistogramSnapshot)>,
    /// Trace-ring flush, one dump per registered thread. Timestamps
    /// are in the *sender's* recorder timebase; the collector corrects
    /// them with the link's clock-offset estimate.
    pub traces: Vec<ThreadTraceDump>,
}

impl RankReport {
    /// Snapshot `recorder` into a report, keeping the last `last_n`
    /// records of each trace ring.
    pub fn capture(rank: u64, engine: &str, seq: u64, recorder: &Recorder, last_n: usize) -> Self {
        RankReport {
            rank,
            engine: engine.to_string(),
            seq,
            counters: recorder.counter_values(),
            gauges: recorder.gauge_values(),
            histograms: recorder.histogram_values(),
            traces: recorder.recent_traces(last_n),
        }
    }

    /// Serialize into the opaque blob the transport ships.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256);
        buf.push(BLOB_VERSION);
        put_uvarint(&mut buf, self.rank);
        put_str(&mut buf, &self.engine);
        put_uvarint(&mut buf, self.seq);
        for series in [&self.counters, &self.gauges] {
            put_uvarint(&mut buf, series.len() as u64);
            for (name, labels, value) in series.iter() {
                put_str(&mut buf, name);
                put_str(&mut buf, labels);
                put_uvarint(&mut buf, *value);
            }
        }
        put_uvarint(&mut buf, self.histograms.len() as u64);
        for (name, labels, snap) in &self.histograms {
            put_str(&mut buf, name);
            put_str(&mut buf, labels);
            put_uvarint(&mut buf, snap.sum);
            put_uvarint(&mut buf, snap.count);
            put_uvarint(&mut buf, snap.buckets.len() as u64);
            for &b in &snap.buckets {
                put_uvarint(&mut buf, b);
            }
        }
        put_uvarint(&mut buf, self.traces.len() as u64);
        for dump in &self.traces {
            put_str(&mut buf, &dump.thread);
            put_uvarint(&mut buf, u64::from(dump.tid));
            put_uvarint(&mut buf, dump.pushed);
            put_uvarint(&mut buf, dump.records.len() as u64);
            for rec in &dump.records {
                put_uvarint(&mut buf, rec.ts_ns);
                buf.push(rec.kind);
                buf.push(rec.phase);
                put_uvarint(&mut buf, rec.a);
                put_uvarint(&mut buf, rec.b);
                put_uvarint(&mut buf, rec.dur_ns);
            }
        }
        buf
    }

    /// Total decode: corrupt or truncated blobs return an error.
    pub fn decode(buf: &[u8]) -> Result<RankReport, BlobError> {
        let mut pos = 0usize;
        let &version = buf.first().ok_or(BlobError("empty blob"))?;
        if version != BLOB_VERSION {
            return Err(BlobError("unknown blob version"));
        }
        pos += 1;
        let rank = get_uvarint(buf, &mut pos)?;
        let engine = get_str(buf, &mut pos)?;
        let seq = get_uvarint(buf, &mut pos)?;
        let scalar_series = |pos: &mut usize| -> Result<Vec<(String, String, u64)>, BlobError> {
            let n = get_len(buf, pos)?;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let name = get_str(buf, pos)?;
                let labels = get_str(buf, pos)?;
                let value = get_uvarint(buf, pos)?;
                out.push((name, labels, value));
            }
            Ok(out)
        };
        let counters = scalar_series(&mut pos)?;
        let gauges = scalar_series(&mut pos)?;
        let nhist = get_len(buf, &mut pos)?;
        let mut histograms = Vec::with_capacity(nhist);
        for _ in 0..nhist {
            let name = get_str(buf, &mut pos)?;
            let labels = get_str(buf, &mut pos)?;
            let sum = get_uvarint(buf, &mut pos)?;
            let count = get_uvarint(buf, &mut pos)?;
            let nbuckets = get_len(buf, &mut pos)?;
            let mut buckets = Vec::with_capacity(nbuckets);
            for _ in 0..nbuckets {
                buckets.push(get_uvarint(buf, &mut pos)?);
            }
            histograms.push((name, labels, HistogramSnapshot { sum, count, buckets }));
        }
        let ndumps = get_len(buf, &mut pos)?;
        let mut traces = Vec::with_capacity(ndumps);
        for _ in 0..ndumps {
            let thread = get_str(buf, &mut pos)?;
            let tid = u32::try_from(get_uvarint(buf, &mut pos)?)
                .map_err(|_| BlobError("tid overflows u32"))?;
            let pushed = get_uvarint(buf, &mut pos)?;
            let nrecs = get_len(buf, &mut pos)?;
            let mut records = Vec::with_capacity(nrecs);
            for _ in 0..nrecs {
                let ts_ns = get_uvarint(buf, &mut pos)?;
                let &kind = buf.get(pos).ok_or(BlobError("truncated record"))?;
                let &phase = buf.get(pos + 1).ok_or(BlobError("truncated record"))?;
                pos += 2;
                records.push(TraceRecord {
                    ts_ns,
                    kind,
                    phase,
                    a: get_uvarint(buf, &mut pos)?,
                    b: get_uvarint(buf, &mut pos)?,
                    dur_ns: get_uvarint(buf, &mut pos)?,
                });
            }
            traces.push(ThreadTraceDump {
                thread,
                tid,
                pushed,
                records,
            });
        }
        if pos != buf.len() {
            return Err(BlobError("trailing bytes after report"));
        }
        Ok(RankReport {
            rank,
            engine,
            seq,
            counters,
            gauges,
            histograms,
            traces,
        })
    }
}

// ---------------------------------------------------------------------
// Clock-offset estimation
// ---------------------------------------------------------------------

/// NTP-style per-link clock estimate, built from four-timestamp
/// ping/pong exchanges (`t1` pinger send, `t2` peer receive, `t3` peer
/// reply, `t4` pinger receive — all in the respective recorder's
/// nanosecond timebase). The responder's processing delay `t3 - t2`
/// cancels out; the surviving error is the link's path asymmetry,
/// bounded by RTT/2 — so the estimate from the minimum-RTT sample is
/// kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockEstimate {
    /// `peer_clock - local_clock`, from the best (min-RTT) sample.
    pub offset_ns: i64,
    /// RTT of the best sample (processing delay excluded).
    pub rtt_ns: u64,
    /// Number of samples folded in.
    pub samples: u64,
}

impl ClockEstimate {
    /// Fold in one exchange; keeps the estimate from the sample with
    /// the smallest RTT seen so far.
    pub fn observe(&mut self, t1: u64, t2: u64, t3: u64, t4: u64) {
        let rtt = (t4 as i128 - t1 as i128) - (t3 as i128 - t2 as i128);
        if rtt < 0 {
            // Torn or reordered stamps: not a usable sample.
            return;
        }
        let rtt = rtt as u64;
        let offset = ((t2 as i128 - t1 as i128) + (t3 as i128 - t4 as i128)) / 2;
        if self.samples == 0 || rtt < self.rtt_ns {
            self.offset_ns = offset.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
            self.rtt_ns = rtt;
        }
        self.samples += 1;
    }
}

// ---------------------------------------------------------------------
// Straggler attribution
// ---------------------------------------------------------------------

/// One rank's blocked-on-NULL wait toward one peer shard, as reported
/// through `sim_null_wait_ns_total{peer=...}`.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerEntry {
    /// Rank that sat waiting.
    pub rank: u64,
    /// Shard it was waiting on (the label value of `peer`).
    pub peer: String,
    /// Total nanoseconds blocked.
    pub wait_ns: u64,
    /// Fraction of the fleet-wide NULL wait this link accounts for.
    pub share: f64,
}

/// "Who stalled whom" across the fleet, sorted worst-first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StragglerReport {
    /// Per (waiting rank, blamed peer shard) totals, descending wait.
    pub entries: Vec<StragglerEntry>,
    /// Fleet-wide total blocked-on-NULL nanoseconds.
    pub total_wait_ns: u64,
}

impl StragglerReport {
    /// The worst offender, if any wait was recorded at all.
    pub fn top(&self) -> Option<&StragglerEntry> {
        self.entries.first()
    }
}

impl fmt::Display for StragglerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return writeln!(f, "no blocked-on-NULL waits recorded");
        }
        writeln!(
            f,
            "fleet blocked-on-NULL wait: {:.3} ms total",
            self.total_wait_ns as f64 / 1e6
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "  rank {} waited {:.3} ms on shard {} ({:.1}% of fleet wait)",
                e.rank,
                e.wait_ns as f64 / 1e6,
                e.peer,
                e.share * 100.0
            )?;
        }
        if let Some(top) = self.top() {
            writeln!(
                f,
                "  => straggler: shard {} (stalled rank {} for {:.1}% of fleet wait)",
                top.peer,
                top.rank,
                top.share * 100.0
            )?;
        }
        Ok(())
    }
}

/// Extract one label's value from a pre-rendered label string like
/// `{engine="dist[p=0/2]",peer="3"}`. Values in this workspace never
/// contain an escaped quote before the closing one we need, and the
/// straggler labels are shard numbers, so a simple scan suffices.
fn label_value<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("{key}=\"");
    let start = labels.find(&needle)? + needle.len();
    let rest = &labels[start..];
    rest.find('"').map(|end| &rest[..end])
}

// ---------------------------------------------------------------------
// FleetCollector
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct RankState {
    engine: String,
    seq: u64,
    counters: Vec<(String, String, u64)>,
    gauges: Vec<(String, String, u64)>,
    histograms: Vec<(String, String, HistogramSnapshot)>,
    traces: Vec<ThreadTraceDump>,
}

/// The coordinator-side merge point: absorb [`RankReport`]s and clock
/// samples, read out merged timelines, expositions, and straggler
/// attribution. Single-threaded by design — the dist coordinator owns
/// it and serves renders through a lock.
#[derive(Debug, Default)]
pub struct FleetCollector {
    ranks: BTreeMap<u64, RankState>,
    clocks: BTreeMap<u64, ClockEstimate>,
}

impl FleetCollector {
    /// An empty collector.
    pub fn new() -> FleetCollector {
        FleetCollector::default()
    }

    /// Absorb one rank's report. Stale sequence numbers (telemetry is
    /// lossy and unordered) are dropped; a newer report replaces the
    /// rank's previous snapshot wholesale, because reports carry
    /// cumulative values, not increments.
    pub fn absorb(&mut self, report: RankReport) {
        let state = self.ranks.entry(report.rank).or_default();
        if state.seq > report.seq && !state.engine.is_empty() {
            return;
        }
        state.engine = report.engine;
        state.seq = report.seq;
        state.counters = report.counters;
        state.gauges = report.gauges;
        state.histograms = report.histograms;
        state.traces = report.traces;
    }

    /// Fold one four-timestamp ping/pong exchange with `rank` into its
    /// link's clock estimate.
    pub fn observe_clock(&mut self, rank: u64, t1: u64, t2: u64, t3: u64, t4: u64) {
        self.clocks.entry(rank).or_default().observe(t1, t2, t3, t4);
    }

    /// The current `peer_clock - local_clock` estimate for `rank`
    /// (0 when no exchange completed — e.g. the local rank itself).
    pub fn clock_offset_ns(&self, rank: u64) -> i64 {
        self.clocks.get(&rank).map_or(0, |c| c.offset_ns)
    }

    /// The full per-link estimate, if any samples arrived.
    pub fn clock_estimate(&self, rank: u64) -> Option<ClockEstimate> {
        self.clocks.get(&rank).copied()
    }

    /// Ranks with any absorbed state, ascending.
    pub fn ranks(&self) -> Vec<u64> {
        self.ranks.keys().copied().collect()
    }

    /// The engine name `rank` last reported, if any report arrived.
    pub fn rank_engine(&self, rank: u64) -> Option<&str> {
        self.ranks.get(&rank).map(|s| s.engine.as_str())
    }

    /// Cumulative total of counter family `name` attributable to
    /// `rank`: series from that rank's report whose own `rank` label
    /// (when present) agrees with the report's rank. The label check
    /// matters for the in-process harness, where every rank snapshots
    /// one shared recorder and would otherwise count its peers' series.
    pub fn rank_counter_total(&self, rank: u64, name: &str) -> u64 {
        let Some(state) = self.ranks.get(&rank) else {
            return 0;
        };
        let rank_str = rank.to_string();
        state
            .counters
            .iter()
            .filter(|(n, labels, _)| {
                n == name && label_value(labels, "rank").is_none_or(|v| v == rank_str)
            })
            .map(|(_, _, v)| *v)
            .sum()
    }

    fn corrected_dumps(&self, rank: u64, state: &RankState) -> Vec<ThreadTraceDump> {
        let offset = self.clock_offset_ns(rank);
        state
            .traces
            .iter()
            .map(|dump| {
                let records = dump
                    .records
                    .iter()
                    .map(|rec| TraceRecord {
                        // Shift the rank's timestamps onto the
                        // coordinator clock: local = remote - offset.
                        ts_ns: (rec.ts_ns as i128 - offset as i128).max(0) as u64,
                        ..*rec
                    })
                    .collect();
                ThreadTraceDump {
                    records,
                    ..dump.clone()
                }
            })
            .collect()
    }

    /// Every rank's trace dumps, offset-corrected onto the coordinator
    /// clock and thread names prefixed `r{rank}/` so cross-rank span
    /// pairing reports unambiguous endpoints.
    pub fn merged_dumps(&self) -> Vec<ThreadTraceDump> {
        let mut out = Vec::new();
        for (&rank, state) in &self.ranks {
            for mut dump in self.corrected_dumps(rank, state) {
                dump.thread = format!("r{rank}/{}", dump.thread);
                out.push(dump);
            }
        }
        out
    }

    /// Cross-rank span pairing over the merged dumps: wire spans match
    /// a Begin on the sending rank with the End on the receiving rank.
    pub fn merged_spans(&self) -> Vec<PairedSpan> {
        crate::span::pair_spans(&self.merged_dumps())
    }

    /// One Perfetto trace-event document for the whole fleet: each
    /// rank a process track (`pid = rank + 1`, Perfetto dislikes pid
    /// 0), each of its threads a thread track, all timestamps shifted
    /// onto the coordinator clock.
    pub fn merged_perfetto_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for (&rank, state) in &self.ranks {
            let name = if state.engine.is_empty() {
                format!("rank{rank}")
            } else {
                format!("rank{rank} ({})", state.engine)
            };
            let dumps = self.corrected_dumps(rank, state);
            perfetto::render_process(&mut out, &mut first, rank as u32 + 1, &name, &dumps);
        }
        out.push_str("]}");
        out
    }

    /// Prometheus text exposition over every rank's metrics, with a
    /// `rank="N"` label spliced into each series that does not already
    /// carry one. Series whose embedded rank label disagrees with the
    /// reporting rank are dropped: the in-process harness shares one
    /// recorder across ranks, so every report carries its peers'
    /// rank-labelled series too, and emitting them twice would corrupt
    /// the exposition. Families keep one `# TYPE` line even when
    /// several ranks contribute series.
    pub fn prometheus_text(&self) -> String {
        fn spliced(labels: &str, rank: u64) -> Option<String> {
            match label_value(labels, "rank") {
                Some(r) => (r == rank.to_string()).then(|| labels.to_string()),
                None if labels.is_empty() => Some(format!("{{rank=\"{rank}\"}}")),
                None => Some(format!("{{rank=\"{rank}\",{}", &labels[1..])),
            }
        }
        let mut out = String::with_capacity(1024);
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_family != name {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_family = name.to_string();
            }
        };
        let collect_scalars = |pick: fn(&RankState) -> &Vec<(String, String, u64)>| {
            let mut rows: Vec<(&String, String, u64)> = Vec::new();
            for (&rank, state) in &self.ranks {
                for (name, labels, value) in pick(state) {
                    if let Some(labels) = spliced(labels, rank) {
                        rows.push((name, labels, *value));
                    }
                }
            }
            rows.sort();
            rows
        };
        for (name, labels, value) in collect_scalars(|s| &s.counters) {
            type_line(&mut out, name, "counter");
            let _ = writeln!(out, "{name}{labels} {value}");
        }
        for (name, labels, value) in collect_scalars(|s| &s.gauges) {
            type_line(&mut out, name, "gauge");
            let _ = writeln!(out, "{name}{labels} {value}");
        }
        let mut hists: Vec<(&String, String, &HistogramSnapshot)> = Vec::new();
        for (&rank, state) in &self.ranks {
            for (name, labels, snap) in &state.histograms {
                if let Some(labels) = spliced(labels, rank) {
                    hists.push((name, labels, snap));
                }
            }
        }
        hists.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        for (name, labels, snap) in hists {
            type_line(&mut out, name, "histogram");
            let inner = &labels[1..labels.len() - 1];
            let mut cumulative = 0u64;
            for (i, &count) in snap.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{{inner},le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{{inner},le=\"+Inf\"}} {}", snap.count);
            let _ = writeln!(out, "{name}_sum{labels} {}", snap.sum);
            let _ = writeln!(out, "{name}_count{labels} {}", snap.count);
        }
        out
    }

    /// Roll `sim_null_wait_ns_total{peer=...}` up across the fleet
    /// into a worst-first "who stalled whom" report. Series carrying a
    /// `rank` label are counted only in the matching rank's report —
    /// the in-process harness shares one recorder, so every report
    /// carries its peers' wait counters too and an unfiltered roll-up
    /// would double-count each link once per rank.
    pub fn straggler_report(&self) -> StragglerReport {
        let mut links: BTreeMap<(u64, String), u64> = BTreeMap::new();
        let mut total = 0u64;
        for (&rank, state) in &self.ranks {
            for (name, labels, value) in &state.counters {
                if name != "sim_null_wait_ns_total" || *value == 0 {
                    continue;
                }
                if label_value(labels, "rank").is_some_and(|r| r != rank.to_string()) {
                    continue;
                }
                let peer = label_value(labels, "peer").unwrap_or("?").to_string();
                total += *value;
                *links.entry((rank, peer)).or_default() += *value;
            }
        }
        let mut entries: Vec<StragglerEntry> = links
            .into_iter()
            .map(|((rank, peer), wait_ns)| StragglerEntry {
                rank,
                peer,
                wait_ns,
                share: 0.0,
            })
            .collect();
        for e in &mut entries {
            e.share = if total == 0 {
                0.0
            } else {
                e.wait_ns as f64 / total as f64
            };
        }
        entries.sort_by(|a, b| b.wait_ns.cmp(&a.wait_ns).then(a.rank.cmp(&b.rank)));
        StragglerReport {
            entries,
            total_wait_ns: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{Phase, SpanKind};
    use crate::{prometheus, ObsConfig};

    fn sample_report(rank: u64, seq: u64) -> RankReport {
        let rec = Recorder::new(&ObsConfig::enabled());
        rec.counter(
            "sim_null_wait_ns_total",
            &[("engine", "dist[p=0/2]"), ("peer", &rank.to_string())],
        )
        .add(1000 * (rank + 1));
        rec.gauge("sim_run_wall_ns", &[]).set(77);
        rec.histogram("sim_node_run_ns", &[("engine", "dist")]).record(42);
        let t = rec.tracer("shard-0");
        t.begin(SpanKind::NodeRun, 5);
        t.end(SpanKind::NodeRun, 5, 1);
        RankReport::capture(rank, "dist[p=x/2]", seq, &rec, usize::MAX)
    }

    #[test]
    fn report_blob_round_trips() {
        let report = sample_report(1, 3);
        assert!(!report.counters.is_empty());
        assert!(!report.histograms.is_empty());
        assert_eq!(report.traces.len(), 1);
        let blob = report.encode();
        let back = RankReport::decode(&blob).expect("own encoding must decode");
        assert_eq!(back, report);
    }

    #[test]
    fn blob_decode_is_total_under_truncation_and_noise() {
        let blob = sample_report(0, 1).encode();
        for len in 0..blob.len() {
            assert!(RankReport::decode(&blob[..len]).is_err(), "prefix {len} accepted");
        }
        // Flipping the version byte must be rejected cleanly.
        let mut bad = blob.clone();
        bad[0] = 0xee;
        assert!(RankReport::decode(&bad).is_err());
        // A blob claiming a huge count must not allocate or panic.
        let mut huge = vec![BLOB_VERSION, 0, 0, 0];
        huge.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
        assert!(RankReport::decode(&huge).is_err());
    }

    #[test]
    fn clock_estimate_prefers_min_rtt_and_cancels_processing_delay() {
        let mut est = ClockEstimate::default();
        // Peer clock runs 500ns ahead; symmetric 100ns path each way,
        // 1000ns of processing delay at the peer.
        est.observe(0, 600, 1600, 1200);
        assert_eq!(est.offset_ns, 500);
        assert_eq!(est.rtt_ns, 200);
        // A slower (more asymmetric) sample must not displace it.
        est.observe(2000, 3500, 4500, 4000);
        assert_eq!(est.rtt_ns, 200);
        assert_eq!(est.offset_ns, 500);
        assert_eq!(est.samples, 2);
        // Negative RTT (torn stamps) is ignored.
        est.observe(100, 90, 5000, 100);
        assert_eq!(est.samples, 2);
    }

    #[test]
    fn merged_timeline_corrects_offsets_and_pairs_wire_spans() {
        let mut fleet = FleetCollector::new();
        // Rank 0 (the coordinator itself, offset 0): opened a wire span
        // at its t=1000.
        let wire_id = 0x42;
        let mk = |rank: u64, recs: Vec<TraceRecord>| RankReport {
            rank,
            engine: "dist".into(),
            seq: 1,
            traces: vec![ThreadTraceDump {
                thread: "net".into(),
                tid: 1,
                pushed: recs.len() as u64,
                records: recs,
            }],
            ..RankReport::default()
        };
        fleet.absorb(mk(
            0,
            vec![TraceRecord {
                ts_ns: 1000,
                kind: SpanKind::WireSpan as u8,
                phase: Phase::Begin as u8,
                a: wire_id,
                b: 0,
                dur_ns: 0,
            }],
        ));
        // Rank 1's clock runs 10_000ns ahead; it closed the span at its
        // t=12_000, i.e. coordinator t=2_000.
        fleet.observe_clock(1, 0, 10_100, 10_100, 200);
        assert_eq!(fleet.clock_offset_ns(1), 10_000);
        fleet.absorb(mk(
            1,
            vec![TraceRecord {
                ts_ns: 12_000,
                kind: SpanKind::WireSpan as u8,
                phase: Phase::End as u8,
                a: wire_id,
                b: 3,
                dur_ns: 0,
            }],
        ));
        let spans = fleet.merged_spans();
        assert_eq!(spans.len(), 1, "wire span must pair across ranks");
        let s = &spans[0];
        assert_eq!(s.kind, SpanKind::WireSpan);
        assert_eq!((s.start_ns, s.end_ns), (1000, 2000));
        assert_eq!(s.begin_thread, "r0/net");
        assert_eq!(s.end_thread, "r1/net");
        // And the merged Perfetto doc carries both rank process tracks.
        let json = fleet.merged_perfetto_json();
        let doc = crate::json::parse(&json).expect("merged trace must parse");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let pids: Vec<f64> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("process_name"))
            .map(|e| e.get("pid").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(pids, vec![1.0, 2.0]);
    }

    #[test]
    fn stale_reports_do_not_overwrite_newer_state() {
        let mut fleet = FleetCollector::new();
        fleet.absorb(sample_report(1, 5));
        let counters_before = fleet.prometheus_text();
        let mut stale = sample_report(1, 2);
        stale.counters.clear();
        fleet.absorb(stale);
        assert_eq!(fleet.prometheus_text(), counters_before);
    }

    #[test]
    fn fleet_exposition_is_rank_labelled_and_lint_clean() {
        let mut fleet = FleetCollector::new();
        fleet.absorb(sample_report(0, 1));
        fleet.absorb(sample_report(1, 1));
        let text = fleet.prometheus_text();
        prometheus::lint(&text).expect("fleet exposition must lint");
        assert!(text.contains("rank=\"0\""), "{text}");
        assert!(text.contains("rank=\"1\""), "{text}");
        // One TYPE line per family even with two ranks contributing.
        assert_eq!(
            text.matches("# TYPE sim_null_wait_ns_total counter").count(),
            1
        );
        assert!(text.contains("{rank=\"1\",engine=\"dist[p=0/2]\",peer=\"1\"}"), "{text}");
    }

    #[test]
    fn exposition_keeps_embedded_rank_labels_and_drops_foreign_series() {
        let rec = Recorder::new(&ObsConfig::enabled());
        rec.counter("sim_events_delivered_total", &[("engine", "dist[p=0/2]"), ("rank", "0")])
            .add(5);
        rec.counter("sim_events_delivered_total", &[("engine", "dist[p=1/2]"), ("rank", "1")])
            .add(6);
        let mut fleet = FleetCollector::new();
        // Shared-recorder harness: both reports carry both series.
        fleet.absorb(RankReport::capture(0, "dist[p=0/2]", 1, &rec, 0));
        fleet.absorb(RankReport::capture(1, "dist[p=1/2]", 1, &rec, 0));
        let text = fleet.prometheus_text();
        prometheus::lint(&text).expect("fleet exposition must lint");
        // Each series appears exactly once, with a single rank label —
        // no splice on top of the embedded label, no cross-rank copy.
        assert_eq!(text.matches("rank=\"0\"").count(), 1, "{text}");
        assert_eq!(text.matches("rank=\"1\"").count(), 1, "{text}");
    }

    #[test]
    fn rank_counter_totals_respect_series_rank_labels() {
        let rec = Recorder::new(&ObsConfig::enabled());
        rec.counter("sim_events_delivered_total", &[("engine", "dist[p=0/2]"), ("rank", "0")])
            .add(10);
        rec.counter("sim_events_delivered_total", &[("engine", "dist[p=1/2]"), ("rank", "1")])
            .add(7);
        rec.counter("sim_runs_total", &[]).add(3);
        let mut fleet = FleetCollector::new();
        // Shared-recorder harness: both ranks snapshot the same registry.
        fleet.absorb(RankReport::capture(0, "dist[p=0/2]", 1, &rec, 0));
        fleet.absorb(RankReport::capture(1, "dist[p=1/2]", 1, &rec, 0));
        assert_eq!(fleet.rank_counter_total(0, "sim_events_delivered_total"), 10);
        assert_eq!(fleet.rank_counter_total(1, "sim_events_delivered_total"), 7);
        // Series without a rank label count toward every absorbed rank.
        assert_eq!(fleet.rank_counter_total(0, "sim_runs_total"), 3);
        assert_eq!(fleet.rank_counter_total(2, "sim_runs_total"), 0);
        assert_eq!(fleet.rank_engine(1), Some("dist[p=1/2]"));
        assert_eq!(fleet.rank_engine(9), None);
    }

    #[test]
    fn straggler_rollup_does_not_double_count_shared_recorder_reports() {
        let rec = Recorder::new(&ObsConfig::enabled());
        rec.counter(
            "sim_null_wait_ns_total",
            &[("engine", "dist[p=0/2]"), ("rank", "0"), ("peer", "2")],
        )
        .add(100);
        rec.counter(
            "sim_null_wait_ns_total",
            &[("engine", "dist[p=1/2]"), ("rank", "1"), ("peer", "0")],
        )
        .add(300);
        let mut fleet = FleetCollector::new();
        // Shared-recorder harness: both reports carry both series.
        fleet.absorb(RankReport::capture(0, "dist[p=0/2]", 1, &rec, 0));
        fleet.absorb(RankReport::capture(1, "dist[p=1/2]", 1, &rec, 0));
        let report = fleet.straggler_report();
        assert_eq!(report.total_wait_ns, 400, "each link counted once");
        assert_eq!(report.entries.len(), 2);
        let top = report.top().expect("waits recorded");
        assert_eq!((top.rank, top.peer.as_str(), top.wait_ns), (1, "0", 300));
    }

    #[test]
    fn straggler_report_names_the_worst_link() {
        let mut fleet = FleetCollector::new();
        fleet.absorb(sample_report(0, 1)); // 1000ns wait on peer "0"
        fleet.absorb(sample_report(1, 1)); // 2000ns wait on peer "1"
        let report = fleet.straggler_report();
        assert_eq!(report.total_wait_ns, 3000);
        let top = report.top().expect("waits were recorded");
        assert_eq!((top.rank, top.peer.as_str()), (1, "1"));
        assert!((top.share - 2.0 / 3.0).abs() < 1e-9);
        let text = report.to_string();
        assert!(text.contains("straggler"), "{text}");
    }
}
