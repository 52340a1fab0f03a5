//! Live HTTP endpoints for a running coordinator.
//!
//! A deliberately tiny HTTP/1.0 server (one request per connection, plain
//! text) exposing read-only views of the in-flight campaign:
//!
//! * `/healthz` — liveness probe, always `ok`;
//! * `/progress` — one JSON object: phase, unit counts, worker count,
//!   per-worker in-flight leases, service counters;
//! * `/report` — the campaign report rendered from the coordinator's
//!   in-memory mirror of the store, via the same
//!   [`cfed_runner::report::render_parts`] the offline `report` subcommand
//!   uses — so the live view is byte-identical to what
//!   `cfed-campaign report` will print for the shards merged so far;
//! * `/metrics` — Prometheus text exposition built fresh per scrape from
//!   the same live state (leases, retries, quarantines, event drops, unit
//!   latency summaries, profiler cycle totals);
//! * `/events?kind=…&worker=…&since=…` — the queryable store of worker
//!   telemetry forwarded over the firehose, a bounded ring addressed by
//!   monotonic sequence number (use `since` as a resume cursor).

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cfed_fault::CampaignReport;
use cfed_runner::report::{render_parts, summarize};
use cfed_runner::store::StoreHeader;
use cfed_telemetry::json::{obj, Json};
use cfed_telemetry::{MetricKind, ProfileTotals, Registry};

use crate::stats::ServeStats;

/// Capacity of the queryable worker-event store behind `/events`. Older
/// events are evicted (counted) — the endpoint is a recent-history window,
/// not an archive; the JSONL sink remains the durable record.
const EVENT_STORE_CAP: usize = 256;

/// The coordinator's shared live state, mirrored for the HTTP endpoints.
/// The scheduler updates it incrementally as results land; readers only
/// ever take short lock holds to render.
#[derive(Default)]
pub struct LiveView {
    inner: Mutex<Inner>,
}

/// One forwarded worker event in the queryable store.
struct StoredEvent {
    /// Monotonic 1-based sequence number (the `/events?since=` cursor).
    seq: u64,
    worker: String,
    /// The event's `ev` kind tag, extracted for cheap filtering.
    kind: String,
    event: Json,
}

#[derive(Default)]
struct Inner {
    run_id: String,
    phase: String,
    header: Option<StoreHeader>,
    done: BTreeMap<String, CampaignReport>,
    failed: BTreeMap<String, String>,
    workers: usize,
    /// Outstanding leases per live worker.
    inflight: BTreeMap<String, u64>,
    stats: ServeStats,
    /// Bounded ring of forwarded worker events, newest last.
    events: VecDeque<StoredEvent>,
    next_event_seq: u64,
    /// Events evicted from the bounded ring.
    events_evicted: u64,
    /// Per-cell execution profiles persisted so far.
    profiles: u64,
    profile_totals: ProfileTotals,
    /// `/metrics` scrapes served.
    scrapes: u64,
    finished: bool,
}

impl Inner {
    fn push_event(&mut self, worker: &str, event: Json) {
        self.next_event_seq += 1;
        let kind = event.get("ev").and_then(Json::as_str).unwrap_or("?").to_string();
        self.events.push_back(StoredEvent {
            seq: self.next_event_seq,
            worker: worker.to_string(),
            kind,
            event,
        });
        while self.events.len() > EVENT_STORE_CAP {
            self.events.pop_front();
            self.events_evicted += 1;
        }
    }
}

impl LiveView {
    /// An empty view (no campaign loaded).
    pub fn new() -> LiveView {
        LiveView::default()
    }

    /// Installs a phase: header plus any shards already persisted (resume).
    pub(crate) fn begin_phase(
        &self,
        run_id: &str,
        phase: &str,
        header: StoreHeader,
        done: BTreeMap<String, CampaignReport>,
        failed: BTreeMap<String, String>,
    ) {
        let mut inner = self.inner.lock().expect("live view poisoned");
        inner.run_id = run_id.to_string();
        inner.phase = phase.to_string();
        inner.header = Some(header);
        inner.done = done;
        inner.failed = failed;
    }

    pub(crate) fn record_done(&self, key: &str, tallies: CampaignReport) {
        let mut inner = self.inner.lock().expect("live view poisoned");
        inner.failed.remove(key);
        inner.done.insert(key.to_string(), tallies);
    }

    pub(crate) fn record_failed(&self, key: &str, error: &str) {
        let mut inner = self.inner.lock().expect("live view poisoned");
        inner.failed.insert(key.to_string(), error.to_string());
    }

    pub(crate) fn set_workers(&self, workers: usize) {
        self.inner.lock().expect("live view poisoned").workers = workers;
    }

    pub(crate) fn set_stats(&self, stats: ServeStats) {
        self.inner.lock().expect("live view poisoned").stats = stats;
    }

    pub(crate) fn set_inflight(&self, inflight: BTreeMap<String, u64>) {
        self.inner.lock().expect("live view poisoned").inflight = inflight;
    }

    /// Stores one forwarded worker event in the bounded `/events` ring.
    pub(crate) fn record_event(&self, worker: &str, event: Json) {
        self.inner.lock().expect("live view poisoned").push_event(worker, event);
    }

    /// Accounts one persisted per-cell execution profile.
    pub(crate) fn record_profile(&self, totals: &ProfileTotals) {
        let mut inner = self.inner.lock().expect("live view poisoned");
        inner.profiles += 1;
        inner.profile_totals.payload += totals.payload;
        inner.profile_totals.head += totals.head;
        inner.profile_totals.tail += totals.tail;
        inner.profile_totals.other += totals.other;
    }

    pub(crate) fn finish(&self) {
        self.inner.lock().expect("live view poisoned").finished = true;
    }

    /// The `/report` body: the campaign report over the shards merged so
    /// far, byte-identical to `cfed-campaign report` over the same shards.
    pub fn report(&self) -> String {
        let inner = self.inner.lock().expect("live view poisoned");
        match &inner.header {
            Some(header) => render_parts(header, &summarize(&inner.done), &inner.failed),
            None => "no campaign loaded yet\n".to_string(),
        }
    }

    /// The `/progress` body: one JSON object. The service counters
    /// (including `events_forwarded`/`events_dropped`) are the live
    /// run-so-far values, republished by the scheduler every loop tick;
    /// `inflight` lists each live worker's outstanding leases.
    pub fn progress(&self) -> String {
        let inner = self.inner.lock().expect("live view poisoned");
        let total = inner.header.as_ref().map_or(0, |h| h.total_shards);
        let inflight = inner
            .inflight
            .iter()
            .map(|(name, n)| {
                obj(vec![("worker", Json::Str(name.clone())), ("units", Json::UInt(*n))])
            })
            .collect();
        let mut fields = vec![
            ("run_id", Json::Str(inner.run_id.clone())),
            ("phase", Json::Str(inner.phase.clone())),
            ("total_units", Json::UInt(total)),
            ("done_units", Json::UInt(inner.done.len() as u64)),
            ("failed_units", Json::UInt(inner.failed.len() as u64)),
            ("workers", Json::UInt(inner.workers as u64)),
            ("inflight", Json::Arr(inflight)),
            ("profiles", Json::UInt(inner.profiles)),
            ("finished", Json::Bool(inner.finished)),
        ];
        fields.extend(inner.stats.to_meta_fields());
        obj(fields).render() + "\n"
    }

    /// The `/metrics` body: Prometheus text exposition, built fresh from
    /// the live state on every scrape. Each scrape also records a
    /// `metrics_scrape` event into the `/events` store.
    pub fn metrics(&self) -> String {
        let mut inner = self.inner.lock().expect("live view poisoned");
        inner.scrapes += 1;
        let scrapes = inner.scrapes;
        inner.push_event(
            "http",
            obj(vec![("ev", Json::Str("metrics_scrape".to_string())), ("n", Json::UInt(scrapes))]),
        );

        let mut r = Registry::new();
        r.family("cfed_units_leased_total", "Unit leases handed to workers", MetricKind::Counter)
            .sample(&[], inner.stats.leased);
        r.family("cfed_units_completed_total", "Units persisted as done", MetricKind::Counter)
            .sample(&[], inner.stats.completed);
        r.family("cfed_units_retried_total", "Unit attempts re-queued", MetricKind::Counter)
            .sample(&[], inner.stats.retried);
        r.family("cfed_units_expired_total", "Leases past their deadline", MetricKind::Counter)
            .sample(&[], inner.stats.expired);
        r.family("cfed_units_failed_total", "Units permanently failed", MetricKind::Counter)
            .sample(&[], inner.stats.failed);
        r.family("cfed_units_duplicate_total", "Duplicate result frames", MetricKind::Counter)
            .sample(&[], inner.stats.duplicates);
        r.family("cfed_workers_quarantined_total", "Workers quarantined", MetricKind::Counter)
            .sample(&[], inner.stats.quarantined);
        r.family(
            "cfed_events_forwarded_total",
            "Worker telemetry events forwarded to the coordinator",
            MetricKind::Counter,
        )
        .sample(&[], inner.stats.events_forwarded);
        r.family("cfed_events_dropped_total", "Events lost before serving", MetricKind::Counter)
            .sample(&[("at", "worker_queue")], inner.stats.events_dropped)
            .sample(&[("at", "event_store")], inner.events_evicted);
        r.family("cfed_workers", "Connected live workers", MetricKind::Gauge)
            .sample(&[], inner.workers as u64);
        r.family("cfed_worker_inflight", "Outstanding leases per worker", MetricKind::Gauge);
        for (name, n) in &inner.inflight {
            r.sample(&[("worker", name)], *n);
        }
        r.family("cfed_unit_latency_ms", "Unit wall-clock latency per worker", MetricKind::Summary);
        for (name, w) in &inner.stats.workers {
            r.summary_from_hist(
                &[("worker", name)],
                &w.latency_ms,
                &[(0.5, "0.5"), (0.99, "0.99")],
            );
        }
        r.family(
            "cfed_profiles_total",
            "Per-cell execution profiles persisted",
            MetricKind::Counter,
        )
        .sample(&[], inner.profiles);
        let t = inner.profile_totals;
        r.family(
            "cfed_profile_cycles_total",
            "Profiled cycles by attribution bucket",
            MetricKind::Counter,
        )
        .sample(&[("part", "payload")], t.payload)
        .sample(&[("part", "instrumentation")], t.head + t.tail)
        .sample(&[("part", "other")], t.other);
        r.family("cfed_metrics_scrapes_total", "Scrapes of this endpoint", MetricKind::Counter)
            .sample(&[], scrapes);
        r.render()
    }

    /// The `/events` body: stored events filtered by optional `kind`,
    /// `worker`, and `since` (exclusive sequence cursor), oldest first.
    pub fn events(&self, kind: Option<&str>, worker: Option<&str>, since: Option<u64>) -> String {
        let inner = self.inner.lock().expect("live view poisoned");
        let since = since.unwrap_or(0);
        let matches = |e: &StoredEvent| {
            e.seq > since
                && kind.is_none_or(|k| e.kind == k)
                && worker.is_none_or(|w| e.worker == w)
        };
        let events = inner
            .events
            .iter()
            .filter(|e| matches(e))
            .map(|e| {
                obj(vec![
                    ("seq", Json::UInt(e.seq)),
                    ("worker", Json::Str(e.worker.clone())),
                    ("kind", Json::Str(e.kind.clone())),
                    ("event", e.event.clone()),
                ])
            })
            .collect();
        obj(vec![
            ("next", Json::UInt(inner.next_event_seq)),
            ("evicted", Json::UInt(inner.events_evicted)),
            ("events", Json::Arr(events)),
        ])
        .render()
            + "\n"
    }
}

/// Serves `live` on `listener` until `shutdown` is set. Returns the server
/// thread handle; join it after setting the flag.
pub fn spawn(
    listener: TcpListener,
    live: Arc<LiveView>,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    let _ = listener.set_nonblocking(true);
    std::thread::spawn(move || loop {
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle(stream, &live);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(15));
            }
            Err(_) => break,
        }
    })
}

/// Extracts one `key=value` pair from a raw query string (no percent
/// decoding — event kinds and worker names are plain tokens).
fn query_param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| v.to_string())
    })
}

fn handle(mut stream: TcpStream, live: &LiveView) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 4096];
    let mut request = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        request.extend_from_slice(&buf[..n]);
        if request.windows(4).any(|w| w == b"\r\n\r\n") || request.len() > 16 * 1024 {
            break;
        }
    }
    let first_line = request.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let first_line = String::from_utf8_lossy(first_line);
    let mut parts = first_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "only GET is supported\n".to_string())
    } else {
        match path {
            "/healthz" => ("200 OK", "ok\n".to_string()),
            "/progress" => ("200 OK", live.progress()),
            "/report" => ("200 OK", live.report()),
            "/metrics" => ("200 OK", live.metrics()),
            "/events" => (
                "200 OK",
                live.events(
                    query_param(query, "kind").as_deref(),
                    query_param(query, "worker").as_deref(),
                    query_param(query, "since").and_then(|s| s.parse().ok()),
                ),
            ),
            _ => ("404 Not Found", format!("no such endpoint {path}\n")),
        }
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: &str, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        (head.split("\r\n").next().unwrap().to_string(), body.to_string())
    }

    #[test]
    fn endpoints_serve_live_state() {
        let live = Arc::new(LiveView::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = spawn(listener, Arc::clone(&live), Arc::clone(&shutdown));

        let (status, body) = get(&addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");

        let (status, body) = get(&addr, "/report");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("no campaign"), "{body}");

        live.begin_phase(
            "r",
            "coverage",
            StoreHeader {
                run_id: "r".into(),
                seed: 1,
                trials: 64,
                shard_trials: 64,
                digest: 2,
                total_shards: 1,
            },
            BTreeMap::new(),
            BTreeMap::new(),
        );
        live.record_done("cell#0", CampaignReport::default());
        let (_, body) = get(&addr, "/report");
        assert!(body.contains("run r"), "{body}");
        let (_, body) = get(&addr, "/progress");
        assert!(body.contains("\"done_units\":1"), "{body}");
        let (status, _) = get(&addr, "/nope");
        assert!(status.contains("404"), "{status}");

        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }

    #[test]
    fn metrics_and_events_endpoints() {
        let live = Arc::new(LiveView::new());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = spawn(listener, Arc::clone(&live), Arc::clone(&shutdown));

        live.set_workers(2);
        let mut inflight = BTreeMap::new();
        inflight.insert("w0".to_string(), 3);
        live.set_inflight(inflight);
        let parse = cfed_telemetry::json::parse;
        live.record_event("w0", parse(r#"{"ev":"unit_done","unit":"k#0","ms":7}"#).unwrap());
        live.record_event("w1", parse(r#"{"ev":"unit_failed","unit":"k#1"}"#).unwrap());
        live.record_profile(&ProfileTotals { payload: 10, head: 2, tail: 1, other: 3 });
        let mut stats = ServeStats { leased: 5, quarantined: 1, ..Default::default() };
        stats.record_unit("w0", 12);
        live.set_stats(stats);

        let (status, body) = get(&addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("# HELP cfed_units_leased_total "), "{body}");
        assert!(body.contains("# TYPE cfed_units_leased_total counter"), "{body}");
        assert!(body.contains("cfed_units_leased_total 5"), "{body}");
        assert!(body.contains("cfed_workers_quarantined_total 1"), "{body}");
        assert!(body.contains("cfed_workers 2"), "{body}");
        assert!(body.contains("cfed_worker_inflight{worker=\"w0\"} 3"), "{body}");
        assert!(body.contains("cfed_unit_latency_ms{worker=\"w0\",quantile=\"0.5\"}"), "{body}");
        assert!(body.contains("cfed_unit_latency_ms_count{worker=\"w0\"} 1"), "{body}");
        assert!(body.contains("cfed_profiles_total 1"), "{body}");
        assert!(body.contains("cfed_profile_cycles_total{part=\"payload\"} 10"), "{body}");
        assert!(body.contains("cfed_profile_cycles_total{part=\"instrumentation\"} 3"), "{body}");
        assert!(body.contains("cfed_metrics_scrapes_total 1"), "{body}");
        // No duplicate families: every # TYPE line names a distinct metric.
        let types: Vec<&str> = body.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let unique: std::collections::BTreeSet<&&str> = types.iter().collect();
        assert_eq!(types.len(), unique.len(), "{body}");

        // The scrape itself landed in the event store as seq 3.
        let (_, body) = get(&addr, "/events?kind=unit_done");
        assert!(body.contains("\"worker\":\"w0\""), "{body}");
        assert!(!body.contains("unit_failed"), "{body}");
        let (_, body) = get(&addr, "/events?worker=w1");
        assert!(body.contains("unit_failed"), "{body}");
        assert!(!body.contains("unit_done"), "{body}");
        let (_, body) = get(&addr, "/events?since=2");
        assert!(body.contains("metrics_scrape"), "{body}");
        assert!(!body.contains("unit_done"), "{body}");

        let (_, body) = get(&addr, "/progress");
        assert!(body.contains("\"inflight\":[{\"worker\":\"w0\",\"units\":3}]"), "{body}");
        assert!(body.contains("\"profiles\":1"), "{body}");

        shutdown.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }
}
