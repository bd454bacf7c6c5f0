//! Versioned JSONL wire format for pulse telemetry.
//!
//! A telemetry stream is one JSON object per line:
//!
//! ```text
//! {"type":"pulse","v":1,"threads":4}
//! {"type":"unit_started","app":"forged-003","seed":0}
//! {"type":"heartbeat","seq":0,"t_ns":51000000,"workers":2,"queued":3,...}
//! {"type":"worker","hb":0,"worker":0,"state":"site","app":"forged-003","seed":0,"site":"b0@7"}
//! {"type":"worker","hb":0,"worker":1,"state":"idle"}
//! {"type":"site_finished","app":"forged-003","seed":0,"site":"b0@7","outcome":"exposed",...}
//! {"type":"finished","wall_ns":812345678,"sites":40,"exposed":14}
//! ```
//!
//! Every record is a flat object, so a heartbeat's per-worker states
//! serialise as separate `worker` lines referencing the heartbeat's
//! `seq`; [`TelemetryLog::from_jsonl`] reassembles them. Events stream
//! incrementally — a live writer appends [`pulse_event_lines`] as the
//! subscriber drains — and the reader tolerates a truncated tail only
//! insofar as every present line must still parse.

use crate::json::{jsonl, Json, JsonlReader};
use crate::pulse::{HeartbeatSample, PulseEvent, Subscriber, WorkerState};

/// Version stamped into (and required from) the telemetry header line.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 1;

fn header_json(threads: u32) -> Json {
    Json::obj()
        .field("type", "pulse")
        .field("v", TELEMETRY_SCHEMA_VERSION)
        .field("threads", threads)
}

/// The header line opening every telemetry stream.
#[must_use]
pub fn telemetry_header(threads: u32) -> String {
    jsonl([header_json(threads)])
}

/// A record of type `kind` about one unit (`app`, `seed`).
fn unit_json(kind: &str, app: &str, seed: u32) -> Json {
    Json::obj()
        .field("type", kind)
        .field("app", app)
        .field("seed", seed)
}

/// One event's records: a single record, or for a heartbeat the
/// sample followed by one `worker` record per worker.
fn event_records(event: &PulseEvent) -> Vec<Json> {
    match event {
        PulseEvent::UnitStarted { app, seed } => vec![unit_json("unit_started", app, *seed)],
        PulseEvent::SitesIdentified { app, seed, sites } => {
            vec![unit_json("sites_identified", app, *seed).field("sites", *sites)]
        }
        PulseEvent::SiteFinished {
            app,
            seed,
            site,
            outcome,
            wall_ns,
            cache_bytes,
            snapshot_bytes,
            peak_heap_bytes,
        } => vec![unit_json("site_finished", app, *seed)
            .field("site", site.as_str())
            .field("outcome", outcome.as_str())
            .field("wall_ns", *wall_ns)
            .field("cache_bytes", *cache_bytes)
            .field("snapshot_bytes", *snapshot_bytes)
            .field("peak_heap_bytes", *peak_heap_bytes)],
        PulseEvent::Heartbeat(hb) => {
            let sample = Json::obj()
                .field("type", "heartbeat")
                .field("seq", hb.seq)
                .field("t_ns", hb.t_ns)
                .field("workers", hb.workers.len())
                .field("queued", hb.queued)
                .field("pending", hb.pending)
                .field("steals", hb.steals)
                .field("jobs_done", hb.jobs_done)
                .field("cache_bytes", hb.cache_bytes)
                .field("cache_entries", hb.cache_entries)
                .field("snapshot_bytes", hb.snapshot_bytes)
                .field("snapshot_entries", hb.snapshot_entries)
                .field("interp_peak_heap_bytes", hb.interp_peak_heap_bytes);
            let workers = hb.workers.iter().enumerate().map(|(i, state)| {
                let line = Json::obj()
                    .field("type", "worker")
                    .field("hb", hb.seq)
                    .field("worker", i)
                    .field("state", state.token());
                match state {
                    WorkerState::Idle => line,
                    WorkerState::Unit { app, seed } => {
                        line.field("app", app.as_str()).field("seed", *seed)
                    }
                    WorkerState::Site { app, seed, site } => line
                        .field("app", app.as_str())
                        .field("seed", *seed)
                        .field("site", site.as_str()),
                }
            });
            std::iter::once(sample).chain(workers).collect()
        }
        PulseEvent::Finished {
            wall_ns,
            sites,
            exposed,
        } => vec![Json::obj()
            .field("type", "finished")
            .field("wall_ns", *wall_ns)
            .field("sites", *sites)
            .field("exposed", *exposed)],
    }
}

/// Serialises one event to its line (or lines, for heartbeats), each
/// newline-terminated.
#[must_use]
pub fn pulse_event_lines(event: &PulseEvent) -> String {
    jsonl(event_records(event))
}

/// A whole stream's records: header, then every event.
pub(crate) fn telemetry_records<'a>(
    threads: u32,
    events: impl IntoIterator<Item = &'a PulseEvent> + 'a,
) -> impl Iterator<Item = Json> + 'a {
    std::iter::once(header_json(threads)).chain(events.into_iter().flat_map(event_records))
}

/// Decodes one non-heartbeat, non-worker record.
fn event_from_json(kind: &str, obj: &Json) -> Result<PulseEvent, String> {
    let app = || obj.req_str("app").map(str::to_string);
    Ok(match kind {
        "unit_started" => PulseEvent::UnitStarted {
            app: app()?,
            seed: obj.req_uint("seed")?,
        },
        "sites_identified" => PulseEvent::SitesIdentified {
            app: app()?,
            seed: obj.req_uint("seed")?,
            sites: obj.req_uint("sites")?,
        },
        "site_finished" => PulseEvent::SiteFinished {
            app: app()?,
            seed: obj.req_uint("seed")?,
            site: obj.req_str("site")?.to_string(),
            outcome: obj.req_str("outcome")?.to_string(),
            wall_ns: obj.req_uint("wall_ns")?,
            cache_bytes: obj.req_uint("cache_bytes")?,
            snapshot_bytes: obj.req_uint("snapshot_bytes")?,
            peak_heap_bytes: obj.req_uint("peak_heap_bytes")?,
        },
        "finished" => PulseEvent::Finished {
            wall_ns: obj.req_uint("wall_ns")?,
            sites: obj.req_uint("sites")?,
            exposed: obj.req_uint("exposed")?,
        },
        other => return Err(format!("unknown record type {other:?}")),
    })
}

/// Decodes a heartbeat sample and its declared worker count. The worker
/// states are filled in by the `worker` records that follow, so no
/// allocation is sized by the untrusted count.
fn heartbeat_from_json(obj: &Json) -> Result<(usize, HeartbeatSample), String> {
    let sample = HeartbeatSample {
        seq: obj.req_uint("seq")?,
        t_ns: obj.req_uint("t_ns")?,
        workers: Vec::new(),
        queued: obj.req_uint("queued")?,
        pending: obj.req_uint("pending")?,
        steals: obj.req_uint("steals")?,
        jobs_done: obj.req_uint("jobs_done")?,
        cache_bytes: obj.req_uint("cache_bytes")?,
        cache_entries: obj.req_uint("cache_entries")?,
        snapshot_bytes: obj.req_uint("snapshot_bytes")?,
        snapshot_entries: obj.req_uint("snapshot_entries")?,
        interp_peak_heap_bytes: obj.req_uint("interp_peak_heap_bytes")?,
    };
    Ok((obj.req_uint("workers")?, sample))
}

/// Closes a heartbeat once every declared worker record has arrived.
fn heartbeat_closed((declared, hb): (usize, HeartbeatSample)) -> Result<PulseEvent, String> {
    if hb.workers.len() != declared {
        return Err(format!(
            "heartbeat {} declares {declared} worker(s) but {} worker line(s) follow",
            hb.seq,
            hb.workers.len()
        ));
    }
    Ok(PulseEvent::Heartbeat(hb))
}

/// Applies one `worker` record to the heartbeat under assembly, which
/// declared `declared` workers; the writer emits them in index order.
fn worker_into(declared: usize, hb: &mut HeartbeatSample, obj: &Json) -> Result<(), String> {
    let hb_seq: u64 = obj.req_uint("hb")?;
    if hb_seq != hb.seq {
        return Err(format!(
            "worker references heartbeat {hb_seq} but heartbeat {} is open",
            hb.seq
        ));
    }
    let index: usize = obj.req_uint("worker")?;
    if index >= declared {
        return Err(format!(
            "worker index {index} out of range (heartbeat declares {declared})"
        ));
    }
    if index != hb.workers.len() {
        return Err(format!(
            "worker index {index} out of order (expected {})",
            hb.workers.len()
        ));
    }
    let state = match obj.req_str("state")? {
        "idle" => WorkerState::Idle,
        "unit" => WorkerState::Unit {
            app: obj.req_str("app")?.to_string(),
            seed: obj.req_uint("seed")?,
        },
        "site" => WorkerState::Site {
            app: obj.req_str("app")?.to_string(),
            seed: obj.req_uint("seed")?,
            site: obj.req_str("site")?.to_string(),
        },
        other => return Err(format!("unknown worker state {other:?}")),
    };
    hb.workers.push(state);
    Ok(())
}

/// An incremental [`Subscriber`] → wire-format forwarder: the fan-out
/// half of per-job telemetry streaming. Construct one per consumer
/// (file writer, network client, ...) around its own bus subscription,
/// then call [`drain`](TelemetryStream::drain) whenever the consumer
/// can take more bytes — the first drain is prefixed with the header
/// line, and [`finished`](TelemetryStream::finished) flips once the
/// campaign's terminal `finished` record has been emitted. Slow
/// consumers inherit the bus invariant: a full ring counts drops
/// ([`dropped`](TelemetryStream::dropped)) instead of slowing anyone.
pub struct TelemetryStream {
    subscriber: Subscriber,
    threads: u32,
    header_pending: bool,
    finished: bool,
}

impl TelemetryStream {
    /// A stream over `subscriber` for a campaign running `threads`
    /// workers (stamped into the header line).
    #[must_use]
    pub fn new(subscriber: Subscriber, threads: u32) -> TelemetryStream {
        TelemetryStream {
            subscriber,
            threads,
            header_pending: true,
            finished: false,
        }
    }

    /// Every currently buffered event as newline-terminated wire lines
    /// (header first on the initial call). Empty when nothing is
    /// pending. Never blocks.
    pub fn drain(&mut self) -> String {
        let mut out = String::new();
        if self.header_pending {
            out.push_str(&telemetry_header(self.threads));
            self.header_pending = false;
        }
        while let Some(event) = self.subscriber.try_recv() {
            if matches!(event, PulseEvent::Finished { .. }) {
                self.finished = true;
            }
            out.push_str(&pulse_event_lines(&event));
        }
        out
    }

    /// True once the campaign's terminal `finished` event has been
    /// drained — no further lines will ever appear.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Events this stream's subscriber lost to backpressure.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.subscriber.dropped()
    }
}

/// A fully parsed telemetry stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryLog {
    /// Worker-thread count the campaign ran with.
    pub threads: u32,
    /// Every event, in stream order (heartbeats reassembled).
    pub events: Vec<PulseEvent>,
}

impl TelemetryLog {
    /// Serialises header + every event back to the wire format.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        jsonl(telemetry_records(self.threads, &self.events))
    }

    /// Parses a telemetry stream, reassembling heartbeat worker lines.
    pub fn from_jsonl(text: &str) -> Result<TelemetryLog, String> {
        TelemetryLog::read(&mut JsonlReader::new("telemetry", text))
    }

    /// Reads a header line and every record after it from `reader`
    /// (a whole telemetry file, or the tail of a flight dump).
    pub(crate) fn read(reader: &mut JsonlReader<'_>) -> Result<TelemetryLog, String> {
        let threads = reader.header("pulse", TELEMETRY_SCHEMA_VERSION, |head| {
            Ok(head.opt("threads", Json::req_uint)?.unwrap_or(0))
        })?;
        let mut events = Vec::new();
        // The heartbeat under assembly (with its declared worker count),
        // collecting `worker` lines.
        let mut pending: Option<(usize, HeartbeatSample)> = None;
        reader.each(|obj| {
            let kind = obj.req_str("type")?;
            if kind == "worker" {
                let (declared, hb) = pending
                    .as_mut()
                    .ok_or("worker record outside a heartbeat")?;
                return worker_into(*declared, hb, obj);
            }
            if let Some(open) = pending.take() {
                events.push(heartbeat_closed(open)?);
            }
            if kind == "heartbeat" {
                pending = Some(heartbeat_from_json(obj)?);
            } else {
                events.push(event_from_json(kind, obj)?);
            }
            Ok(())
        })?;
        if let Some(open) = pending {
            events.push(heartbeat_closed(open).map_err(|e| format!("telemetry: {e}"))?);
        }
        Ok(TelemetryLog { threads, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TelemetryLog {
        TelemetryLog {
            threads: 2,
            events: vec![
                PulseEvent::UnitStarted {
                    app: "forged-001".into(),
                    seed: 0,
                },
                PulseEvent::SitesIdentified {
                    app: "forged-001".into(),
                    seed: 0,
                    sites: 3,
                },
                PulseEvent::Heartbeat(HeartbeatSample {
                    seq: 0,
                    t_ns: 50_000_000,
                    workers: vec![
                        WorkerState::Site {
                            app: "forged-001".into(),
                            seed: 0,
                            site: "b0@7".into(),
                        },
                        WorkerState::Idle,
                    ],
                    queued: 2,
                    pending: 3,
                    steals: 1,
                    jobs_done: 4,
                    cache_bytes: 512,
                    cache_entries: 8,
                    snapshot_bytes: 4096,
                    snapshot_entries: 3,
                    interp_peak_heap_bytes: 1024,
                }),
                PulseEvent::SiteFinished {
                    app: "forged-001".into(),
                    seed: 0,
                    site: "b0@7".into(),
                    outcome: "exposed".into(),
                    wall_ns: 9_000_000,
                    cache_bytes: 512,
                    snapshot_bytes: 4096,
                    peak_heap_bytes: 1024,
                },
                PulseEvent::Heartbeat(HeartbeatSample {
                    seq: 1,
                    t_ns: 100_000_000,
                    workers: vec![
                        WorkerState::Unit {
                            app: "forged-002 \"q\"".into(),
                            seed: 1,
                        },
                        WorkerState::Idle,
                    ],
                    ..HeartbeatSample::default()
                }),
                PulseEvent::Finished {
                    wall_ns: 200_000_000,
                    sites: 3,
                    exposed: 1,
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let log = sample_log();
        let text = log.to_jsonl();
        let back = TelemetryLog::from_jsonl(&text).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.to_jsonl(), text);
        // Wire bytes pinned to the format's first release: every event
        // type, heartbeats with their worker lines in all three states.
        let golden = r#"{"type":"pulse","v":1,"threads":2}
{"type":"unit_started","app":"forged-001","seed":0}
{"type":"sites_identified","app":"forged-001","seed":0,"sites":3}
{"type":"heartbeat","seq":0,"t_ns":50000000,"workers":2,"queued":2,"pending":3,"steals":1,"jobs_done":4,"cache_bytes":512,"cache_entries":8,"snapshot_bytes":4096,"snapshot_entries":3,"interp_peak_heap_bytes":1024}
{"type":"worker","hb":0,"worker":0,"state":"site","app":"forged-001","seed":0,"site":"b0@7"}
{"type":"worker","hb":0,"worker":1,"state":"idle"}
{"type":"site_finished","app":"forged-001","seed":0,"site":"b0@7","outcome":"exposed","wall_ns":9000000,"cache_bytes":512,"snapshot_bytes":4096,"peak_heap_bytes":1024}
{"type":"heartbeat","seq":1,"t_ns":100000000,"workers":2,"queued":0,"pending":0,"steals":0,"jobs_done":0,"cache_bytes":0,"cache_entries":0,"snapshot_bytes":0,"snapshot_entries":0,"interp_peak_heap_bytes":0}
{"type":"worker","hb":1,"worker":0,"state":"unit","app":"forged-002 \"q\"","seed":1}
{"type":"worker","hb":1,"worker":1,"state":"idle"}
{"type":"finished","wall_ns":200000000,"sites":3,"exposed":1}
"#;
        assert_eq!(text, golden);
        assert_eq!(TelemetryLog::from_jsonl(golden).unwrap().to_jsonl(), golden);
    }

    #[test]
    fn heartbeat_at_end_of_stream_is_flushed() {
        let log = TelemetryLog {
            threads: 1,
            events: vec![PulseEvent::Heartbeat(HeartbeatSample {
                seq: 0,
                workers: vec![WorkerState::Idle],
                ..HeartbeatSample::default()
            })],
        };
        let back = TelemetryLog::from_jsonl(&log.to_jsonl()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn stream_forwards_incrementally_and_flags_finished() {
        let bus = crate::pulse::PulseBus::new();
        let mut stream = TelemetryStream::new(bus.subscribe(64), 2);
        // Nothing published yet: first drain is just the header.
        assert_eq!(stream.drain(), telemetry_header(2));
        assert_eq!(stream.drain(), "");
        let started = PulseEvent::UnitStarted {
            app: "forged-001".into(),
            seed: 0,
        };
        bus.publish(&started);
        assert_eq!(stream.drain(), pulse_event_lines(&started));
        assert!(!stream.finished());
        let done = PulseEvent::Finished {
            wall_ns: 1,
            sites: 2,
            exposed: 1,
        };
        bus.publish(&done);
        assert_eq!(stream.drain(), pulse_event_lines(&done));
        assert!(stream.finished());
        assert_eq!(stream.dropped(), 0);
        // The concatenation of all drains is a parseable stream.
        let full = format!(
            "{}{}{}",
            telemetry_header(2),
            pulse_event_lines(&started),
            pulse_event_lines(&done)
        );
        let log = TelemetryLog::from_jsonl(&full).unwrap();
        assert_eq!(log.events, vec![started, done]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(TelemetryLog::from_jsonl("").unwrap_err().contains("empty"));
        assert!(TelemetryLog::from_jsonl("{\"type\":\"pulse\",\"v\":9}\n")
            .unwrap_err()
            .contains("unsupported schema version"));
        let orphan_worker = "{\"type\":\"pulse\",\"v\":1,\"threads\":1}\n\
             {\"type\":\"worker\",\"hb\":0,\"worker\":0,\"state\":\"idle\"}\n";
        assert!(TelemetryLog::from_jsonl(orphan_worker)
            .unwrap_err()
            .contains("outside a heartbeat"));
        let bad_index = "{\"type\":\"pulse\",\"v\":1,\"threads\":1}\n\
             {\"type\":\"heartbeat\",\"seq\":0,\"t_ns\":0,\"workers\":1,\"queued\":0,\
              \"pending\":0,\"steals\":0,\"jobs_done\":0,\"cache_bytes\":0,\"cache_entries\":0,\
              \"snapshot_bytes\":0,\"snapshot_entries\":0,\"interp_peak_heap_bytes\":0}\n\
             {\"type\":\"worker\",\"hb\":0,\"worker\":5,\"state\":\"idle\"}\n";
        assert!(TelemetryLog::from_jsonl(bad_index)
            .unwrap_err()
            .contains("out of range"));
        // A hostile worker count is refused before anything is allocated.
        let huge_workers = "{\"type\":\"pulse\",\"v\":1,\"threads\":1}\n\
             {\"type\":\"heartbeat\",\"seq\":0,\"t_ns\":0,\"workers\":1000000000000,\
              \"queued\":0,\"pending\":0,\"steals\":0,\"jobs_done\":0,\"cache_bytes\":0,\
              \"cache_entries\":0,\"snapshot_bytes\":0,\"snapshot_entries\":0,\
              \"interp_peak_heap_bytes\":0}\n";
        assert!(TelemetryLog::from_jsonl(huge_workers)
            .unwrap_err()
            .contains("declares 1000000000000 worker(s)"));
        // A heartbeat closes only once every declared worker has a line.
        let short_heartbeat = "{\"type\":\"pulse\",\"v\":1,\"threads\":2}\n\
             {\"type\":\"heartbeat\",\"seq\":0,\"t_ns\":0,\"workers\":2,\"queued\":0,\
              \"pending\":0,\"steals\":0,\"jobs_done\":0,\"cache_bytes\":0,\"cache_entries\":0,\
              \"snapshot_bytes\":0,\"snapshot_entries\":0,\"interp_peak_heap_bytes\":0}\n\
             {\"type\":\"worker\",\"hb\":0,\"worker\":0,\"state\":\"idle\"}\n";
        assert!(TelemetryLog::from_jsonl(short_heartbeat)
            .unwrap_err()
            .contains("declares 2 worker(s) but 1 worker line(s) follow"));
        // A hostile nesting depth is an error, not a stack overflow.
        let deep = format!(
            "{{\"type\":\"pulse\",\"v\":1,\"threads\":1}}\n{{\"type\":{}\n",
            "[".repeat(100_000)
        );
        assert!(TelemetryLog::from_jsonl(&deep)
            .unwrap_err()
            .contains("telemetry line 2"));
        // Narrow fields are range-checked, never truncated.
        let wide_seed = "{\"type\":\"pulse\",\"v\":1,\"threads\":1}\n\
             {\"type\":\"unit_started\",\"app\":\"a\",\"seed\":4294967296}\n";
        assert!(TelemetryLog::from_jsonl(wide_seed)
            .unwrap_err()
            .contains("does not fit u32"));
    }
}
