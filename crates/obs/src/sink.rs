//! The versioned JSONL trace wire format.
//!
//! A trace serialises as one JSON object per line:
//!
//! ```text
//! {"type":"trace","v":1,"wall_ns":81234567,"threads":4}
//! {"type":"span","phase":"solve","app":"forged-003","seed":0,"site":"b0@7","seq":4,"parent":2,"start_ns":151,"dur_ns":90,"cache_hit":false}
//! {"type":"counter","name":"solver.queries","value":412}
//! {"type":"hist","name":"scheduler.queue_wait_ns","count":31,"sum":90000,"max":20000,"p50":4095,"p99":16383}
//! ```
//!
//! The header line carries the schema version ([`TRACE_SCHEMA_VERSION`]);
//! loading rejects other versions with a clear error. Records are
//! [`Json`] values, written and read by the crate's one codec.

use crate::json::{jsonl, Json, JsonlReader};
use crate::metrics::HistSummary;
use crate::span::{Phase, Span, Trace};

/// Version stamped into (and required from) the JSONL header line.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Error from parsing a JSONL trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// Human-readable description, including the offending line number.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TraceError {}

fn err(message: impl Into<String>) -> TraceError {
    TraceError {
        message: message.into(),
    }
}

impl Trace {
    /// Serialise to the versioned JSONL wire format.
    pub fn to_jsonl(&self) -> String {
        let header = Json::obj()
            .field("type", "trace")
            .field("v", TRACE_SCHEMA_VERSION)
            .field_opt("wall_ns", self.wall_ns)
            .field_opt("threads", self.threads);
        let spans = self.spans.iter().map(|span| {
            Json::obj()
                .field("type", "span")
                .field("phase", span.phase.as_str())
                .field("app", span.app.as_str())
                .field("seed", span.seed)
                .field("seq", span.seq)
                .field_opt("site", span.site.as_deref())
                .field_opt("parent", span.parent)
                .field("start_ns", span.start_ns)
                .field("dur_ns", span.dur_ns)
                .field_opt("cache_hit", span.cache_hit)
        });
        let counters = self.counters.iter().map(|(name, value)| {
            Json::obj()
                .field("type", "counter")
                .field("name", name.as_str())
                .field("value", *value)
        });
        let hists = self.hists.iter().map(|(name, h)| {
            h.json_fields(
                Json::obj()
                    .field("type", "hist")
                    .field("name", name.as_str()),
            )
        });
        jsonl(
            std::iter::once(header)
                .chain(spans)
                .chain(counters)
                .chain(hists),
        )
    }

    /// Parse the JSONL wire format back into a trace. Strict on the
    /// header (type + version) and on per-line record shape.
    pub fn from_jsonl(text: &str) -> Result<Trace, TraceError> {
        let mut reader = JsonlReader::new("trace", text);
        let mut trace = reader
            .header("trace", TRACE_SCHEMA_VERSION, |head| {
                Ok(Trace {
                    wall_ns: head.opt("wall_ns", Json::req_uint)?,
                    threads: head.opt("threads", Json::req_uint)?,
                    ..Trace::default()
                })
            })
            .map_err(err)?;
        reader
            .each(|obj| {
                match obj.req_str("type")? {
                    "span" => trace.spans.push(span_from_json(obj)?),
                    "counter" => {
                        let name = obj.req_str("name")?.to_string();
                        trace.counters.insert(name, obj.req_uint("value")?);
                    }
                    "hist" => {
                        let name = obj.req_str("name")?.to_string();
                        trace.hists.insert(name, HistSummary::from_json(obj)?);
                    }
                    other => return Err(format!("unknown record type {other:?}")),
                }
                Ok(())
            })
            .map_err(err)?;
        Ok(trace)
    }
}

fn span_from_json(obj: &Json) -> Result<Span, String> {
    let phase_name = obj.req_str("phase")?;
    let phase = Phase::parse(phase_name).ok_or_else(|| format!("unknown phase {phase_name:?}"))?;
    Ok(Span {
        phase,
        app: obj.req_str("app")?.to_string(),
        seed: obj.req_uint("seed")?,
        site: obj.opt("site", Json::req_str)?.map(str::to_string),
        seq: obj.req_uint("seq")?,
        parent: obj.opt("parent", Json::req_uint)?,
        start_ns: obj.req_uint("start_ns")?,
        dur_ns: obj.req_uint("dur_ns")?,
        cache_hit: obj.opt("cache_hit", Json::req_bool)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut trace = Trace {
            wall_ns: Some(123_456),
            threads: Some(4),
            ..Trace::default()
        };
        trace.spans.push(Span {
            phase: Phase::Identify,
            app: "app \"quoted\"\n".into(),
            seed: 7,
            site: None,
            seq: 0,
            parent: None,
            start_ns: 10,
            dur_ns: 90,
            cache_hit: None,
        });
        trace.spans.push(Span {
            phase: Phase::Solve,
            app: "forged-001".into(),
            seed: 0,
            site: Some("b0@3".into()),
            seq: 4,
            parent: Some(2),
            start_ns: 500,
            dur_ns: 20,
            cache_hit: Some(true),
        });
        trace.counters.insert("solver.queries".into(), 42);
        trace.hists.insert(
            "queue_wait_ns".into(),
            HistSummary {
                count: 3,
                sum: 600,
                max: 400,
                p50: 255,
                p99: 511,
            },
        );
        trace
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = sample_trace();
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        // And the serialised form is stable.
        assert_eq!(back.to_jsonl(), text);
        // Wire bytes pinned to the format's first release: header, spans
        // with and without the optional fields, counter, hist.
        let golden = r#"{"type":"trace","v":1,"wall_ns":123456,"threads":4}
{"type":"span","phase":"identify","app":"app \"quoted\"\n","seed":7,"seq":0,"start_ns":10,"dur_ns":90}
{"type":"span","phase":"solve","app":"forged-001","seed":0,"seq":4,"site":"b0@3","parent":2,"start_ns":500,"dur_ns":20,"cache_hit":true}
{"type":"counter","name":"solver.queries","value":42}
{"type":"hist","name":"queue_wait_ns","count":3,"sum":600,"max":400,"p50":255,"p99":511}
"#;
        assert_eq!(text, golden);
        assert_eq!(Trace::from_jsonl(golden).unwrap().to_jsonl(), golden);
    }

    #[test]
    fn rejects_wrong_version_and_garbage() {
        let bad_version = "{\"type\":\"trace\",\"v\":99}\n";
        let e = Trace::from_jsonl(bad_version).unwrap_err();
        assert!(e.message.contains("unsupported schema version 99"), "{e}");

        let no_header = "{\"type\":\"span\"}\n";
        assert!(Trace::from_jsonl(no_header)
            .unwrap_err()
            .message
            .contains("header"));

        assert!(Trace::from_jsonl("").unwrap_err().message.contains("empty"));

        let bad_line = "{\"type\":\"trace\",\"v\":1}\nnot json\n";
        assert!(Trace::from_jsonl(bad_line)
            .unwrap_err()
            .message
            .contains("line 2"));

        let bad_span = "{\"type\":\"trace\",\"v\":1}\n{\"type\":\"span\",\"phase\":\"warp\",\"app\":\"a\",\"seed\":0,\"seq\":0,\"start_ns\":0,\"dur_ns\":0}\n";
        assert!(Trace::from_jsonl(bad_span)
            .unwrap_err()
            .message
            .contains("unknown phase"));
    }
}
