//! serve — the client for a running `diode-serve` daemon, plus the
//! serve-bench load generator.
//!
//! Client subcommands (all take `--addr HOST:PORT`, default
//! `127.0.0.1:7070`):
//!
//! * `serve submit [--apps N] [--depth N] [--sites N] [--seeds-per-app N]
//!   [--site-work N] [--rng-seed N] [--suite ID] [--threads N] [--wait]`
//!   — enqueue a campaign job (forge spec by default, or a corpus suite
//!   id/prefix with `--suite`). Prints the daemon's JSON response line;
//!   with `--wait` that line is the full job report. Watchdog knobs
//!   ride along (`synth_campaign` parity): `--watchdog` runs the job
//!   under default thresholds and, with `--wait`, exits 1 if any
//!   anomaly fires; `--slow-factor F`, `--slow-floor-ms N`,
//!   `--min-sites N`, `--idle-heartbeats N` (0 disables), and
//!   `--cache-ceiling BYTES` tune it (each implies `--watchdog`'s
//!   detectors); `--anomalies PATH` saves the reply's anomaly digest
//!   JSONL (render with `watch --anomalies`). `--stall-work N` plants
//!   one deliberately slow site (the flight-recorder drill).
//! * `serve status [--job ID]` — daemon summary, or one job's state.
//! * `serve watch --job ID` — stream the job's telemetry JSONL to
//!   stdout until its `finished` record (pipe to a file and render it
//!   with `watch --replay`, or point `watch --follow` at the daemon's
//!   `--telemetry-file`).
//! * `serve metrics [--prometheus]` — scrape the daemon's service
//!   metrics: one JSON object by default, Prometheus text format with
//!   `--prometheus`.
//! * `serve health` — the typed readiness/liveness probe; exits 0 iff
//!   the daemon reports itself healthy.
//! * `serve shutdown` — drain the queue and stop the daemon.
//! * `serve assert-warmer COLD.json WARM.json` — exit 0 iff the WARM
//!   report's per-job solver-cache hit rate strictly exceeds COLD's
//!   (the CI warm-cache gate over two saved `submit --wait` replies).
//!
//! The load mode (the `--serve-bench` axis of `BENCH_engine.json`):
//!
//! * `serve bench [--addr A] [--clients N] [--jobs N] [--apps N]
//!   [--depth N] [--site-work N] [--workers N] [--bench-out PATH]
//!   [--json]` — run one cold job, then `--clients` concurrent client
//!   threads each submitting `--jobs` synchronous jobs of the same spec
//!   against the warm caches. Reports jobs/sec and p50/p99 latency,
//!   asserts the warm hit rate strictly exceeds the cold one (exit 1
//!   otherwise), and merges a `"serve"` section into `--bench-out`
//!   (default none) without disturbing the artifact's other axes —
//!   including the daemon's own scraped metrics as the section's
//!   `"daemon"` field. With no `--addr` it hosts an in-process daemon
//!   on an ephemeral port, so the bench is self-contained.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use diode_bench::{flag_f64, flag_num, flag_str};
use diode_obs::{anomalies_to_jsonl, AnomalyKind, AnomalyReport, Json};
use diode_serve::{serve, ServeConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!(
            "serve: usage: serve submit|status|watch|metrics|health|shutdown|\
             assert-warmer|bench [FLAGS]"
        );
        std::process::exit(2);
    };
    let addr = flag_str(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".to_string());
    match cmd {
        "submit" => {
            let reply = request(&addr, &submit_line(&args));
            println!("{reply}");
            handle_anomalies(&args, &reply);
            exit_by_ok(&reply);
        }
        "status" => {
            let line = match flag_str(&args, "--job") {
                Some(job) => format!(r#"{{"op":"status","job":"{job}"}}"#),
                None => r#"{"op":"status"}"#.to_string(),
            };
            let reply = request(&addr, &line);
            println!("{reply}");
            exit_by_ok(&reply);
        }
        "watch" => {
            let Some(job) = flag_str(&args, "--job") else {
                eprintln!("serve watch: --job ID is required");
                std::process::exit(2);
            };
            stream_watch(&addr, &job);
        }
        "metrics" => {
            if args.iter().any(|a| a == "--prometheus") {
                let text = request_text(&addr, r#"{"op":"metrics","format":"prometheus"}"#);
                // A disabled registry answers with a one-line rejection.
                if let Ok(j) = Json::parse(text.trim()) {
                    if j.get("ok").and_then(Json::as_bool) == Some(false) {
                        eprintln!("serve: {j}");
                        std::process::exit(1);
                    }
                }
                print!("{text}");
            } else {
                let reply = request(&addr, r#"{"op":"metrics"}"#);
                println!("{reply}");
                exit_by_ok(&reply);
            }
        }
        "health" => {
            let reply = request(&addr, r#"{"op":"health"}"#);
            println!("{reply}");
            exit_by_ok(&reply);
            if reply.get("healthy").and_then(Json::as_bool) != Some(true) {
                std::process::exit(1);
            }
        }
        "shutdown" => {
            let reply = request(&addr, r#"{"op":"shutdown"}"#);
            println!("{reply}");
            exit_by_ok(&reply);
        }
        "assert-warmer" => assert_warmer(&args),
        "bench" => run_bench(&args),
        other => {
            eprintln!("serve: unknown subcommand {other:?}");
            std::process::exit(2);
        }
    }
}

/// Builds a submit request line from the spec/suite flags.
fn submit_line(args: &[String]) -> String {
    let mut obj = Json::obj();
    if let Some(suite) = flag_str(args, "--suite") {
        obj = obj.field("op", "submit").field("suite", suite);
    } else {
        let mut spec = Json::obj();
        for (flag, key) in [
            ("--apps", "apps"),
            ("--depth", "depth"),
            ("--sites", "sites"),
            ("--seeds-per-app", "seeds_per_app"),
            ("--site-work", "site_work"),
            ("--rng-seed", "rng_seed"),
            ("--stall-work", "stall_work"),
        ] {
            if let Some(v) = flag_num(args, flag) {
                spec = spec.field(key, v);
            }
        }
        obj = obj.field("op", "submit").field("spec", spec);
    }
    if args.iter().any(|a| a == "--wait") {
        obj = obj.field("wait", true);
    }
    if let Some(t) = flag_num(args, "--threads") {
        obj = obj.field("threads", t);
    }
    if let Some(w) = watchdog_json(args) {
        obj = obj.field("watchdog", w);
    }
    obj.to_string()
}

/// The submit request's `watchdog` field from the CLI knobs: `true`
/// for `--watchdog` alone, an override object when thresholds are
/// tuned, absent when neither is given.
fn watchdog_json(args: &[String]) -> Option<Json> {
    let mut overrides = Json::obj();
    let mut tuned = false;
    if let Some(f) = flag_f64(args, "--slow-factor") {
        overrides = overrides.field("slow_factor", f);
        tuned = true;
    }
    if let Some(ms) = flag_num(args, "--slow-floor-ms") {
        overrides = overrides.field("slow_floor_ms", ms);
        tuned = true;
    }
    if let Some(n) = flag_num(args, "--min-sites") {
        overrides = overrides.field("min_sites", n);
        tuned = true;
    }
    if let Some(n) = flag_num(args, "--idle-heartbeats") {
        overrides = overrides.field("idle_heartbeats", n);
        tuned = true;
    }
    if let Some(b) = flag_num(args, "--cache-ceiling") {
        overrides = overrides.field("cache_ceiling", b);
        tuned = true;
    }
    if tuned {
        Some(overrides)
    } else if args.iter().any(|a| a == "--watchdog") {
        Some(Json::from(true))
    } else {
        None
    }
}

/// Whether any watchdog knob was passed (the exit-gate opt-in).
fn watchdog_requested(args: &[String]) -> bool {
    args.iter().any(|a| a == "--watchdog") || watchdog_json(args).is_some()
}

/// Post-processes a `submit --wait` reply's `anomalies` array:
/// optionally saves the digest JSONL, and applies the `synth_campaign`
/// exit gate (any anomaly under `--watchdog` exits 1).
fn handle_anomalies(args: &[String], reply: &Json) {
    let anomalies: Vec<AnomalyReport> = reply
        .get("anomalies")
        .and_then(Json::as_arr)
        .map(|rows| rows.iter().filter_map(anomaly_from_json).collect())
        .unwrap_or_default();
    if let Some(path) = flag_str(args, "--anomalies") {
        if reply.get("anomalies").is_none() {
            eprintln!(
                "serve submit: --anomalies needs a watchdog report (pass --watchdog and --wait)"
            );
            std::process::exit(2);
        }
        if let Err(e) = std::fs::write(&path, anomalies_to_jsonl(&anomalies)) {
            eprintln!("serve submit: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    if watchdog_requested(args) && !anomalies.is_empty() {
        eprintln!(
            "serve submit: WATCHDOG FAIL: {} anomaly(ies) fired",
            anomalies.len()
        );
        for a in &anomalies {
            eprintln!("  [{}] {}: {}", a.kind.as_str(), a.subject, a.detail);
        }
        std::process::exit(1);
    }
}

/// One `anomalies` array row from a job report, back as a typed report.
fn anomaly_from_json(row: &Json) -> Option<AnomalyReport> {
    Some(AnomalyReport {
        kind: AnomalyKind::parse(row.get("kind")?.as_str()?)?,
        subject: row.get("subject")?.as_str()?.to_string(),
        detail: row.get("detail")?.as_str()?.to_string(),
        value: row.get("value")?.as_u64()?,
        threshold: row.get("threshold")?.as_u64()?,
    })
}

/// One request line, one response line.
fn request(addr: &str, line: &str) -> Json {
    let mut conn = connect(addr);
    if let Err(e) = writeln!(conn, "{line}") {
        eprintln!("serve: cannot send to {addr}: {e}");
        std::process::exit(2);
    }
    let mut reply = String::new();
    if let Err(e) = BufReader::new(conn).read_line(&mut reply) {
        eprintln!("serve: cannot read from {addr}: {e}");
        std::process::exit(2);
    }
    match Json::parse(reply.trim()) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("serve: malformed response from {addr}: {e}");
            std::process::exit(2);
        }
    }
}

/// One request line, a free-form text response (the Prometheus
/// exposition is many lines, not one JSON line).
fn request_text(addr: &str, line: &str) -> String {
    let mut conn = connect(addr);
    if let Err(e) = writeln!(conn, "{line}") {
        eprintln!("serve: cannot send to {addr}: {e}");
        std::process::exit(2);
    }
    let mut text = String::new();
    if let Err(e) = BufReader::new(conn).read_to_string(&mut text) {
        eprintln!("serve: cannot read from {addr}: {e}");
        std::process::exit(2);
    }
    text
}

fn connect(addr: &str) -> TcpStream {
    match TcpStream::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: cannot connect to {addr}: {e} (is diode-serve running?)");
            std::process::exit(2);
        }
    }
}

/// Streams a watch to stdout. The first line may be a typed rejection
/// (e.g. 404) rather than a telemetry header; detect it and exit 1.
fn stream_watch(addr: &str, job: &str) {
    let mut conn = connect(addr);
    if let Err(e) = writeln!(conn, r#"{{"op":"watch","job":"{job}"}}"#) {
        eprintln!("serve: cannot send to {addr}: {e}");
        std::process::exit(2);
    }
    let mut reader = BufReader::new(conn);
    let mut first = String::new();
    if reader.read_line(&mut first).is_err() || first.trim().is_empty() {
        eprintln!("serve: empty watch stream from {addr}");
        std::process::exit(2);
    }
    if let Ok(j) = Json::parse(first.trim()) {
        if j.get("ok").and_then(Json::as_bool) == Some(false) {
            eprintln!("serve: {j}");
            std::process::exit(1);
        }
    }
    print!("{first}");
    let mut rest = String::new();
    if let Err(e) = reader.read_to_string(&mut rest) {
        eprintln!("serve: watch stream interrupted: {e}");
        std::process::exit(2);
    }
    print!("{rest}");
}

fn exit_by_ok(reply: &Json) {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        std::process::exit(1);
    }
}

/// Per-job solver-cache hit rate out of a saved `submit --wait` reply.
fn job_hit_rate(path: &str) -> f64 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("serve assert-warmer: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    // The reply may be the last line of a log that also carries other
    // output; scan lines from the end for a serve_job report.
    for line in text.lines().rev() {
        if let Ok(j) = Json::parse(line.trim()) {
            if let Some(rate) = j
                .get("cache")
                .and_then(|c| c.get("hit_rate"))
                .and_then(Json::as_f64)
            {
                return rate;
            }
        }
    }
    eprintln!("serve assert-warmer: {path} holds no job report with a cache.hit_rate");
    std::process::exit(2);
}

/// `assert-warmer COLD.json WARM.json`: the warm-cache gate.
fn assert_warmer(args: &[String]) {
    let (Some(cold_path), Some(warm_path)) = (args.get(1), args.get(2)) else {
        eprintln!("serve assert-warmer: usage: serve assert-warmer COLD.json WARM.json");
        std::process::exit(2);
    };
    let (cold, warm) = (job_hit_rate(cold_path), job_hit_rate(warm_path));
    println!("serve assert-warmer: cold hit rate {cold:.4}, warm {warm:.4}");
    if warm > cold {
        println!("  warm strictly exceeds cold: PASS");
    } else {
        println!("  warm does not exceed cold: FAIL");
        std::process::exit(1);
    }
}

/// The serve-bench load mode.
fn run_bench(args: &[String]) {
    let clients = flag_num(args, "--clients").unwrap_or(4).max(1) as usize;
    let jobs_per_client = flag_num(args, "--jobs").unwrap_or(4).max(1) as usize;
    let apps = flag_num(args, "--apps").unwrap_or(5).max(1);
    let depth = flag_num(args, "--depth").unwrap_or(2);
    let site_work = flag_num(args, "--site-work").unwrap_or(0);
    let workers = flag_num(args, "--workers").unwrap_or(1).max(1) as usize;
    let json = args.iter().any(|a| a == "--json");
    let bench_out = flag_str(args, "--bench-out");

    // External daemon, or a self-hosted one on an ephemeral port.
    let (addr, hosted) = match flag_str(args, "--addr") {
        Some(a) => (a, None),
        None => {
            let handle = match serve(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers,
                queue_depth: clients * jobs_per_client + 1,
                ..ServeConfig::default()
            }) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("serve bench: cannot host a daemon: {e}");
                    std::process::exit(2);
                }
            };
            (handle.addr().to_string(), Some(handle))
        }
    };

    let submit = format!(
        r#"{{"op":"submit","spec":{{"apps":{apps},"depth":{depth},"site_work":{site_work}}},"wait":true}}"#
    );

    // Cold reference job: the caches have never seen this suite.
    let cold = request(&addr, &submit);
    let rate = |r: &Json| {
        r.get("cache")
            .and_then(|c| c.get("hit_rate"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| {
                eprintln!("serve bench: job reply has no cache.hit_rate: {r}");
                std::process::exit(2);
            })
    };
    let cold_rate = rate(&cold);

    // The load: `clients` threads, each submitting `jobs_per_client`
    // synchronous jobs of the same spec against now-warm caches.
    let started = Instant::now();
    let lat_and_rates: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    (0..jobs_per_client)
                        .map(|_| {
                            let t = Instant::now();
                            let reply = request(&addr, &submit);
                            (t.elapsed().as_secs_f64() * 1e3, rate(&reply))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();

    // Scrape the daemon's own service metrics before it goes away; a
    // `--no-metrics` daemon answers with a rejection, which degrades to
    // an absent `daemon` field rather than a failed bench.
    let daemon_metrics = {
        let reply = request(&addr, r#"{"op":"metrics"}"#);
        (reply.get("ok").and_then(Json::as_bool) == Some(true))
            .then(|| reply.get("metrics").cloned())
            .flatten()
    };

    if let Some(handle) = hosted {
        let _ = request(&addr, r#"{"op":"shutdown"}"#);
        handle.join();
    }

    let total_jobs = lat_and_rates.len();
    let mut latencies: Vec<f64> = lat_and_rates.iter().map(|(l, _)| *l).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize];
    let warm_rate = lat_and_rates
        .iter()
        .map(|(_, r)| *r)
        .fold(f64::NEG_INFINITY, f64::max);
    let jobs_per_sec = total_jobs as f64 / wall.max(1e-9);

    let mut section = Json::obj()
        .field("clients", clients)
        .field("jobs", total_jobs)
        .field("workers", workers)
        .field(
            "spec",
            Json::obj()
                .field("apps", apps)
                .field("depth", depth)
                .field("site_work", site_work),
        )
        .field("wall_ms", wall * 1e3)
        .field("jobs_per_sec", jobs_per_sec)
        .field("p50_ms", pct(0.50))
        .field("p99_ms", pct(0.99))
        .field("cold_hit_rate", cold_rate)
        .field("warm_hit_rate", warm_rate)
        .field("warmer", warm_rate > cold_rate);
    if let Some(metrics) = daemon_metrics {
        section = section.field("daemon", metrics);
    }

    if let Some(path) = &bench_out {
        merge_serve_section(path, &section);
    }
    if json {
        let Json::Obj(fields) = section.clone() else {
            unreachable!("section is an object")
        };
        let mut out = vec![("table".to_string(), Json::from("serve_bench"))];
        out.extend(fields);
        println!("{}", Json::Obj(out));
    } else {
        println!(
            "serve bench: {total_jobs} job(s) over {clients} client(s) against {workers} \
             worker(s): {jobs_per_sec:.1} jobs/s, p50 {:.1}ms, p99 {:.1}ms",
            pct(0.50),
            pct(0.99)
        );
        println!(
            "  solver-cache hit rate: cold {cold_rate:.4} -> warm {warm_rate:.4}{}",
            if let Some(p) = &bench_out {
                format!("; merged \"serve\" section into {p}")
            } else {
                String::new()
            }
        );
    }
    if warm_rate <= cold_rate {
        eprintln!(
            "serve bench: GATE FAIL: warm hit rate {warm_rate:.4} does not strictly \
             exceed cold {cold_rate:.4}"
        );
        std::process::exit(1);
    }
}

/// Read-modify-write the `"serve"` section of a `BENCH_engine.json`
/// artifact, creating the file if absent and preserving every other
/// axis if present.
fn merge_serve_section(path: &str, section: &Json) {
    let base = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("serve bench: {path}: {e}");
                std::process::exit(2);
            }
        },
        Err(_) => Json::obj().field("table", "bench_engine"),
    };
    let Json::Obj(mut fields) = base else {
        eprintln!("serve bench: {path} is not a JSON object");
        std::process::exit(2);
    };
    fields.retain(|(k, _)| k != "serve");
    fields.push(("serve".to_string(), section.clone()));
    if let Err(e) = std::fs::write(path, format!("{}\n", Json::Obj(fields))) {
        eprintln!("serve bench: cannot write {path}: {e}");
        std::process::exit(2);
    }
}
