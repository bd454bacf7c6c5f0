//! The `daemon` workload: a resident `diode-serve` hosted in this
//! process, loaded by two closed-loop clients over TCP. Also the serve
//! probe that traced one-shot runs use to measure the serve layer on
//! their own program shape.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use diode_serve::protocol::spec_json;
use diode_serve::{parse_request, serve, Json, ServeConfig, ServerHandle};
use diode_synth::{forge, Fnv64, ForgedSuite, SynthConfig};

use crate::campaign::{iterate, Iteration};
use crate::stats::{kernel_quantile, mean, median, peak_rss_mb, put_medians, Sheet};
use crate::suite::derive;
use crate::{replay, Outcome, THREADS};

/// Closed-loop clients; each waits for its reply before the next submit.
const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: usize = 2;
/// Suites submitted during set-up that warm jobs repeat.
const WARM_SUITES: usize = 8;
/// Of every `COLD_EVERY` jobs a client submits, the last is cold.
const COLD_EVERY: usize = 4;
/// Daemon set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Windows of the load phase whose throughputs `sites_per_s` and
/// `jobs_per_s` take the median of.
const RATE_WINDOWS: usize = 5;
/// Longest a client waits for one reply before the run fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// The forge spec every job of a load submits (its `rng_seed`
/// varies per suite).
pub struct JobShape {
    pub apps: usize,
    pub depth: usize,
    /// Pinned sites per app, or the forge's default range.
    pub sites: Option<usize>,
    pub site_work: u32,
    /// Salt separating this shape's suites from other workloads'.
    pub salt: u64,
}

/// The `daemon` workload's jobs.
pub const DAEMON: JobShape = JobShape {
    apps: 10,
    depth: 3,
    sites: None,
    site_work: 1000,
    salt: 0xDAE0,
};

impl JobShape {
    /// The forge config the daemon builds from this shape's wire spec.
    fn config(&self, rng_seed: u64) -> SynthConfig {
        let mut cfg = SynthConfig::default()
            .with_apps(self.apps)
            .with_depth(self.depth)
            .with_rng_seed(rng_seed);
        if let Some(sites) = self.sites {
            cfg.min_sites = sites;
            cfg.max_sites = sites;
        }
        cfg.site_work = self.site_work;
        cfg
    }

    /// The submit line for one suite.
    fn request(&self, rng_seed: u64) -> String {
        let mut spec = Json::obj()
            .field("apps", self.apps)
            .field("depth", self.depth)
            .field("site_work", self.site_work)
            .field("rng_seed", rng_seed);
        if let Some(sites) = self.sites {
            spec = spec.field("sites", sites);
        }
        Json::obj()
            .field("op", "submit")
            .field("spec", spec)
            .field("threads", 1u64)
            .field("wait", true)
            .to_string()
    }

    /// The `index`th suite seed of a stream (warm or cold) whose suites
    /// live on worker `worker`: candidates are drawn from the stream
    /// until one shards there.
    fn seed_for(&self, seed: u64, stream: u64, worker: usize, index: usize) -> u64 {
        (0u64..)
            .map(|attempt| {
                derive(
                    seed,
                    self.salt ^ stream ^ ((index as u64) << 20) ^ (attempt << 44),
                )
            })
            .find(|&s| home_worker(&self.config(s)) == worker % WORKERS)
            .expect("some candidate shards to every worker")
    }
}

/// Seed streams of the warm and the cold suites.
const WARM_SALT: u64 = 0x3A53_0000_0000;
const COLD_SALT: u64 = 0xC01D_0000_0000;
/// The warm working set is part of the workload's definition, not of
/// its seed: the benchmark seed draws the cold traffic. One forged
/// program's cost varies tenfold with its guards and fields, and warm
/// jobs repeat eight suites all run long, so seed-drawn warm suites
/// would move job latency by ±30% from seed to seed.
const WORKING_SET_SEED: u64 = 0x005E_ED0F_3A53;

/// One submitted job as its client saw it.
struct Job {
    /// Index of the warm suite it repeats, or `None` for a cold job.
    warm: Option<usize>,
    rng_seed: u64,
    latency_ms: f64,
    /// When the reply arrived, from the start of the load phase.
    done: Duration,
    reply: Json,
}

impl Job {
    fn ok(&self) -> bool {
        self.reply.get("ok").and_then(Json::as_bool) == Some(true)
    }

    fn sites(&self) -> u64 {
        self.reply
            .get("counts")
            .and_then(|c| c.get("total"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    fn num(&self, key: &str) -> Option<f64> {
        self.reply.get(key).and_then(Json::as_f64)
    }
}

/// Sends one request line on a fresh connection and reads the reply.
fn send(addr: SocketAddr, line: &str) -> std::io::Result<Json> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Json::parse(reply.trim()).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// A failed exchange becomes a typed-looking reply so it is counted
/// like any other failed job.
fn send_or_fail(addr: SocketAddr, line: &str) -> Json {
    send(addr, line).unwrap_or_else(|e| {
        Json::obj()
            .field("ok", false)
            .field("error", "client_io")
            .field("detail", e.to_string())
    })
}

/// Asks the daemon to drain and waits until every worker has exited.
fn shutdown(handle: ServerHandle) {
    let _ = send(handle.addr(), r#"{"op":"shutdown"}"#);
    handle.join();
}

/// A started daemon with its warm suites submitted.
struct Warmed {
    handle: ServerHandle,
    warm_seeds: Vec<u64>,
    /// The benchmark's own forged copies of the warm suites.
    suites: Vec<ForgedSuite>,
    warmups: Vec<Job>,
    setup_s: f64,
    forge_ms: f64,
}

/// The worker the daemon's content sharding sends a forge spec to: the
/// first 8 hex digits of the spec's `spec-<fnv64>` label, modulo the
/// pool. Mirrored here so each client can keep to its own worker; if the
/// daemon's dispatch changes, the inputs stay the same and the change
/// shows as admission wait.
fn home_worker(cfg: &SynthConfig) -> usize {
    let mut label = Fnv64::new();
    label.str(&spec_json(cfg).to_string());
    let prefix = u64::from_str_radix(&label.hex()[..8], 16).expect("FNV hex digest");
    (prefix % WORKERS as u64) as usize
}

/// Set-up: start the daemon, forge the warm suites (the benchmark's copies,
/// for the one-shot reference) and submit each once, client `c`
/// submitting the suites that live on worker `c`.
fn set_up(shape: &JobShape, metrics: bool) -> Warmed {
    let t = Instant::now();
    let handle = serve(ServeConfig {
        workers: WORKERS,
        metrics,
        ..ServeConfig::default()
    })
    .expect("bind the daemon to an ephemeral localhost port");
    let addr = handle.addr();
    let warm_seeds: Vec<u64> = (0..WARM_SUITES)
        .map(|i| shape.seed_for(WORKING_SET_SEED, WARM_SALT, i % CLIENTS, i))
        .collect();
    let f = Instant::now();
    let suites: Vec<ForgedSuite> = warm_seeds
        .iter()
        .map(|&s| forge(&shape.config(s)))
        .collect();
    for suite in &suites {
        drop(suite.campaign_apps());
    }
    let forge_ms = f.elapsed().as_secs_f64() * 1e3;
    let warmups = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let warm_seeds = &warm_seeds;
                scope.spawn(move || {
                    (c..WARM_SUITES)
                        .step_by(CLIENTS)
                        .map(|i| timed_job(addr, shape, Some(i), warm_seeds[i], t))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("warm-up client panicked"))
            .collect()
    });
    Warmed {
        handle,
        warm_seeds,
        suites,
        warmups,
        setup_s: t.elapsed().as_secs_f64(),
        forge_ms,
    }
}

fn timed_job(
    addr: SocketAddr,
    shape: &JobShape,
    warm: Option<usize>,
    rng_seed: u64,
    epoch: Instant,
) -> Job {
    let t = Instant::now();
    let reply = send_or_fail(addr, &shape.request(rng_seed));
    Job {
        warm,
        rng_seed,
        latency_ms: t.elapsed().as_secs_f64() * 1e3,
        done: epoch.elapsed(),
        reply,
    }
}

/// What the load phase saw.
struct Load {
    jobs: Vec<Job>,
    /// Health round trips, when probed.
    rtt_ms: Vec<f64>,
    wall: Duration,
}

/// The load phase: `CLIENTS` closed-loop clients for `seconds`. In each
/// client, jobs cycle through the warm suites and every `COLD_EVERY`th
/// job forges a fresh suite. With `health`, client 0 also times a
/// `health` round trip after each of its jobs.
fn load(
    addr: SocketAddr,
    shape: &JobShape,
    w: &Warmed,
    seed: u64,
    seconds: u64,
    health: bool,
) -> Load {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let per_client: Vec<(Vec<Job>, Vec<f64>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut jobs = Vec::new();
                    let mut rtts = Vec::new();
                    let mut k = 0;
                    while Instant::now() < deadline {
                        // Client `c` keeps to worker `c`: its warm jobs
                        // cycle through the warm suites living there, its
                        // cold ones draw fresh suites that shard there.
                        let job = if k % COLD_EVERY == COLD_EVERY - 1 {
                            let cold = (k / COLD_EVERY) * CLIENTS + c;
                            timed_job(
                                addr,
                                shape,
                                None,
                                shape.seed_for(seed, COLD_SALT, c, cold),
                                start,
                            )
                        } else {
                            let j = k - k / COLD_EVERY;
                            let warm = (j % (WARM_SUITES / CLIENTS)) * CLIENTS + c;
                            timed_job(addr, shape, Some(warm), w.warm_seeds[warm], start)
                        };
                        jobs.push(job);
                        if health && c == 0 {
                            let t = Instant::now();
                            let reply = send_or_fail(addr, r#"{"op":"health"}"#);
                            if reply.get("ok").and_then(Json::as_bool) == Some(true) {
                                rtts.push(t.elapsed().as_secs_f64() * 1e3);
                            }
                        }
                        k += 1;
                    }
                    (jobs, rtts)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("load client panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut jobs = Vec::new();
    let mut rtt_ms = Vec::new();
    for (j, r) in per_client {
        jobs.extend(j);
        rtt_ms.extend(r);
    }
    Load { jobs, rtt_ms, wall }
}

/// Checks every job against the one-shot, in-process campaign of its
/// suite: the reply must be `ok`, its outcome fingerprint must equal the
/// one-shot's, and the one-shot must match the forge oracle exactly.
fn verify(out: &mut Outcome, shape: &JobShape, warm_refs: &[Iteration], jobs: &[Job]) {
    for job in jobs {
        out.attempted += 1;
        out.jobs += 1;
        let problem = if !job.ok() {
            Some(format!(
                "job {:#x} failed: {} {}",
                job.rng_seed,
                job.reply.get("error").and_then(Json::as_str).unwrap_or("?"),
                job.reply.get("detail").and_then(Json::as_str).unwrap_or("")
            ))
        } else {
            let fresh;
            let reference = match job.warm {
                Some(i) => &warm_refs[i],
                None => {
                    fresh = iterate(&forge(&shape.config(job.rng_seed)), THREADS, false);
                    &fresh
                }
            };
            let got = job
                .reply
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("");
            if got != reference.fingerprint {
                Some(format!(
                    "job {:#x}: fingerprint {got} differs from the one-shot {}",
                    job.rng_seed, reference.fingerprint
                ))
            } else if !reference.mismatches.is_empty() {
                Some(format!(
                    "suite {:#x}: {} sites differ from the forge oracle",
                    job.rng_seed,
                    reference.mismatches.len()
                ))
            } else {
                None
            }
        };
        if let Some(p) = problem {
            out.failed += 1;
            out.failed_jobs += 1;
            out.problems.push(p);
        }
    }
}

/// The one-shot, in-process campaign of each warm suite.
fn warm_references(suites: &[ForgedSuite], traced: bool) -> Vec<Iteration> {
    suites.iter().map(|s| iterate(s, THREADS, traced)).collect()
}

/// The serve-layer metrics of one traced load.
fn put_serve_layers(sheet: &mut Sheet, shape: &JobShape, w: &Warmed, load: &Load, metrics: &Json) {
    let lines: Vec<String> = w
        .warm_seeds
        .iter()
        .map(|&s| shape.request(s))
        .chain(std::iter::once(
            shape.request(shape.seed_for(0, COLD_SALT, 0, 0)),
        ))
        .collect();
    const PARSES: usize = 2000;
    let t = Instant::now();
    for i in 0..PARSES {
        let parsed = parse_request(std::hint::black_box(&lines[i % lines.len()]));
        assert!(parsed.is_ok(), "the workload's own request lines parse");
    }
    sheet.put(
        "serve.parse_us",
        t.elapsed().as_secs_f64() * 1e6 / PARSES as f64,
        "us",
        PARSES,
    );
    sheet.put(
        "serve.rtt_ms",
        median(&load.rtt_ms),
        "ms",
        load.rtt_ms.len(),
    );
    let ok: Vec<&Job> = load.jobs.iter().filter(|j| j.ok()).collect();
    let overhead: Vec<f64> = ok
        .iter()
        .filter_map(|j| j.num("wall_ms").map(|wall| j.latency_ms - wall))
        .collect();
    sheet.put(
        "serve.overhead_ms_p50",
        median(&overhead),
        "ms",
        overhead.len(),
    );
    let latency = |warm: bool| -> Vec<f64> {
        ok.iter()
            .filter(|j| j.warm.is_some() == warm)
            .map(|j| j.latency_ms)
            .collect()
    };
    let (warm, fresh) = (latency(true), latency(false));
    sheet.put("serve.warm_job_ms_p50", median(&warm), "ms", warm.len());
    sheet.put("serve.fresh_job_ms_p50", median(&fresh), "ms", fresh.len());
    let hist = |name: &str, key: &str| {
        metrics
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    sheet.put(
        "serve.admission_wait_ms_p50",
        hist("diode_admission_wait_ns", "p50") / 1e6,
        "ms",
        hist("diode_admission_wait_ns", "count") as usize,
    );
    let warm_hits: Vec<f64> = ok
        .iter()
        .filter(|j| j.warm.is_some())
        .filter_map(|j| {
            j.reply
                .get("cache")
                .and_then(|c| c.get("hit_rate"))
                .and_then(Json::as_f64)
        })
        .collect();
    sheet.put(
        "serve.warm_hit_rate",
        mean(&warm_hits),
        "ratio",
        warm_hits.len(),
    );
    let gauge = |name: &str| {
        metrics
            .get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    sheet.put(
        "serve.cache_mb",
        (gauge("diode_solver_cache_bytes") + gauge("diode_snapshot_cache_bytes"))
            / crate::campaign::MIB,
        "MiB",
        1,
    );
    sheet.put(
        "serve.accept_rate",
        ok.len() as f64 / load.jobs.len().max(1) as f64,
        "ratio",
        load.jobs.len(),
    );
}

/// Runs one traced load (metrics on, health probes) and returns its
/// serve-layer sheet, the warm-up and load checks included.
fn traced_load(shape: &JobShape, seed: u64, seconds: u64) -> (Outcome, Warmed, Vec<Iteration>) {
    let mut out = Outcome::default();
    let w = set_up(shape, true);
    let addr = w.handle.addr();
    let l = load(addr, shape, &w, seed, seconds, true);
    let scrape = send_or_fail(addr, r#"{"op":"metrics"}"#);
    let metrics = scrape.get("metrics").cloned().unwrap_or(Json::Null);
    put_serve_layers(&mut out.sheet, shape, &w, &l, &metrics);
    let refs = warm_references(&w.suites, false);
    verify(&mut out, shape, &refs, &w.warmups);
    verify(&mut out, shape, &refs, &l.jobs);
    (out, w, refs)
}

/// The serve probe of a traced one-shot run: a short load whose jobs
/// have the one-shot workload's shape at a few apps per suite.
pub fn probe(shape: &JobShape, seed: u64, seconds: u64) -> Outcome {
    let (out, w, _) = traced_load(shape, seed, seconds);
    shutdown(w.handle);
    out
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let shape = &DAEMON;
    if trace {
        let (mut out, w, plain_refs) = traced_load(shape, seed, seconds);
        shutdown(w.handle);
        let sheet = &mut out.sheet;
        sheet.put("synth.forge_ms", w.forge_ms, "ms", WARM_SUITES);
        // The campaign layers of a daemon job, measured on the one-shot
        // campaigns of the warm suites.
        let mut traced_refs = warm_references(&w.suites, true);
        let overhead: Vec<f64> = plain_refs
            .iter()
            .zip(&traced_refs)
            .map(|(p, t)| t.wall().as_secs_f64() / p.wall().as_secs_f64() - 1.0)
            .collect();
        let layers: Vec<Sheet> = traced_refs
            .iter_mut()
            .map(|it| std::mem::take(&mut it.layers))
            .collect();
        put_medians(sheet, &layers);
        sheet.put(
            "obs.trace_overhead_frac",
            median(&overhead),
            "ratio",
            overhead.len(),
        );
        let apps: Vec<_> = w
            .suites
            .iter()
            .flat_map(ForgedSuite::campaign_apps)
            .collect();
        replay::replay(sheet, &apps);
        return out;
    }

    let mut out = Outcome::default();
    // Set up several times; every daemon but the last is shut down again.
    let mut setups = Vec::new();
    let mut warmed: Option<Warmed> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = warmed.take() {
            shutdown(prev.handle);
        }
        let w = set_up(shape, false);
        setups.push(w.setup_s);
        warmed = Some(w);
    }
    let w = warmed.expect("at least one set-up");
    let addr = w.handle.addr();
    let l = load(addr, shape, &w, seed, seconds, false);
    let rss = peak_rss_mb();
    shutdown(w.handle);

    let refs = warm_references(&w.suites, false);
    verify(&mut out, shape, &refs, &w.warmups);
    verify(&mut out, shape, &refs, &l.jobs);

    let ok: Vec<&Job> = l.jobs.iter().filter(|j| j.ok()).collect();
    let sheet = &mut out.sheet;
    sheet.put("setup_s", median(&setups), "s", setups.len());
    // Throughput per window of the load phase, then the median over the
    // windows: a multi-second stall of the shared host then moves one
    // window, not the run.
    let window = l.wall.as_secs_f64() / RATE_WINDOWS as f64;
    let in_window = |k: usize| {
        let lo = window * k as f64;
        ok.iter()
            .filter(move |j| (lo..lo + window).contains(&j.done.as_secs_f64()))
    };
    let rate = |f: &dyn Fn(&Job) -> f64| {
        let per: Vec<f64> = (0..RATE_WINDOWS)
            .map(|k| in_window(k).map(|j| f(j)).sum::<f64>() / window)
            .collect();
        median(&per)
    };
    sheet.put(
        "sites_per_s",
        rate(&|j| j.sites() as f64),
        "sites/s",
        ok.len(),
    );
    // A site's verdict reaches the client with its job's reply.
    let verdicts: Vec<f64> = ok
        .iter()
        .flat_map(|j| std::iter::repeat_n(j.latency_ms / 1e3, j.sites() as usize))
        .collect();
    sheet.put(
        "verdict_s_p50",
        kernel_quantile(&verdicts, 0.5),
        "s",
        verdicts.len(),
    );
    sheet.put(
        "verdict_s_p90",
        kernel_quantile(&verdicts, 0.9),
        "s",
        verdicts.len(),
    );
    let latency: Vec<f64> = ok.iter().map(|j| j.latency_ms).collect();
    sheet.put(
        "job_ms_p50",
        kernel_quantile(&latency, 0.5),
        "ms",
        latency.len(),
    );
    sheet.put(
        "job_ms_p90",
        kernel_quantile(&latency, 0.9),
        "ms",
        latency.len(),
    );
    sheet.put("jobs_per_s", rate(&|_| 1.0), "jobs/s", ok.len());
    sheet.put("peak_rss_mb", rss, "MiB", 1);
    out
}
