//! The repository's benchmark. See `perfbench/README.md` for the
//! workloads, the metrics, and which layer should move which number.
//!
//! ```text
//! perfbench --workload deep|guards|daemon|all --seed N --seconds S --trace 0|1 [--out FILE]
//! perfbench compare A.json B.json
//! ```
//!
//! A run prints a table, one detail line (`perfbench-detail {...}`:
//! provenance stamp, every metric with its sample count, every failed
//! check), and as its last line the result object
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. `--out` also writes the detail object to a file,
//! which `compare` reads.

mod campaign;
mod daemon;
mod oneshot;
mod prov;
mod replay;
mod stats;
mod suite;

use std::process::{Command, ExitCode, Stdio};

use diode_serve::Json;

use crate::stats::Sheet;

/// Campaign worker threads and daemon workers: the benchmark host's
/// two CPUs.
pub const THREADS: usize = 2;

const WORKLOADS: [&str; 3] = ["deep", "guards", "daemon"];

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub sheet: Sheet,
    /// Checked operations: graded sites (one-shot) or jobs (daemon),
    /// plus the §5 check.
    pub attempted: usize,
    pub failed: usize,
    pub planted_sites: usize,
    pub mismatched_sites: usize,
    pub jobs: usize,
    pub failed_jobs: usize,
    pub problems: Vec<String>,
    /// One-shot outcome fingerprints, one per suite, each equal across
    /// that suite's iterations.
    pub fingerprints: Vec<String>,
}

impl Outcome {
    /// Folds the serve probe's metrics and checks into this run.
    pub fn absorb_probe(&mut self, probe: Outcome) {
        for row in probe.sheet.rows() {
            self.sheet.put(&row.name, row.value, row.unit, row.samples);
        }
        self.attempted += probe.attempted;
        self.failed += probe.failed;
        self.jobs += probe.jobs;
        self.failed_jobs += probe.failed_jobs;
        self.problems.extend(probe.problems);
    }

    fn mismatch_frac(&self) -> Option<f64> {
        (self.planted_sites > 0).then(|| self.mismatched_sites as f64 / self.planted_sites as f64)
    }

    fn job_fail_frac(&self) -> Option<f64> {
        (self.jobs > 0).then(|| self.failed_jobs as f64 / self.jobs as f64)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<Option<&String>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag)?.map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        })
    };
    let workload = value("--workload")?
        .cloned()
        .ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (deep, guards, daemon or all)"
        ));
    }
    let trace = match num("--trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    let seconds = num("--seconds", 10)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed", 1)?,
        seconds,
        trace,
        out: value("--out")?.cloned(),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    run_one(&args)
}

fn run_one(args: &Args) -> ExitCode {
    let stamp = prov::stamp(&args.workload, args.seed, args.seconds, args.trace);
    let paper = suite::paper_check(THREADS);
    let mut out = match args.workload.as_str() {
        "deep" => oneshot::run(&oneshot::DEEP, args.seed, args.seconds, args.trace),
        "guards" => oneshot::run(&oneshot::GUARDS, args.seed, args.seconds, args.trace),
        _ => daemon::run(args.seed, args.seconds, args.trace),
    };
    out.attempted += 1;
    if !paper.passed() {
        out.failed += 1;
        out.problems.push(format!(
            "§5 apps: counts {:?} (expected {:?}), wrong sites {:?}",
            paper.counts,
            suite::PaperCheck::EXPECTED,
            paper.wrong_sites
        ));
    }
    let non_finite = out.sheet.non_finite();
    if !non_finite.is_empty() {
        eprintln!("perfbench: metrics without a finite value: {non_finite:?}");
        return ExitCode::FAILURE;
    }

    let detail = Json::obj()
        .field("provenance", stamp)
        .field("correct", out.failed == 0)
        .field("attempted", out.attempted)
        .field("failed", out.failed)
        .field("mismatch_frac", out.mismatch_frac())
        .field("job_fail_frac", out.job_fail_frac())
        .field("fingerprints", out.fingerprints.clone())
        .field("paper_counts", {
            let (t, e, u, p) = paper.counts;
            vec![t, e, u, p]
        })
        .field("problems", out.problems.clone())
        .field("metrics", out.sheet.to_detail_json());
    print_rows(&[(args.workload.as_str(), detail.clone())], args.trace);
    println!("perfbench-detail {detail}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{detail}\n")) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let result = Json::obj()
        .field("correct", out.failed == 0)
        .field("attempted", out.attempted)
        .field("failed", out.failed)
        .field("metrics", out.sheet.to_json());
    println!("{result}");
    ExitCode::SUCCESS
}

/// Runs every workload, each in its own process (so each reports its
/// own peak RSS), and prints one table row per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut metrics = Json::obj();
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let output = match child {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("perfbench: workload {w} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let Some(detail) = stdout
            .lines()
            .find_map(|l| l.strip_prefix("perfbench-detail "))
            .and_then(|l| Json::parse(l).ok())
        else {
            eprintln!("perfbench: workload {w} printed no detail line");
            return ExitCode::FAILURE;
        };
        correct &= detail.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += detail.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += detail.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(fields)) = detail.get("metrics") {
            for (name, m) in fields {
                metrics = metrics.field(
                    &format!("{w}.{name}"),
                    Json::obj()
                        .field("value", m.get("value").cloned().unwrap_or(Json::Null))
                        .field("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
                );
            }
        }
        rows.push((w, detail));
    }
    print_rows(&rows, args.trace);
    let result = Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", metrics);
    println!("{result}");
    ExitCode::SUCCESS
}

/// Prints detail objects: end-to-end sheets as one table row per
/// workload (every metric with its unit, plus the two correctness
/// ratios); the long per-layer sheets one metric per line.
fn print_rows(rows: &[(&str, Json)], trace: bool) {
    if trace {
        for (w, d) in rows {
            if let Some(Json::Obj(fields)) = d.get("metrics") {
                for (name, m) in fields {
                    println!(
                        "{w:<8} {name:<32} {:>14} {:<9} n={}",
                        fmt_value(m.get("value")),
                        m.get("unit").and_then(Json::as_str).unwrap_or(""),
                        m.get("samples").and_then(Json::as_u64).unwrap_or(0)
                    );
                }
            }
        }
        return;
    }
    let mut header: Vec<String> = vec!["workload".into()];
    let mut names: Vec<String> = Vec::new();
    if let Some(Json::Obj(fields)) = rows.first().and_then(|(_, d)| d.get("metrics")) {
        for (name, m) in fields {
            names.push(name.clone());
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            header.push(format!("{name} [{unit}]"));
        }
    }
    header.push("mismatch_frac".into());
    header.push("job_fail_frac".into());
    let mut table = vec![header];
    for (w, d) in rows {
        let mut row = vec![(*w).to_string()];
        for name in &names {
            let m = d.get("metrics").and_then(|m| m.get(name));
            let samples = m.and_then(|m| m.get("samples")).and_then(Json::as_u64);
            row.push(format!(
                "{} (n={})",
                fmt_value(m.and_then(|m| m.get("value"))),
                samples.unwrap_or(0)
            ));
        }
        for ratio in ["mismatch_frac", "job_fail_frac"] {
            row.push(fmt_value(d.get(ratio)));
        }
        table.push(row);
    }
    let widths: Vec<usize> = (0..table[0].len())
        .map(|c| table.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    for row in &table {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(cell, w)| format!("{cell:>w$}"))
            .collect();
        println!("{}", cells.join("  "));
    }
}

fn fmt_value(v: Option<&Json>) -> String {
    match v.and_then(Json::as_f64) {
        Some(x) if x != 0.0 && (x.abs() >= 1e5 || x.abs() < 1e-3) => format!("{x:.3e}"),
        Some(x) => format!("{x:.4}"),
        None => "-".into(),
    }
}

/// `compare A B`: the per-metric change from result A to result B, each
/// written by `--out`. Refuses results measured on hosts with different
/// CPU counts, or of different workloads or trace modes.
fn compare(files: &[String]) -> ExitCode {
    let [a, b] = files else {
        eprintln!("usage: perfbench compare A.json B.json");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = |j: &Json, key: &str| {
        j.get("provenance")
            .and_then(|p| p.get(key))
            .cloned()
            .unwrap_or(Json::Null)
    };
    for key in ["nproc", "workload", "trace", "seconds", "profile"] {
        let (x, y) = (stamp(&a, key), stamp(&b, key));
        if x != y {
            eprintln!("perfbench: refusing to compare results whose {key} differ ({x} vs {y})");
            return ExitCode::from(3);
        }
    }
    println!(
        "A: commit {} source {}   B: commit {} source {}",
        stamp(&a, "commit"),
        stamp(&a, "source_fnv"),
        stamp(&b, "commit"),
        stamp(&b, "source_fnv")
    );
    if let Some(Json::Obj(fields)) = a.get("metrics") {
        for (name, m) in fields {
            let va = m.get("value").and_then(Json::as_f64);
            let vb = b
                .get("metrics")
                .and_then(|bm| bm.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let change = match (va, vb) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:+.1}%", (y / x - 1.0) * 100.0),
                _ => "-".into(),
            };
            println!(
                "{name:<32} {:>14} {:>14} {unit:<9} {change}",
                fmt_value(m.get("value")),
                fmt_value(vb.map(Json::from).as_ref())
            );
        }
    }
    ExitCode::SUCCESS
}
