//! The BENCH trajectory: a committed, per-commit record of the engine's
//! benchmark curve, with a regression gate on the prefix-snapshot
//! speedup.
//!
//! Reads the `BENCH_engine.json` artifact that `synth_campaign --sweep
//! --bench-replay` wrote, appends one record — including the per-phase
//! duration breakdown when the artifact carries one — to
//! `BENCH_trajectory.json` (creating it if absent). The existing
//! trajectory is schema-validated on load (clear per-record errors,
//! exit 2); records that predate an axis (`threads`/`sizes`/`replay`/
//! `phases`/`telemetry`/`serve`) are tolerated and backfilled with
//! `null`. The gate **fails** when
//!
//! * the snapshot-on configuration is slower than snapshot-off
//!   (`replay.speedup < --min-speedup`, default 1.0), or
//! * the snapshot-on wall time regressed by more than `--max-regress`
//!   (default 0.15 = 15%) against the previous record's.
//!
//! Usage: `trajectory [--bench BENCH_engine.json]
//! [--out BENCH_trajectory.json] [--commit SHA] [--date YYYY-MM-DD]
//! [--min-speedup F] [--max-regress F] [--json]`
//!
//! `--commit` defaults to `$GITHUB_SHA`; `--date` to today (UTC). CI
//! uploads the updated trajectory as an artifact on pull requests and
//! commits it back to the repository on `main`, so the curve across
//! commits is a versioned fact.
//!
//! `trajectory check [--out PATH] [--max-age N] [--json]` validates the
//! *committed* trajectory instead of appending to it: the newest record
//! must have no null axes (a trajectory holding only the hand-written
//! seed record means the append pipeline never ran) and must be no
//! older than `--max-age` commits (default 50) behind `HEAD`, measured
//! with `git rev-list --count` — when the commit is unknown to git
//! (shallow clone, seed record) the age gate degrades to a warning.
//! Exits 1 when the trajectory is stale or still null-axed.

use std::time::{SystemTime, UNIX_EPOCH};

use diode_bench::{flag_f64, flag_str};
use diode_obs::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    if args.first().map(String::as_str) == Some("check") {
        run_check(&args, json);
        return;
    }
    let bench_path = flag_str(&args, "--bench").unwrap_or_else(|| "BENCH_engine.json".to_string());
    let out_path = flag_str(&args, "--out").unwrap_or_else(|| "BENCH_trajectory.json".to_string());
    let min_speedup = flag_f64(&args, "--min-speedup").unwrap_or(1.0);
    let max_regress = flag_f64(&args, "--max-regress").unwrap_or(0.15);
    let commit = flag_str(&args, "--commit")
        .or_else(|| std::env::var("GITHUB_SHA").ok())
        .unwrap_or_else(|| "unknown".to_string());
    let date = flag_str(&args, "--date").unwrap_or_else(today_utc);

    let bench_text = match std::fs::read_to_string(&bench_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trajectory: cannot read {bench_path}: {e}");
            std::process::exit(2);
        }
    };
    let bench = match Json::parse(&bench_text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("trajectory: {bench_path}: {e}");
            std::process::exit(2);
        }
    };

    let record = build_record(&commit, &date, &bench);
    let replay_on_ms = bench
        .get("replay")
        .and_then(|r| r.get("on_ms"))
        .and_then(Json::as_f64);
    let replay_speedup = bench
        .get("replay")
        .and_then(|r| r.get("speedup"))
        .and_then(Json::as_f64);
    let replay_identical = bench
        .get("replay")
        .and_then(|r| r.get("identical"))
        .and_then(Json::as_bool);

    // Previous trajectory (absent file = empty trajectory), validated
    // and normalised so downstream consumers see a uniform shape.
    let mut records = load_records(&out_path);
    let prev_on_ms = records
        .iter()
        .rev()
        .filter_map(|r| r.get("replay").and_then(|x| x.get("on_ms")))
        .find_map(Json::as_f64);

    // Gates.
    let mut failures: Vec<String> = Vec::new();
    match (replay_speedup, replay_identical) {
        (Some(speedup), identical) => {
            if identical == Some(false) {
                failures
                    .push("snapshot-on report diverged from the snapshot-off report".to_string());
            }
            if speedup < min_speedup {
                failures.push(format!(
                    "snapshot speedup {speedup:.3}x below the {min_speedup:.2}x gate \
                     (snapshot-on must not be slower than snapshot-off)"
                ));
            }
        }
        (None, _) => failures.push(format!(
            "{bench_path} has no replay section — run synth_campaign with --bench-replay"
        )),
    }
    if let (Some(on), Some(prev)) = (replay_on_ms, prev_on_ms) {
        let limit = prev * (1.0 + max_regress);
        if on > limit {
            failures.push(format!(
                "snapshot-on wall time {on:.1}ms regressed more than {:.0}% over the previous \
                 main record ({prev:.1}ms, limit {limit:.1}ms)",
                max_regress * 100.0
            ));
        }
    }

    records.push(record);
    let trajectory = Json::obj()
        .field("table", "bench_trajectory")
        .field("records", Json::Arr(records.clone()));
    if let Err(e) = std::fs::write(&out_path, format!("{trajectory}\n")) {
        eprintln!("trajectory: cannot write {out_path}: {e}");
        std::process::exit(2);
    }

    if json {
        let out = Json::obj()
            .field("table", "trajectory_gate")
            .field("commit", commit)
            .field("date", date)
            .field("records", records.len())
            .field("speedup", replay_speedup)
            .field("previous_on_ms", prev_on_ms)
            .field("min_speedup", min_speedup)
            .field("max_regress", max_regress)
            .field(
                "failures",
                failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect::<Vec<_>>(),
            )
            .field("passed", failures.is_empty());
        println!("{out}");
    } else {
        println!(
            "trajectory: appended record #{} for {commit} ({date}) to {out_path}",
            records.len()
        );
        if let Some(s) = replay_speedup {
            let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.1}ms"));
            println!(
                "  snapshot speedup {s:.2}x (gate ≥ {min_speedup:.2}x); on-wall {}, \
                 previous {} (regress limit {:.0}%)",
                fmt(replay_on_ms),
                fmt(prev_on_ms),
                max_regress * 100.0
            );
        }
        for f in &failures {
            println!("  GATE FAIL: {f}");
        }
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Axis keys every record carries; absent or omitted ones (e.g. in the
/// hand-written seed record) are backfilled with an explicit `null`.
const AXES: [&str; 7] = [
    "config",
    "threads",
    "sizes",
    "replay",
    "phases",
    "telemetry",
    "serve",
];

/// `trajectory check`: the committed trajectory must be alive — its
/// newest record fully populated and recent. This is what catches a
/// benchmark pipeline that silently stopped appending.
fn run_check(args: &[String], json: bool) {
    let out_path = flag_str(args, "--out").unwrap_or_else(|| "BENCH_trajectory.json".to_string());
    let max_age = flag_f64(args, "--max-age").unwrap_or(50.0) as u64;
    if !std::path::Path::new(&out_path).exists() {
        eprintln!("trajectory check: {out_path} does not exist — the trajectory was never seeded");
        std::process::exit(1);
    }
    let records = load_records(&out_path);
    let Some(newest) = records.last() else {
        eprintln!("trajectory check: {out_path} holds no records");
        std::process::exit(1);
    };
    let commit = newest
        .get("commit")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let date = newest
        .get("date")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();

    let mut failures: Vec<String> = Vec::new();
    let null_axes: Vec<&str> = AXES
        .iter()
        .copied()
        .filter(|axis| newest.get(axis).is_none_or(Json::is_null))
        .collect();
    if !null_axes.is_empty() {
        failures.push(format!(
            "newest record ({commit}, {date}) has null axes [{}] — the per-commit append \
             pipeline (synth_campaign --sweep --bench-replay + trajectory) never ran",
            null_axes.join(", ")
        ));
    }

    // Age: commits on HEAD since the record's commit. A commit git
    // cannot resolve (shallow clone, the seed record's placeholder)
    // degrades to a warning — CI checkouts are not always deep.
    let age = commit_age(&commit);
    match age {
        Some(age) if age > max_age => failures.push(format!(
            "newest record ({commit}, {date}) is {age} commits behind HEAD \
             (limit {max_age}) — the trajectory stopped being appended to"
        )),
        Some(_) => {}
        None => eprintln!(
            "trajectory check: warning: cannot measure the age of {commit:?} with git \
             (shallow clone or unknown commit); skipping the age gate"
        ),
    }

    if json {
        let out = Json::obj()
            .field("table", "trajectory_check")
            .field("records", records.len())
            .field("commit", commit)
            .field("date", date)
            .field("age_commits", age)
            .field("max_age", max_age)
            .field(
                "null_axes",
                null_axes
                    .iter()
                    .map(|a| Json::Str((*a).to_string()))
                    .collect::<Vec<_>>(),
            )
            .field(
                "failures",
                failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect::<Vec<_>>(),
            )
            .field("passed", failures.is_empty());
        println!("{out}");
    } else {
        println!(
            "trajectory check: {} record(s) in {out_path}, newest {commit} ({date}){}",
            records.len(),
            age.map_or_else(String::new, |a| format!(", {a} commit(s) behind HEAD")),
        );
        for f in &failures {
            println!("  CHECK FAIL: {f}");
        }
        if failures.is_empty() {
            println!("  trajectory is alive: axes populated, within the {max_age}-commit window");
        }
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// How many commits `HEAD` is ahead of `commit`, via `git rev-list
/// --count commit..HEAD`. `None` when git is unavailable or the commit
/// cannot be resolved.
fn commit_age(commit: &str) -> Option<u64> {
    if commit.is_empty() || commit == "unknown" {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-list", "--count", &format!("{commit}..HEAD")])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

/// Load and validate the existing trajectory. An absent file is an empty
/// trajectory; a present file must be an object with a `records` array
/// whose entries each carry string `commit` and `date` fields — anything
/// else is a clear, line-item error (exit 2), not a silent drop. Records
/// that predate an axis (the seed record has no `threads`/`sizes`/
/// `replay`, pre-observability records have no `phases`, pre-pulse
/// records have no `telemetry`, pre-daemon records have no `serve`) are
/// tolerated:
/// the missing keys are backfilled with `null` so consumers can index
/// every record identically.
fn load_records(out_path: &str) -> Vec<Json> {
    let Ok(text) = std::fs::read_to_string(out_path) else {
        return Vec::new();
    };
    let doc = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("trajectory: {out_path}: {e}");
            std::process::exit(2);
        }
    };
    let Some(records) = doc.get("records").and_then(Json::as_arr) else {
        eprintln!(
            "trajectory: {out_path}: expected an object with a \"records\" array \
             (is this really a bench_trajectory file?)"
        );
        std::process::exit(2);
    };
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let Json::Obj(fields) = r else {
                eprintln!("trajectory: {out_path}: record #{i} is not an object: {r}");
                std::process::exit(2);
            };
            for key in ["commit", "date"] {
                if r.get(key).and_then(Json::as_str).is_none() {
                    eprintln!(
                        "trajectory: {out_path}: record #{i} is missing a string {key:?} field"
                    );
                    std::process::exit(2);
                }
            }
            let mut fields = fields.clone();
            for axis in AXES {
                if r.get(axis).is_none() {
                    fields.push((axis.to_string(), Json::Null));
                }
            }
            Json::Obj(fields)
        })
        .collect()
}

/// One trajectory record: commit + date, the benchmark config, per-config
/// wall times from both sweep axes, the snapshot-replay comparison,
/// (since the observability layer) the per-phase duration breakdown, and
/// (since the daemon) the serve-bench throughput section.
fn build_record(commit: &str, date: &str, bench: &Json) -> Json {
    let axis = |key: &str, fields: &[&str]| -> Json {
        match bench.get(key).and_then(Json::as_arr) {
            None => Json::Null,
            Some(runs) => Json::Arr(
                runs.iter()
                    .map(|r| {
                        fields.iter().fold(Json::obj(), |o, f| {
                            o.field(f, r.get(f).cloned().unwrap_or(Json::Null))
                        })
                    })
                    .collect(),
            ),
        }
    };
    Json::obj()
        .field("commit", commit)
        .field("date", date)
        .field("config", bench.get("config").cloned().unwrap_or(Json::Null))
        .field("threads", axis("runs", &["threads", "wall_ms", "speedup"]))
        .field("sizes", axis("size_runs", &["apps", "sites", "wall_ms"]))
        .field("replay", bench.get("replay").cloned().unwrap_or(Json::Null))
        .field("phases", bench.get("phases").cloned().unwrap_or(Json::Null))
        .field(
            "telemetry",
            bench.get("telemetry").cloned().unwrap_or(Json::Null),
        )
        .field("serve", bench.get("serve").cloned().unwrap_or(Json::Null))
}

/// Today's UTC date as `YYYY-MM-DD`, via the standard civil-from-days
/// algorithm (no external time crates in this workspace).
fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}
