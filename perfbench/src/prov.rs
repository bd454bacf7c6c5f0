//! The provenance stamp every result carries: which code was measured,
//! how it was built, on how many CPUs, with which seed, and when.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use diode_serve::Json;

/// The repository root: the parent of this package's manifest directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Builds the stamp for one run.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    let root = repo_root();
    let (commit, dirty) = git_state(&root);
    Json::obj()
        .field("commit", commit)
        .field("dirty", dirty)
        .field("source_fnv", source_fingerprint(&root))
        .field("rustc", command_line("rustc", &["-V"], &root))
        .field(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .field("nproc", nproc())
        .field("workload", workload)
        .field("seed", seed)
        .field("seconds", seconds)
        .field("trace", trace)
        .field("timestamp", utc_timestamp())
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit and whether the work tree differs from it. A checkout
/// that is not a git repository reports `null` for both; the source
/// fingerprint still identifies the code measured.
fn git_state(root: &Path) -> (Json, Json) {
    let commit = command_line("git", &["rev-parse", "HEAD"], root);
    if commit.is_null() {
        return (Json::Null, Json::Null);
    }
    let dirty = Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| Json::Bool(!o.stdout.is_empty()));
    (commit, dirty)
}

/// The first line a command prints, or `null` when it cannot run.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Json {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .map_or(Json::Null, Json::Str)
}

/// FNV-1a over the path and bytes of every Rust source and manifest the
/// benchmark builds from (the workspace crates, the root manifest and
/// lock file, and this package), in sorted path order.
fn source_fingerprint(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("crates"), &mut files);
    collect_sources(&root.join("perfbench"), &mut files);
    files.sort();
    let mut h = diode_synth::Fnv64::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.str(&f.strip_prefix(root).unwrap_or(f).display().to_string());
            h.bytes(&bytes);
        }
    }
    h.hex()
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
        {
            out.push(path);
        }
    }
}

/// The current time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_timestamp() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}
