//! One timed campaign over a forged suite — campaign, then `score`, then
//! teardown — and the layer metrics its trace and counters give.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use diode_engine::{
    CampaignEvent, CampaignSpec, ExecutionMode, PhaseBreakdown, ProgressSink, Recorder,
    SnapshotCache, SolverCache,
};
use diode_obs::Phase;
use diode_synth::{score, ForgedSuite};

use crate::stats::Sheet;

/// Stamps each site verdict and each program's last verdict with the
/// time since the campaign started, as the events reach the sink.
struct VerdictClock {
    start: Instant,
    seen: Mutex<(Vec<f64>, HashMap<String, f64>)>,
}

impl ProgressSink for VerdictClock {
    fn on_event(&self, event: CampaignEvent<'_>) {
        if let CampaignEvent::SiteFinished { app, .. } = event {
            let t = self.start.elapsed().as_secs_f64();
            let mut seen = self.seen.lock().expect("verdict clock lock poisoned");
            seen.0.push(t);
            let last = seen.1.entry(app.to_string()).or_insert(0.0);
            *last = last.max(t);
        }
    }
}

/// What one campaign iteration measured.
pub struct Iteration {
    /// Sites the campaign decided.
    pub sites: usize,
    /// Inside `run_with_progress`.
    pub run: Duration,
    /// Inside `score`.
    pub score: Duration,
    /// Dropping the report and both shared caches.
    pub teardown: Duration,
    /// Per site: campaign start → its `SiteFinished` event.
    pub verdict_s: Vec<f64>,
    /// Per program: campaign start → its last `SiteFinished` event.
    pub program_ms: Vec<f64>,
    /// FNV-64 of the report's outcome fingerprint.
    pub fingerprint: String,
    /// Planted sites whose verdict differs from the forge oracle.
    pub mismatches: Vec<String>,
    /// Planted sites graded.
    pub planted: usize,
    /// Layer metrics of this iteration (empty unless traced).
    pub layers: Sheet,
}

impl Iteration {
    /// Campaign, score and teardown: the wall a user of a one-shot
    /// campaign waits for.
    pub fn wall(&self) -> Duration {
        self.run + self.score + self.teardown
    }
}

/// Runs `suite` once on `threads` workers with fresh solver and snapshot
/// caches; with a recorder the iteration also fills its layer sheet.
pub fn iterate(suite: &ForgedSuite, threads: usize, traced: bool) -> Iteration {
    let mut spec = CampaignSpec::new(suite.campaign_apps());
    spec.mode = ExecutionMode::Parallel {
        threads: Some(threads),
    };
    // The caches the engine would create itself, created here so their
    // drop is timed as teardown rather than hidden inside the run.
    spec.config.query_cache = Some(Arc::new(SolverCache::new()));
    spec.snapshot_cache = Some(Arc::new(SnapshotCache::new()));
    spec.recorder = traced.then(|| Arc::new(Recorder::new()));
    let clock = VerdictClock {
        start: Instant::now(),
        seen: Mutex::new((Vec::new(), HashMap::new())),
    };
    let t0 = Instant::now();
    let report = spec.run_with_progress(&clock);
    let run = t0.elapsed();
    let t1 = Instant::now();
    let card = score(&report, &suite.oracle);
    let score_time = t1.elapsed();

    let fingerprint = diode_obs::fnv64_hex(report.outcome_fingerprint().as_bytes());
    let mismatches = card
        .mismatches
        .iter()
        .map(|m| {
            format!(
                "{}#{}/{}: expected {}, observed {}",
                m.app,
                m.seed_index,
                m.site,
                m.expected.token(),
                m.observed
            )
        })
        .collect();
    let mut layers = Sheet::default();
    if let Some(phases) = &report.phases {
        put_phase_layers(&mut layers, phases, run, report.threads);
        let cache = report.cache.unwrap_or_default();
        let snaps = report.snapshots.unwrap_or_default();
        layers.put(
            "solver.queries",
            (cache.hits + cache.misses) as f64,
            "count",
            1,
        );
        layers.put("solver.cache_hit_rate", cache.hit_rate(), "ratio", 1);
        layers.put(
            "solver.cache_peak_kb",
            cache.peak_bytes as f64 / 1024.0,
            "KiB",
            1,
        );
        layers.put("core.snapshot_resume_rate", snaps.resume_rate(), "ratio", 1);
        layers.put(
            "core.snapshot_peak_mb",
            snaps.peak_bytes as f64 / MIB,
            "MiB",
            1,
        );
        layers.put(
            "interp.peak_heap_mb",
            report.peak_heap_bytes as f64 / MIB,
            "MiB",
            1,
        );
        layers.put("synth.score_ms", ms(score_time), "ms", 1);
        layers.put("engine.run_ms", ms(run), "ms", 1);
    }
    let sites = report.counts().0;

    let t2 = Instant::now();
    drop(report);
    drop(spec);
    let teardown = t2.elapsed();
    if traced {
        layers.put("engine.teardown_ms", ms(teardown), "ms", 1);
    }

    let (verdict_s, last) = clock
        .seen
        .into_inner()
        .expect("verdict clock lock poisoned");
    Iteration {
        sites,
        run,
        score: score_time,
        teardown,
        verdict_s,
        program_ms: last.into_values().map(|t| t * 1e3).collect(),
        fingerprint,
        mismatches,
        planted: card.graded,
        layers,
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Phase times from the recorder: inclusive totals for the pipeline
/// stages, self times (and span counts) for the interpreter and solver.
fn put_phase_layers(sheet: &mut Sheet, phases: &PhaseBreakdown, run: Duration, threads: usize) {
    let row = |p: Phase| phases.phases.iter().find(|r| r.phase == p);
    let total_ms = |p: Phase| row(p).map_or(0.0, |r| r.total_ns as f64 / 1e6);
    let self_ms = |p: Phase| row(p).map_or(0.0, |r| r.self_ns as f64 / 1e6);
    let count = |p: Phase| row(p).map_or(0.0, |r| r.count as f64);
    sheet.put("core.identify_ms", total_ms(Phase::Identify), "ms", 1);
    sheet.put("core.warm_ms", total_ms(Phase::Warm), "ms", 1);
    sheet.put("core.extract_ms", total_ms(Phase::Extract), "ms", 1);
    sheet.put("core.enforce_ms", total_ms(Phase::Enforce), "ms", 1);
    sheet.put("core.validate_ms", total_ms(Phase::Validate), "ms", 1);
    sheet.put("interp.run_self_ms", self_ms(Phase::InterpRun), "ms", 1);
    sheet.put("interp.run_count", count(Phase::InterpRun), "count", 1);
    sheet.put(
        "interp.resume_self_ms",
        self_ms(Phase::InterpResume),
        "ms",
        1,
    );
    sheet.put(
        "interp.resume_count",
        count(Phase::InterpResume),
        "count",
        1,
    );
    sheet.put(
        "interp.capture_self_ms",
        self_ms(Phase::InterpCapture),
        "ms",
        1,
    );
    sheet.put(
        "interp.capture_count",
        count(Phase::InterpCapture),
        "count",
        1,
    );
    sheet.put("solver.solve_self_ms", self_ms(Phase::Solve), "ms", 1);
    // Worker time outside any top-level span: scheduler queue wait plus
    // the end-of-campaign tail. (The recorder's own queue-wait phase
    // counts only waits between two jobs and reads 0 on short runs.)
    let capacity_ns = threads as f64 * run.as_nanos() as f64;
    sheet.put(
        "engine.idle_ms",
        (capacity_ns - phases.top_level_ns as f64) / 1e6,
        "ms",
        1,
    );
    sheet.put(
        "engine.busy_frac",
        phases.top_level_ns as f64 / capacity_ns,
        "ratio",
        1,
    );
}
