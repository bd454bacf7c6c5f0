//! Replay passes of a traced run: the benchmark calls one layer's public
//! functions directly on the workload's programs and times each call.
//! They run on one thread after the measured campaigns, with no
//! recorder installed.

use std::sync::Arc;
use std::time::Instant;

use diode_core::{
    analyze_site_with_snapshots, identify_target_sites_traced, warm_unit_slots, DiodeConfig,
    SnapshotCache,
};
use diode_engine::{CampaignApp, SolverCache};
use diode_interp::{run, run_capture_multi, run_from, Concrete, Symbolic, Taint};
use diode_solver::{solve_with, SolveResult, SolverConfig};

use crate::campaign::ms;
use crate::stats::{median, quantile, Sheet};

/// Runs every replay pass over the seed inputs of `apps` and records
/// the interp, core and solver replay metrics.
pub fn replay(sheet: &mut Sheet, apps: &[CampaignApp]) {
    let config = DiodeConfig::default().with_query_cache(Arc::new(SolverCache::new()));
    let machine = &config.machine;
    let snapshots = SnapshotCache::new();

    let mut enforce_ms = Vec::new();
    let mut betas = Vec::new();
    // [concrete, taint, symbolic] × (steps, seconds)
    let mut modes = [(0u64, 0.0f64); 3];
    let mut capture_ms = Vec::new();
    let mut resume_ms = Vec::new();
    for (app_idx, app) in apps.iter().enumerate() {
        for (seed_idx, seed) in app.seeds.iter().enumerate() {
            let program = &app.program;
            // Core: the engine's per-unit path, one site at a time.
            let (targets, first_reads) = identify_target_sites_traced(program, seed, machine);
            let key = ((app_idx as u64) << 32) | seed_idx as u64;
            let slots: Vec<_> = targets
                .iter()
                .map(|t| snapshots.slot(key, t.label))
                .collect();
            warm_unit_slots(
                program,
                seed,
                &app.format,
                &targets,
                machine,
                &first_reads,
                &slots,
            );
            for (target, slot) in targets.iter().zip(slots) {
                let t = Instant::now();
                let report = analyze_site_with_snapshots(
                    program,
                    seed,
                    &app.format,
                    target,
                    &config,
                    Some(slot),
                );
                enforce_ms.push(ms(t.elapsed()));
                if let Some(extraction) = report.extraction {
                    betas.push(extraction.beta);
                }
            }

            // Interp: the seed run under each shadow policy; stage 2
            // tracks the bytes stage 1 found relevant.
            let mut relevant: Vec<u32> = targets
                .iter()
                .flat_map(|t| t.relevant_bytes.iter().copied())
                .collect();
            relevant.sort_unstable();
            relevant.dedup();
            let symbolic = Symbolic::relevant_bytes(relevant);
            let t = Instant::now();
            let steps = run(program, seed, Concrete, machine).steps;
            modes[0].0 += steps;
            modes[0].1 += t.elapsed().as_secs_f64();
            let t = Instant::now();
            modes[1].0 += run(program, seed, Taint, machine).steps;
            modes[1].1 += t.elapsed().as_secs_f64();
            let t = Instant::now();
            modes[2].0 += run(program, seed, symbolic.clone(), machine).steps;
            modes[2].1 += t.elapsed().as_secs_f64();

            // Snapshots: capture halfway through the seed run, then
            // resume the second half from it.
            if steps >= 2 {
                let t = Instant::now();
                let snaps = run_capture_multi(program, seed, symbolic, machine, &[steps / 2]);
                capture_ms.push(ms(t.elapsed()));
                if let Some(Some(snap)) = snaps.first() {
                    let t = Instant::now();
                    let resumed = run_from(program, seed, snap, machine);
                    resume_ms.push(ms(t.elapsed()));
                    assert!(
                        resumed.is_some(),
                        "a snapshot of the seed run resumes on the seed"
                    );
                }
            }
        }
    }
    let msteps = |(steps, secs): (u64, f64)| steps as f64 / secs / 1e6;
    let units = capture_ms.len().max(1);
    sheet.put(
        "interp.concrete_msteps_per_s",
        msteps(modes[0]),
        "Msteps/s",
        units,
    );
    sheet.put(
        "interp.taint_msteps_per_s",
        msteps(modes[1]),
        "Msteps/s",
        units,
    );
    sheet.put(
        "interp.symbolic_msteps_per_s",
        msteps(modes[2]),
        "Msteps/s",
        units,
    );
    sheet.put(
        "interp.capture_ms",
        median(&capture_ms),
        "ms",
        capture_ms.len(),
    );
    sheet.put(
        "interp.resume_ms",
        median(&resume_ms),
        "ms",
        resume_ms.len(),
    );
    sheet.put(
        "core.enforce_ms_p90",
        quantile(&enforce_ms, 0.9),
        "ms",
        enforce_ms.len(),
    );

    // Solver: every extracted β once more, uncached.
    let solver = SolverConfig::default();
    let mut query_ms = Vec::with_capacity(betas.len());
    let mut unsat = 0usize;
    for beta in &betas {
        let t = Instant::now();
        let (result, _) = solve_with(beta, &solver, None);
        query_ms.push(ms(t.elapsed()));
        unsat += usize::from(matches!(result, SolveResult::Unsat));
    }
    sheet.put(
        "solver.query_ms_p50",
        median(&query_ms),
        "ms",
        query_ms.len(),
    );
    sheet.put(
        "solver.query_ms_p90",
        quantile(&query_ms, 0.9),
        "ms",
        query_ms.len(),
    );
    sheet.put(
        "solver.unsat_frac",
        unsat as f64 / betas.len().max(1) as f64,
        "ratio",
        betas.len(),
    );
}
