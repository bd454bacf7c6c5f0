//! The one-shot workloads, `deep` and `guards`: a pass over several
//! forged suites, each run as a one-shot campaign on two workers.

use std::time::{Duration, Instant};

use diode_synth::{ForgedSuite, SynthConfig};

use crate::campaign::{iterate, Iteration};
use crate::daemon::{self, JobShape};
use crate::stats::{kernel_quantile, median, peak_rss_mb, put_medians, Sheet};
use crate::suite::{derive, forge_fixed_mix};
use crate::{replay, Outcome, THREADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The forge knobs of one one-shot workload.
pub struct Shape {
    pub apps: usize,
    pub depth: usize,
    pub sites: usize,
    pub site_work: u32,
    /// Distinct suites a run cycles through. One program's cost varies
    /// several-fold with its forged guards and fields, so a run that
    /// measured one suite would measure the seed as much as the code.
    pub suites: usize,
    /// Salt separating this workload's suites from the others'.
    pub salt: u64,
}

/// `deep`: long per-site prefixes, so interpretation and snapshot
/// replay dominate.
pub const DEEP: Shape = Shape {
    apps: 28,
    depth: 3,
    sites: 6,
    site_work: 3000,
    suites: 12,
    salt: 0xDEE9,
};

/// `guards`: deep guard chains and no prefix work, so solving and
/// enforcement dominate.
pub const GUARDS: Shape = Shape {
    apps: 100,
    depth: 10,
    sites: 6,
    site_work: 0,
    suites: 8,
    salt: 0x6A2D,
};

impl Shape {
    fn config(&self, seed: u64, suite: usize) -> SynthConfig {
        let mut cfg = SynthConfig::default()
            .with_apps(self.apps)
            .with_depth(self.depth)
            .with_rng_seed(derive(seed, self.salt.wrapping_add(suite as u64)));
        cfg.min_sites = self.sites;
        cfg.max_sites = self.sites;
        cfg.site_work = self.site_work;
        cfg
    }
}

pub fn run(shape: &Shape, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: forge the suites and build their campaign workloads.
    let mut setup_s = Vec::new();
    let mut forge_ms = Vec::new();
    let mut suites = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        suites = (0..shape.suites)
            .map(|i| forge_fixed_mix(&shape.config(seed, i)))
            .collect::<Vec<ForgedSuite>>();
        forge_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for suite in &suites {
            drop(suite.campaign_apps());
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Measure: whole passes over the suites until `seconds` have gone
    // by, so every suite counts the same in the medians. A traced run
    // measures each suite untraced and then traced, so their ratio is
    // the tracing overhead on the same input.
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut plain: Vec<(usize, Iteration)> = Vec::new();
    let mut traced: Vec<(usize, Iteration)> = Vec::new();
    'passes: loop {
        for (s, suite) in suites.iter().enumerate() {
            plain.push((s, iterate(suite, THREADS, false)));
            if trace {
                traced.push((s, iterate(suite, THREADS, true)));
                // Per-layer numbers need a few pairs, not whole passes.
                if traced.len() >= MIN_TRACED_PAIRS && Instant::now() >= deadline {
                    break 'passes;
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let rss = peak_rss_mb();

    // Check every verdict of every iteration: exact agreement with the
    // oracle, and one outcome fingerprint per suite.
    let mut reference: Vec<Option<String>> = vec![None; suites.len()];
    for (s, it) in plain.iter().chain(&traced) {
        out.attempted += it.planted;
        out.planted_sites += it.planted;
        out.mismatched_sites += it.mismatches.len();
        out.problems.extend(it.mismatches.iter().cloned());
        let first = reference[*s].get_or_insert_with(|| it.fingerprint.clone());
        if *first == it.fingerprint {
            out.failed += it.mismatches.len();
        } else {
            out.failed += it.planted;
            out.problems.push(format!(
                "suite {s}: outcome fingerprint {} differs from its first iteration's {first}",
                it.fingerprint
            ));
        }
    }
    out.fingerprints = reference.into_iter().flatten().collect();

    if trace {
        let sheet = &mut out.sheet;
        sheet.put("synth.forge_ms", median(&forge_ms), "ms", forge_ms.len());
        let overhead: Vec<f64> = plain
            .iter()
            .zip(&traced)
            .map(|((_, p), (_, t))| t.wall().as_secs_f64() / p.wall().as_secs_f64() - 1.0)
            .collect();
        let layers: Vec<Sheet> = traced
            .iter_mut()
            .map(|(_, it)| std::mem::take(&mut it.layers))
            .collect();
        put_medians(sheet, &layers);
        sheet.put(
            "obs.trace_overhead_frac",
            median(&overhead),
            "ratio",
            overhead.len(),
        );
        replay::replay(sheet, &suites[0].apps);
        // The serve layer is not on this workload's path; a small probe
        // daemon serves suites of this workload's shape.
        let probe = JobShape {
            apps: 2,
            depth: shape.depth,
            sites: Some(shape.sites),
            site_work: shape.site_work,
            salt: shape.salt,
        };
        let serve = daemon::probe(&probe, seed, PROBE_SECONDS);
        out.absorb_probe(serve);
        return out;
    }

    // End-to-end: per campaign, then the median over the pass. The host
    // is a shared VM whose CPUs stall for seconds at a time; a median
    // over campaigns shrugs off a stall that a total would absorb.
    let its: Vec<&Iteration> = plain.iter().map(|(_, it)| it).collect();
    let per_campaign =
        |f: &dyn Fn(&Iteration) -> f64| median(&its.iter().map(|i| f(i)).collect::<Vec<_>>());
    let wall = |i: &Iteration| i.wall().as_secs_f64();
    let n = its.len();
    let sheet = &mut out.sheet;
    sheet.put("setup_s", median(&setup_s), "s", setup_s.len());
    sheet.put(
        "sites_per_s",
        per_campaign(&|i| i.sites as f64 / wall(i)),
        "sites/s",
        n,
    );
    for (name, q) in [("verdict_s_p50", 0.5), ("verdict_s_p90", 0.9)] {
        let v = per_campaign(&|i| kernel_quantile(&i.verdict_s, q));
        sheet.put(name, v, "s", its[0].verdict_s.len());
    }
    for (name, q) in [("job_ms_p50", 0.5), ("job_ms_p90", 0.9)] {
        let v = per_campaign(&|i| kernel_quantile(&i.program_ms, q));
        sheet.put(name, v, "ms", its[0].program_ms.len());
    }
    sheet.put(
        "jobs_per_s",
        per_campaign(&|i| i.program_ms.len() as f64 / wall(i)),
        "jobs/s",
        n,
    );
    sheet.put("peak_rss_mb", rss, "MiB", 1);
    out
}

/// Untraced-then-traced pairs a traced run makes at least.
const MIN_TRACED_PAIRS: usize = 2;

/// How long the serve probe of a traced one-shot run loads its daemon.
const PROBE_SECONDS: u64 = 2;
