//! JSON codecs for the three corpus document kinds: `manifest.json`,
//! `oracle.json`, and `witnesses/<label>.json`.
//!
//! Encoding is canonical (field order fixed, `u64`s exact), so document
//! equality is byte equality; decoding validates shape and reports the
//! first problem with enough context to locate it.

use diode_format::FormatDesc;
use diode_obs::Json;
use diode_synth::{
    AppManifest, AppOracle, ClassMix, GroundTruth, PlantedSite, ShapeClass, SuiteManifest,
    SynthConfig, SynthOracle, WidthClass,
};

use crate::snapmeta::{SnapshotMeta, SnapshotMetaSet};
use crate::witness::{ScoreSummary, SiteWitness, WitnessSet};
use crate::CorpusError;

/// On-disk layout version; bumped when documents change incompatibly.
pub const LAYOUT_VERSION: u64 = 1;

fn bad(doc: &str, what: impl Into<String>) -> CorpusError {
    CorpusError::Corrupt {
        doc: doc.to_string(),
        reason: what.into(),
    }
}

fn check_version(doc: &str, v: &Json) -> Result<(), CorpusError> {
    let found = v.req_uint("version").map_err(|e| bad(doc, e))?;
    if found != LAYOUT_VERSION {
        return Err(CorpusError::UnsupportedVersion {
            doc: doc.to_string(),
            found,
            supported: LAYOUT_VERSION,
        });
    }
    Ok(())
}

/// Checks `doc`'s layout version, then decodes it, mapping any shape
/// problem into [`CorpusError::Corrupt`] naming `doc`.
fn decode<T>(
    doc: &str,
    v: &Json,
    decode: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<T, CorpusError> {
    check_version(doc, v)?;
    decode(v).map_err(|e| bad(doc, e))
}

/// The string items of array member `key`.
fn strings(v: &Json, key: &str) -> Result<Vec<String>, String> {
    v.req_arr(key)?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{key:?} holds a non-string item"))
        })
        .collect()
}

/// Member `key`, which must be present but may be `null`.
fn nullable<'a, T>(
    v: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    v.req(key)?;
    v.opt(key, read)
}

// --------------------------------------------------------------------------
// SynthConfig

fn config_json(cfg: &SynthConfig) -> Json {
    Json::obj()
        .field("apps", cfg.apps)
        .field("min_sites", cfg.min_sites)
        .field("max_sites", cfg.max_sites)
        .field("branch_depth", cfg.branch_depth)
        .field(
            "widths",
            cfg.widths.iter().map(|w| w.token()).collect::<Vec<_>>(),
        )
        .field(
            "shapes",
            cfg.shapes.iter().map(|s| s.token()).collect::<Vec<_>>(),
        )
        .field(
            "mix",
            Json::obj()
                .field("exposable", cfg.mix.exposable)
                .field("guard_prevented", cfg.mix.guard_prevented)
                .field("target_unsat", cfg.mix.target_unsat),
        )
        .field("checksum", cfg.checksum)
        .field("blocking_loops", cfg.blocking_loops)
        .field("site_work", cfg.site_work)
        .field("seeds_per_app", cfg.seeds_per_app)
        .field("rng_seed", cfg.rng_seed)
}

fn config_from_json(v: &Json) -> Result<SynthConfig, String> {
    let widths = v
        .req_arr("widths")?
        .iter()
        .map(|w| {
            w.as_str()
                .and_then(WidthClass::from_token)
                .ok_or_else(|| format!("unknown width token {w}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let shapes = v
        .req_arr("shapes")?
        .iter()
        .map(|s| {
            s.as_str()
                .and_then(ShapeClass::from_token)
                .ok_or_else(|| format!("unknown shape token {s}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mix = v.req("mix")?;
    Ok(SynthConfig {
        apps: v.req_uint("apps")?,
        min_sites: v.req_uint("min_sites")?,
        max_sites: v.req_uint("max_sites")?,
        branch_depth: v.req_uint("branch_depth")?,
        widths,
        shapes,
        mix: ClassMix {
            exposable: mix.req_uint("exposable")?,
            guard_prevented: mix.req_uint("guard_prevented")?,
            target_unsat: mix.req_uint("target_unsat")?,
        },
        checksum: v.req_bool("checksum")?,
        blocking_loops: v.req_bool("blocking_loops")?,
        // Absent in corpora stored before the knob existed: default 0
        // (which forges byte-identical suites to the old code).
        site_work: if v.get("site_work").is_some() {
            v.req_uint("site_work")?
        } else {
            0
        },
        seeds_per_app: v.req_uint("seeds_per_app")?,
        rng_seed: v.req_uint("rng_seed")?,
    })
}

// --------------------------------------------------------------------------
// manifest.json

/// File name of one app's program within the suite directory.
#[must_use]
pub fn program_file(app: &str) -> String {
    format!("programs/{app}.dl")
}

/// File name of one app's `k`-th seed within the suite directory.
#[must_use]
pub fn seed_file(app: &str, k: usize) -> String {
    format!("seeds/{app}.s{k}.bin")
}

/// Encodes the manifest document. Program text and seed bytes live in
/// their own files; the manifest records their relative paths so the
/// directory is self-describing.
#[must_use]
pub fn manifest_json(m: &SuiteManifest) -> Json {
    let apps: Vec<Json> = m
        .apps
        .iter()
        .map(|a| {
            Json::obj()
                .field("name", a.name.clone())
                .field("program", program_file(&a.name))
                .field(
                    "seeds",
                    (0..a.seeds.len())
                        .map(|k| seed_file(&a.name, k))
                        .collect::<Vec<_>>(),
                )
                .field("format_spec", a.format.to_spec())
                .field("content_hash", a.content_hash.clone())
        })
        .collect();
    Json::obj()
        .field("version", LAYOUT_VERSION)
        .field("suite_id", m.suite_id.clone())
        .field("config", config_json(&m.config))
        .field("apps", Json::Arr(apps))
}

/// Decoded manifest shell: everything in `manifest.json` itself, with
/// programs and seeds still to be read from their referenced files.
#[derive(Debug)]
pub struct ManifestShell {
    /// Recorded suite ID.
    pub suite_id: String,
    /// The forging configuration.
    pub config: SynthConfig,
    /// Per-app entries.
    pub apps: Vec<AppShell>,
}

/// One app entry of a decoded manifest shell.
#[derive(Debug)]
pub struct AppShell {
    /// App name.
    pub name: String,
    /// Relative path of the program file.
    pub program: String,
    /// Relative paths of the seed files.
    pub seeds: Vec<String>,
    /// The parsed format description.
    pub format: FormatDesc,
    /// Recorded content hash.
    pub content_hash: String,
}

/// Decodes `manifest.json`.
///
/// # Errors
///
/// Any missing field, wrong type, unknown token, bad format spec, or
/// unsupported version is a [`CorpusError`].
pub fn manifest_from_json(doc: &str, v: &Json) -> Result<ManifestShell, CorpusError> {
    decode(doc, v, |v| {
        let mut apps = Vec::new();
        for entry in v.req_arr("apps")? {
            let format =
                FormatDesc::from_spec(entry.req_str("format_spec")?).map_err(|e| e.to_string())?;
            apps.push(AppShell {
                name: entry.req_str("name")?.to_string(),
                program: entry.req_str("program")?.to_string(),
                seeds: strings(entry, "seeds")?,
                format,
                content_hash: entry.req_str("content_hash")?.to_string(),
            });
        }
        Ok(ManifestShell {
            suite_id: v.req_str("suite_id")?.to_string(),
            config: config_from_json(v.req("config")?)?,
            apps,
        })
    })
}

/// Rebuilds the full [`SuiteManifest`] from a shell plus the file
/// contents the shell references.
#[must_use]
pub fn manifest_from_parts(
    shell: ManifestShell,
    programs: Vec<String>,
    seeds: Vec<Vec<Vec<u8>>>,
    oracle: SynthOracle,
) -> SuiteManifest {
    let apps = shell
        .apps
        .into_iter()
        .zip(programs)
        .zip(seeds)
        .map(|((a, program), seeds)| AppManifest {
            name: a.name,
            program,
            format: a.format,
            seeds,
            content_hash: a.content_hash,
        })
        .collect();
    SuiteManifest {
        suite_id: shell.suite_id,
        config: shell.config,
        apps,
        oracle,
    }
}

// --------------------------------------------------------------------------
// oracle.json

/// Encodes the oracle document.
#[must_use]
pub fn oracle_json(suite_id: &str, oracle: &SynthOracle) -> Json {
    let apps: Vec<Json> = oracle
        .apps
        .iter()
        .map(|a| {
            let sites: Vec<Json> = a
                .sites
                .iter()
                .map(|s| {
                    Json::obj()
                        .field("site", s.site.clone())
                        .field("truth", s.truth.token())
                        .field("fields", s.fields.clone())
                        .field("shape", s.shape.clone())
                        .field("guards", s.guards.clone())
                        .field("overflow_threshold", s.overflow_threshold)
                })
                .collect();
            Json::obj()
                .field("app", a.app.clone())
                .field("sites", Json::Arr(sites))
        })
        .collect();
    Json::obj()
        .field("version", LAYOUT_VERSION)
        .field("suite_id", suite_id)
        .field("apps", Json::Arr(apps))
}

/// Decodes `oracle.json`.
///
/// # Errors
///
/// Any shape problem is a [`CorpusError`].
pub fn oracle_from_json(doc: &str, v: &Json) -> Result<SynthOracle, CorpusError> {
    decode(doc, v, |v| {
        let mut apps = Vec::new();
        for entry in v.req_arr("apps")? {
            let mut sites = Vec::new();
            for s in entry.req_arr("sites")? {
                let truth = s.req_str("truth")?;
                let guards = s
                    .req_arr("guards")?
                    .iter()
                    .map(|g| g.as_u64().ok_or("guard limit is not a u64"))
                    .collect::<Result<Vec<_>, _>>()?;
                sites.push(PlantedSite {
                    site: s.req_str("site")?.to_string(),
                    truth: GroundTruth::from_token(truth)
                        .ok_or_else(|| format!("unknown truth token {truth:?}"))?,
                    fields: strings(s, "fields")?,
                    shape: s.req_str("shape")?.to_string(),
                    guards,
                    overflow_threshold: nullable(s, "overflow_threshold", Json::req_uint)?,
                });
            }
            apps.push(AppOracle {
                app: entry.req_str("app")?.to_string(),
                sites,
            });
        }
        Ok(SynthOracle { apps })
    })
}

// --------------------------------------------------------------------------
// witnesses/<label>.json

fn score_json(s: &ScoreSummary) -> Json {
    Json::obj()
        .field("graded", s.graded)
        .field("true_pos", s.true_pos)
        .field("false_pos", s.false_pos)
        .field("false_neg", s.false_neg)
        .field("true_neg", s.true_neg)
        .field("exact", s.exact)
        .field("mismatches", s.mismatches.clone())
}

fn score_from_json(v: &Json) -> Result<ScoreSummary, String> {
    Ok(ScoreSummary {
        graded: v.req_uint("graded")?,
        true_pos: v.req_uint("true_pos")?,
        false_pos: v.req_uint("false_pos")?,
        false_neg: v.req_uint("false_neg")?,
        true_neg: v.req_uint("true_neg")?,
        exact: v.req_uint("exact")?,
        mismatches: strings(v, "mismatches")?,
    })
}

/// Encodes a witness set, embedding its [fingerprint](WitnessSet::fingerprint).
#[must_use]
pub fn witness_json(w: &WitnessSet) -> Json {
    let sites: Vec<Json> = w
        .sites
        .iter()
        .map(|s| {
            Json::obj()
                .field("app", s.app.clone())
                .field("seed_index", s.seed_index)
                .field("site", s.site.clone())
                .field("outcome", s.outcome.clone())
                .field("enforced", s.enforced)
                .field("input", s.input_hex.clone())
                .field("error_type", s.error_type.clone())
                .field("verified", s.verified)
        })
        .collect();
    Json::obj()
        .field("version", LAYOUT_VERSION)
        .field("suite_id", w.suite_id.clone())
        .field("label", w.label.clone())
        .field("threads", w.threads)
        .field("fingerprint", w.fingerprint())
        .field(
            "scorecard",
            w.scorecard.as_ref().map(score_json).unwrap_or(Json::Null),
        )
        .field("sites", Json::Arr(sites))
}

/// Decodes a witness document, re-verifying the embedded fingerprint
/// against the site records actually present.
///
/// # Errors
///
/// Shape problems and fingerprint drift are [`CorpusError`]s.
pub fn witness_from_json(doc: &str, v: &Json) -> Result<WitnessSet, CorpusError> {
    decode(doc, v, |v| {
        let text =
            |s: &Json, key: &str| nullable(s, key, Json::req_str).map(|t| t.map(str::to_string));
        let mut sites = Vec::new();
        for s in v.req_arr("sites")? {
            sites.push(SiteWitness {
                app: s.req_str("app")?.to_string(),
                seed_index: s.req_uint("seed_index")?,
                site: s.req_str("site")?.to_string(),
                outcome: s.req_str("outcome")?.to_string(),
                enforced: nullable(s, "enforced", Json::req_uint)?,
                input_hex: text(s, "input")?,
                error_type: text(s, "error_type")?,
                verified: nullable(s, "verified", Json::req_bool)?,
            });
        }
        let scorecard = match v.req("scorecard")? {
            Json::Null => None,
            other => Some(score_from_json(other)?),
        };
        let set = WitnessSet {
            suite_id: v.req_str("suite_id")?.to_string(),
            label: v.req_str("label")?.to_string(),
            threads: v.req_uint("threads")?,
            scorecard,
            sites,
        };
        let stored = v.req_str("fingerprint")?;
        let computed = set.fingerprint();
        if stored != computed {
            return Err(format!(
                "fingerprint mismatch (stored {stored}, computed {computed})"
            ));
        }
        Ok(set)
    })
}

// --------------------------------------------------------------------------
// snapshots.json

/// Serializes a snapshot-metadata set.
#[must_use]
pub fn snapmeta_json(m: &SnapshotMetaSet) -> Json {
    let sites: Vec<Json> = m
        .sites
        .iter()
        .map(|s| {
            Json::obj()
                .field("app", s.app.clone())
                .field("seed_index", s.seed_index)
                .field("site", s.site.clone())
                .field("first_divergent_step", s.first_divergent_step)
                .field("divergent_bytes", s.divergent_bytes.to_vec())
                .field("candidates", s.candidates)
                .field("resumed", s.resumed)
        })
        .collect();
    Json::obj()
        .field("version", LAYOUT_VERSION)
        .field("suite_id", m.suite_id.clone())
        .field("sites", Json::Arr(sites))
}

/// Parses a snapshot-metadata set.
pub fn snapmeta_from_json(doc: &str, v: &Json) -> Result<SnapshotMetaSet, CorpusError> {
    decode(doc, v, |v| {
        let mut sites = Vec::new();
        for s in v.req_arr("sites")? {
            let divergent_bytes = s
                .req_arr("divergent_bytes")?
                .iter()
                .map(|b| {
                    b.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or("divergent byte offset is not a u32")
                })
                .collect::<Result<Vec<_>, _>>()?;
            sites.push(SnapshotMeta {
                app: s.req_str("app")?.to_string(),
                seed_index: s.req_uint("seed_index")?,
                site: s.req_str("site")?.to_string(),
                first_divergent_step: nullable(s, "first_divergent_step", Json::req_uint)?,
                divergent_bytes,
                candidates: s.req_uint("candidates")?,
                resumed: s.req_uint("resumed")?,
            });
        }
        Ok(SnapshotMetaSet {
            suite_id: v.req_str("suite_id")?.to_string(),
            sites,
        })
    })
}
