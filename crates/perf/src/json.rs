//! Benchmark-artifact schema and validation for `BENCH_p4update.json`.
//!
//! The JSON value/emitter/parser itself lives in `p4update-analysis`
//! (shared with the on-disk dataset format) and is re-exported here; this
//! module owns the artifact layout: the schema tag, the validator the
//! gate script runs, and the timing-stripping used for thread-count
//! byte-equality checks.

pub use p4update_analysis::Json;

// ---------------------------------------------------------------------------
// Benchmark-artifact schema (v5) and validation.

/// Schema tag of the emitted artifact; bump on layout changes. `v2` added
/// the mandatory top-level `thread_scaling` section, the per-system
/// `stranded_flows` counter, and the ft4096 scale; the `analysis` section
/// (plans/sec of the static batch verifier) is mandatory as of PR 6. `v3`
/// nested `thread_scaling` under `run_level` and added a `partitioning`
/// section, `v4` an `overhead` section; both described the partitioned
/// engine. `v5` drops them with that engine, together with
/// `thread_scaling.in_run`, and moves the ft32768 run to a top-level
/// `ft32768` entry that full (non-smoke) artifacts must carry.
pub const SCHEMA: &str = "p4update-bench-v5";

/// The systems every scale must report, in artifact order.
pub const EXPECTED_SYSTEMS: [&str; 4] = ["p4update-sl", "p4update-dl", "ez-segway", "central"];

/// Validate a benchmark artifact: schema tag (superseded v1–v4
/// artifacts are rejected by name), at least `min_scales` scales with no
/// duplicate scale entries, exactly the four expected systems per scale
/// with no duplicates, a well-formed `thread_scaling.run_level` section,
/// a well-formed `ft32768` entry (mandatory unless `smoke` is true), a
/// well-formed `analysis` section (full artifacts must carry ft512 and
/// ft4096 analysis scales), and finite, plausible numbers throughout.
/// This is what the gate script runs against both the smoke output and
/// the committed baseline.
pub fn validate_report(doc: &Json, min_scales: usize) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some("p4update-bench-v1") => {
            return Err(format!(
                "schema p4update-bench-v1 is obsolete (no thread_scaling section); \
                 regenerate the artifact as {SCHEMA}"
            ));
        }
        Some("p4update-bench-v2") => {
            return Err(format!(
                "schema p4update-bench-v2 is obsolete (flat thread_scaling); \
                 regenerate the artifact as {SCHEMA}"
            ));
        }
        Some(old @ ("p4update-bench-v3" | "p4update-bench-v4")) => {
            return Err(format!(
                "schema {old} is obsolete (partitioned-engine sections); \
                 regenerate the artifact as {SCHEMA}"
            ));
        }
        other => return Err(format!("schema tag must be {SCHEMA:?}, got {other:?}")),
    }
    doc.get("load_factor")
        .and_then(Json::as_f64)
        .filter(|l| (0.0..=1.0).contains(l))
        .ok_or("load_factor must be in [0, 1]")?;
    let ts = doc.get("thread_scaling").ok_or(
        "missing thread_scaling section (required since p4update-bench-v2; \
         older artifacts must be regenerated)",
    )?;
    validate_run_level_scaling(
        ts.get("run_level")
            .ok_or("thread_scaling: missing run_level half (flat v2 layout?)")?,
    )?;
    match doc.get("ft32768") {
        Some(entry) => validate_ft32768(entry)?,
        None if doc.get("smoke").and_then(Json::as_bool) != Some(true) => {
            return Err("full artifacts must carry the ft32768 entry".into());
        }
        None => {}
    }
    validate_analysis(
        doc.get("analysis")
            .ok_or("missing analysis section (plans/sec of the static batch verifier)")?,
        min_scales,
    )?;
    let scales = doc
        .get("scales")
        .and_then(Json::as_arr)
        .ok_or("missing scales array")?;
    if scales.len() < min_scales {
        return Err(format!(
            "need at least {min_scales} scales, found {}",
            scales.len()
        ));
    }
    let mut seen_scales: Vec<&str> = Vec::new();
    for scale in scales {
        let name = scale
            .get("scale")
            .and_then(Json::as_str)
            .ok_or("scale missing name")?;
        if seen_scales.contains(&name) {
            return Err(format!("duplicate scale entry {name:?}"));
        }
        seen_scales.push(name);
        for key in ["nodes", "links", "flows"] {
            scale
                .get(key)
                .and_then(Json::as_f64)
                .filter(|&v| v.is_finite() && v > 0.0)
                .ok_or_else(|| format!("{name}: {key} must be a positive number"))?;
        }
        let systems = scale
            .get("systems")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{name}: missing systems array"))?;
        let labels: Vec<&str> = systems
            .iter()
            .filter_map(|s| s.get("system").and_then(Json::as_str))
            .collect();
        for (i, label) in labels.iter().enumerate() {
            if labels[..i].contains(label) {
                return Err(format!("{name}: duplicate system entry {label:?}"));
            }
        }
        if labels != EXPECTED_SYSTEMS {
            return Err(format!(
                "{name}: systems must be {EXPECTED_SYSTEMS:?}, got {labels:?}"
            ));
        }
        for sys in systems {
            let label = sys.get("system").and_then(Json::as_str).unwrap_or("?");
            for key in [
                "runs",
                "events",
                "events_per_sec",
                "peak_queue_depth",
                "fct_p50_ms",
                "fct_p99_ms",
            ] {
                sys.get(key)
                    .and_then(Json::as_f64)
                    .filter(|&v| v.is_finite() && v > 0.0)
                    .ok_or_else(|| format!("{name}/{label}: {key} must be a positive number"))?;
            }
            // Stranded flows: non-negative, and consistent with the
            // completion rate (stranded > 0 ⇔ rate < 1 for these runs).
            sys.get("stranded_flows")
                .and_then(Json::as_f64)
                .filter(|&v| v.is_finite() && v >= 0.0)
                .ok_or_else(|| format!("{name}/{label}: stranded_flows must be present and ≥ 0"))?;
            let (p50, p99) = (
                sys.get("fct_p50_ms").and_then(Json::as_f64).unwrap_or(0.0),
                sys.get("fct_p99_ms").and_then(Json::as_f64).unwrap_or(0.0),
            );
            if p99 < p50 {
                return Err(format!("{name}/{label}: p99 < p50"));
            }
            // ez-Segway can strand individual flows under contention (it
            // retries forever); everything else must finish everything. A
            // rate below 0.95 means the run itself is broken.
            let rate = sys
                .get("completion_rate")
                .and_then(Json::as_f64)
                .filter(|r| (0.0..=1.0).contains(r))
                .ok_or_else(|| format!("{name}/{label}: completion_rate must be in [0, 1]"))?;
            if rate < 0.95 {
                return Err(format!("{name}/{label}: completion_rate {rate} below 0.95"));
            }
        }
    }
    Ok(())
}

fn validate_run_level_scaling(ts: &Json) -> Result<(), String> {
    ts.get("scale")
        .and_then(Json::as_str)
        .ok_or("thread_scaling/run_level: missing scale")?;
    ts.get("system")
        .and_then(Json::as_str)
        .ok_or("thread_scaling/run_level: missing system")?;
    for key in ["runs", "parallelism_available"] {
        ts.get(key)
            .and_then(Json::as_f64)
            .filter(|&v| v.is_finite() && v >= 1.0)
            .ok_or_else(|| format!("thread_scaling/run_level: {key} must be ≥ 1"))?;
    }
    let points = ts
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("thread_scaling/run_level: missing points array")?;
    if points.is_empty() {
        return Err("thread_scaling/run_level: points must be non-empty".into());
    }
    let mut last_threads = 0.0;
    for p in points {
        let threads = p
            .get("threads")
            .and_then(Json::as_f64)
            .filter(|&v| v.is_finite() && v >= 1.0)
            .ok_or("thread_scaling/run_level: point missing threads")?;
        if threads <= last_threads {
            return Err(
                "thread_scaling/run_level: points must have increasing thread counts".into(),
            );
        }
        last_threads = threads;
        for key in ["wall_secs", "speedup"] {
            p.get(key)
                .and_then(Json::as_f64)
                .filter(|&v| v.is_finite() && v > 0.0)
                .ok_or_else(|| format!("thread_scaling/run_level: point {key} must be positive"))?;
        }
    }
    Ok(())
}

/// Validate the `ft32768` entry: the 32768-switch run's deterministic
/// counts must be positive, and its timing fields (absent after
/// [`strip_timing`]) positive when present.
pub(crate) fn validate_ft32768(entry: &Json) -> Result<(), String> {
    if entry.get("scale").and_then(Json::as_str) != Some("ft32768") {
        return Err("ft32768: scale must be \"ft32768\"".into());
    }
    for key in ["nodes", "flows", "events"] {
        entry
            .get(key)
            .and_then(Json::as_f64)
            .filter(|&v| v.is_finite() && v >= 1.0)
            .ok_or_else(|| format!("ft32768: {key} must be ≥ 1"))?;
    }
    for key in ["wall_secs", "events_per_sec"] {
        if let Some(v) = entry.get(key) {
            v.as_f64()
                .filter(|&v| v.is_finite() && v > 0.0)
                .ok_or_else(|| format!("ft32768: {key} must be positive"))?;
        }
    }
    Ok(())
}

/// Validate the `analysis` section: per-scale plans/sec points of the
/// batch verifier at increasing worker counts, zero analyzer errors on
/// generated workloads (the analyzer-clean half of the cross-validation
/// invariant), and an incremental pass that re-linted strictly fewer
/// plans than the batch holds. A full artifact (`min_scales ≥ 4`) must
/// report ft512 and ft4096.
fn validate_analysis(section: &Json, min_scales: usize) -> Result<(), String> {
    let scales = section
        .get("scales")
        .and_then(Json::as_arr)
        .ok_or("analysis: missing scales array")?;
    if scales.is_empty() {
        return Err("analysis: scales must be non-empty".into());
    }
    let mut names: Vec<&str> = Vec::new();
    for entry in scales {
        let name = entry
            .get("scale")
            .and_then(Json::as_str)
            .ok_or("analysis: scale missing name")?;
        if names.contains(&name) {
            return Err(format!("analysis: duplicate scale entry {name:?}"));
        }
        names.push(name);
        let plans = entry
            .get("plans")
            .and_then(Json::as_f64)
            .filter(|&v| v.is_finite() && v >= 1.0)
            .ok_or_else(|| format!("analysis/{name}: plans must be ≥ 1"))?;
        let errors = entry
            .get("errors")
            .and_then(Json::as_f64)
            .filter(|&v| v.is_finite() && v >= 0.0)
            .ok_or_else(|| format!("analysis/{name}: errors must be present and ≥ 0"))?;
        if errors != 0.0 {
            return Err(format!(
                "analysis/{name}: generated workloads must be analyzer-clean, found {errors} error(s)"
            ));
        }
        entry
            .get("warnings")
            .and_then(Json::as_f64)
            .filter(|&v| v.is_finite() && v >= 0.0)
            .ok_or_else(|| format!("analysis/{name}: warnings must be present and ≥ 0"))?;
        let relinted = entry
            .get("incremental_relinted")
            .and_then(Json::as_f64)
            .filter(|&v| v.is_finite() && v >= 1.0)
            .ok_or_else(|| format!("analysis/{name}: incremental_relinted must be ≥ 1"))?;
        if relinted >= plans {
            return Err(format!(
                "analysis/{name}: incremental pass re-linted {relinted} of {plans} plans \
                 (must be strictly fewer)"
            ));
        }
        let points = entry
            .get("points")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("analysis/{name}: missing points array"))?;
        if points.is_empty() {
            return Err(format!("analysis/{name}: points must be non-empty"));
        }
        let mut last_workers = 0.0;
        for p in points {
            let workers = p
                .get("workers")
                .and_then(Json::as_f64)
                .filter(|&v| v.is_finite() && v >= 1.0)
                .ok_or_else(|| format!("analysis/{name}: point missing workers"))?;
            if workers <= last_workers {
                return Err(format!(
                    "analysis/{name}: points must have increasing worker counts"
                ));
            }
            last_workers = workers;
            for key in ["wall_secs", "plans_per_sec"] {
                p.get(key)
                    .and_then(Json::as_f64)
                    .filter(|&v| v.is_finite() && v > 0.0)
                    .ok_or_else(|| format!("analysis/{name}: point {key} must be positive"))?;
            }
        }
    }
    if min_scales >= 4 {
        for required in ["ft512", "ft4096"] {
            if !names.contains(&required) {
                return Err(format!(
                    "analysis: full artifacts must report scale {required:?}"
                ));
            }
        }
    }
    Ok(())
}

/// A copy of the artifact with every wall-clock-derived field removed:
/// per-system and `ft32768` `wall_secs` and `events_per_sec`, and the
/// whole `thread_scaling` and `analysis` sections (both report
/// throughput). What remains must be byte-identical for two runs of the
/// same build *regardless of thread count*; the gate script enforces
/// exactly that for `--threads 1` vs `--threads 4`. (Lint-output
/// byte-equality across worker counts is enforced separately on
/// `p4update_lint --dataset` output.)
pub fn strip_timing(doc: &Json) -> Json {
    fn strip_wall(sys: &Json) -> Json {
        match sys {
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .filter(|(k, _)| k != "wall_secs" && k != "events_per_sec")
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        }
    }
    fn strip_scale(scale: &Json) -> Json {
        match scale {
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .map(|(k, v)| {
                        let v = if k == "systems" {
                            match v {
                                Json::Arr(items) => {
                                    Json::Arr(items.iter().map(strip_wall).collect())
                                }
                                other => other.clone(),
                            }
                        } else {
                            v.clone()
                        };
                        (k.clone(), v)
                    })
                    .collect(),
            ),
            other => other.clone(),
        }
    }
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "thread_scaling" && k != "analysis")
                .map(|(k, v)| {
                    let v = if k == "scales" {
                        match v {
                            Json::Arr(items) => Json::Arr(items.iter().map(strip_scale).collect()),
                            other => other.clone(),
                        }
                    } else if k == "ft32768" {
                        strip_wall(v)
                    } else {
                        v.clone()
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        other => other.clone(),
    }
}
