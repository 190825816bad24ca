//! Job parsing and execution for `verifyd`.
//!
//! A job is one line of flat JSON (see [`Job::parse`]); running it
//! yields one result row per verified instance — one row for a
//! single-placement job, one per placement for an `f`-sweep — each
//! routed through the shared [`VerdictCache`] and carrying its
//! hit / miss / resumed provenance.

use std::path::Path;
use std::time::Instant;

use stabilization_verify::{
    sweep_byzantine_placements_cached, sweep_crash_placements_cached, CheckpointPolicy, Limits,
    Verdict, VerdictCache, MAX_NODES,
};
use stateless_core::prelude::*;
use stateless_core::topology;
use stateless_protocols::bfs_tree::{bfs_alphabet, bfs_tree_protocol};

/// One verification job, parsed from a line of flat JSON.
///
/// Required fields: `id` (string), `graph` (`biring` / `uniring` /
/// `clique` / `star` / `path`), `n` (at most [`MAX_NODES`]). Optional:
/// `root` (default 0), `cap` (distance cap in `1..=n`, default `n`), `r`
/// (`1..=255`, default 1), `model` (`byzantine`, the default, or
/// `crash`), `f` (present ⇒ sweep over every placement of `f` faulty
/// nodes), `exclude` (sweep mode: node ids never faulty), `faulty`
/// (single mode: the exact faulty set, default none), `max_states`,
/// `deadline_ms`. Every number must be a non-negative integer that fits
/// its field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Caller-chosen job id, echoed in every result row.
    pub id: String,
    /// Topology family name.
    pub graph: String,
    /// Node count.
    pub n: usize,
    /// BFS root.
    pub root: usize,
    /// Distance cap (the BFS alphabet is `0..=cap`).
    pub cap: u64,
    /// Stabilization parameter r.
    pub r: u8,
    /// Fault kind: `byzantine` or `crash`.
    pub model: String,
    /// Sweep mode when present: quantify over every placement of `f`
    /// faulty nodes.
    pub f: Option<usize>,
    /// Sweep mode: nodes excluded from placements.
    pub exclude: Vec<NodeId>,
    /// Single mode: the exact faulty node set.
    pub faulty: Vec<NodeId>,
    /// State-budget override.
    pub max_states: Option<usize>,
    /// Wall-clock deadline; expiry degrades to a `partial` row that a
    /// resubmission resumes (the cache keeps the resume pointer).
    pub deadline_ms: Option<u64>,
}

/// A job line that did not parse: the line's `id` (empty when it has
/// none) and what was wrong with it.
#[derive(Debug)]
pub struct BadLine {
    /// The line's `id` field, so the error row answers the right job.
    pub id: String,
    /// What was wrong with the line.
    pub what: String,
}

impl Job {
    /// Parses one job line. Blank lines are `Ok(None)`; anything else
    /// that does not parse is a [`BadLine`] keyed by the line's `id`.
    /// Sizes are checked here, before any graph or alphabet is built.
    pub fn parse(line: &str) -> Result<Option<Job>, BadLine> {
        if line.trim().is_empty() {
            return Ok(None);
        }
        Job::from_fields(line).map(Some).map_err(|what| BadLine {
            id: string_field(line, "id").unwrap_or_default(),
            what,
        })
    }

    fn from_fields(line: &str) -> Result<Job, String> {
        let id = string_field(line, "id").ok_or("missing \"id\"")?;
        let graph = string_field(line, "graph").ok_or("missing \"graph\"")?;
        let n: usize = int_field(line, "n")?.ok_or("missing \"n\"")?;
        if n > MAX_NODES {
            return Err(format!(
                "\"n\" = {n} exceeds the verifier's limit of {MAX_NODES} nodes"
            ));
        }
        // A BFS distance on n nodes never exceeds n − 1, so a cap past n
        // changes no verdict; it only inflates the alphabet `0..=cap`,
        // which is allocated up front.
        let cap: u64 = int_field(line, "cap")?.unwrap_or(n as u64);
        if !(1..=n as u64).contains(&cap) {
            return Err(format!("\"cap\" must lie in 1..={n}, got {cap}"));
        }
        let r: u8 = int_field(line, "r")?.unwrap_or(1);
        if r == 0 {
            return Err("\"r\" must be at least 1".into());
        }
        Ok(Job {
            id,
            graph,
            n,
            root: int_field(line, "root")?.unwrap_or(0),
            cap,
            r,
            model: string_field(line, "model").unwrap_or_else(|| "byzantine".into()),
            f: int_field(line, "f")?,
            exclude: list_field(line, "exclude")?.unwrap_or_default(),
            faulty: list_field(line, "faulty")?.unwrap_or_default(),
            max_states: int_field(line, "max_states")?,
            deadline_ms: int_field(line, "deadline_ms")?,
        })
    }
}

/// Runs one job through `cache` and returns its result rows (JSON
/// lines). A failing job yields a single error row rather than tearing
/// the batch down; `wall_ms` in every row is the wall time of the
/// enclosing job (a sweep's rows share it). `ckpt_root`, when given,
/// hosts a per-fingerprint checkpoint directory for deadline-bearing
/// single-placement jobs, so an expired deadline leaves a resumable
/// checkpoint behind the cache's resume pointer.
pub fn run_job(
    job: &Job,
    cache: &VerdictCache,
    threads: usize,
    ckpt_root: Option<&Path>,
) -> Vec<String> {
    let started = Instant::now();
    match run_job_inner(job, cache, threads, ckpt_root) {
        Ok(rows) => {
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            rows.into_iter()
                .map(|row| {
                    format!(
                        "{{\"id\":{},\"placement\":{},\"verdict\":\"{}\",\"states\":{},\"cache\":\"{}\",\"wall_ms\":{:.3}}}",
                        json_string(&job.id),
                        json_ids(&row.placement),
                        row.verdict,
                        row.states,
                        row.cache,
                        wall_ms
                    )
                })
                .collect()
        }
        Err(what) => vec![error_row(&job.id, &what)],
    }
}

/// The error row for a job (or an unparseable line) — `id` may be
/// empty when the line had none.
pub fn error_row(id: &str, what: &str) -> String {
    format!(
        "{{\"id\":{},\"error\":{}}}",
        json_string(id),
        json_string(what)
    )
}

/// One result row before formatting.
struct Row {
    placement: Vec<NodeId>,
    verdict: &'static str,
    states: usize,
    cache: &'static str,
}

fn run_job_inner(
    job: &Job,
    cache: &VerdictCache,
    threads: usize,
    ckpt_root: Option<&Path>,
) -> Result<Vec<Row>, String> {
    let graph = build_graph(&job.graph, job.n)?;
    if job.root >= job.n {
        return Err(format!("root {} out of range for n = {}", job.root, job.n));
    }
    let protocol = bfs_tree_protocol(graph, job.root, job.cap, FaultModel::none())
        .map_err(|e| e.to_string())?;
    let inputs = vec![0u64; job.n];
    let alphabet = bfs_alphabet(job.cap);
    let mut limits = Limits {
        threads,
        ..Limits::default()
    };
    if let Some(max_states) = job.max_states {
        limits.max_states = max_states;
    }
    if let Some(ms) = job.deadline_ms {
        limits.deadline = Some(std::time::Duration::from_millis(ms));
    }
    match job.f {
        Some(f) => {
            // Sweep mode: one row per placement, all through the cache.
            let sweep = match job.model.as_str() {
                "byzantine" => sweep_byzantine_placements_cached,
                "crash" => sweep_crash_placements_cached,
                other => return Err(format!("unknown fault model \"{other}\"")),
            };
            let rows = sweep(
                &protocol,
                &inputs,
                &alphabet,
                job.r,
                limits,
                f,
                &job.exclude,
                cache,
            )
            .map_err(|e| e.to_string())?;
            Ok(rows
                .into_iter()
                .map(|row| Row {
                    placement: row.placement,
                    verdict: verdict_str(&row.verdict),
                    states: row.stats.states,
                    cache: row.cache.as_str(),
                })
                .collect())
        }
        None => {
            // Single mode: the exact faulty set from `faulty`.
            limits.faults = match (job.model.as_str(), job.faulty.is_empty()) {
                (_, true) => FaultModel::none(),
                ("byzantine", false) => {
                    FaultModel::byzantine(&job.faulty).map_err(|e| e.to_string())?
                }
                ("crash", false) => FaultModel::crash(&job.faulty).map_err(|e| e.to_string())?,
                (other, false) => return Err(format!("unknown fault model \"{other}\"")),
            };
            if limits.deadline.is_some() {
                if let Some(root) = ckpt_root {
                    // A deadline needs a checkpoint to degrade to a
                    // *resumable* partial; key the directory by the
                    // instance fingerprint so resubmissions find it.
                    let fp = VerdictCache::label_fingerprint(
                        &protocol, &inputs, &alphabet, job.r, &limits,
                    );
                    limits.checkpoint =
                        Some(CheckpointPolicy::new(root.join(format!("ckpt-{fp:016x}"))));
                }
            }
            let hit = cache
                .verify_label(&protocol, &inputs, &alphabet, job.r, &limits)
                .map_err(|e| e.to_string())?;
            Ok(vec![Row {
                placement: job.faulty.clone(),
                verdict: verdict_str(&hit.verdict),
                states: hit.stats.states,
                cache: hit.outcome.as_str(),
            }])
        }
    }
}

fn build_graph(family: &str, n: usize) -> Result<DiGraph, String> {
    // Validate sizes here: the topology constructors assert, and a bad
    // job line must become an error row, not a panic.
    let need = |min: usize| {
        if n < min {
            Err(format!(
                "graph \"{family}\" needs at least {min} nodes, got {n}"
            ))
        } else {
            Ok(())
        }
    };
    match family {
        "biring" => {
            need(3)?;
            Ok(topology::bidirectional_ring(n))
        }
        "uniring" => {
            need(2)?;
            Ok(topology::unidirectional_ring(n))
        }
        "clique" => {
            need(2)?;
            Ok(topology::clique(n))
        }
        "star" => {
            need(2)?;
            Ok(topology::star(n))
        }
        "path" => {
            need(2)?;
            Ok(topology::bidirectional_path(n))
        }
        other => Err(format!("unknown graph family \"{other}\"")),
    }
}

fn verdict_str(verdict: &Verdict<u64>) -> &'static str {
    match verdict {
        Verdict::Stabilizing => "stabilizing",
        Verdict::NotStabilizing(_) => "not_stabilizing",
        Verdict::Partial { .. } => "partial",
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_ids(ids: &[NodeId]) -> String {
    let inner: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
    format!("[{}]", inner.join(","))
}

/// The text of one JSON line right after the top-level `"key":`, with
/// the JSON whitespace around the colon and before the value skipped, or
/// `None` when the line's outermost object has no such key. Strings are
/// skipped whole (escapes included) and brackets are counted, so only a
/// string directly inside the outermost object and followed by a colon
/// is a key: a string value equal to the key, a key inside a string, and
/// a key of a nested object or array element are all passed over.
fn value_of<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    const WS: [char; 4] = [' ', '\t', '\n', '\r'];
    let bytes = line.as_bytes();
    let mut depth = 0usize;
    let mut at = 0;
    while at < bytes.len() {
        match bytes[at] {
            b'"' => {
                let start = at + 1;
                let mut end = start;
                while end < bytes.len() && bytes[end] != b'"' {
                    end += if bytes[end] == b'\\' { 2 } else { 1 };
                }
                if end >= bytes.len() {
                    return None;
                }
                if depth == 1 && &line[start..end] == key {
                    if let Some(value) = line[end + 1..].trim_start_matches(WS).strip_prefix(':') {
                        return Some(value.trim_start_matches(WS));
                    }
                }
                at = end + 1;
            }
            b'{' | b'[' => {
                depth += 1;
                at += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                at += 1;
            }
            _ => at += 1,
        }
    }
    None
}

/// Extracts the string value of `"key":"…"` from one JSON line.
fn string_field(line: &str, key: &str) -> Option<String> {
    let rest = value_of(line, key)?.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            _ => out.push(c),
        }
    }
    None
}

/// Extracts `"key":…` from one JSON line as a `T`; `Ok(None)` when the
/// key is absent. Any JSON number notation is accepted (`4`, `4.0`,
/// `4e0`), but the value must be a non-negative integer that fits `T`:
/// a negative, fractional, non-numeric or out-of-range value is an
/// error, never truncated by a cast.
fn int_field<T: TryFrom<u64>>(line: &str, key: &str) -> Result<Option<T>, String> {
    let Some(rest) = value_of(line, key) else {
        return Ok(None);
    };
    let token = rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim();
    let bad = || format!("\"{key}\" must be a non-negative integer in range, got {token}");
    let value: f64 = token.parse().map_err(|_| bad())?;
    // Every integer up to 2^53 is exact in an f64; larger ones may not be.
    if !(0.0..=9_007_199_254_740_992.0).contains(&value) || value.fract() != 0.0 {
        return Err(bad());
    }
    T::try_from(value as u64).map(Some).map_err(|_| bad())
}

/// Extracts the `"key":[…]` node-id list from one JSON line; `Ok(None)`
/// when the key is absent. A value that is not a list, or an element
/// that is not a node id, is an error, never silently dropped.
fn list_field(line: &str, key: &str) -> Result<Option<Vec<NodeId>>, String> {
    let Some(rest) = value_of(line, key) else {
        return Ok(None);
    };
    let rest = rest
        .strip_prefix('[')
        .ok_or_else(|| format!("\"{key}\" must be a list of node ids"))?;
    let end = rest
        .find(']')
        .ok_or_else(|| format!("unterminated \"{key}\" list"))?;
    let body = rest[..end].trim();
    if body.is_empty() {
        return Ok(Some(Vec::new()));
    }
    body.split(',')
        .map(|part| {
            let part = part.trim();
            part.parse::<NodeId>()
                .map_err(|_| format!("\"{key}\" holds {part}, not a node id"))
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stabilization_verify::cache::DEFAULT_BYTE_BUDGET;

    #[test]
    fn jobs_parse_with_defaults_and_reject_garbage() {
        let job = Job::parse(
            r#"{"id":"j1","graph":"biring","n":4,"root":0,"cap":2,"r":1,"model":"byzantine","f":1,"exclude":[0,2],"max_states":100000,"deadline_ms":5000}"#,
        )
        .unwrap()
        .unwrap();
        assert_eq!(job.id, "j1");
        assert_eq!(job.graph, "biring");
        assert_eq!((job.n, job.root, job.cap, job.r), (4, 0, 2, 1));
        assert_eq!(job.f, Some(1));
        assert_eq!(job.exclude, vec![0, 2]);
        assert_eq!(job.max_states, Some(100_000));
        assert_eq!(job.deadline_ms, Some(5000));

        let sparse = Job::parse(r#"{"id":"j2","graph":"uniring","n":3}"#)
            .unwrap()
            .unwrap();
        assert_eq!(sparse.root, 0);
        assert_eq!(sparse.cap, 3, "cap defaults to n");
        assert_eq!(sparse.r, 1);
        assert_eq!(sparse.model, "byzantine");
        assert_eq!(sparse.f, None);
        assert!(sparse.exclude.is_empty() && sparse.faulty.is_empty());

        assert_eq!(Job::parse("   ").unwrap(), None, "blank lines are skipped");
        assert_eq!(
            Job::parse(r#"{"graph":"biring","n":4}"#).unwrap_err().id,
            ""
        );
        assert!(Job::parse(r#"{"id":"x","graph":"biring"}"#).is_err());
        assert!(Job::parse(r#"{"id":"x","graph":"biring","n":4,"r":0}"#).is_err());
    }

    #[test]
    fn json_whitespace_does_not_change_the_job() {
        for (spaced, unspaced) in [
            (
                r#"{"id":"m","graph":"biring","n":3,"cap":2,"model": "crash","faulty":[1]}"#,
                r#"{"id":"m","graph":"biring","n":3,"cap":2,"model":"crash","faulty":[1]}"#,
            ),
            (
                r#"{"id":"b","graph":"biring","n":3,"cap":2,"faulty": [2]}"#,
                r#"{"id":"b","graph":"biring","n":3,"cap":2,"faulty":[2]}"#,
            ),
            (
                r#"{"id":"x","graph":"biring","n":3,"cap":2,"f":1,"exclude": [0]}"#,
                r#"{"id":"x","graph":"biring","n":3,"cap":2,"f":1,"exclude":[0]}"#,
            ),
            (
                r#"{"id":"s","graph":"biring","n":3,"cap":2,"f" : 1}"#,
                r#"{"id":"s","graph":"biring","n":3,"cap":2,"f":1}"#,
            ),
            (
                r#"{"id": "a", "graph": "star", "n": 5, "cap": 2, "r": 1}"#,
                r#"{"id":"a","graph":"star","n":5,"cap":2,"r":1}"#,
            ),
            (
                "{\"id\"\t:\r\n\"t\",\"graph\":\"path\",\"n\":\t4}",
                r#"{"id":"t","graph":"path","n":4}"#,
            ),
        ] {
            let job = Job::parse(spaced).unwrap().unwrap();
            assert_eq!(job, Job::parse(unspaced).unwrap().unwrap(), "{spaced}");
        }
        // Keys of a nested object or array element, and key-like text
        // inside an escaped string, are not top-level keys: each line
        // parses like its flat twin.
        for (nested, flat) in [
            (
                r#"{"id":"nested","meta":{"n":9,"cap":1},"graph":"biring","n":4,"cap":2,"r":1}"#,
                r#"{"id":"nested","graph":"biring","n":4,"cap":2,"r":1}"#,
            ),
            (
                r#"{"id":"arr","tags":[{"graph":"star"}],"graph":"biring","n":4,"cap":2,"r":1}"#,
                r#"{"id":"arr","graph":"biring","n":4,"cap":2,"r":1}"#,
            ),
            (
                r#"{"id":"q\"n\":5,\"x","graph":"biring","n":4}"#,
                r#"{"id":"q\"n\":5,\"x","n":4,"graph":"biring"}"#,
            ),
        ] {
            let job = Job::parse(nested).unwrap().unwrap();
            assert_eq!(job, Job::parse(flat).unwrap().unwrap(), "{nested}");
        }
        // A string value equal to a key name is not that key.
        let job = Job::parse(r#"{"id":"f","graph":"biring","n":3,"f" : 1}"#)
            .unwrap()
            .unwrap();
        assert_eq!((job.id.as_str(), job.f), ("f", Some(1)));
        let bad = Job::parse(r#"{"id": "l","graph":"biring","n":3,"faulty": 2}"#).unwrap_err();
        assert_eq!(bad.id, "l");
        assert!(bad.what.contains("\"faulty\""), "{}", bad.what);
    }

    #[test]
    fn hostile_numbers_are_rejected_before_anything_is_built() {
        for (line, needle) in [
            // An alphabet of 10^12 + 1 labels used to abort the process.
            (r#"{"id":"c","graph":"biring","n":4,"cap":1e12}"#, "\"cap\""),
            (r#"{"id":"c0","graph":"biring","n":4,"cap":0}"#, "\"cap\""),
            (r#"{"id":"c5","graph":"biring","n":4,"cap":5}"#, "\"cap\""),
            // 300 used to be cast to 255.
            (r#"{"id":"r","graph":"biring","n":4,"r":300}"#, "\"r\""),
            (r#"{"id":"big","graph":"biring","n":1e9}"#, "\"n\""),
            (r#"{"id":"n17","graph":"biring","n":17}"#, "\"n\""),
            (
                r#"{"id":"neg","graph":"biring","n":4,"root":-1}"#,
                "\"root\"",
            ),
            (r#"{"id":"frac","graph":"biring","n":4.5}"#, "\"n\""),
            (r#"{"id":"str","graph":"biring","n":"4"}"#, "\"n\""),
            (
                r#"{"id":"huge","graph":"biring","n":4,"max_states":1e300}"#,
                "\"max_states\"",
            ),
            (
                r#"{"id":"list","graph":"biring","n":4,"faulty":[1,-2]}"#,
                "\"faulty\"",
            ),
        ] {
            let bad = Job::parse(line).unwrap_err();
            let id = string_field(line, "id").unwrap();
            assert_eq!(bad.id, id, "{line}");
            assert!(bad.what.contains(needle), "{line} -> {}", bad.what);
        }
        // Integral values in any JSON number notation are fine.
        let job = Job::parse(r#"{"id":"e","graph":"biring","n":4e0,"cap":2.0,"r":255}"#)
            .unwrap()
            .unwrap();
        assert_eq!((job.n, job.cap, job.r), (4, 2, 255));
    }

    #[test]
    fn single_jobs_hit_the_cache_on_repeat() {
        let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
        let job = Job::parse(r#"{"id":"s1","graph":"biring","n":3,"cap":2,"faulty":[1]}"#)
            .unwrap()
            .unwrap();
        let cold = run_job(&job, &cache, 1, None);
        assert_eq!(cold.len(), 1);
        assert!(cold[0].contains("\"cache\":\"miss\""), "cold: {}", cold[0]);
        assert!(cold[0].contains("\"placement\":[1]"), "cold: {}", cold[0]);
        let warm = run_job(&job, &cache, 1, None);
        assert!(warm[0].contains("\"cache\":\"hit\""), "warm: {}", warm[0]);
        // Identical verdict and states either way.
        let strip = |row: &str| row.split(",\"cache\"").next().unwrap().to_string();
        assert_eq!(strip(&cold[0]), strip(&warm[0]));
    }

    #[test]
    fn sweep_jobs_emit_one_row_per_placement_and_warm_to_hits() {
        let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
        let job = Job::parse(r#"{"id":"w1","graph":"biring","n":3,"cap":2,"f":1,"exclude":[0]}"#)
            .unwrap()
            .unwrap();
        let cold = run_job(&job, &cache, 1, None);
        assert_eq!(cold.len(), 2, "placements of 1 fault over {{1,2}}");
        assert!(cold.iter().all(|row| row.contains("\"cache\":\"miss\"")));
        let warm = run_job(&job, &cache, 1, None);
        assert!(
            warm.iter().all(|row| row.contains("\"cache\":\"hit\"")),
            "warm rows: {warm:?}"
        );
    }

    #[test]
    fn bad_jobs_become_error_rows_not_panics() {
        let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
        for line in [
            r#"{"id":"b1","graph":"mobius","n":4}"#,
            r#"{"id":"b2","graph":"biring","n":2}"#,
            r#"{"id":"b3","graph":"biring","n":4,"root":9}"#,
            r#"{"id":"b4","graph":"biring","n":3,"model":"gremlin","f":1}"#,
            // The readiness probe benchmark harnesses wait on before
            // sending work: its row must carry `"id":"ready"`.
            r#"{"id":"ready","graph":"ready-probe","n":1}"#,
        ] {
            let job = Job::parse(line).unwrap().unwrap();
            let rows = run_job(&job, &cache, 1, None);
            assert_eq!(rows.len(), 1, "{line}");
            let keyed = format!("{{\"id\":{},\"error\":", json_string(&job.id));
            assert!(rows[0].starts_with(&keyed), "{line} -> {}", rows[0]);
        }
    }
}
