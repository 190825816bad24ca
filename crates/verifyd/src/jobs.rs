//! Job parsing and execution for `verifyd`.
//!
//! A job is one line of flat JSON (see [`Job::parse`]); running it
//! yields one result row per verified instance — one row for a
//! single-placement job, one per placement for an `f`-sweep — each
//! routed through the shared [`VerdictCache`] and carrying its
//! hit / miss / resumed provenance.

use std::path::{Path, PathBuf};
use std::time::Instant;

use stabilization_verify::{
    sweep_byzantine_placements_cached, sweep_crash_placements_cached, CacheOutcome,
    CheckpointPolicy, Limits, Verdict, VerdictCache, MAX_NODES,
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
/// (single mode: the exact faulty set, default none), `max_states` (at
/// most the default budget, [`Limits::default`]), `deadline_ms`. Every
/// number must be written as a JSON number and be a non-negative integer
/// that fits its field, every string field a string, and the line exactly
/// one JSON object whose keys each appear once.
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
    /// State-budget override, never above the default budget.
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

impl BadLine {
    /// `what` went wrong with `line`: keyed by the `id` the line holds
    /// before its first fault, or by the empty id when it has none there
    /// that decodes.
    pub fn new(line: &str, what: String) -> BadLine {
        BadLine {
            id: string_field(line, "id").ok().flatten().unwrap_or_default(),
            what,
        }
    }
}

impl Job {
    /// Parses one job line, reading it once ([`Members::scan`]). Blank
    /// lines are `Ok(None)`; anything else that does not parse, or is not
    /// exactly one JSON object, is a [`BadLine`] keyed by the line's `id`
    /// as far as the line reads. Sizes are checked here, before any graph
    /// or alphabet is built.
    pub fn parse(line: &str) -> Result<Option<Job>, BadLine> {
        if line.trim().is_empty() {
            return Ok(None);
        }
        let (members, scanned) = Members::scan(line);
        scanned
            .and_then(|()| Job::from_members(&members))
            .map(Some)
            .map_err(|what| BadLine::new(line, what))
    }

    fn from_members(m: &Members<'_>) -> Result<Job, String> {
        let id = m.string("id")?.ok_or("missing \"id\"")?;
        let graph = m.string("graph")?.ok_or("missing \"graph\"")?;
        let n: usize = m.int("n")?.ok_or("missing \"n\"")?;
        if n > MAX_NODES {
            return Err(format!(
                "\"n\" = {n} exceeds the verifier's limit of {MAX_NODES} nodes"
            ));
        }
        // A BFS distance on n nodes never exceeds n − 1, so a cap past n
        // changes no verdict; it only inflates the alphabet `0..=cap`,
        // which is allocated up front.
        let cap: u64 = m.int("cap")?.unwrap_or(n as u64);
        if !(1..=n as u64).contains(&cap) {
            return Err(format!("\"cap\" must lie in 1..={n}, got {cap}"));
        }
        let r: u8 = m.int("r")?.unwrap_or(1);
        if r == 0 {
            return Err("\"r\" must be at least 1".into());
        }
        // A job may lower the state budget but not lift it past the
        // default it overrides.
        let max_states: Option<usize> = m.int("max_states")?;
        let budget = Limits::default().max_states;
        if let Some(asked) = max_states.filter(|&asked| asked > budget) {
            return Err(format!(
                "\"max_states\" = {asked} exceeds the service's cap of {budget} states"
            ));
        }
        Ok(Job {
            id,
            graph,
            n,
            root: m.int("root")?.unwrap_or(0),
            cap,
            r,
            model: m.string("model")?.unwrap_or_else(|| "byzantine".into()),
            f: m.int("f")?,
            exclude: m.list("exclude")?.unwrap_or_default(),
            faulty: m.list("faulty")?.unwrap_or_default(),
            max_states,
            deadline_ms: m.int("deadline_ms")?,
        })
    }
}

/// Runs one job through `cache` and returns its result rows (JSON
/// lines). A failing job yields a single error row rather than tearing
/// the batch down; `wall_ms` in every row is the wall time of the
/// enclosing job (a sweep's rows share it). `ckpt_root`, when given,
/// hosts a per-fingerprint checkpoint directory for deadline-bearing
/// single-placement jobs, so an expired deadline leaves a resumable
/// checkpoint behind the cache's resume pointer; the directory is
/// deleted once a final verdict for the instance is memoized.
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
                    limits.checkpoint = Some(CheckpointPolicy::new(ckpt_dir(root, fp)));
                }
            }
            let hit = cache
                .verify_label(&protocol, &inputs, &alphabet, job.r, &limits)
                .map_err(|e| e.to_string())?;
            // Once a final verdict replaced the resume pointer, nothing
            // reads the deadline checkpoint again. Only a resumed row or
            // a checkpointed deadline job can have left one, so a cache
            // hit never touches the disk.
            let spent = match hit.outcome {
                CacheOutcome::Hit => false,
                CacheOutcome::Miss => limits.checkpoint.is_some(),
                CacheOutcome::Resumed => true,
            };
            if spent && !hit.verdict.is_partial() {
                if let Some(root) = ckpt_root {
                    // Best-effort: a store left behind costs disk, not
                    // correctness.
                    let _ = std::fs::remove_dir_all(ckpt_dir(root, hit.fingerprint));
                }
            }
            Ok(vec![Row {
                placement: job.faulty.clone(),
                verdict: verdict_str(&hit.verdict),
                states: hit.stats.states,
                cache: hit.outcome.as_str(),
            }])
        }
    }
}

/// The checkpoint store of the deadline job whose instance fingerprint
/// is `fp`, under the checkpoint root.
fn ckpt_dir(root: &Path, fp: u64) -> PathBuf {
    root.join(format!("ckpt-{fp:016x}"))
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

/// JSON whitespace.
const WS: [char; 4] = [' ', '\t', '\n', '\r'];

/// The top-level members of one job line, read in one pass
/// ([`Members::scan`]): each key, decoded, with its value as written — a
/// string with its quotes and escapes, a nested object or list whole, any
/// other value as its bare token. The getters read from them.
struct Members<'a> {
    read: Vec<(String, &'a str)>,
}

impl<'a> Members<'a> {
    /// Reads `line` as exactly one JSON object: after JSON whitespace it
    /// opens with `{`, each member is a string key, a colon and a value,
    /// members are separated by single commas, and only whitespace
    /// follows the closing `}`. Every value, nested ones included, must
    /// follow the JSON grammar ([`value_end`]), whether or not `verifyd`
    /// reads its key. Returns the members read before the first fault,
    /// beside the fault: a missing colon, a repeated key, a trailing
    /// comma, bytes after a value, or a value that is not JSON. Bytes
    /// before the object are reported after it is read, so such a line
    /// is still keyed by its `id`.
    fn scan(line: &'a str) -> (Members<'a>, Result<(), String>) {
        let mut members = Members { read: Vec::new() };
        let fault = members.read_object(line);
        (members, fault)
    }

    fn read_object(&mut self, line: &'a str) -> Result<(), String> {
        let bytes = line.as_bytes();
        let not_one_object = || Err("a job line must be one JSON object".to_string());
        let Some(open) = line.find('{') else {
            return not_one_object();
        };
        let mut at = skip_ws(bytes, open + 1);
        if bytes.get(at) != Some(&b'}') {
            loop {
                if bytes.get(at) != Some(&b'"') {
                    return Err(format!("expected a \"key\" at byte {at}"));
                }
                let key = string_end(bytes, at)
                    .and_then(|end| decode(&line[at + 1..end - 1]).map(|key| (key, end)));
                let (key, end) = key.map_err(|what| format!("a key holds {what}"))?;
                at = skip_ws(bytes, end);
                if bytes.get(at) != Some(&b':') {
                    return Err(format!("expected ':' after \"{key}\""));
                }
                let start = skip_ws(bytes, at + 1);
                let end =
                    value_end(bytes, start).map_err(|what| format!("\"{key}\" holds {what}"))?;
                if self.get(&key).is_some() {
                    return Err(format!("\"{key}\" appears twice"));
                }
                self.read.push((key, &line[start..end]));
                at = skip_ws(bytes, end);
                match bytes.get(at) {
                    Some(b',') => at = skip_ws(bytes, at + 1),
                    Some(b'}') => break,
                    Some(_) => return Err(format!("expected ',' or '}}' at byte {at}")),
                    None => return Err("the job object never closes".into()),
                }
            }
        }
        if !line[..open].trim_start_matches(WS).is_empty() {
            return not_one_object();
        }
        if !line[at + 1..].trim_start_matches(WS).is_empty() {
            return Err("bytes follow the job object".into());
        }
        Ok(())
    }

    /// The value of `key` as written, when it was read.
    fn get(&self, key: &str) -> Option<&'a str> {
        self.read.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The string value of `key`, with its escapes decoded ([`decode`]);
    /// `Ok(None)` when the key is absent. A value that is not a string,
    /// or holds a bad escape, is an error.
    fn string(&self, key: &str) -> Result<Option<String>, String> {
        let Some(value) = self.get(key) else {
            return Ok(None);
        };
        let raw = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("\"{key}\" must be a string, got {value}"))?;
        decode(raw)
            .map(Some)
            .map_err(|what| format!("\"{key}\" holds {what}"))
    }

    /// The value of `key` as a `T`; `Ok(None)` when the key is absent.
    /// The value must be a JSON number ([`json_integer`]) whose value is
    /// a non-negative integer that fits `T`: anything else is an error,
    /// never truncated by a cast.
    fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        let Some(token) = self.get(key) else {
            return Ok(None);
        };
        let bad = || format!("\"{key}\" must be a non-negative integer in range, got {token}");
        let value = json_integer(token).ok_or_else(bad)?;
        T::try_from(value).map(Some).map_err(|_| bad())
    }

    /// The node-id list value of `key`; `Ok(None)` when the key is
    /// absent. A value that is not a list, or an element that is not a
    /// node id, is an error, never silently dropped.
    fn list(&self, key: &str) -> Result<Option<Vec<NodeId>>, String> {
        let Some(value) = self.get(key) else {
            return Ok(None);
        };
        let body = value
            .strip_prefix('[')
            .and_then(|v| v.strip_suffix(']'))
            .ok_or_else(|| format!("\"{key}\" must be a list of node ids"))?
            .trim_matches(WS);
        if body.is_empty() {
            return Ok(Some(Vec::new()));
        }
        body.split(',')
            .map(|part| {
                let part = part.trim_matches(WS);
                json_integer(part)
                    .and_then(|id| NodeId::try_from(id).ok())
                    .ok_or_else(|| format!("\"{key}\" holds {part}, not a node id"))
            })
            .collect::<Result<_, _>>()
            .map(Some)
    }
}

/// The non-negative integer a JSON number token spells, in any JSON
/// number notation (`4`, `4.0`, `4e0`). The token must be exactly one
/// JSON number ([`number_len`]), so `+3`, `3.`, `03` and `.5` are not
/// numbers, and its value must be an integer from 0 to 2^53, where every
/// integer is exact in an `f64`.
fn json_integer(token: &str) -> Option<u64> {
    if number_len(token.as_bytes()) != Some(token.len()) {
        return None;
    }
    let value: f64 = token.parse().ok()?;
    ((0.0..=9_007_199_254_740_992.0).contains(&value) && value.fract() == 0.0)
        .then_some(value as u64)
}

/// The length of the JSON number that `bytes` starts with, by the JSON
/// number grammar `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`; `None`
/// when they start with none.
fn number_len(bytes: &[u8]) -> Option<usize> {
    let mut at = usize::from(bytes.first() == Some(&b'-'));
    // The number of digits from `at` on, moving `at` past them.
    let digits = |at: &mut usize| {
        let start = *at;
        while bytes.get(*at).is_some_and(u8::is_ascii_digit) {
            *at += 1;
        }
        *at - start
    };
    let int_digits = digits(&mut at);
    if int_digits == 0 || (int_digits > 1 && bytes[at - int_digits] == b'0') {
        return None;
    }
    if bytes.get(at) == Some(&b'.') {
        at += 1;
        if digits(&mut at) == 0 {
            return None;
        }
    }
    if matches!(bytes.get(at), Some(b'e' | b'E')) {
        at += usize::from(matches!(bytes.get(at + 1), Some(b'+' | b'-'))) + 1;
        if digits(&mut at) == 0 {
            return None;
        }
    }
    Some(at)
}

/// The index of the first byte at or after `at` that is not JSON
/// whitespace.
fn skip_ws(bytes: &[u8], at: usize) -> usize {
    at + bytes[at..]
        .iter()
        .take_while(|b| b" \t\n\r".contains(b))
        .count()
}

/// The index just past the JSON value that starts at `bytes[at]`, which
/// must follow the JSON grammar throughout: a string ([`string_end`]); an
/// object of string keys, colons and values; a list of values, the items
/// of either separated by single commas; a number ([`number_len`]); or
/// `true`, `false` or `null`. Nested values are read with a stack of the
/// brackets they open, not by recursion, so no line exhausts the call
/// stack.
fn value_end(bytes: &[u8], mut at: usize) -> Result<usize, &'static str> {
    // The closing bracket of each list or object around `at`, innermost
    // last.
    let mut open: Vec<u8> = Vec::new();
    loop {
        // One value: a string, a scalar, or an opening bracket, after
        // which the loop reads the container's first item.
        match bytes.get(at) {
            Some(b'"') => at = string_end(bytes, at)?,
            Some(&bracket @ (b'{' | b'[')) => {
                let close = if bracket == b'{' { b'}' } else { b']' };
                at = skip_ws(bytes, at + 1);
                if bytes.get(at) == Some(&close) {
                    at += 1;
                } else {
                    open.push(close);
                    if close == b'}' {
                        at = member_value(bytes, at)?;
                    }
                    continue;
                }
            }
            _ => at = scalar_end(bytes, at)?,
        }
        // After a value: close every container it ends, or step past a
        // comma to the next item.
        loop {
            let Some(&close) = open.last() else {
                return Ok(at);
            };
            at = skip_ws(bytes, at);
            match bytes.get(at) {
                Some(b',') => {
                    at = skip_ws(bytes, at + 1);
                    if close == b'}' {
                        at = member_value(bytes, at)?;
                    }
                    break;
                }
                Some(&b) if b == close => {
                    open.pop();
                    at += 1;
                }
                Some(_) => return Err("an item followed by neither ',' nor its closing bracket"),
                None => return Err("a bracket that never closes"),
            }
        }
    }
}

/// The index of the value of the object member that starts at
/// `bytes[at]`, past its string key, its colon and JSON whitespace.
fn member_value(bytes: &[u8], at: usize) -> Result<usize, &'static str> {
    if bytes.get(at) != Some(&b'"') {
        return Err("an object member without a string key");
    }
    let at = skip_ws(bytes, string_end(bytes, at)?);
    if bytes.get(at) != Some(&b':') {
        return Err("an object key without ':'");
    }
    Ok(skip_ws(bytes, at + 1))
}

/// The index just past the JSON string that starts at `bytes[at]`: every
/// escape is one of `\" \\ \/ \b \f \n \r \t` or `\u` with four hex
/// digits, and no raw control byte appears. Whether its `\u` escapes
/// pair up is left to [`decode`], which reads the strings `verifyd` uses.
fn string_end(bytes: &[u8], at: usize) -> Result<usize, &'static str> {
    let mut end = at + 1;
    loop {
        match bytes.get(end) {
            None => return Err("an unterminated string"),
            Some(b'"') => return Ok(end + 1),
            Some(b'\\') => {
                let hex = |k: usize| bytes.get(end + k).is_some_and(u8::is_ascii_hexdigit);
                end += match bytes.get(end + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => 2,
                    Some(b'u') if (2..6).all(hex) => 6,
                    _ => return Err("an unknown or malformed escape"),
                };
            }
            Some(&b) if b < 0x20 => return Err("a raw control byte in a string"),
            Some(_) => end += 1,
        }
    }
}

/// The index just past the number, `true`, `false` or `null` that starts
/// at `bytes[at]` and runs to JSON whitespace, a comma, a closing bracket
/// or the end of the line.
fn scalar_end(bytes: &[u8], at: usize) -> Result<usize, &'static str> {
    let rest = &bytes[at..];
    let token = rest
        .iter()
        .position(|b| b" \t\n\r,]}".contains(b))
        .unwrap_or(rest.len());
    if token == 0 {
        return Err("no value");
    }
    let literal = [&b"true"[..], b"false", b"null"].contains(&&rest[..token]);
    if !literal && number_len(rest) != Some(token) {
        return Err("a token that is not a number, true, false or null");
    }
    Ok(at + token)
}

/// The string value of the top-level `key` of one JSON line, with its
/// escapes decoded, as far as the line reads ([`Members::scan`]):
/// `Ok(None)` when no such member was read before the line's first
/// fault; an error when the value is not a string or holds a bad escape.
fn string_field(line: &str, key: &str) -> Result<Option<String>, String> {
    Members::scan(line).0.string(key)
}

/// Decodes the escapes of a JSON string's text, read between its quotes:
/// `\" \\ \/ \b \f \n \r \t` and `\uXXXX`, where a surrogate pair makes one
/// character. An unknown escape or a lone surrogate is an error.
fn decode(raw: &str) -> Result<String, &'static str> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        let decoded = match c {
            '\\' => match chars.next() {
                Some(e @ ('"' | '\\' | '/')) => e,
                Some('b') => '\u{8}',
                Some('f') => '\u{c}',
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                Some('u') => unicode_escape(&mut chars)
                    .ok_or("a malformed \\u escape or a lone surrogate")?,
                _ => return Err("an unknown escape"),
            },
            c => c,
        };
        out.push(decoded);
    }
    Ok(out)
}

/// The character a `\u` escape spells, read after its `u`: four hex
/// digits, followed for a high surrogate by the `\u` escape of a low one.
/// `None` on a malformed escape or a lone surrogate.
fn unicode_escape(chars: &mut std::str::Chars<'_>) -> Option<char> {
    let hex4 = |chars: &mut std::str::Chars<'_>| {
        (0..4).try_fold(0, |unit, _| Some(unit << 4 | chars.next()?.to_digit(16)?))
    };
    let high = hex4(chars)?;
    if !(0xD800..0xDC00).contains(&high) {
        return char::from_u32(high);
    }
    if chars.next()? != '\\' || chars.next()? != 'u' {
        return None;
    }
    let low = hex4(chars).filter(|low| (0xDC00..0xE000).contains(low))?;
    char::from_u32(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
            let id = string_field(line, "id").unwrap().unwrap();
            assert_eq!(bad.id, id, "{line}");
            assert!(bad.what.contains(needle), "{line} -> {}", bad.what);
        }
        // Integral values in any JSON number notation are fine.
        let job = Job::parse(r#"{"id":"e","graph":"biring","n":4e0,"cap":2.0,"r":255}"#)
            .unwrap()
            .unwrap();
        assert_eq!((job.n, job.cap, job.r), (4, 2, 255));
        // A job may ask for the default state budget but not one state more.
        let budget = Limits::default().max_states;
        let asking = |states: usize| {
            Job::parse(&format!(
                r#"{{"id":"m{states}","graph":"biring","n":4,"max_states":{states}}}"#
            ))
        };
        assert_eq!(asking(budget).unwrap().unwrap().max_states, Some(budget));
        let bad = asking(budget + 1).unwrap_err();
        assert_eq!(bad.id, format!("m{}", budget + 1));
        assert!(
            bad.what.contains("\"max_states\"") && bad.what.contains(&budget.to_string()),
            "{}",
            bad.what
        );
    }

    #[test]
    fn numbers_must_be_json_numbers() {
        // No token here is a JSON number, so none may become a job. Rust's
        // own parsers read `+3`, `3.`, `03`, `.5e1` and `+1` as numbers.
        for (line, needle) in [
            (r#"{"id":"plus","graph":"biring","n":+3}"#, "\"n\""),
            (r#"{"id":"dot","graph":"biring","n":3.}"#, "\"n\""),
            (r#"{"id":"zero","graph":"biring","n":03}"#, "\"n\""),
            (r#"{"id":"lead","graph":"biring","n":.5e1}"#, "\"n\""),
            (r#"{"id":"exp","graph":"biring","n":4,"cap":2e}"#, "\"cap\""),
            (r#"{"id":"sign","graph":"biring","n":4,"r":1e+}"#, "\"r\""),
            (r#"{"id":"inf","graph":"biring","n":4,"r":inf}"#, "\"r\""),
            (
                r#"{"id":"list","graph":"biring","n":4,"faulty":[+1]}"#,
                "\"faulty\"",
            ),
            (
                r#"{"id":"list0","graph":"biring","n":4,"f":1,"exclude":[01]}"#,
                "\"exclude\"",
            ),
        ] {
            let bad = Job::parse(line).unwrap_err();
            assert_eq!(bad.id, string_field(line, "id").unwrap().unwrap(), "{line}");
            assert!(bad.what.contains(needle), "{line} -> {}", bad.what);
        }
        // Every JSON notation of an integer stays a number, in lists too.
        let job = Job::parse(
            r#"{"id":"ok","graph":"biring","n":4.0,"cap":1e0,"r":20E-1,"faulty":[0,1.0,2e0]}"#,
        )
        .unwrap()
        .unwrap();
        assert_eq!((job.n, job.cap, job.r), (4, 1, 2));
        assert_eq!(job.faulty, [0, 1, 2]);
    }

    #[test]
    fn a_line_must_be_exactly_one_object() {
        for (line, id) in [
            // Cut from `"r":12`: its prefix spells a whole r = 1 job.
            (
                r#"{"id":"torn","graph":"biring","n":4,"cap":2,"r":1"#,
                "torn",
            ),
            (
                r#"{"id":"open","graph":"biring","n":4,"cap":2,"r":1,"note":"abc}"#,
                "open",
            ),
            (
                r#"{"id":"tail","graph":"biring","n":4,"cap":2,"r":1}garbage"#,
                "tail",
            ),
            (
                r#"{"id":"two","graph":"biring","n":4,"cap":2,"r":1}{"id":"x","n":9}"#,
                "two",
            ),
            (
                r#"{"id":"mis","graph":"biring","n":4,"meta":[1},"cap":2]"#,
                "mis",
            ),
            (r#"x{"id":"lead","graph":"biring","n":4}"#, "lead"),
        ] {
            let bad = Job::parse(line).unwrap_err();
            assert_eq!(bad.id, id, "{line}");
        }
        // Whitespace around the object is not trailing bytes.
        let job = Job::parse(" \t{\"id\":\"ws\",\"graph\":\"biring\",\"n\":4} \r\n")
            .unwrap()
            .unwrap();
        assert_eq!(job.id, "ws");
    }

    #[test]
    fn each_member_is_read_once_and_must_be_well_formed() {
        for (line, id, needle) in [
            // Read past, `"r" 12` left the r = 1 instance.
            (
                r#"{"id":"nc","graph":"biring","n":4,"cap":2,"r" 12}"#,
                "nc",
                "':'",
            ),
            // JSON readers take the last "n"; the first one is not the job.
            (
                r#"{"id":"dup","graph":"biring","n":3,"cap":2,"n":4}"#,
                "dup",
                "twice",
            ),
            (
                r#"{"id":"comma","graph":"biring","n":4,"cap":2,}"#,
                "comma",
                "key",
            ),
            // Neither is the default Byzantine model.
            (
                r#"{"id":"list","graph":"biring","n":4,"cap":2,"model":["crash"]}"#,
                "list",
                "\"model\"",
            ),
            (
                r#"{"id":"null","graph":"biring","n":4,"cap":2,"model":null}"#,
                "null",
                "\"model\"",
            ),
            (
                r#"{"id":"junk","graph":"biring","n":4,"cap":2,"faulty":[1] x}"#,
                "junk",
                "byte",
            ),
            // Only an id read before the fault keys the line.
            (r#"{"graph":"biring","n" 4,"id":"late"}"#, "", "':'"),
        ] {
            let bad = Job::parse(line).unwrap_err();
            assert_eq!(bad.id, id, "{line}");
            assert!(bad.what.contains(needle), "{line} -> {}", bad.what);
        }
    }

    /// Every value must be JSON, nested or not, read or not. Each of the
    /// first four lines used to verify as the job its read keys spell.
    #[test]
    fn every_value_must_follow_the_json_grammar() {
        let job = r#"{"id":"x","graph":"biring","n":3,"cap":1,"#;
        for (line, id) in [
            (
                r#"{"id":"nest","graph":"biring","n":3,"cap":1,"note":{"a":[1,:"}"]}}"#.to_string(),
                "nest",
            ),
            (
                r#"{"id":"pad","graph":"biring","n":3,"cap":1,"pad":5x000}"#.into(),
                "pad",
            ),
            (
                r#"{"id":"lit","graph":"biring","n":3,"cap":1,"flag":tru}"#.into(),
                "lit",
            ),
            (
                r#"{"id":"esc","graph":"biring","n":3,"cap":1,"note":"a\qb"}"#.into(),
                "esc",
            ),
            (format!(r#"{job}"a":[1,]}}"#), "x"),
            (format!(r#"{job}"a":[1,,2]}}"#), "x"),
            (format!(r#"{job}"a":[1 2]}}"#), "x"),
            (format!(r#"{job}"a":{{"b":1,}}}}"#), "x"),
            (format!(r#"{job}"a":{{1:2}}}}"#), "x"),
            (format!(r#"{job}"a":{{"b" 1}}}}"#), "x"),
            (format!(r#"{job}"a":{{"b":}}}}"#), "x"),
            (format!(r#"{job}"a":[{{"b":[]]}}]}}"#), "x"),
            (format!(r#"{job}"a":nul}}"#), "x"),
            (format!(r#"{job}"a":truex}}"#), "x"),
            (format!(r#"{job}"a":-}}"#), "x"),
            (format!(r#"{job}"a":"\u12"}}"#), "x"),
            (format!("{job}\"a\":\"tab\there\"}}"), "x"),
            (format!(r#"{job}"a":[[[[1]]]}}"#), "x"),
        ] {
            let bad = Job::parse(&line).unwrap_err();
            assert_eq!(bad.id, id, "{line}");
            assert!(
                bad.what.contains("\"a\"") || id != "x",
                "{line} -> {}",
                bad.what
            );
        }
        for line in [
            r#"{"id":"ok","graph":"biring","n":3,"cap":1,"note":{"a":[1,2,{"b":null}],"c":true},"x":-1.5e3}"#,
            r#"{"id":"ok","graph":"biring","n":3,"cap":1,"note": { "a" : [ 1 , 2 ] , "b" : { } , "c" : [ ] , "d" : "\ud83d" } }"#,
            r#"{"id":"ok","graph":"biring","n":3,"cap":1,"deep":[[[[[[[[false]]]]]]]],"s":"\"\\\/\b\f\n\r\t\u00e9"}"#,
        ] {
            let job = Job::parse(line).unwrap().unwrap();
            assert_eq!((job.id.as_str(), job.n, job.cap), ("ok", 3, 1), "{line}");
        }
    }

    /// A random job line that parses: the required keys, some optional
    /// ones, numbers in several notations, escaped ids and ignored keys
    /// holding nested JSON, in a shuffled order with random whitespace,
    /// and nothing around the object.
    fn valid_line(seed: u64) -> String {
        let mut state = seed ^ 0x2545_f491_4f6c_dd1d;
        let mut draw = move |below: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % below
        };
        let ws = |draw: &mut dyn FnMut(u64) -> u64| [" ", "", "", "\t", "  "][draw(5) as usize];
        let n = 3 + draw(4);
        let id: String = (0..draw(6))
            .map(|_| ['a', '"', '\\', '\n', 'é', '😀', '\u{1}', '}'][draw(8) as usize])
            .collect();
        let mut members = vec![
            format!(r#""id":{}"#, json_string(&id)),
            format!(
                r#""graph":"{}""#,
                ["biring", "uniring", "clique", "star", "path"][draw(5) as usize]
            ),
            format!(
                r#""n":{}"#,
                [format!("{n}"), format!("{n}.0"), format!("{n}e0")][draw(3) as usize]
            ),
        ];
        if draw(2) == 0 {
            members.push(format!(r#""cap":{}"#, 1 + draw(n)));
        }
        if draw(2) == 0 {
            members.push(format!(r#""faulty":[{}]"#, draw(n)));
        }
        // Ignored keys holding nested values, built from the inside out.
        for k in 0..draw(3) {
            let mut value =
                ["null", "true", "-1.5e3", "0", r#""s\u00e9""#][draw(5) as usize].to_string();
            for _ in 0..draw(4) {
                let pad = ws(&mut draw);
                value = match draw(3) {
                    0 => format!("[{pad}{value}{pad},{pad}false]"),
                    1 => format!(r#"{{"k":{pad}{value}{pad},"l":[]}}"#),
                    _ => format!("[{value}]"),
                };
            }
            members.push(format!(
                r#""note{k}"{}:{}{value}"#,
                ws(&mut draw),
                ws(&mut draw)
            ));
        }
        for i in (1..members.len()).rev() {
            members.swap(i, draw(i as u64 + 1) as usize);
        }
        let sep = format!("{},{}", ws(&mut draw), ws(&mut draw));
        format!("{{{}}}", members.join(&sep))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every truncation of a valid job line is a bad line, and no
        /// single-byte change to one panics.
        #[test]
        fn truncated_lines_fail_and_mutated_lines_never_panic(seed in 0u64..1_000_000, byte in 0u8..=255) {
            let line = valid_line(seed);
            prop_assert!(Job::parse(&line).unwrap().is_some(), "{line}");
            for cut in (1..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
                prop_assert!(Job::parse(&line[..cut]).is_err(), "{}", &line[..cut]);
            }
            for at in 0..line.len() {
                let mut bytes = line.clone().into_bytes();
                bytes[at] = byte;
                if let Ok(mutated) = String::from_utf8(bytes) {
                    let _ = Job::parse(&mutated);
                }
            }
        }
    }

    #[test]
    fn json_string_escapes_decode() {
        // Ids as Python's `json.dumps` writes them.
        for (line, id) in [
            (r#"{"id":"caf\u00e9","graph":"biring","n":3}"#, "café"),
            (r#"{"id":"a\nb","graph":"biring","n":3}"#, "a\nb"),
            (
                r#"{"id":"smile\ud83d\ude00","graph":"biring","n":3}"#,
                "smile😀",
            ),
            (
                r#"{"id":"\"\\\/\b\f\r\t","graph":"biring","n":3}"#,
                "\"\\/\u{8}\u{c}\r\t",
            ),
            (r#"{"id":"\u00E9\u20ac","graph":"biring","n":3}"#, "é€"),
        ] {
            assert_eq!(Job::parse(line).unwrap().unwrap().id, id, "{line}");
        }
        // Unknown escapes, lone or malformed surrogates, short `\u`
        // escapes and unterminated strings are bad lines, never misread.
        for line in [
            r#"{"id":"x\q","graph":"biring","n":3}"#,
            r#"{"graph":"biring","id":"hi\ud83d","n":3}"#,
            r#"{"graph":"biring","id":"hi\ud83dx","n":3}"#,
            r#"{"graph":"biring","id":"hi\ud83d\u0041","n":3}"#,
            r#"{"graph":"biring","id":"lo\ude00","n":3}"#,
            r#"{"graph":"biring","id":"short\u00e","n":3}"#,
            r#"{"graph":"biring","id":"hex\u00g0","n":3}"#,
            r#"{"graph":"biring","n":3,"id":"open"#,
        ] {
            let bad = Job::parse(line).unwrap_err();
            assert_eq!(bad.id, "", "{line}");
            assert!(bad.what.contains("\"id\""), "{line} -> {}", bad.what);
        }
        let bad = Job::parse(r#"{"id":"g","graph":"bi\xring","n":3}"#).unwrap_err();
        assert_eq!(bad.id, "g");
        assert!(bad.what.contains("\"graph\""), "{}", bad.what);
    }

    #[test]
    fn string_field_inverts_json_string() {
        let mut ids: Vec<String> = ["\"", "\\", "\n", "\t", "\u{1}", "é", "😀", "", "a\"b\\c"]
            .map(String::from)
            .to_vec();
        // Random strings over every scalar value, biased toward ASCII and
        // the control characters `json_string` escapes.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            let mut id = String::new();
            for _ in 0..(state >> 60) {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let bound = [0x20, 0x80, 0x1_0000, 0x11_0000][(state >> 33) as usize % 4];
                if let Some(c) = char::from_u32((state >> 40) as u32 % bound) {
                    id.push(c);
                }
            }
            ids.push(id);
        }
        for id in ids {
            let line = format!("{{\"id\":{}}}", json_string(&id));
            assert_eq!(string_field(&line, "id"), Ok(Some(id)), "{line}");
        }
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

    /// A deadline job leaves `ckpt-<fp>/` under the cache directory for
    /// its resubmission to resume from; once that resubmission memoizes
    /// the final verdict, the store is deleted. Seeding the 3^10
    /// labelings of the n = 5 biring outlasts the 1 ms deadline.
    #[test]
    fn a_resumed_deadline_job_deletes_its_spent_checkpoint() {
        let dir = std::env::temp_dir().join(format!("verifyd-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = VerdictCache::open(&dir, DEFAULT_BYTE_BUDGET).unwrap();
        let line = r#"{"id":"dl","graph":"biring","n":5,"cap":2,"r":1"#;
        let stores = || {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| {
                    let name = e.as_ref().unwrap().file_name();
                    name.to_string_lossy().starts_with("ckpt-")
                })
                .count()
        };
        let first = Job::parse(&format!("{line},\"deadline_ms\":1}}"))
            .unwrap()
            .unwrap();
        let rows = run_job(&first, &cache, 1, Some(&dir));
        assert!(
            rows[0].contains(r#""verdict":"partial""#) && rows[0].contains(r#""cache":"miss""#),
            "{}",
            rows[0]
        );
        assert_eq!(stores(), 1, "the partial row leaves its checkpoint");
        let again = Job::parse(&format!("{line}}}")).unwrap().unwrap();
        let rows = run_job(&again, &cache, 1, Some(&dir));
        assert!(
            rows[0].contains(r#""verdict":"stabilizing","states":59049,"cache":"resumed""#),
            "{}",
            rows[0]
        );
        assert_eq!(stores(), 0, "the resumed row deletes the spent checkpoint");
        std::fs::remove_dir_all(&dir).unwrap();
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
