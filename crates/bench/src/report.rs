//! Bench rows: the one reader of every perf measurement file, and what
//! is built on it — per-bench markdown tables, the perf trend report, and
//! the verifier memory gate.
//!
//! A measurement is one **row**, one flat JSON object per line:
//! `{"bench":"…","median_ns_per_iter":…,"low_ns":…,"high_ns":…,"elements_per_iter":…}`
//! plus whatever numeric keys the measurement counts (`states`,
//! `packed_arena_bytes`, …). The vendored criterion harness appends rows
//! to the file named by `$CRITERION_JSON`; `experiments --json` prints
//! them to stdout, and its `--threads 1` output is committed at the
//! repository root as the baseline `BENCH_engine.jsonl`. CI archives each
//! commit's rows as the `bench-json-<sha>` artifact. [`parse_lines`]
//! reads all of them, and everything else here takes its rows:
//!
//! * [`render_markdown`] turns one or more files (e.g. the artifacts of
//!   successive commits, gathered by [`collect_trend`]) into a bench ×
//!   file table of medians, so a perf regression is one eyeball away
//!   instead of buried in raw line JSON;
//! * [`render_compare`] renders a baseline/current pair with a trailing
//!   `current / baseline` ratio column (< 1 is faster) — CI diffs every
//!   commit's fresh rows against `BENCH_engine.jsonl` this way
//!   (`bench-report --compare`);
//! * [`check_memory_gate`] fails when the verifier's bytes per state grow
//!   past a slack over the baseline's (`bench-report --memgate`).
//!
//! The `bench-report` binary is the CLI wrapper.

use std::collections::BTreeMap;

/// One parsed bench row.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchLine {
    /// Full bench id (e.g. `engine/step_sync/1024`).
    pub bench: String,
    /// Headline nanoseconds per iteration (`median_ns_per_iter`: the
    /// criterion harness's median sample, the `experiments` runner's
    /// best one).
    pub median_ns: f64,
    /// Every other numeric key of the row: `low_ns`, `high_ns`,
    /// `elements_per_iter`, and whatever the measurement counts
    /// (`states`, `packed_arena_bytes`, …).
    pub metrics: BTreeMap<String, f64>,
}

impl BenchLine {
    /// The row's value for `key`, if it has one.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.get(key).copied()
    }
}

/// Splits the JSON string literal at the start of `s` into its text and
/// the rest of `s` after the closing quote. A backslash keeps the next
/// character literally, which is enough for bench ids and metric names
/// (our harnesses restrict them to path-ish characters anyway).
fn string_literal(s: &str) -> Option<(String, &str)> {
    let body = s.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &body[i + 1..])),
            '\\' => out.push(chars.next()?.1),
            _ => out.push(c),
        }
    }
    None
}

/// Parses one row: a flat JSON object whose values are strings or
/// finite numbers, with a string `bench` and a numeric
/// `median_ns_per_iter`. Anything else (noise, nesting, other value
/// kinds, `NaN`, truncation) is `None`, never a partial row.
fn parse_row(line: &str) -> Option<BenchLine> {
    let mut rest = line.trim().strip_prefix('{')?.trim_start();
    let mut bench = None;
    let mut metrics = BTreeMap::new();
    loop {
        let (key, after) = string_literal(rest)?;
        rest = after.trim_start().strip_prefix(':')?.trim_start();
        if rest.starts_with('"') {
            let (value, after) = string_literal(rest)?;
            if key == "bench" {
                bench = Some(value);
            }
            rest = after;
        } else {
            let end = rest.find([',', '}'])?;
            let value: f64 = rest[..end].trim().parse().ok()?;
            if !value.is_finite() {
                return None;
            }
            metrics.insert(key, value);
            rest = &rest[end..];
        }
        match rest.trim_start().strip_prefix(',') {
            Some(after) => rest = after.trim_start(),
            None => break,
        }
    }
    if !rest.trim_start().starts_with('}') {
        return None;
    }
    let median_ns = metrics.remove("median_ns_per_iter")?;
    Some(BenchLine {
        bench: bench?,
        median_ns,
        metrics,
    })
}

/// Parses the rows of one measurement file; lines that are not rows
/// (see `parse_row`) are skipped.
pub fn parse_lines(text: &str) -> Vec<BenchLine> {
    text.lines().filter_map(parse_row).collect()
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN medians"));
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Formats nanoseconds with a human-readable unit.
fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Renders labeled measurement files as a markdown table: one row per
/// bench id (union over all files, sorted), one column per file, each
/// cell the per-bench median of that file's measurements (`—` when a file
/// lacks the bench — e.g. a bench added after an old artifact was taken).
pub fn render_markdown(files: &[(String, Vec<BenchLine>)]) -> String {
    let mut per_file: Vec<BTreeMap<&str, Vec<f64>>> = Vec::with_capacity(files.len());
    let mut benches: BTreeMap<&str, ()> = BTreeMap::new();
    for (_, lines) in files {
        let mut map: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for l in lines {
            map.entry(&l.bench).or_default().push(l.median_ns);
            benches.entry(&l.bench).or_insert(());
        }
        per_file.push(map);
    }
    let mut out = String::from("| bench |");
    for (label, _) in files {
        out.push_str(&format!(" {label} |"));
    }
    out.push_str("\n|---|");
    out.push_str(&"---:|".repeat(files.len()));
    out.push('\n');
    for (bench, ()) in &benches {
        out.push_str(&format!("| `{bench}` |"));
        for map in &per_file {
            match map.get(bench) {
                Some(xs) => out.push_str(&format!(" {} |", format_ns(median(xs.clone())))),
                None => out.push_str(" — |"),
            }
        }
        out.push('\n');
    }
    out
}

/// Collects the historical `bench-json-<sha>` artifacts under `dir` into
/// labeled measurement columns for [`render_markdown`] — the
/// multi-commit trend view. Accepts both artifact layouts: a loose
/// `bench-json-<sha>` file (the raw line JSON) or a `bench-json-<sha>`
/// directory wrapping it (how `actions/download-artifact` unpacks each
/// artifact); any other entry is ignored. Columns are ordered oldest →
/// newest by modification time (ties broken by name) and labeled with
/// the `<sha>` suffix, so the rendered table reads left to right along
/// history.
pub fn collect_trend(dir: &std::path::Path) -> std::io::Result<Vec<(String, Vec<BenchLine>)>> {
    let mut dated: Vec<(std::time::SystemTime, String, Vec<BenchLine>)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        // Artifact directories keep their name verbatim; loose files drop
        // the extension, so `bench-json-<sha>.jsonl` labels as `<sha>`.
        let name = if path.is_dir() {
            entry.file_name().to_string_lossy().into_owned()
        } else {
            path.file_stem()
                .map_or_else(String::new, |s| s.to_string_lossy().into_owned())
        };
        let Some(sha) = name.strip_prefix("bench-json-") else {
            continue;
        };
        let mut text = String::new();
        if path.is_dir() {
            // Concatenate the artifact directory's files (normally one).
            let mut inner: Vec<std::path::PathBuf> = std::fs::read_dir(&path)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_file())
                .collect();
            inner.sort();
            for p in inner {
                text.push_str(&std::fs::read_to_string(p)?);
                text.push('\n');
            }
        } else {
            text = std::fs::read_to_string(&path)?;
        }
        let lines = parse_lines(&text);
        if lines.is_empty() {
            continue;
        }
        let mtime = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        dated.push((mtime, sha.to_owned(), lines));
    }
    dated.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    Ok(dated
        .into_iter()
        .map(|(_, label, lines)| (label, lines))
        .collect())
}

/// The `n` of a `perf/verify_scaling/<n>/packed/t<k>` bench id.
fn packed_row_n(bench: &str) -> Option<u64> {
    let (n, tail) = bench
        .strip_prefix("perf/verify_scaling/")?
        .split_once('/')?;
    if tail.starts_with("packed/t") {
        n.parse().ok()
    } else {
        None
    }
}

/// The verifier-memory figure of one bench file: from the
/// `perf/verify_scaling/<n>/packed/t*` row with the largest `n` (and,
/// among those, the last — rows of one `n` report identical sizes),
/// `(n, (packed_arena_bytes + peak_edge_bytes) / states)` — resident
/// state storage plus peak transient edge storage, per state. The
/// largest `checkpoint_scratch_bytes / states` of the
/// `perf/checkpoint/<n>/checkpointed` rows (the biggest framed segment a
/// checkpoint resume must buffer, per state) is added on top; a file
/// without one contributes zero scratch.
///
/// Sentinel rows must not reach the gate: a non-finite or non-positive
/// state count, or a byte total of zero, would make the per-state ratio
/// NaN/∞/0 and let [`check_memory_gate`] pass vacuously. Such rows are
/// skipped, so a file with *only* sentinel rows yields `None` and the
/// gate errors out instead of silently passing.
pub fn memory_per_state(rows: &[BenchLine]) -> Option<(u64, f64)> {
    let per_state = |row: &BenchLine, bytes: f64| {
        let states = row.metric("states")?;
        let figure = bytes / states;
        (states.is_finite() && states > 0.0 && figure.is_finite() && figure > 0.0).then_some(figure)
    };
    let mut best: Option<(u64, f64)> = None;
    let mut scratch = 0.0f64;
    for row in rows {
        if let Some(n) = packed_row_n(&row.bench) {
            let Some(edge) = row.metric("peak_edge_bytes") else {
                continue;
            };
            let bytes = row.metric("packed_arena_bytes").unwrap_or(0.0) + edge;
            if let Some(figure) = per_state(row, bytes) {
                if best.is_none_or(|(bn, _)| n >= bn) {
                    best = Some((n, figure));
                }
            }
        } else if row.bench.starts_with("perf/checkpoint/") && row.bench.ends_with("/checkpointed")
        {
            if let Some(figure) = row
                .metric("checkpoint_scratch_bytes")
                .and_then(|bytes| per_state(row, bytes))
            {
                scratch = scratch.max(figure);
            }
        }
    }
    best.map(|(n, bytes)| (n, bytes + scratch))
}

/// The memory-regression gate: fails (returns `Err` with the verdict
/// line) when the current rows' largest-row [`memory_per_state`]
/// exceeds `slack` × the baseline's — the state-linear budget the
/// edge-less verifier must hold. Comparing bytes *per state* keeps the
/// gate meaningful when the largest row's `n` grows (more states is the
/// point; super-linear bytes per state is the regression).
pub fn check_memory_gate(
    baseline: &[BenchLine],
    current: &[BenchLine],
    slack: f64,
) -> Result<String, String> {
    let Some((bn, bb)) = memory_per_state(baseline) else {
        return Err("memory gate: baseline has no verify_scaling memory figures".into());
    };
    let Some((cn, cb)) = memory_per_state(current) else {
        return Err("memory gate: current has no verify_scaling memory figures".into());
    };
    // memory_per_state only admits finite positive rows, so these
    // figures are well-formed by construction — but a gate must never
    // trust its inputs: re-check before comparing, so a future parsing
    // change can only make the gate fail loudly, not pass vacuously.
    if !(bb.is_finite() && bb > 0.0 && cb.is_finite() && cb > 0.0) {
        return Err(format!(
            "memory gate: degenerate figures (baseline {bb} B/state, current {cb} B/state)"
        ));
    }
    let verdict = format!(
        "memory gate: baseline n={bn} {bb:.1} B/state, current n={cn} {cb:.1} B/state, \
         budget {slack:.2}x = {:.1} B/state",
        bb * slack
    );
    if cb <= bb * slack {
        Ok(verdict)
    } else {
        Err(verdict)
    }
}

/// Renders a baseline/current pair as a markdown table with a trailing
/// delta column: per-bench `current / baseline` median ratio (`< 1` is
/// faster than the baseline, `—` when a bench exists on one side only).
pub fn render_compare(
    baseline: &(String, Vec<BenchLine>),
    current: &(String, Vec<BenchLine>),
) -> String {
    let fold = |lines: &[BenchLine]| -> BTreeMap<String, f64> {
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for l in lines {
            samples.entry(&l.bench).or_default().push(l.median_ns);
        }
        samples
            .into_iter()
            .map(|(bench, xs)| (bench.to_owned(), median(xs)))
            .collect()
    };
    let base = fold(&baseline.1);
    let cur = fold(&current.1);
    let mut out = format!(
        "| bench | {} | {} | current / baseline |\n|---|---:|---:|---:|\n",
        baseline.0, current.0
    );
    let benches: BTreeMap<&str, ()> = base.keys().chain(cur.keys()).map(|b| (&**b, ())).collect();
    for (bench, ()) in benches {
        let cell = |m: Option<&f64>| m.map_or("—".into(), |&ns| format_ns(ns));
        let ratio = match (base.get(bench), cur.get(bench)) {
            (Some(&b), Some(&c)) if b > 0.0 => format!("{:.2}×", c / b),
            _ => "—".into(),
        };
        out.push_str(&format!(
            "| `{bench}` | {} | {} | {ratio} |\n",
            cell(base.get(bench)),
            cell(cur.get(bench)),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"bench\":\"engine/step/1024\",\"median_ns_per_iter\":1500.0,\"low_ns\":1400.0,\"high_ns\":1600.0,\"elements_per_iter\":1}\n",
        "{\"bench\":\"engine/step/1024\",\"median_ns_per_iter\":2500.0,\"low_ns\":2400.0,\"high_ns\":2600.0,\"elements_per_iter\":1}\n",
        "not json at all\n",
        "{\"bench\":\"truncated\",\"median_ns_per_iter\":1\n",
        "{\"bench\":\"not-a-number\",\"median_ns_per_iter\":NaN}\n",
        "{\"bench\":\"verify/example1\",\"median_ns_per_iter\":2000000.0,\"low_ns\":1.0,\"high_ns\":1.0,\"elements_per_iter\":4}\n",
    );

    #[test]
    fn parses_well_formed_lines_and_skips_noise() {
        let lines = parse_lines(SAMPLE);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].bench, "engine/step/1024");
        assert_eq!(lines[0].median_ns, 1500.0);
        assert_eq!(lines[0].metric("low_ns"), Some(1400.0));
        assert_eq!(lines[2].bench, "verify/example1");
    }

    #[test]
    fn median_folds_repeated_measurements() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn renders_union_of_benches_across_files() {
        let a = parse_lines(SAMPLE);
        let b = parse_lines(
            "{\"bench\":\"engine/step/1024\",\"median_ns_per_iter\":1800.0,\"low_ns\":1,\"high_ns\":1,\"elements_per_iter\":1}\n",
        );
        let table = render_markdown(&[("old".into(), a), ("new".into(), b)]);
        // Two medians for engine/step in file "old" fold to their mean.
        assert!(
            table.contains("| `engine/step/1024` | 2.00 µs | 1.80 µs |"),
            "{table}"
        );
        // verify/example1 exists only in "old"; the other cell is a dash.
        assert!(
            table.contains("| `verify/example1` | 2.00 ms | — |"),
            "{table}"
        );
        assert!(
            table.starts_with("| bench | old | new |\n|---|---:|---:|\n"),
            "{table}"
        );
    }

    #[test]
    fn unit_formatting_scales() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(12_340.0), "12.34 µs");
        assert_eq!(format_ns(12_340_000.0), "12.34 ms");
        assert_eq!(format_ns(12_340_000_000.0), "12.340 s");
    }

    #[test]
    fn escaped_quotes_in_bench_ids_survive() {
        let lines = parse_lines("{\"bench\":\"weird\\\"name\",\"median_ns_per_iter\":5.0}\n");
        assert_eq!(lines[0].bench, "weird\"name");
    }

    #[test]
    fn trend_collects_artifacts_in_age_then_name_order() {
        let dir = std::env::temp_dir().join(format!(
            "bench-trend-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // A loose artifact file…
        std::fs::write(
            dir.join("bench-json-aaa1111"),
            "{\"bench\":\"perf/engine/100/buffered\",\"median_ns_per_iter\":100.0}\n",
        )
        .unwrap();
        // …an artifact directory wrapping its file (download-artifact
        // layout)…
        let wrapped = dir.join("bench-json-bbb2222");
        std::fs::create_dir_all(&wrapped).unwrap();
        std::fs::write(
            wrapped.join("lines.jsonl"),
            "{\"bench\":\"perf/engine/100/buffered\",\"median_ns_per_iter\":200.0}\n",
        )
        .unwrap();
        // …and noise that must be ignored.
        std::fs::write(dir.join("README.txt"), "not an artifact").unwrap();
        std::fs::write(dir.join("bench-json-ccc3333"), "no parsable lines").unwrap();

        let files = collect_trend(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let labels: Vec<&str> = files.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["aaa1111", "bbb2222"], "label set and order");
        assert_eq!(files[0].1[0].median_ns, 100.0);
        assert_eq!(files[1].1[0].median_ns, 200.0);
        let table = render_markdown(&files);
        assert!(
            table.contains("| `perf/engine/100/buffered` | 100.0 ns | 200.0 ns |"),
            "{table}"
        );
    }

    /// A `verify_scaling` packed row with the memory metrics the gate
    /// reads (`states` is text, so a fixture can write `NaN`).
    fn packed(n: u32, states: &str, arena: u64, edge: u64) -> String {
        format!(
            "{{\"bench\":\"perf/verify_scaling/{n}/packed/t1\",\"median_ns_per_iter\":1.0,\
             \"states\":{states},\"packed_arena_bytes\":{arena},\"peak_edge_bytes\":{edge}}}\n"
        )
    }

    /// A checkpointed row with the resume scratch the gate charges.
    fn checkpointed(states: u64, scratch: u64) -> String {
        format!(
            "{{\"bench\":\"perf/checkpoint/4/checkpointed\",\"median_ns_per_iter\":1.0,\
             \"states\":{states},\"checkpoint_scratch_bytes\":{scratch}}}\n"
        )
    }

    /// Memory-gate baseline: the largest-`n` row (n = 8) decides, at
    /// (8000 + 32000) / 1000 = 40 B/state.
    fn mem_base() -> Vec<BenchLine> {
        parse_lines(&(packed(6, "100", 800, 3200) + &packed(8, "1000", 8000, 32000)))
    }

    /// A current row at (80000 + 100000) / 10000 = 18 B/state.
    fn mem_good() -> String {
        packed(10, "10000", 80000, 100000)
    }

    #[test]
    fn memory_gate_compares_largest_rows_per_state() {
        assert_eq!(memory_per_state(&mem_base()), Some((8, 40.0)));
        // Current: n=10 at 18 B/state holds the state-linear budget
        // easily. Only `packed` rows carry the figure: a larger-n `scc`
        // row with byte keys is not a candidate.
        let good = parse_lines(&format!(
            "{}{{\"bench\":\"perf/verify_scaling/12/scc\",\"median_ns_per_iter\":1.0,\
             \"states\":5,\"packed_arena_bytes\":1,\"peak_edge_bytes\":1}}\n",
            mem_good()
        ));
        assert_eq!(memory_per_state(&good), Some((10, 18.0)));
        assert!(check_memory_gate(&mem_base(), &good, 1.25).is_ok());
        // 58 B/state blows 40 × 1.25 = 50.
        let bad = parse_lines(&packed(10, "10000", 80000, 500000));
        assert_eq!(memory_per_state(&bad), Some((10, 58.0)));
        assert!(check_memory_gate(&mem_base(), &bad, 1.25).is_err());
        // No figures at all → gate errors out rather than passing.
        assert!(check_memory_gate(&[], &good, 1.25).is_err());
    }

    #[test]
    fn memory_gate_skips_sentinel_and_degenerate_rows() {
        // A largest-n row whose byte fields carry the 0 sentinel (a
        // measurement that did not record memory) used to produce a
        // 0 B/state "current" figure — and 0 ≤ any budget, so the gate
        // passed vacuously. The sentinel row must be skipped and the
        // next valid row decide instead.
        let sentinel_largest =
            parse_lines(&(packed(8, "1000", 8000, 32000) + &packed(10, "10000", 0, 0)));
        assert_eq!(memory_per_state(&sentinel_largest), Some((8, 40.0)));
        // Zero or non-finite state counts cannot divide: skipped too
        // (NaN passes a bare `states <= 0.0` guard — NaN comparisons are
        // false — and would divide to NaN per-state bytes).
        let zero_states = parse_lines(&packed(10, "0", 80000, 100000));
        assert_eq!(memory_per_state(&zero_states), None);
        let nan_states = parse_lines(&packed(10, "NaN", 80000, 100000));
        assert_eq!(memory_per_state(&nan_states), None);
        // All rows sentinel → no figure at all → the gate errors
        // instead of comparing against 0.
        let all_sentinel = parse_lines(&packed(10, "10000", 0, 0));
        assert_eq!(memory_per_state(&all_sentinel), None);
        assert!(check_memory_gate(&mem_base(), &all_sentinel, 1.25).is_err());
        assert!(check_memory_gate(&all_sentinel, &parse_lines(&mem_good()), 1.25).is_err());
        // A sentinel scratch figure must not disturb the resident sum.
        let sentinel_scratch = parse_lines(&(mem_good() + &checkpointed(0, 0)));
        assert_eq!(memory_per_state(&sentinel_scratch), Some((10, 18.0)));
    }

    #[test]
    fn memory_gate_charges_checkpoint_scratch() {
        // 18 B/state resident+edge, plus 100000 / 20000 = 5 B/state of
        // checkpoint resume scratch = 23 B/state; a baseline without a
        // checkpointed row contributes zero and stays comparable.
        let current = parse_lines(&(mem_good() + &checkpointed(20000, 100000)));
        assert_eq!(memory_per_state(&current), Some((10, 23.0)));
        assert!(check_memory_gate(&mem_base(), &current, 1.25).is_ok());
        // Scratch alone can blow the gate: 40 × 1.25 = 50 < 18 + 33.
        let heavy = parse_lines(&(mem_good() + &checkpointed(20000, 660000)));
        assert!(check_memory_gate(&mem_base(), &heavy, 1.25).is_err());
    }

    #[test]
    fn compare_renders_ratio_column() {
        let base = (
            "baseline".to_string(),
            parse_lines(
                "{\"bench\":\"perf/classify/1024/fingerprint\",\"median_ns_per_iter\":20000000.0}\n{\"bench\":\"perf/only/base\",\"median_ns_per_iter\":5.0}\n",
            ),
        );
        let cur = (
            "current".to_string(),
            parse_lines(
                "{\"bench\":\"perf/classify/1024/fingerprint\",\"median_ns_per_iter\":10000000.0}\n{\"bench\":\"perf/only/current\",\"median_ns_per_iter\":7.0}\n",
            ),
        );
        let table = render_compare(&base, &cur);
        assert!(
            table.starts_with("| bench | baseline | current | current / baseline |\n"),
            "{table}"
        );
        assert!(
            table.contains("| `perf/classify/1024/fingerprint` | 20.00 ms | 10.00 ms | 0.50× |"),
            "{table}"
        );
        assert!(
            table.contains("| `perf/only/base` | 5.0 ns | — | — |"),
            "{table}"
        );
        assert!(
            table.contains("| `perf/only/current` | — | 7.0 ns | — |"),
            "{table}"
        );
    }
}
