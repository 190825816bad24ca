//! `verifyd` — the batch verdict service.
//!
//! Reads line-JSON verification jobs (see [`jobs::Job::parse`]) from
//! stdin or a watched spool directory — no network anywhere — routes
//! every instance through a shared memoized
//! [`VerdictCache`], and emits one line-JSON verdict row per instance
//! with `cache: hit|miss|resumed` provenance.
//!
//! # Modes
//!
//! **Stdin** (default): one job per line on stdin, one result row per
//! instance on stdout, in job order. A bad line, one that is not UTF-8
//! included, gets an error row keyed by its `id`, and the batch goes on.
//!
//! ```text
//! echo '{"id":"j1","graph":"biring","n":4,"cap":2,"r":1,"f":1}' | verifyd
//! ```
//!
//! **Spool** (`--spool DIR`): scans `DIR` for `*.jobs` files (sorted by
//! name), processes each batch, writes `<stem>.results` next to it
//! (tmp-then-rename, so a reader never sees a torn file), renames the
//! input to `<name>.done`, and keeps polling every `--poll-ms` unless
//! `--once`.
//!
//! # Flags
//!
//! | flag | meaning |
//! |---|---|
//! | `--spool DIR` | watch `DIR` for `*.jobs` batches instead of stdin |
//! | `--once` | spool mode: process what is there, then exit |
//! | `--poll-ms MS` | spool poll interval (default 200) |
//! | `--cache-dir DIR` | persist the verdict cache in `DIR` (survives restarts) |
//! | `--budget BYTES` | cache byte budget (default 64 MiB) |
//! | `--threads N` | worker threads per verification (default 0 = all cores) |

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stabilization_verify::cache::DEFAULT_BYTE_BUDGET;
use stabilization_verify::VerdictCache;

mod jobs;

use jobs::{error_row, run_job, BadLine, Job};

struct Config {
    spool: Option<PathBuf>,
    once: bool,
    poll_ms: u64,
    cache_dir: Option<PathBuf>,
    budget: usize,
    threads: usize,
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        spool: None,
        once: false,
        poll_ms: 200,
        cache_dir: None,
        budget: DEFAULT_BYTE_BUDGET,
        threads: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--spool" => config.spool = Some(PathBuf::from(value("--spool")?)),
            "--once" => config.once = true,
            "--poll-ms" => {
                config.poll_ms = value("--poll-ms")?
                    .parse()
                    .map_err(|_| "--poll-ms must be an integer")?;
            }
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--budget" => {
                config.budget = value("--budget")?
                    .parse()
                    .map_err(|_| "--budget must be an integer byte count")?;
            }
            "--threads" => {
                config.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be an integer")?;
            }
            other => return Err(format!("unknown flag \"{other}\" (see the crate docs)")),
        }
    }
    Ok(config)
}

/// Runs every job line of `bytes`, appending result rows to `out`. Lines
/// split as [`BufRead::lines`] splits them and are decoded one by one, so
/// a line that is not UTF-8 only gets an error row, keyed by its `id` as
/// far as a lossy decode reads it.
fn run_batch(bytes: &[u8], cache: &VerdictCache, config: &Config, out: &mut Vec<String>) {
    // Deadline checkpoints live beside the cache so resume pointers
    // stay valid across restarts of a persistent service.
    let ckpt_root = config.cache_dir.as_deref();
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let line = line
            .strip_suffix(b"\n")
            .map_or(line, |l| l.strip_suffix(b"\r").unwrap_or(l));
        let text = std::str::from_utf8(line)
            .map_err(|e| BadLine::new(&String::from_utf8_lossy(line), format!("not UTF-8 ({e})")));
        match text.and_then(Job::parse) {
            Ok(Some(job)) => out.extend(run_job(&job, cache, config.threads, ckpt_root)),
            Ok(None) => {}
            Err(bad) => out.push(error_row(&bad.id, &format!("bad job line: {}", bad.what))),
        }
    }
}

/// Stdin mode over any reader and writer: answers each line of `input`
/// as it arrives, flushing its rows to `output` before reading the next.
fn serve(
    mut input: impl BufRead,
    mut output: impl Write,
    cache: &VerdictCache,
    config: &Config,
) -> Result<(), String> {
    let mut line = Vec::new();
    loop {
        line.clear();
        let read = input
            .read_until(b'\n', &mut line)
            .map_err(|e| format!("reading stdin: {e}"))?;
        if read == 0 {
            return Ok(());
        }
        let mut rows = Vec::new();
        run_batch(&line, cache, config, &mut rows);
        for row in rows {
            writeln!(output, "{row}").map_err(|e| format!("writing stdout: {e}"))?;
        }
        output.flush().map_err(|e| format!("writing stdout: {e}"))?;
    }
}

/// One spool pass: returns how many batch files were processed.
fn spool_pass(dir: &Path, cache: &VerdictCache, config: &Config) -> Result<usize, String> {
    let listing = std::fs::read_dir(dir).map_err(|e| format!("reading spool {dir:?}: {e}"))?;
    let mut batches: Vec<PathBuf> = listing
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "jobs"))
        .collect();
    batches.sort();
    for batch in &batches {
        let bytes = std::fs::read(batch).map_err(|e| format!("reading {batch:?}: {e}"))?;
        let mut rows = Vec::new();
        run_batch(&bytes, cache, config, &mut rows);
        // Results land tmp-then-rename so a concurrent reader never
        // sees a torn file, then the input is marked done — exactly
        // once even if we crash between the two (a reprocessed batch
        // is all cache hits and rewrites identical results).
        let results = batch.with_extension("results");
        let tmp = batch.with_extension("results.tmp");
        std::fs::write(&tmp, rows.join("\n") + "\n")
            .map_err(|e| format!("writing {tmp:?}: {e}"))?;
        std::fs::rename(&tmp, &results).map_err(|e| format!("renaming {tmp:?}: {e}"))?;
        let done = batch.with_extension("jobs.done");
        std::fs::rename(batch, &done).map_err(|e| format!("renaming {batch:?}: {e}"))?;
        eprintln!(
            "verifyd: {} -> {} ({} rows)",
            batch.display(),
            results.display(),
            rows.len()
        );
    }
    Ok(batches.len())
}

fn run_spool(dir: &Path, cache: &VerdictCache, config: &Config) -> Result<(), String> {
    loop {
        spool_pass(dir, cache, config)?;
        if config.once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(config.poll_ms));
    }
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(what) => {
            eprintln!("verifyd: {what}");
            return ExitCode::FAILURE;
        }
    };
    let cache = match &config.cache_dir {
        Some(dir) => match VerdictCache::open(dir, config.budget) {
            Ok(cache) => cache,
            Err(e) => {
                eprintln!("verifyd: opening cache dir {dir:?}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => VerdictCache::in_memory(config.budget),
    };
    let outcome = match &config.spool {
        Some(dir) => run_spool(dir, &cache, &config),
        None => serve(
            std::io::stdin().lock(),
            std::io::stdout().lock(),
            &cache,
            &config,
        ),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(what) => {
            eprintln!("verifyd: {what}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> Config {
        Config {
            spool: None,
            once: false,
            poll_ms: 200,
            cache_dir: None,
            budget: DEFAULT_BYTE_BUDGET,
            threads: 1,
        }
    }

    /// A job line whose `id` holds a raw 0xFF byte: not UTF-8.
    const NOT_UTF8: &[u8] = b"{\"id\":\"raw-\xff\",\"graph\":\"biring\",\"n\":3}";

    #[test]
    fn hostile_lines_get_keyed_error_rows_and_the_batch_goes_on() {
        let batch: [&[u8]; 8] = [
            br#"{"id":"cap","graph":"biring","n":4,"cap":1e12}"#,
            br#"{"id":"r","graph":"biring","n":4,"r":300}"#,
            br#"{"id":"n","graph":"biring","n":1e9}"#,
            NOT_UTF8,
            br#"{"id":"torn","graph":"biring","n":4,"cap":2,"r":1"#,
            br#"{"id":"big","graph":"biring","n":4,"max_states":1e12}"#,
            br#"{"id":"ok","graph":"biring","n":3,"cap":2}"#,
            br#"{"id":"ready","graph":"ready-probe","n":1}"#,
        ];
        let mut rows = Vec::new();
        run_batch(
            &batch.join(&b"\r\n"[..]),
            &VerdictCache::in_memory(DEFAULT_BYTE_BUDGET),
            &test_config(),
            &mut rows,
        );
        assert_eq!(rows.len(), batch.len(), "{rows:#?}");
        for (row, id) in rows
            .iter()
            .zip(["cap", "r", "n", "raw-\u{fffd}", "torn", "big"])
        {
            assert!(
                row.starts_with(&format!("{{\"id\":\"{id}\",\"error\":")),
                "{row}"
            );
        }
        assert!(rows[3].contains("not UTF-8"), "{}", rows[3]);
        assert!(
            rows[6].contains("\"verdict\":\"stabilizing\""),
            "{}",
            rows[6]
        );
        assert!(rows[7].contains("\"id\":\"ready\""), "{}", rows[7]);
    }

    #[test]
    fn stdin_answers_every_line_around_one_that_is_not_utf8() {
        let mut input = br#"{"id":"a","graph":"biring","n":3,"cap":1}"#.to_vec();
        input.push(b'\n');
        input.extend_from_slice(NOT_UTF8);
        input.extend_from_slice(b"\n{\"id\":\"b\",\"graph\":\"path\",\"n\":3,\"cap\":1}");
        let mut output = Vec::new();
        let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
        serve(&input[..], &mut output, &cache, &test_config()).unwrap();
        let rows: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(rows.len(), 3, "{rows:#?}");
        assert!(
            rows[0].starts_with(r#"{"id":"a","placement""#),
            "{}",
            rows[0]
        );
        assert!(
            rows[1].starts_with("{\"id\":\"raw-\u{fffd}\",\"error\":"),
            "{}",
            rows[1]
        );
        assert!(
            rows[2].starts_with(r#"{"id":"b","placement""#),
            "{}",
            rows[2]
        );
    }

    #[test]
    fn spool_answers_a_batch_file_that_is_not_utf8_and_moves_on() {
        let dir = std::env::temp_dir().join(format!("verifyd-spool-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut first = NOT_UTF8.to_vec();
        first.extend_from_slice(b"\n{\"id\":\"after\",\"graph\":\"biring\",\"n\":3,\"cap\":1}\n");
        std::fs::write(dir.join("001.jobs"), first).unwrap();
        std::fs::write(
            dir.join("002.jobs"),
            "{\"id\":\"next\",\"graph\":\"path\",\"n\":3,\"cap\":1}\n",
        )
        .unwrap();
        let cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
        assert_eq!(spool_pass(&dir, &cache, &test_config()), Ok(2));
        let first = std::fs::read_to_string(dir.join("001.results")).unwrap();
        let rows: Vec<&str> = first.lines().collect();
        assert_eq!(rows.len(), 2, "{rows:#?}");
        assert!(
            rows[0].starts_with("{\"id\":\"raw-\u{fffd}\",\"error\":"),
            "{}",
            rows[0]
        );
        assert!(
            rows[1].starts_with(r#"{"id":"after","placement""#),
            "{}",
            rows[1]
        );
        let second = std::fs::read_to_string(dir.join("002.results")).unwrap();
        assert!(
            second.starts_with(r#"{"id":"next","placement""#),
            "{second}"
        );
        assert!(dir.join("001.jobs.done").exists() && !dir.join("001.jobs").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
