//! `bench-report` — renders one or more bench-row files (the per-commit
//! `bench-json-<sha>` CI artifacts, or the committed `BENCH_engine.jsonl`
//! baseline) into a per-bench median markdown table on stdout:
//!
//! ```text
//! cargo run --release -p stateless-bench --bin bench-report -- \
//!     bench-lines-old.jsonl bench-lines-new.jsonl
//! ```
//!
//! Columns are the input files (labeled by file stem) in argument order,
//! so passing artifacts of successive commits yields a left-to-right
//! trend view.
//!
//! With `--compare <baseline> <current>` (exactly two files) the table
//! gains a trailing `current / baseline` ratio column — CI uses this to
//! diff each commit's fresh rows against the committed
//! `BENCH_engine.jsonl` baseline.
//!
//! With `--trend <dir>` the positional arguments are replaced by every
//! `bench-json-<sha>` artifact (file or directory) found under `<dir>`,
//! ordered oldest → newest — the multi-commit trend table CI publishes
//! as `BENCH_trend.md` next to the per-commit delta.
//!
//! With `--memgate <baseline> <current>` (two `experiments --json` row
//! files) nothing is rendered; instead the verifier memory gate runs:
//! the largest-`n` `perf/verify_scaling/<n>/packed/t*` row's
//! `(packed_arena_bytes + peak_edge_bytes) / states`, plus the
//! checkpoint resume scratch per state, must stay within 1.25× the
//! baseline's, and a violation exits nonzero — the state-linear budget
//! guarding the edge-less verifier.
//!
//! With `--gate <file>` (one row file) nothing is rendered either: the
//! in-run ratio gate prints one time ratio per line — `naive / packed/t1`
//! per gated bench (at least 1.5), `perf/checkpoint/4` `checkpointed /
//! plain` (at most 2) and `perf/cache_service/4` `cold / warm` (at least
//! 10) — and exits nonzero when one is out of bounds or its rows are
//! missing or sentinels.

use std::path::Path;
use std::process::ExitCode;

use stateless_bench::report::{
    check_memory_gate, check_ratio_gate, collect_trend, parse_lines, render_compare,
    render_markdown, BenchLine,
};

/// Slack factor of the memory gate: per-state bytes may grow this much
/// over the committed baseline before the gate fails (covers timing- and
/// shape-level jitter in the transient peak, not a real regression).
const MEMGATE_SLACK: f64 = 1.25;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let compare = args.iter().any(|a| a == "--compare");
    let memgate = args.iter().any(|a| a == "--memgate");
    let trend = args.iter().any(|a| a == "--trend");
    let gate = args.iter().any(|a| a == "--gate");
    args.retain(|a| a != "--compare" && a != "--memgate" && a != "--trend" && a != "--gate");
    let modes =
        usize::from(compare) + usize::from(memgate) + usize::from(trend) + usize::from(gate);
    if modes > 1 || args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: bench-report [--compare | --memgate | --trend | --gate] \
             <bench-lines.jsonl | dir>..."
        );
        eprintln!("renders measurement files as a per-bench median markdown table");
        eprintln!("--compare takes exactly two files (baseline, current) and adds a ratio column");
        eprintln!("--trend takes one directory of bench-json-<sha> artifacts, ordered by age");
        eprintln!(
            "--memgate takes exactly two row files (baseline, current) and fails when the \
             largest verify_scaling row's per-state memory exceeds {MEMGATE_SLACK}x the baseline"
        );
        eprintln!(
            "--gate takes one row file and fails when a naive / packed/t1 time ratio is \
             below 1.5, checkpointed / plain is above 2, or cold / warm is below 10"
        );
        return if args.is_empty() || modes > 1 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    if (compare || memgate) && args.len() != 2 {
        eprintln!(
            "bench-report: --compare/--memgate take exactly two files (baseline, current), got {}",
            args.len()
        );
        return ExitCode::FAILURE;
    }
    if (trend || gate) && args.len() != 1 {
        eprintln!(
            "bench-report: --trend/--gate take exactly one argument, got {}",
            args.len()
        );
        return ExitCode::FAILURE;
    }
    let read = |path: &str| -> Result<String, ExitCode> {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("bench-report: cannot read {path}: {e}");
            ExitCode::FAILURE
        })
    };
    if memgate {
        let (baseline, current) = match (read(&args[0]), read(&args[1])) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(code), _) | (_, Err(code)) => return code,
        };
        return match check_memory_gate(
            &parse_lines(&baseline),
            &parse_lines(&current),
            MEMGATE_SLACK,
        ) {
            Ok(verdict) => {
                println!("{verdict}");
                ExitCode::SUCCESS
            }
            Err(verdict) => {
                eprintln!("{verdict}");
                ExitCode::FAILURE
            }
        };
    }
    if gate {
        let rows = match read(&args[0]) {
            Ok(text) => parse_lines(&text),
            Err(code) => return code,
        };
        let (lines, code) = match check_ratio_gate(&rows) {
            Ok(lines) => (lines, ExitCode::SUCCESS),
            Err(lines) => (lines, ExitCode::FAILURE),
        };
        for line in lines {
            println!("{line}");
        }
        return code;
    }
    let files: Vec<(String, Vec<BenchLine>)> = if trend {
        match collect_trend(Path::new(&args[0])) {
            Ok(files) if !files.is_empty() => files,
            Ok(_) => {
                eprintln!("bench-report: no bench-json-* artifacts under {}", args[0]);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("bench-report: cannot scan {}: {e}", args[0]);
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut files = Vec::with_capacity(args.len());
        for path in &args {
            let text = match read(path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let label = Path::new(path)
                .file_stem()
                .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
            files.push((label, parse_lines(&text)));
        }
        files
    };
    if compare {
        print!("{}", render_compare(&files[0], &files[1]));
    } else {
        print!("{}", render_markdown(&files));
    }
    ExitCode::SUCCESS
}
