//! Regenerates the experiment tables of EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p stateless-bench --bin experiments [e1 e4 …]`
//! (no arguments = run everything).
//!
//! With `--json`, instead prints one bench row per measurement (see
//! `stateless_bench::perf`), timing the buffered engine / fingerprint
//! classifier / parallel sweep / exact verifier beside their naive
//! references. The committed baseline is regenerated with
//! `cargo run --release -p stateless-bench --bin experiments -- --json --threads 1 > BENCH_engine.jsonl`
//!
//! `--threads N` caps the worker sweep of the `verify_scaling` section
//! (rows at 1, 2, 4, … up to N); without it the sweep uses the machine's
//! available parallelism, so a 1-core CI host records the single-thread
//! row only.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_threads = 0usize;
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        max_threads = match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(n) if n > 0 => n,
            _ => {
                eprintln!("--threads expects a positive integer");
                std::process::exit(2);
            }
        };
    }
    if args.iter().any(|a| a == "--json") {
        if let Err(e) = stateless_bench::perf::write_rows(max_threads, std::io::stdout().lock()) {
            eprintln!("experiments: cannot write bench rows: {e}");
            std::process::exit(1);
        }
        return;
    }
    // Strip the flag (and its value) so experiment name filters still work.
    let mut names = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            it.next();
        } else {
            names.push(a);
        }
    }
    stateless_bench::experiments::run(&names);
}
