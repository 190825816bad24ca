//! Machine-readable performance rows (`experiments --json`).
//!
//! Times the hot paths this crate cares about — the simulation engine,
//! the exact synchronous classifier, the exhaustive sweep driver and the
//! exact verifier — each beside its naive/sequential reference, and
//! prints one bench row per measurement (see `row`). The committed
//! `BENCH_engine.jsonl` at the repository root is this output at
//! `--threads 1`; `bench-report` reads it with
//! [`crate::report::parse_lines`], like any criterion row file. A
//! speedup is the ratio of two rows' times, so none is stored.

use std::io::Write;
use std::time::Instant;

use stabilization_verify::cache::DEFAULT_BYTE_BUDGET;
use stabilization_verify::{
    explore_product, sweep_byzantine_placements_cached, verify_label_stabilization_naive,
    verify_label_stabilization_with_stats, CacheOutcome, CheckpointPolicy, Limits, SccBackend,
    SymmetryMode, VerdictCache,
};
use stateless_core::checkpoint::CheckpointStore;
use stateless_core::convergence::{
    all_labelings, classify_sync, classify_sync_naive, classify_sync_with, sync_round_complexity,
    sync_round_complexity_par, CycleDetector,
};
use stateless_core::prelude::*;
use stateless_protocols::bfs_tree::{bfs_alphabet, bfs_tree_protocol};
use stateless_protocols::worst_case::worst_case_protocol;

use crate::workloads::{
    is_stable_naive, max_ring, max_ring_naive, rotation_ring, schedule_workload, sticky_or_ring,
    SCHEDULE_KINDS,
};

/// Minimum wall-clock spent on the timed samples of one measurement.
const MIN_SAMPLE: f64 = 0.2;

/// The timed samples of one measurement, in seconds per iteration.
#[derive(Debug, Clone, Copy)]
struct Timing {
    best: f64,
    median: f64,
}

/// Times `f`: one untimed warmup, then timed runs until [`MIN_SAMPLE`]
/// seconds are spent (always at least one).
fn time<F: FnMut()>(mut f: F) -> Timing {
    f();
    let mut samples = Vec::new();
    let mut spent = 0.0;
    while spent < MIN_SAMPLE {
        let t = Instant::now();
        f();
        let dt = t.elapsed().as_secs_f64();
        samples.push(dt);
        spent += dt;
    }
    samples.sort_by(f64::total_cmp);
    Timing {
        best: samples[0],
        median: samples[samples.len() / 2],
    }
}

/// Times one label-stabilization verification of `p` under `limits`.
fn time_verify<L: Label>(
    p: &Protocol<L>,
    inputs: &[Input],
    alphabet: &[L],
    r: u8,
    limits: &Limits,
) -> Timing {
    time(|| {
        verify_label_stabilization_with_stats(p, inputs, alphabet, r, limits.clone())
            .unwrap()
            .0
            .is_stabilizing();
    })
}

/// Formats one measurement as a bench row: the line-JSON shape the
/// vendored criterion harness writes (`bench`, `median_ns_per_iter`,
/// `low_ns`, `high_ns`, `elements_per_iter`) plus one flat integer key
/// per entry of `metrics`. The headline `median_ns_per_iter` is the best
/// of the timed samples, which is robust to scheduler noise; `low_ns`
/// and `high_ns` hold their best and median, so the spread shows how
/// noisy the host was.
fn row(bench: &str, t: Timing, elements: u64, metrics: &[(&str, u64)]) -> String {
    let (best, median) = (t.best * 1e9, t.median * 1e9);
    let mut row = format!(
        "{{\"bench\":\"{bench}\",\"median_ns_per_iter\":{best:.1},\"low_ns\":{best:.1},\"high_ns\":{median:.1},\"elements_per_iter\":{elements}"
    );
    for (key, value) in metrics {
        row.push_str(&format!(",\"{key}\":{value}"));
    }
    row.push('}');
    row
}

/// Engine throughput at ring size `n`: `rounds` synchronous rounds of the
/// max-propagation ring, buffered vs the naive apply() path.
fn engine_rows(n: usize) -> Vec<String> {
    let rounds = (4_000_000 / n as u64).max(8);
    let inputs: Vec<u64> = (0..n as u64).collect();

    let p = max_ring(n);
    let mut sim = Simulation::new(&p, &inputs, vec![0u64; n]).unwrap();
    let buffered = time(|| sim.run(&mut Synchronous, rounds));

    let p_naive = max_ring_naive(n);
    let all: Vec<NodeId> = (0..n).collect();
    let mut sim = Simulation::new(&p_naive, &inputs, vec![0u64; n]).unwrap();
    let naive = time(|| {
        for _ in 0..rounds {
            sim.step_with_naive(&all);
        }
    });

    vec![
        row(&format!("perf/engine/{n}/buffered"), buffered, rounds, &[]),
        row(&format!("perf/engine/{n}/naive"), naive, rounds, &[]),
    ]
}

/// Convergence measurement at n = 1024: run-until-label-stable on the
/// max-propagation ring (≈ n rounds, each with a full stability probe),
/// buffered vs the seed's naive apply() loop.
fn stabilization_rows(n: usize) -> Vec<String> {
    let inputs: Vec<u64> = (0..n as u64).collect();
    let p = max_ring(n);
    let buffered = time(|| {
        let mut sim = Simulation::new(&p, &inputs, vec![0u64; n]).unwrap();
        sim.run_until_label_stable(&mut Synchronous, 2 * n as u64)
            .unwrap();
    });
    let p_naive = max_ring_naive(n);
    let all: Vec<NodeId> = (0..n).collect();
    let naive = time(|| {
        let mut sim = Simulation::new(&p_naive, &inputs, vec![0u64; n]).unwrap();
        while !is_stable_naive(&p_naive, sim.labeling(), &inputs) {
            sim.step_with_naive(&all);
        }
    });
    vec![
        row(
            &format!("perf/stabilization/{n}/buffered"),
            buffered,
            1,
            &[],
        ),
        row(&format!("perf/stabilization/{n}/naive"), naive, 1, &[]),
    ]
}

/// Classifier measurement at n = 1024 (the worst-case protocol visits
/// exactly n·(q−1)+1 labelings before its fixed point).
fn classify_rows(n: usize) -> Vec<String> {
    let p = worst_case_protocol(n, 2);
    let inputs = vec![0u64; n];
    let fast = time(|| {
        classify_sync(&p, &inputs, vec![0u64; n], 10_000).unwrap();
    });
    let naive = time(|| {
        classify_sync_naive(&p, &inputs, vec![0u64; n], 10_000).unwrap();
    });
    vec![
        row(&format!("perf/classify/{n}/fingerprint"), fast, 1, &[]),
        row(&format!("perf/classify/{n}/naive"), naive, 1, &[]),
    ]
}

/// Sweep measurement: all 2^n binary labelings of the sticky-OR n-ring.
/// The parallel row records the thread count so single-core CI runs
/// (speedup ≈ 1×) are not mistaken for parallel-path regressions.
fn sweep_rows(n: usize) -> Vec<String> {
    let p = sticky_or_ring(n);
    let inputs: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
    let seq = time(|| {
        sync_round_complexity(&p, &inputs, all_labelings(&[false, true], n), 10_000)
            .unwrap()
            .unwrap();
    });
    let par = time(|| {
        sync_round_complexity_par(&p, &inputs, all_labelings(&[false, true], n), 10_000)
            .unwrap()
            .unwrap();
    });
    let threads = rayon::current_num_threads() as u64;
    vec![
        row(&format!("perf/sweep/{n}/sequential"), seq, 1 << n, &[]),
        row(
            &format!("perf/sweep/{n}/parallel"),
            par,
            1 << n,
            &[("threads", threads)],
        ),
    ]
}

/// Exact-verifier measurement on the rotation n-ring (Boolean labels,
/// r = 2): the packed-arena explorer — one `packed/t<k>` row per worker
/// count in `thread_counts` — vs the retained owned-`Vec` reference
/// (`naive`), on the same product graph. The rotation ring is the
/// canonical non-stabilizing instance — every labeling is on a cycle, so
/// the SCC + witness machinery is fully exercised — and its product
/// graph is ≈ 4ⁿ states, which makes per-state memory the binding
/// constraint exactly as in real verification workloads. Verdicts and
/// state ids are bit-identical across rows by construction. The naive
/// reference only runs for `n ≤ 8` — beyond that its memory and wall
/// time are the very wall the edge-less verifier tears down — so larger
/// `n` have no `naive` row.
///
/// The `scc` row times the SCC phase in isolation through the
/// [`explore_product`] handle — the successor-oracle condensation on the
/// live shard arenas, exactly what the verifier runs. The `sym` row
/// verifies under [`SymmetryMode::Auto`] at one worker; its `states`
/// are the orbit-canonical (quotient) count, ≈ n× fewer than the packed
/// row's on the rotation ring, whose derived group is the full Cₙ. A
/// trivial derived group leaves no `sym` row.
///
/// Every packed row carries the memory figures `bench-report --memgate`
/// budgets: `packed_arena_bytes`, the logical payload of the packed
/// state words read off [`ExploreStats`] (per-shard arena-block slack
/// and the fingerprint index, ~16 B/state, sit on top, bounded and
/// amortizing away at the state counts where memory matters), and
/// `peak_edge_bytes`, the peak **transient** edge footprint — per-batch
/// record buffers and the witness-component CSR, the only edge storage
/// left anywhere. The naive row's `naive_state_bytes` is the per-state
/// footprint of the old representation, counted analytically: the
/// `(Vec<L>, Vec<u8>, Vec<Output>)` tuple (three 24-byte Vec headers +
/// e·|L| + n + 8n heap bytes) stored twice (once in the state table,
/// once cloned as the `HashMap` key) plus ~16 bytes of map entry.
///
/// [`ExploreStats`]: stabilization_verify::ExploreStats
fn verify_scaling_rows(n: usize, thread_counts: &[usize]) -> Vec<String> {
    /// Largest `n` the owned-`Vec` naive reference is still run at.
    const NAIVE_MAX_N: usize = 8;
    let p = rotation_ring(n);
    let inputs = vec![0u64; n];
    let alphabet = [false, true];
    let r = 2u8;
    let limits = |threads: usize| Limits {
        threads,
        ..Limits::default()
    };
    let (verdict, stats) =
        verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, limits(1)).unwrap();
    let (states, edges) = (stats.states as u64, stats.edges as u64);
    let mut rows = Vec::new();
    if n <= NAIVE_MAX_N {
        let naive = time(|| {
            verify_label_stabilization_naive(&p, &inputs, &alphabet, r, limits(1))
                .unwrap()
                .is_stabilizing();
        });
        let e = p.edge_count();
        let naive_state_bytes = 2 * (3 * 24 + e * std::mem::size_of::<bool>() + n + 8 * n) + 16;
        rows.push(row(
            &format!("perf/verify_scaling/{n}/naive"),
            naive,
            states,
            &[
                ("states", states),
                ("naive_state_bytes", naive_state_bytes as u64),
            ],
        ));
    }
    // Held open so each timing re-runs only the oracle condensation, not
    // the exploration.
    let ep = explore_product(&p, &inputs, &alphabet, r, limits(1)).unwrap();
    let scc = time(|| {
        ep.condense(SccBackend::default(), 1);
    });
    rows.push(row(
        &format!("perf/verify_scaling/{n}/scc"),
        scc,
        states,
        &[("states", states), ("edges", edges)],
    ));
    let sym_limits = Limits {
        symmetry: SymmetryMode::Auto,
        ..limits(1)
    };
    let (sym_verdict, sym_stats) =
        verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, sym_limits.clone())
            .unwrap();
    if sym_stats.states < stats.states {
        assert_eq!(
            std::mem::discriminant(&sym_verdict),
            std::mem::discriminant(&verdict),
            "quotient exploration must preserve the verdict"
        );
        let sym = time_verify(&p, &inputs, &alphabet, r, &sym_limits);
        let sym_states = sym_stats.states as u64;
        rows.push(row(
            &format!("perf/verify_scaling/{n}/sym"),
            sym,
            sym_states,
            &[("states", sym_states)],
        ));
    }
    for &threads in thread_counts {
        let packed = time_verify(&p, &inputs, &alphabet, r, &limits(threads));
        rows.push(row(
            &format!("perf/verify_scaling/{n}/packed/t{threads}"),
            packed,
            states,
            &[
                ("states", states),
                ("edges", edges),
                ("packed_arena_bytes", stats.state_bytes as u64),
                ("peak_edge_bytes", stats.edge_bytes as u64),
            ],
        ));
    }
    rows
}

/// Byzantine-adversary verification throughput: the BFS spanning-tree
/// protocol on small rooted bidirectional rings (root 0, cap = 2,
/// r = 1), fault-free (`f0`), with one Byzantine node at the root's
/// neighbor (`f1`), and on the 4-ring with one Byzantine *and* one
/// crashed node (`byz1crash1`: the crash side shrinks its node's
/// branching to the single keep-labels choice while the Byzantine side
/// still branches over every label choice). Each row records the
/// explored state count of the adversary-branched product graph and the
/// exact verdict as `stabilizing` (1 or 0) — on the 4-ring the `f1`
/// placement is fatal, on the 3-ring tolerated — so a fault-semantics
/// drift moves a committed state count or flips a committed verdict and
/// shows up in the perf diff, not just the test suite. The `f0` rows
/// assert that an explicit `FaultModel::none()` query returns the same
/// verdict over the same state count as the plain fault-free path — the
/// f = 0 degeneracy the determinism contract promises.
fn byzantine_rows() -> Vec<String> {
    let (cap, r) = (2u64, 1u8);
    let cases = [
        (3usize, "f0", FaultModel::none()),
        (3, "f1", FaultModel::byzantine(&[1]).unwrap()),
        (4, "f0", FaultModel::none()),
        (4, "f1", FaultModel::byzantine(&[1]).unwrap()),
        (4, "byz1crash1", FaultModel::new(&[1], &[2]).unwrap()),
    ];
    cases
        .into_iter()
        .map(|(n, slug, faults)| {
            let p = bfs_tree_protocol(topology::bidirectional_ring(n), 0, cap, FaultModel::none())
                .unwrap();
            let inputs = vec![0u64; n];
            let alphabet = bfs_alphabet(cap);
            let limits = Limits {
                faults,
                ..Limits::default()
            };
            let (verdict, stats) =
                verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, limits.clone())
                    .unwrap();
            if faults == FaultModel::none() {
                let (plain_verdict, plain_stats) = verify_label_stabilization_with_stats(
                    &p,
                    &inputs,
                    &alphabet,
                    r,
                    Limits::default(),
                )
                .unwrap();
                assert!(
                    stats.states == plain_stats.states
                        && verdict.is_stabilizing() == plain_verdict.is_stabilizing(),
                    "an explicit FaultModel::none() must degenerate to the fault-free run"
                );
            }
            let t = time_verify(&p, &inputs, &alphabet, r, &limits);
            let states = stats.states as u64;
            row(
                &format!("perf/byzantine/{n}/{slug}"),
                t,
                states,
                &[
                    ("states", states),
                    ("stabilizing", u64::from(verdict.is_stabilizing())),
                ],
            )
        })
        .collect()
}

/// Checkpointing overhead: the `f1` Byzantine BFS instance of
/// [`byzantine_rows`] on the 4-ring, verified plain vs with an
/// every-eighth-of-the-graph [`CheckpointPolicy`] into a scratch
/// directory. The checkpointed row records the policy's `every_states`,
/// the epoch count it leaves behind, the newest epoch's file size, and
/// `checkpoint_scratch_bytes`: the largest framed segment in that epoch
/// — the transient buffer bound a resume needs, which `bench-report
/// --memgate` charges per state on top of the verifier's resident
/// storage.
fn checkpoint_rows() -> Vec<String> {
    let (n, cap, r) = (4usize, 2u64, 1u8);
    let p = bfs_tree_protocol(topology::bidirectional_ring(n), 0, cap, FaultModel::none()).unwrap();
    let inputs = vec![0u64; n];
    let alphabet = bfs_alphabet(cap);
    let plain_limits = Limits {
        faults: FaultModel::byzantine(&[1]).unwrap(),
        ..Limits::default()
    };
    let (_, stats) =
        verify_label_stabilization_with_stats(&p, &inputs, &alphabet, r, plain_limits.clone())
            .unwrap();
    let plain = time_verify(&p, &inputs, &alphabet, r, &plain_limits);
    let dir = std::env::temp_dir().join(format!("stateless-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let every = (stats.states / 8).max(1);
    let ckpt_limits = Limits {
        checkpoint: Some(CheckpointPolicy {
            every_states: Some(every),
            ..CheckpointPolicy::new(&dir)
        }),
        ..plain_limits
    };
    let checkpointed = time_verify(&p, &inputs, &alphabet, r, &ckpt_limits);
    let store = CheckpointStore::open(&dir).unwrap();
    let epochs = store.epochs().unwrap_or_default();
    let newest = epochs.last().copied();
    let epoch_bytes = newest
        .and_then(|e| std::fs::metadata(store.epoch_path(e)).ok())
        .map_or(0, |m| m.len());
    let scratch = newest.map_or(0, |e| store.max_segment_bytes(e).unwrap_or(0));
    let _ = std::fs::remove_dir_all(&dir);
    let states = stats.states as u64;
    vec![
        row(
            &format!("perf/checkpoint/{n}/plain"),
            plain,
            states,
            &[("states", states)],
        ),
        row(
            &format!("perf/checkpoint/{n}/checkpointed"),
            checkpointed,
            states,
            &[
                ("states", states),
                ("every_states", every as u64),
                ("epochs", epochs.len() as u64),
                ("epoch_bytes", epoch_bytes),
                ("checkpoint_scratch_bytes", scratch as u64),
            ],
        ),
    ]
}

/// Verdict-cache service throughput: the f = 1 Byzantine placement
/// sweep of [`checkpoint_rows`]' BFS instance (biring(4), root 0,
/// cap 2, r = 1 — 4 placements), cold (a fresh [`VerdictCache`] per
/// iteration, every placement a miss) vs warm (one shared prewarmed
/// cache, every placement a hit). One extra previously-unseen job runs
/// once outside the timed region, so the warm batch models `verifyd`
/// replaying a job file with one new entry: the warm row's `jobs` = 5
/// and `hits` = 4, the "all but one job served from cache" shape. Hit
/// rows are asserted bit-identical to the cold rows before anything is
/// reported.
fn cache_service_rows() -> Vec<String> {
    let (n, cap, r, f) = (4usize, 2u64, 1u8, 1usize);
    let p = bfs_tree_protocol(topology::bidirectional_ring(n), 0, cap, FaultModel::none()).unwrap();
    let inputs = vec![0u64; n];
    let alphabet = bfs_alphabet(cap);
    let sweep = |cache: &VerdictCache| {
        sweep_byzantine_placements_cached(
            &p,
            &inputs,
            &alphabet,
            r,
            Limits::default(),
            f,
            &[],
            cache,
        )
        .unwrap()
    };
    let cold_rows = sweep(&VerdictCache::in_memory(DEFAULT_BYTE_BUDGET));
    let placements = cold_rows.len() as u64;
    let sweep_states: u64 = cold_rows.iter().map(|row| row.stats.states as u64).sum();
    let cold = time(|| {
        let rows = sweep(&VerdictCache::in_memory(DEFAULT_BYTE_BUDGET));
        assert!(rows.iter().all(|row| row.cache == CacheOutcome::Miss));
    });
    let warm_cache = VerdictCache::in_memory(DEFAULT_BYTE_BUDGET);
    let _prewarm = sweep(&warm_cache);
    let warm = time(|| {
        let rows = sweep(&warm_cache);
        assert!(
            rows.iter().all(|row| row.cache == CacheOutcome::Hit),
            "warm sweep must be served entirely from cache"
        );
    });
    let warm_rows = sweep(&warm_cache);
    for (cold_row, warm_row) in cold_rows.iter().zip(&warm_rows) {
        assert_eq!(cold_row.placement, warm_row.placement);
        assert_eq!(
            cold_row.verdict, warm_row.verdict,
            "a hit must be bit-identical to the cold verdict"
        );
        assert_eq!(cold_row.stats, warm_row.stats);
    }
    // The one previously-unseen job of the warm batch: fault-free over
    // the same protocol (a different fingerprint), computed once.
    let extra = warm_cache
        .verify_label(&p, &inputs, &alphabet, r, &Limits::default())
        .unwrap();
    assert_eq!(extra.outcome, CacheOutcome::Miss);
    vec![
        row(
            &format!("perf/cache_service/{n}/cold"),
            cold,
            sweep_states,
            &[("states", sweep_states), ("placements", placements)],
        ),
        row(
            &format!("perf/cache_service/{n}/warm"),
            warm,
            sweep_states,
            &[
                ("states", sweep_states),
                ("jobs", placements + 1),
                ("hits", placements),
            ],
        ),
    ]
}

/// Async engine measurement at ring size `n`: `steps` steps under one
/// schedule family, `Simulation::run` (buffered `activations_into`) vs
/// the allocating one-`Vec`-per-step path every run loop used before the
/// buffered scheduling layer. Both rows time whole engine steps, not the
/// schedule alone.
fn async_engine_rows(kind: &str, n: usize) -> Vec<String> {
    let steps = 50_000u64;
    let inputs: Vec<u64> = (0..n as u64).collect();
    let p = max_ring(n);

    let buffered = time(|| {
        let mut sim = Simulation::new(&p, &inputs, vec![0u64; n]).unwrap();
        let mut sched = schedule_workload(kind, n);
        sim.run(sched.as_mut(), steps);
    });
    let alloc = time(|| {
        let mut sim = Simulation::new(&p, &inputs, vec![0u64; n]).unwrap();
        let mut sched = schedule_workload(kind, n);
        for _ in 0..steps {
            let active = sched.activations(sim.time() + 1, n);
            sim.step_with(&active);
        }
    });
    vec![
        row(
            &format!("perf/async_engine/{kind}/buffered"),
            buffered,
            steps,
            &[],
        ),
        row(
            &format!("perf/async_engine/{kind}/alloc"),
            alloc,
            steps,
            &[],
        ),
    ]
}

/// The two [`CycleDetector`] modes on the worst-case protocol at size `n`
/// (transient of exactly n·(q−1) synchronous rounds): time plus the
/// estimated peak classifier memory as `classifier_bytes` — the arena
/// retains every visited labeling, Brent keeps a constant number of them.
fn classify_detectors_rows(n: usize) -> Vec<String> {
    let q = 2u64;
    let p = worst_case_protocol(n, q);
    let inputs = vec![0u64; n];
    let arena = time(|| {
        classify_sync_with(
            &p,
            &inputs,
            vec![0u64; n],
            10_000,
            CycleDetector::ExactArena,
        )
        .unwrap();
    });
    let brent = time(|| {
        classify_sync_with(&p, &inputs, vec![0u64; n], 10_000, CycleDetector::Brent).unwrap();
    });
    // The transient visits n·(q−1)+1 distinct labelings of n u64 labels.
    let rounds = n as u64 * (q - 1) + 1;
    let label_bytes = std::mem::size_of::<u64>() as u64;
    let arena_bytes = rounds * n as u64 * label_bytes;
    // Brent holds two run cursors plus snapshot/entry/output buffers —
    // a small constant number of labelings.
    let brent_bytes = 4 * n as u64 * label_bytes;
    vec![
        row(
            &format!("perf/classify_detectors/{n}/arena"),
            arena,
            1,
            &[("classifier_bytes", arena_bytes)],
        ),
        row(
            &format!("perf/classify_detectors/{n}/brent"),
            brent,
            1,
            &[("classifier_bytes", brent_bytes)],
        ),
    ]
}

/// The worker counts the `verify_scaling` section measures: powers of two
/// from 1 up to `max_threads` (inclusive, plus `max_threads` itself when
/// it is not a power of two); `0` means the machine's available
/// parallelism. A 1-core CI host measures `[1]` only — multi-core hosts
/// pass `--threads 4` to get the 1/2/4 scaling rows.
fn thread_counts(max_threads: usize) -> Vec<usize> {
    let max = if max_threads == 0 {
        rayon::current_num_threads()
    } else {
        max_threads
    }
    .max(1);
    let mut counts = vec![1];
    let mut t = 2;
    while t < max {
        counts.push(t);
        t *= 2;
    }
    if max > 1 {
        counts.push(max);
    }
    counts
}

/// Runs every measurement and writes its bench rows to `out`, one line
/// each, flushing after every section so a long run shows progress.
/// `max_threads` caps the `verify_scaling` worker sweep (see
/// `thread_counts`; `0` = available parallelism).
///
/// # Errors
///
/// Any error writing to `out`.
pub fn write_rows(max_threads: usize, mut out: impl Write) -> std::io::Result<()> {
    let counts = thread_counts(max_threads);
    let mut emit = |rows: Vec<String>| -> std::io::Result<()> {
        for row in rows {
            writeln!(out, "{row}")?;
        }
        out.flush()
    };
    for n in [100, 1024] {
        emit(engine_rows(n))?;
    }
    for kind in SCHEDULE_KINDS {
        emit(async_engine_rows(kind, 1024))?;
    }
    emit(stabilization_rows(1024))?;
    emit(classify_rows(1024))?;
    emit(classify_detectors_rows(1024))?;
    emit(sweep_rows(14))?;
    for n in [6, 8, 10] {
        emit(verify_scaling_rows(n, &counts))?;
    }
    emit(byzantine_rows())?;
    emit(checkpoint_rows())?;
    emit(cache_service_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::parse_lines;

    #[test]
    fn rows_read_back_through_the_report_parser() {
        let t = Timing {
            best: 1.5e-3,
            median: 2.25e-3,
        };
        let metrics = [
            ("states", 214_208),
            ("packed_arena_bytes", 1_713_664),
            ("peak_edge_bytes", (1 << 53) - 1),
            ("stabilizing", 0),
        ];
        let text = row("perf/verify_scaling/10/packed/t1", t, 214_208, &metrics);
        let rows = parse_lines(&text);
        assert_eq!(rows.len(), 1, "{text}");
        let back = &rows[0];
        assert_eq!(back.bench, "perf/verify_scaling/10/packed/t1");
        // The headline is the best sample; the spread is best .. median.
        assert_eq!(back.median_ns, 1.5e6);
        assert_eq!(back.metric("low_ns"), Some(1.5e6));
        assert_eq!(back.metric("high_ns"), Some(2.25e6));
        assert_eq!(back.metric("elements_per_iter"), Some(214_208.0));
        for (key, value) in metrics {
            assert_eq!(back.metric(key), Some(value as f64), "{key}");
        }
        assert_eq!(back.metrics.len(), 3 + metrics.len(), "{text}");
    }
}
