//! Writes `BENCH_phash.json`: the NN-index lookup baseline each PR commits
//! so the visual-similarity speedup over the preserved linear scan stays
//! on record.
//!
//! ```text
//! cargo run --release -p squatphi-bench --bin phash_baseline \
//!     [out.json] [--assert-speedup] [--strip-timings]
//! ```
//!
//! The workload is a 1M-hash seeded corpus (80% uniform, 20% clustered
//! within a few flips of a small center set — the screenshot-hash shape:
//! most pages unrelated, phishing variants near their brand). Every query
//! is answered by both [`HashIndex`] and the [`linear`] oracle at each
//! radius, and the writer *first* proves the answers set-identical (exit
//! 2 on any divergence) before it times anything — a fast wrong index
//! must never produce a baseline file. Numbers are machine-dependent;
//! compare ratios, not absolutes. `BENCH_QUICK=1` shrinks the corpus for
//! smoke testing.
//!
//! `--assert-speedup` exits non-zero unless the index beats linear by
//! ≥ 10× at every radius ≤ 8 (the acceptance floor); `--strip-timings`
//! zeroes the wall-clock-derived fields so CI can `cmp` two runs — the
//! deterministic counters and result totals are byte-identical by
//! construction.

use rand::prelude::*;
use squatphi_imghash::index::{linear, HashIndex};
use squatphi_imghash::ImageHash;
use squatphi_telemetry::Json;
use std::time::Instant;

/// The acceptance floor `--assert-speedup` enforces at radii ≤ 8.
const SPEEDUP_FLOOR: f64 = 10.0;

fn corpus(n: usize, rng: &mut StdRng) -> Vec<ImageHash> {
    let centers: Vec<u64> = (0..(n / 1000).max(16)).map(|_| rng.gen()).collect();
    (0..n)
        .map(|i| {
            if i % 5 == 0 {
                let mut h = centers[rng.gen_range(0..centers.len())];
                for _ in 0..rng.gen_range(0..=8usize) {
                    h ^= 1u64 << rng.gen_range(0..64u32);
                }
                ImageHash(h)
            } else {
                ImageHash(rng.gen())
            }
        })
        .collect()
}

/// Half perturbed corpus members, half random misses.
fn queries(n: usize, corpus: &[ImageHash], rng: &mut StdRng) -> Vec<ImageHash> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                let mut h = corpus[rng.gen_range(0..corpus.len())].0;
                for _ in 0..rng.gen_range(0..=6usize) {
                    h ^= 1u64 << rng.gen_range(0..64u32);
                }
                ImageHash(h)
            } else {
                ImageHash(rng.gen())
            }
        })
        .collect()
}

fn main() {
    let mut out_path = "BENCH_phash.json".to_string();
    let mut assert_speedup = false;
    let mut strip_timings = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--assert-speedup" => assert_speedup = true,
            "--strip-timings" => strip_timings = true,
            _ => out_path = arg,
        }
    }
    let quick = std::env::var_os("BENCH_QUICK").is_some();
    let (corpus_n, query_n, iterations) = if quick {
        (50_000, 100, 1)
    } else {
        (1_000_000, 400, 3)
    };

    let mut rng = StdRng::seed_from_u64(0x0070_6861_7368);
    let corpus = corpus(corpus_n, &mut rng);
    let queries = queries(query_n, &corpus, &mut rng);

    let build_start = Instant::now();
    let index = HashIndex::from_hashes(corpus.iter().copied());
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "[phash_baseline] {corpus_n} hashes indexed in {build_ms:.0} ms, \
         {query_n} queries, {iterations} iteration(s) per radius"
    );

    let mut workload = Json::obj();
    workload.push("corpus", Json::U64(corpus_n as u64));
    workload.push("queries", Json::U64(query_n as u64));
    workload.push("seed", Json::U64(0x0070_6861_7368));
    workload.push(
        "build_ms",
        Json::F64(if strip_timings { 0.0 } else { build_ms }),
    );

    let mut runs = Vec::new();
    let mut floor_violations = Vec::new();
    for radius in [0u32, 2, 4, 8, 16] {
        // Correctness first: a baseline written by a diverging index would
        // record the throughput of wrong answers.
        let mut total_neighbors = 0u64;
        for q in &queries {
            let got = index.within(q, radius);
            let want = linear::within(&corpus, q, radius);
            if got != want {
                eprintln!(
                    "[phash_baseline] FAIL: index diverged from linear at radius {radius} \
                     for query {:016x} ({} vs {} neighbors)",
                    q.to_bits(),
                    got.len(),
                    want.len()
                );
                std::process::exit(2);
            }
            total_neighbors += got.len() as u64;
        }

        // Best-of-N wall clock for each side, identical query stream.
        let mut index_qps = 0f64;
        let mut linear_qps = 0f64;
        for _ in 0..iterations {
            let t = Instant::now();
            let mut found = 0usize;
            for q in &queries {
                found += index.within(q, radius).len();
            }
            std::hint::black_box(found);
            index_qps = index_qps.max(query_n as f64 / t.elapsed().as_secs_f64());

            let t = Instant::now();
            let mut found = 0usize;
            for q in &queries {
                found += linear::within(&corpus, q, radius).len();
            }
            std::hint::black_box(found);
            linear_qps = linear_qps.max(query_n as f64 / t.elapsed().as_secs_f64());
        }
        let speedup = index_qps / linear_qps;
        eprintln!(
            "[phash_baseline] radius {radius:2}: index {index_qps:9.0} q/s, \
             linear {linear_qps:7.0} q/s, speedup {speedup:6.1}x \
             ({total_neighbors} neighbors, set-identical)"
        );
        if radius <= 8 && speedup < SPEEDUP_FLOOR {
            floor_violations.push((radius, speedup));
        }

        let strip = |v: f64| if strip_timings { 0.0 } else { v };
        let mut run = Json::obj();
        run.push("radius", Json::U64(radius as u64));
        run.push("neighbors", Json::U64(total_neighbors));
        run.push("index_queries_per_sec", Json::F64(strip(index_qps)));
        run.push("linear_queries_per_sec", Json::F64(strip(linear_qps)));
        run.push("speedup", Json::F64(strip(speedup)));
        runs.push(run);
    }

    // The counters come from the same telemetry registry export every
    // other surface reads; they are deterministic for a fixed workload,
    // so they survive the two-run `cmp` untouched.
    let snap = index.telemetry().snapshot();
    let mut counters = Json::obj();
    for name in [
        "inserts",
        "queries",
        "probes",
        "bucket_hits",
        "verified",
        "pruned",
        "fallbacks",
    ] {
        counters.push(name, snap.json_value(&format!("phash.index.{name}")));
    }

    let mut doc = Json::obj();
    doc.push("host", squatphi_bench::host());
    doc.push("workload", workload);
    doc.push("iterations", Json::U64(iterations as u64));
    doc.push("runs", Json::Arr(runs));
    doc.push("counters", counters);
    let json = doc.render() + "\n";

    std::fs::write(&out_path, json).unwrap_or_else(|e| {
        eprintln!("phash_baseline: cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    eprintln!("[phash_baseline] baseline written to {out_path}");

    if assert_speedup {
        if let Some((radius, speedup)) = floor_violations.first() {
            eprintln!(
                "[phash_baseline] FAIL: speedup {speedup:.1}x at radius {radius} is below \
                 the {SPEEDUP_FLOOR:.0}x floor"
            );
            std::process::exit(3);
        }
        eprintln!("[phash_baseline] speedup OK: >= {SPEEDUP_FLOOR:.0}x at every radius <= 8");
    }
}
