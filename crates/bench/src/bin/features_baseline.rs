//! Writes `BENCH_features.json`: the cold-vs-warm feature-extraction
//! baseline each PR commits so the analysis-cache payoff stays on record.
//!
//! ```text
//! cargo run --release -p squatphi-bench --bin features_baseline [out.json]
//! ```
//!
//! The workload matches `benches/features.rs` (template-heavy corpus: 16
//! distinct page bodies cycled over batches of 1/64/512). Numbers are
//! machine-dependent; the file is a trajectory record, not a CI gate —
//! compare ratios, not absolutes. `BENCH_QUICK=1` runs a single
//! iteration for smoke testing.

use squatphi::FeatureExtractor;
use squatphi_squat::BrandRegistry;
use squatphi_telemetry::Json;
use squatphi_web::behavior::{Cloaking, LifetimePattern, PhishingProfile, ScamKind};
use squatphi_web::pages;
use std::time::Instant;

fn corpus(registry: &BrandRegistry) -> Vec<String> {
    let mut out = Vec::new();
    for (i, brand) in registry.brands().iter().take(4).enumerate() {
        out.push(pages::brand_login_page(brand));
        let profile = PhishingProfile {
            brand: brand.id,
            scam: ScamKind::FakeLogin,
            layout_obfuscation: (i % 4) as u8,
            string_obfuscation: i % 2 == 0,
            code_obfuscation: i % 3 == 0,
            cloaking: Cloaking::None,
            lifetime: LifetimePattern::Stable,
        };
        out.push(pages::phishing_page(
            brand,
            &profile,
            &format!("{}-pay.com", brand.label),
            i as u64,
        ));
        out.push(pages::benign_page(
            &format!("shop{i}.example.com"),
            i as u64,
        ));
        out.push(pages::parked_page(&format!("parked{i}.example.com")));
    }
    out
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_features.json".to_string());
    let quick = std::env::var_os("BENCH_QUICK").is_some();
    let iterations = if quick { 1 } else { 5 };

    let registry = BrandRegistry::with_size(16);
    let corpus = corpus(&registry);
    eprintln!(
        "[features_baseline] {} distinct pages, {iterations} iteration(s) per batch size",
        corpus.len()
    );

    let mut workload_obj = Json::obj();
    workload_obj.push("distinct_pages", Json::U64(corpus.len() as u64));
    workload_obj.push("brands", Json::U64(registry.len() as u64));

    let batch_sizes = [1usize, 64, 512];
    let mut runs = Vec::new();
    for &size in &batch_sizes {
        let htmls: Vec<&str> = (0..size)
            .map(|i| corpus[i % corpus.len()].as_str())
            .collect();
        let threads = if size == 1 { 1 } else { 4 };

        // Cold: cache disabled, every page fully derived, best-of-N.
        let mut cold_best = f64::INFINITY;
        for _ in 0..iterations {
            let fx = FeatureExtractor::uncached(&registry);
            let t = Instant::now();
            let n = fx.extract_batch(&htmls, threads).len();
            let dt = t.elapsed().as_secs_f64();
            assert_eq!(n, size);
            cold_best = cold_best.min(dt);
        }

        // Warm: cache pre-populated, best-of-N over pure-hit batches.
        let fx = FeatureExtractor::new(&registry);
        fx.extract_batch(&htmls, threads);
        let mut warm_best = f64::INFINITY;
        for _ in 0..iterations {
            let t = Instant::now();
            let n = fx.extract_batch(&htmls, threads).len();
            warm_best = warm_best.min(t.elapsed().as_secs_f64());
            assert_eq!(n, size);
        }
        let m = fx.analyzer().metrics();
        assert_eq!(m.pages, m.cache_hits + m.cache_misses, "metrics drifted");

        let speedup = cold_best / warm_best;
        eprintln!(
            "[features_baseline] batch {size}: cold {:.2}ms, warm {:.2}ms, speedup {speedup:.1}x ({} hits / {} misses)",
            cold_best * 1e3,
            warm_best * 1e3,
            m.cache_hits,
            m.cache_misses,
        );
        // Cache counters are read back from the analyzer's live telemetry
        // registry — the same counters `--json` surfaces serialize.
        let snap = fx.analyzer().telemetry().snapshot();
        let mut run = Json::obj();
        run.push("batch", Json::U64(size as u64));
        run.push("threads", Json::U64(threads as u64));
        run.push("cold_ms", Json::F64(cold_best * 1e3));
        run.push("warm_ms", Json::F64(warm_best * 1e3));
        run.push("speedup", Json::F64(speedup));
        run.push("cache_hits", snap.json_value("analysis.cache_hits"));
        run.push("cache_misses", snap.json_value("analysis.cache_misses"));
        runs.push(run);
    }

    let mut doc = Json::obj();
    doc.push("host", squatphi_bench::host());
    doc.push("workload", workload_obj);
    doc.push("iterations", Json::U64(iterations as u64));
    doc.push("runs", Json::Arr(runs));
    let json = doc.render() + "\n";

    std::fs::write(&out_path, json).unwrap_or_else(|e| {
        eprintln!("features_baseline: cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    eprintln!("[features_baseline] baseline written to {out_path}");
}
