//! The workloads: how a seed becomes the program's configuration, the
//! timed calls, and the outputs each call is checked on.

use squatphi::artifact::content_key;
use squatphi::WatchSummary;
use squatphi::{PipelineResult, RunOptions, SimConfig, SquatPhi, WatchConfig, WatchOptions};
use squatphi_experiments::summary::RunSummary;
use squatphi_experiments::{run_experiment, EXPERIMENT_IDS};
use std::hint::black_box;
use std::path::Path;

/// The committed workload seed.
pub const DEFAULT_SEED: u64 = 2018;

/// Stream length of the `watch-volatile` workload at bench size.
pub const WATCH_EVENTS: u64 = 30_000;

/// Brands `watch-volatile` monitors at bench size (the paper's 702).
pub const WATCH_BRANDS: usize = 702;

/// Input cases a run cycles through, each from its own sub-seed: the
/// pipeline configurations of `repro-tenth` and the streams of
/// `watch-volatile`. A run's median then does not rest on one input's
/// shape.
pub const CASES: u64 = 3;

/// Seed of the output digests.
const DIGEST_SEED: u64 = 0xbe4c_2018;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `try_run` at a tenth of `paper_scale(100)` plus every experiment.
    ReproTenth,
    /// `try_watch` without persistence.
    WatchVolatile,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::ReproTenth, Workload::WatchVolatile];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproTenth => "repro-tenth",
            Workload::WatchVolatile => "watch-volatile",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: the benchmark's own (`bench`) or the self-test's
/// (`smoke`: `SimConfig::micro()` shape and a short stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Bench,
    /// The self-test size.
    Smoke,
}

impl Size {
    /// The size's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Size::Bench => "bench",
            Size::Smoke => "smoke",
        }
    }

    /// Parses a size name.
    pub fn parse(s: &str) -> Option<Size> {
        [Size::Bench, Size::Smoke]
            .into_iter()
            .find(|z| z.name() == s)
    }
}

/// Derives an independent sub-seed from the workload seed (SplitMix64
/// finalizer over `seed + salt`).
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `SimConfig::paper_scale(100)` shrunk ten-fold on every axis: DNS
/// records, brands, planted phishing sites, feed URLs and sampled benign
/// pages. A call takes 2-3 s on a 2-vCPU host, not 35-45 s, so a
/// run takes the median of many calls instead of timing one.
pub fn tenth_scale() -> SimConfig {
    let mut cfg = SimConfig::paper_scale(1000);
    cfg.brands = 70;
    cfg.world.phishing_domains = 118;
    cfg.feed.total_urls = 676;
    cfg.sampled_benign = 157;
    cfg
}

/// The pipeline configuration of case `case` of a seed: every seed the
/// program reads comes from the workload seed.
pub fn sim_config(seed: u64, case: u64, size: Size, threads: usize) -> SimConfig {
    let mut cfg = match size {
        Size::Bench => tenth_scale(),
        Size::Smoke => SimConfig::micro(),
    };
    let seed = derive(seed, 32 + case);
    cfg.threads = threads;
    cfg.snapshot.seed = derive(seed, 1);
    cfg.world.seed = derive(seed, 2);
    cfg.feed.seed = derive(seed, 3);
    cfg.seed = derive(seed, 4);
    cfg
}

/// The watch-daemon configuration of stream `stream` of a seed, with the
/// default `checkpoint_every`.
pub fn watch_config(seed: u64, stream: u64, size: Size, threads: usize) -> WatchConfig {
    let (events, brands) = match size {
        Size::Bench => (WATCH_EVENTS, WATCH_BRANDS),
        Size::Smoke => (2_000, 40),
    };
    watch_config_with(seed, stream, events, brands, threads)
}

/// A watch configuration with an explicit stream length and brand count.
pub fn watch_config_with(
    seed: u64,
    stream: u64,
    events: u64,
    brands: usize,
    threads: usize,
) -> WatchConfig {
    WatchConfig::builder()
        .seed(derive(seed, 5 + stream))
        .events(events)
        .brands(brands)
        .threads(threads)
        .build()
        .expect("events, brands and threads are all >= 1")
}

/// Runs the pipeline and then every experiment on its result.
pub fn run_repro(cfg: &SimConfig) -> Result<PipelineResult, String> {
    let result = SquatPhi::try_run(cfg, &RunOptions::default()).map_err(|e| e.to_string())?;
    run_experiments(&result, |_, f| f())?;
    Ok(result)
}

/// Runs every experiment on `result`, each through `wrap(id, run)` so a
/// caller can put a span around it.
pub fn run_experiments(
    result: &PipelineResult,
    mut wrap: impl FnMut(&'static str, &mut dyn FnMut() -> Option<String>) -> Option<String>,
) -> Result<(), String> {
    for &id in EXPERIMENT_IDS {
        let report = wrap(id, &mut || run_experiment(id, result))
            .ok_or_else(|| format!("experiment {id} is unknown"))?;
        black_box(report);
    }
    Ok(())
}

/// Runs the watch daemon over the whole stream, persisting to `ckpt`
/// when given (the directory must be fresh).
pub fn run_watch(cfg: &WatchConfig, ckpt: Option<&Path>) -> Result<WatchSummary, String> {
    let opts = WatchOptions {
        checkpoint_dir: ckpt.map(Path::to_path_buf),
        ..WatchOptions::default()
    };
    SquatPhi::try_watch(cfg, &opts).map_err(|e| e.to_string())
}

/// The checked outputs of one call: named digests that must equal the
/// reference, plus any invariant the output breaks.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// `(name, digest)` pairs, compared against the reference.
    pub digests: Vec<(&'static str, u64)>,
    /// Values the program documents as deterministic but that vary with
    /// worker scheduling at more than one thread. They are compared
    /// between calls and a difference is reported, but it does not fail
    /// the call (see the README's "Output checks").
    pub racy: Vec<(&'static str, u64)>,
    /// Broken invariants (empty when the output is self-consistent).
    pub broken: Vec<String>,
}

fn digest(bytes: &[u8]) -> u64 {
    content_key(DIGEST_SEED, bytes)
}

/// Digest of the stripped `RunSummary` JSON (the `repro --json` bytes),
/// without the analysis cache's hit/miss split.
///
/// With two or more workers, two of them can analyze the same page at
/// once and both count a miss, so the split varies from run to run (by a
/// page or two in 13k at `paper_scale(100)`) while every output stays the same.
/// The page total is kept, `check_invariants` still checks
/// `pages == cache_hits + cache_misses`, and the hit count is carried as
/// a racy value.
pub fn summary_digest(result: &PipelineResult) -> u64 {
    let mut summary = RunSummary::collect(result);
    summary.strip_timings();
    summary.analysis.cache_hits = 0;
    summary.analysis.cache_misses = 0;
    digest(summary.to_json_pretty().as_bytes())
}

/// The checked outputs of a `repro-tenth` call.
pub fn repro_output(result: &PipelineResult) -> Output {
    let mut broken = Vec::new();
    if let Err(violations) = result.check_invariants() {
        broken.extend(violations.iter().map(|v| v.to_string()));
    }
    Output {
        digests: vec![
            ("fingerprint", result.fingerprint()),
            ("summary", summary_digest(result)),
        ],
        racy: vec![("cache_hits", result.analysis.cache_hits)],
        broken,
    }
}

/// The checked outputs of a `try_watch` call.
pub fn watch_output(summary: &WatchSummary) -> Output {
    let mut broken = Vec::new();
    if !summary.reconciles() {
        broken.push(format!(
            "watch counters do not reconcile: {}",
            summary.report_line()
        ));
    }
    if summary.interrupted || summary.watermark != summary.events {
        broken.push(format!(
            "watch stopped at event {} of {}",
            summary.watermark, summary.events
        ));
    }
    Output {
        digests: vec![("state", watch_state_digest(summary))],
        racy: vec![("state_fingerprint", summary.state_fingerprint)],
        broken,
    }
}

/// Digest of the watch summary's telemetry and per-sweep history, less
/// the transport retry/breaker accounting and the `state_fingerprint`
/// that folds it in.
///
/// Crawl workers share the circuit breaker, so at more than one thread
/// the retry, backoff, error and breaker counters vary from run to run
/// (in about one 30k-event run in eight) while every stage counter,
/// queue and tracked set stays the same. `state_fingerprint` is carried
/// as a racy value. The durability ledger is left out too: it describes
/// how the run persisted, so a call with a checkpoint dir checks against
/// the same reference as one without.
pub fn watch_state_digest(summary: &WatchSummary) -> u64 {
    let snap = summary.telemetry().snapshot().retain(|name| {
        !name.starts_with("watch.transport.")
            && !name.starts_with("durability.")
            && name != "watch.state_fingerprint"
    });
    let mut text = snap.render();
    for m in &summary.metrics {
        text.push_str(&m.to_json().render());
    }
    digest(text.as_bytes())
}

/// Committed reference outputs, one line per `(workload, size, case)`:
/// `<workload> <size> <seed>/<case> <name>=0x<hex> ...`. `#` starts a
/// comment.
pub struct Reference {
    /// `(key, digests)` per line, keyed as [`reference_key`] renders it.
    entries: Vec<(String, Vec<(String, u64)>)>,
}

fn reference_key(workload: &str, size: &str, case: &str) -> String {
    format!("{workload} {size} {case}")
}

/// The input case a call ran: `<seed>/<case>`.
pub fn case(seed: u64, case: u64) -> String {
    format!("{seed}/{case}")
}

impl Reference {
    /// Parses the reference file format.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut entries = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = || format!("reference line {}: {line:?}", n + 1);
            let mut parts = line.split_whitespace();
            let workload = parts.next().ok_or_else(bad)?;
            let size = parts.next().ok_or_else(bad)?;
            let case = parts.next().ok_or_else(bad)?;
            let (seed, n) = case.split_once('/').ok_or_else(bad)?;
            if seed.parse::<u64>().is_err() || n.parse::<u64>().is_err() {
                return Err(bad());
            }
            let mut digests = Vec::new();
            for kv in parts {
                let (k, v) = kv.split_once('=').ok_or_else(bad)?;
                let v = v.strip_prefix("0x").ok_or_else(bad)?;
                digests.push((
                    k.to_string(),
                    u64::from_str_radix(v, 16).map_err(|_| bad())?,
                ));
            }
            entries.push((reference_key(workload, size, case), digests));
        }
        Ok(Reference { entries })
    }

    /// The committed digests for a case, if it has any.
    pub fn expected(&self, workload: Workload, size: Size, case: &str) -> Option<&[(String, u64)]> {
        let key = reference_key(workload.name(), size.name(), case);
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, d)| d.as_slice())
    }
}

/// Renders an output as a reference line.
pub fn reference_line(workload: Workload, size: Size, case: &str, out: &Output) -> String {
    let mut line = reference_key(workload.name(), size.name(), case);
    for (name, d) in &out.digests {
        line.push_str(&format!(" {name}={d:#018x}"));
    }
    line
}

/// Why `out` fails the check against the reference (when the seed has
/// one) and against the first output of the same run; `None` when it
/// passes.
pub fn check(
    out: &Output,
    expected: Option<&[(String, u64)]>,
    first: Option<&Output>,
) -> Option<String> {
    if !out.broken.is_empty() {
        return Some(out.broken.join("; "));
    }
    if let Some(expected) = expected {
        for (name, want) in expected {
            let got = out.digests.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
            if got != Some(*want) {
                return Some(format!(
                    "{name} differs from the reference: got {}, want {want:#018x}",
                    got.map_or("nothing".to_string(), |g| format!("{g:#018x}"))
                ));
            }
        }
    }
    if let Some(first) = first {
        for ((name, want), (_, got)) in first.digests.iter().zip(&out.digests) {
            if want != got {
                return Some(format!(
                    "{name} differs from the first call of this seed: got {got:#018x}, want {want:#018x}"
                ));
            }
        }
    }
    None
}

/// The racy values of `out` that differ from `first`'s.
pub fn racy_differences(out: &Output, first: &Output) -> Vec<&'static str> {
    first
        .racy
        .iter()
        .zip(&out.racy)
        .filter(|((_, a), (_, b))| a != b)
        .map(|((name, _), _)| *name)
        .collect()
}
