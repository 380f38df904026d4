//! `perfbench` — the end-to-end benchmark of the two squatphi products:
//! a whole `repro` run (pipeline plus every experiment) and a whole
//! `watch` run (the streaming daemon).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload repro-tenth --seed 2018 --seconds 45 --trace 0
//! ```
//!
//! Each workload is a closed loop: one caller on `--threads` worker
//! threads starts the next call only when the previous one returned,
//! until `--seconds` have passed (at least one call per input case,
//! which the calls cycle through). Every call's output
//! is checked against the committed reference for its input case, or,
//! for a case without one, against the run's first call of that case. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of a layered replay). Lines before it give the
//! provenance and every metric by name with its unit. A failed check
//! exits with code 1; a usage error exits with code 2 and no result.

mod layers;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workload::{Output, Reference, Size, Workload};

/// Reference outputs committed with the benchmark.
const REFERENCE: &str = include_str!("../reference.txt");

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Stream length of the watch warm-up done as set-up.
const WARMUP_EVENTS: u64 = 2_000;

/// Worker threads when `--threads` is not given.
const DEFAULT_THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    size: Size,
    reference: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--threads N] [--size bench|smoke] [--reference FILE]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::ReproTenth,
        seed: workload::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        threads: DEFAULT_THREADS.min(sys::available_parallelism()),
        size: Size::Bench,
        reference: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(v).unwrap_or_else(|| usage(&format!("unknown workload {v:?}"))),
                );
            }
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a non-negative number"))
            }
            "--trace" => {
                args.trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--threads" => {
                args.threads = value()
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--threads needs a positive integer"))
            }
            "--size" => {
                let v = value();
                args.size = Size::parse(v).unwrap_or_else(|| usage(&format!("unknown size {v:?}")));
            }
            "--reference" => args.reference = Some(PathBuf::from(value())),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let cores = sys::available_parallelism();
    if args.threads > cores {
        usage(&format!(
            "--threads {} exceeds available_parallelism ({cores})",
            args.threads
        ));
    }
    args
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run hands to the printer.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    /// Calls whose racy values differ from the first call's.
    racy: Vec<String>,
    metrics: Vec<Metric>,
    /// Extra named values shown in the human-readable lines only.
    notes: Vec<Metric>,
    /// The first timed call's outputs per input case, shown as reference
    /// lines.
    outputs: Vec<(String, Output)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push(Metric { name, value, unit });
    }

    /// Checks one call's output against the reference and against
    /// `first`, an earlier output of the same call; a failure is counted
    /// and described, a racy difference only described.
    fn check(
        &mut self,
        what: &str,
        out: &Output,
        expected: Option<&[(String, u64)]>,
        first: Option<&Output>,
    ) {
        self.attempted += 1;
        if let Some(why) = workload::check(out, expected, first) {
            self.failures.push(format!("{what}: {why}"));
        }
        if let Some(first) = first {
            let names = workload::racy_differences(out, first);
            if !names.is_empty() {
                self.racy.push(format!("{what}: {}", names.join(", ")));
            }
        }
    }

    fn fail(&mut self, what: &str, why: String) {
        self.attempted += 1;
        self.failures.push(format!("{what}: {why}"));
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One timed call: wall and CPU seconds, events it handled, and the
/// share of them it dropped.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    events: f64,
    dropped_frac: f64,
}

/// Runs `f`, returning its value with the wall and CPU seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = sys::cpu_seconds();
    let started = Instant::now();
    let out = f();
    (
        out,
        started.elapsed().as_secs_f64(),
        sys::cpu_seconds() - cpu0,
    )
}

/// The untraced run: set-up, then the closed loop of timed calls.
fn measure(a: &Args, reference: &Reference) -> Outcome {
    let mut o = Outcome::default();
    let repro_cfgs: Vec<_> = (0..workload::CASES)
        .map(|k| workload::sim_config(a.seed, k, a.size, a.threads))
        .collect();
    let watch_cfgs: Vec<_> = (0..workload::CASES)
        .map(|k| workload::watch_config(a.seed, k, a.size, a.threads))
        .collect();

    // Set-up: a smoke-size call of the same product, so lazy
    // initialization, allocator growth and page faults of the first call
    // are paid before timing.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let warm = match a.workload {
            Workload::ReproTenth => {
                let mut micro = squatphi::SimConfig::micro();
                micro.threads = a.threads;
                workload::run_repro(&micro).map(drop)
            }
            _ => {
                let cfg = workload::watch_config_with(
                    a.seed,
                    0,
                    WARMUP_EVENTS,
                    watch_cfgs[0].brands(),
                    a.threads,
                );
                layers::watch_call(&cfg, None).map(drop)
            }
        };
        if let Err(e) = warm {
            o.fail("set-up", e);
            return o;
        }
        setups.push(started.elapsed().as_secs_f64());
    }

    let started = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    for n in 0u64.. {
        let k = (n % workload::CASES) as usize;
        // Only the call itself is timed; checking its output is not.
        let (call, wall_s, cpu_s) = match a.workload {
            Workload::ReproTenth => {
                let (r, wall, cpu) = timed(|| workload::run_repro(&repro_cfgs[k]));
                let r = r.map(|result| {
                    let events = result.scan.scanned as f64;
                    (workload::repro_output(&result), events, 0.0)
                });
                (r, wall, cpu)
            }
            _ => {
                let cfg = &watch_cfgs[k];
                let (r, wall, cpu) = timed(|| workload::run_watch(cfg, None));
                let r = r.map(|s| {
                    let c = &s.counters;
                    let dropped = c.dropped() as f64 / c.injected.max(1) as f64;
                    (workload::watch_output(&s), c.injected as f64, dropped)
                });
                (r, wall, cpu)
            }
        };
        match call {
            Ok((out, events, dropped_frac)) => {
                let case = workload::case(a.seed, k as u64);
                let what = format!("call {} (case {case})", n + 1);
                let expected = reference.expected(a.workload, a.size, &case);
                let at = o.outputs.iter().position(|(c, _)| *c == case);
                let first = at.map(|i| o.outputs[i].1.clone());
                o.check(&what, &out, expected, first.as_ref());
                if at.is_none() {
                    o.outputs.push((case, out));
                }
                samples.push(Sample {
                    wall_s,
                    cpu_s,
                    events,
                    dropped_frac,
                });
            }
            Err(e) => o.fail(&format!("call {}", n + 1), e),
        }
        let done = n + 1 >= workload::CASES && started.elapsed().as_secs_f64() >= a.seconds;
        if done || !o.failures.is_empty() {
            break;
        }
    }
    let col = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    o.metric("setup_s", median(&setups), "s");
    o.metric("run_s", col(|s| s.wall_s), "s");
    o.metric("events_per_s", col(|s| s.events / s.wall_s), "1/s");
    o.metric("cpu_s", col(|s| s.cpu_s), "s");
    o.metric("peak_rss_mb", sys::peak_rss_mb(), "MiB");
    o.note("timed_calls", samples.len() as f64, "count");
    o.note("racy_calls", o.racy.len() as f64, "count");
    o.note(
        "fail_frac",
        o.failures.len() as f64 / o.attempted.max(1) as f64,
        "1",
    );
    if a.workload != Workload::ReproTenth {
        o.note("dropped_frac", col(|s| s.dropped_frac), "1");
    }
    o
}

fn ratio(num: f64, den: f64) -> f64 {
    num / den.max(f64::MIN_POSITIVE)
}

/// The traced run: every layer of both products on this seed. The
/// per-layer metric set is one list, so it is measured whole whichever
/// workload is named; `trace.overhead_frac` compares the named
/// workload's traced call with its untraced one.
fn traced(a: &Args, reference: &Reference, work: &Path) -> Outcome {
    let mut o = Outcome::default();
    let mut t = Tracer::new(format!("{}/seed-{}", a.workload.name(), a.seed));
    match trace_all(a, reference, work, &mut t, &mut o) {
        Ok(()) => {}
        Err(e) => o.fail("traced run", e),
    }
    t.write_out();
    o
}

fn trace_all(
    a: &Args,
    reference: &Reference,
    work: &Path,
    t: &mut Tracer,
    o: &mut Outcome,
) -> Result<(), String> {
    let expect = |w: Workload| reference.expected(w, a.size, &workload::case(a.seed, 0));

    // repro: the untraced call, then the layered replay.
    let cfg = workload::sim_config(a.seed, 0, a.size, a.threads);
    let started = Instant::now();
    let run = workload::run_repro(&cfg)?;
    let repro_untraced = started.elapsed().as_secs_f64();
    o.check(
        "repro try_run",
        &workload::repro_output(&run),
        expect(Workload::ReproTenth),
        None,
    );

    let started = Instant::now();
    let replay = t.span("run.repro", |t| layers::replay_repro(&cfg, t))?;
    let repro_traced = started.elapsed().as_secs_f64();
    let differs = layers::unfaithful(&run, &replay.result);
    o.attempted += 1;
    if !differs.is_empty() {
        o.failures.push(format!(
            "layered replay differs from try_run in: {}",
            differs.join(", ")
        ));
    }

    let pages = t.span("run.page_layers", |_| {
        layers::replay_pages(&replay.pages.distinct, a.threads)
    });
    o.attempted += 1;
    if let Some(first) = pages.mismatched.first() {
        o.failures.push(format!(
            "{} of {} replayed pages differ from their artifact ({first})",
            pages.mismatched.len(),
            replay.pages.distinct.len()
        ));
    }
    let (spell_s, spell_tokens) = t.span("run.spell", |_| {
        layers::replay_spell(cfg.brands, &replay.pages.embedded, a.threads)
    });

    let r = &replay.result;
    let analysis = &run.analysis;
    let analyze_s = t.total_s("core.artifact.analyze");
    let scan_s = t.total_s("dnsdb.scan");
    for (name, span) in [
        ("stage.scan_s", "stage.scan"),
        ("stage.crawl_s", "stage.crawl"),
        ("stage.train_s", "stage.train"),
        ("stage.detect_s", "stage.detect"),
        ("stage.experiments_s", "stage.experiments"),
        ("dnsdb.synth_s", "dnsdb.synth"),
        ("squat.index_build_s", "squat.index_build"),
        ("dnsdb.scan_s", "dnsdb.scan"),
        ("web.world_build_s", "web.world_build"),
        ("crawler.crawl_s", "crawler.crawl"),
        ("core.artifact.analyze_s", "core.artifact.analyze"),
        ("core.features.embed_s", "core.features.embed"),
        ("ml.cv_nb_s", "ml.cv_nb"),
        ("ml.cv_knn_s", "ml.cv_knn"),
        ("ml.cv_rf_s", "ml.cv_rf"),
        ("ml.fit_s", "ml.fit"),
        ("ml.score_s", "ml.score"),
        ("core.snapshots.reclassify_s", "core.snapshots.reclassify"),
        ("experiments.tables_s", "experiments.tables"),
    ] {
        o.metric(name, t.total_s(span), "s");
    }
    o.metric(
        "dnsdb.scan_records_per_s",
        ratio(r.scan.scanned as f64, scan_s),
        "1/s",
    );
    o.metric(
        "crawler.success_frac",
        ratio(r.crawl_stats.web_live as f64, r.crawl_stats.total as f64),
        "1",
    );
    o.metric("core.artifact.pages", r.analysis.pages as f64, "count");
    o.metric(
        "core.artifact.cache_hit_frac",
        ratio(r.analysis.cache_hits as f64, r.analysis.pages as f64),
        "1",
    );
    o.metric(
        "core.artifact.parallel_eff",
        ratio(
            replay.pages.analyze_busy_ns as f64 / 1e9,
            analyze_s * a.threads as f64,
        ),
        "1",
    );
    o.metric("html.parse_s", pages.parse.as_secs_f64(), "s");
    o.metric("html.extract_s", pages.extract.as_secs_f64(), "s");
    o.metric("render.render_s", pages.render.as_secs_f64(), "s");
    o.metric("imghash.phash_s", pages.phash.as_secs_f64(), "s");
    o.metric("ocr.recognize_s", pages.ocr.as_secs_f64(), "s");
    o.metric("nlp.spell_s", spell_s, "s");
    o.metric("nlp.spell_tokens", spell_tokens as f64, "count");
    // The untraced try_run's own analyzer counters, summed over workers,
    // next to the replayed layers above.
    for (name, nanos) in [
        ("analysis.parse_s", analysis.parse_nanos),
        ("analysis.extract_s", analysis.extract_nanos),
        ("analysis.render_s", analysis.render_nanos),
        ("analysis.hash_s", analysis.hash_nanos),
        ("analysis.ocr_s", analysis.ocr_nanos),
        ("analysis.embed_s", analysis.embed_nanos),
    ] {
        o.metric(name, nanos as f64 / 1e9, "s");
    }
    drop(replay);
    drop(run);

    // watch: an untraced call, then the same call inside a span, a
    // one-thread call, a call with a fresh checkpoint dir, and the
    // stream layers replayed.
    let cfg = workload::watch_config(a.seed, 0, a.size, a.threads);
    let one = workload::watch_config_with(a.seed, 0, cfg.events(), cfg.brands(), 1);
    let dir = work.join("ckpt");
    let volatile_untraced = layers::watch_call(&cfg, None)?;
    let volatile = t.span("run.watch_volatile", |t| {
        t.span("core.stream.watch", |_| layers::watch_call(&cfg, None))
    })?;
    let single = t.span("run.watch_one_thread", |_| layers::watch_call(&one, None))?;
    let durable = t.span("run.watch_durable", |_| {
        layers::watch_call(&cfg, Some(&dir))
    })?;
    let (events_s, classify_s) = t.span("run.stream_layers", |t| layers::replay_stream(&cfg, t));
    let first = workload::watch_output(&volatile_untraced.summary);
    for (what, call) in [
        ("watch", &volatile_untraced),
        ("traced watch", &volatile),
        ("traced watch one thread", &single),
        ("traced watch durable", &durable),
    ] {
        o.check(
            what,
            &workload::watch_output(&call.summary),
            expect(Workload::WatchVolatile),
            Some(&first),
        );
    }
    let s = &volatile.summary;
    let snap = s.telemetry().snapshot();
    let transport = |leaf: &str| {
        snap.get_u64(&format!("watch.transport.{leaf}"))
            .unwrap_or(0) as f64
    };
    o.metric("core.stream.watch_s", volatile.wall_s, "s");
    o.metric(
        "core.stream.thread_speedup",
        ratio(single.wall_s, volatile.wall_s),
        "x",
    );
    o.metric("dnsdb.events_s", events_s, "s");
    o.metric("squat.classify_s", classify_s, "s");
    o.metric(
        "core.stream.detect_stalls",
        s.counters.detect_stalls as f64,
        "count",
    );
    o.metric(
        "core.stream.dropped_frac",
        ratio(s.counters.dropped() as f64, s.counters.injected as f64),
        "1",
    );
    o.metric("crawler.attempts", transport("attempts"), "count");
    o.metric("crawler.retries", transport("retries"), "count");
    o.metric("crawler.breaker_trips", transport("breaker_trips"), "count");
    o.metric(
        "durability.writes",
        durable.summary.durability.writes as f64,
        "count",
    );
    o.metric(
        "durability.bytes_written",
        durable.bytes_written as f64,
        "bytes",
    );
    o.metric(
        "durability.overhead_s",
        durable.wall_s - volatile.wall_s,
        "s",
    );

    let (traced_s, untraced_s) = match a.workload {
        Workload::ReproTenth => (repro_traced, repro_untraced),
        Workload::WatchVolatile => (volatile.wall_s, volatile_untraced.wall_s),
    };
    o.metric(
        "trace.overhead_frac",
        ratio(traced_s, untraced_s) - 1.0,
        "1",
    );
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let a = parse_args();
    let reference_text = match &a.reference {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("reading {}: {e}", path.display()))),
        None => REFERENCE.to_string(),
    };
    let reference = Reference::parse(&reference_text).unwrap_or_else(|e| usage(&e));
    let work = std::env::current_dir()
        .unwrap_or_else(|e| usage(&format!("no working directory: {e}")))
        .join(".perfbench-work")
        .join(format!("{}-{}", a.workload.name(), std::process::id()));

    println!(
        "perfbench provenance: available_parallelism={} rustc=\"{}\" git_revision={} workload={} seed={} threads={} size={} trace={}",
        sys::available_parallelism(),
        sys::rustc_version(),
        sys::git_revision(),
        a.workload.name(),
        a.seed,
        a.threads,
        a.size.name(),
        u8::from(a.trace),
    );
    let outcome = if a.trace {
        traced(&a, &reference, &work)
    } else {
        measure(&a, &reference)
    };
    // Best effort: the directory only ever holds checkpoint files.
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent);
    }

    for f in &outcome.failures {
        println!("perfbench FAILED {f}");
    }
    for r in &outcome.racy {
        println!("perfbench RACY {r} differs from the first call (a known scheduling race, not counted as a failure)");
    }
    for (case, out) in &outcome.outputs {
        let racy: Vec<String> = out
            .racy
            .iter()
            .map(|(n, v)| format!("{n}={v:#x}"))
            .collect();
        println!(
            "perfbench outputs: {}  (racy: {})",
            workload::reference_line(a.workload, a.size, case, out),
            racy.join(" ")
        );
    }
    for m in outcome.metrics.iter().chain(&outcome.notes) {
        println!(
            "perfbench metric {:<32} {:>20} {}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    let failed = outcome.failures.len() as u64;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        outcome.attempted.max(1),
        metrics.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
