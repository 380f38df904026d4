//! The traced run: a layered replay of both products.
//!
//! For `repro`, the benchmark's own code calls each layer's public
//! function in the order `SquatPhi::try_run` does, with a span around
//! every call, and assembles the same `PipelineResult` from the parts.
//! The replay is faithful when that result equals the one `try_run`
//! returned. For `watch`, spans go around `try_watch` and around the
//! event generator and the squat classifier replayed over the same
//! stream.

use crate::sys;
use crate::trace::Tracer;
use crate::workload::{run_experiments, run_watch};
use squatphi::train::{fit_final_model, EvalReport, ModelEval};
use squatphi::{
    AnalysisSnapshot, Detection, FeatureExtractor, PageArtifact, PipelineResult, SimConfig,
    StageTimings, SupervisionReport, WatchConfig, WatchSummary,
};
use squatphi_crawler::{crawl_all, CrawlConfig, CrawlRecord, InProcessTransport};
use squatphi_dnsdb::{synth, try_scan_with_metrics, EventStream, StreamEvent};
use squatphi_domain::DomainName;
use squatphi_feeds::{FeedConfig, GroundTruthFeed};
use squatphi_html::{extract, js};
use squatphi_imghash::perceptual_hash;
use squatphi_ml::{
    cross_validate, Classifier, Dataset, GaussianNb, Knn, Metrics, RandomForest, RocCurve,
};
use squatphi_nlp::{remove_stopwords, tokenize, SparseVec, SpellChecker};
use squatphi_ocr::{try_recognize, OcrConfig};
use squatphi_render::{try_render_page, RenderOptions};
use squatphi_squat::{BrandRegistry, SquatDetector, SquatType};
use squatphi_web::{Cloaking, Device, SiteBehavior, WebWorld};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every page-analysis call the replay made, kept for the per-layer
/// replays that follow it.
#[derive(Default)]
pub struct PageLog {
    seen: HashSet<String>,
    /// Distinct pages with the artifact the analyzer produced for each.
    pub distinct: Vec<(String, Arc<PageArtifact>)>,
    /// The artifact behind every embedding, in call order.
    pub embedded: Vec<Arc<PageArtifact>>,
    /// Busy nanoseconds the analyzer counted (parse, extract, render,
    /// pHash, OCR) during `analyze_batch`, summed over workers.
    pub analyze_busy_ns: u64,
}

/// The layered replay's product.
pub struct Replay {
    /// The reassembled pipeline result.
    pub result: PipelineResult,
    /// The analysis calls it made.
    pub pages: PageLog,
}

fn analyze_busy(s: &AnalysisSnapshot) -> u64 {
    s.parse_nanos + s.extract_nanos + s.render_nanos + s.hash_nanos + s.ocr_nanos
}

/// Analyzes then embeds a batch of pages, as the supervised executor
/// does with no fault plan.
fn analyze_and_embed(
    t: &mut Tracer,
    extractor: &FeatureExtractor,
    htmls: &[&str],
    threads: usize,
    log: &mut PageLog,
) -> Vec<SparseVec> {
    let before = analyze_busy(&extractor.analyzer().metrics());
    let artifacts = t.span("core.artifact.analyze", |_| {
        extractor.analyze_batch(htmls, threads)
    });
    log.analyze_busy_ns += analyze_busy(&extractor.analyzer().metrics()) - before;
    for (html, a) in htmls.iter().zip(&artifacts) {
        if log.seen.insert(html.to_string()) {
            log.distinct.push((html.to_string(), a.clone()));
        }
    }
    log.embedded.extend(artifacts.iter().cloned());
    t.span("core.features.embed", |_| {
        artifacts
            .iter()
            .map(|a| extractor.extract_from_artifact(a))
            .collect()
    })
}

/// Replays `SquatPhi::try_run` layer by layer (no checkpoint dir, no
/// fault plan), then runs every experiment on the reassembled result.
pub fn replay_repro(cfg: &SimConfig, t: &mut Tracer) -> Result<Replay, String> {
    let threads = cfg.threads;
    let registry = BrandRegistry::with_size(cfg.brands);
    let mut log = PageLog::default();

    let (scan, scan_metrics) = t
        .span("stage.scan", |t| {
            let (snapshot, _) =
                t.span("dnsdb.synth", |_| synth::generate(&cfg.snapshot, &registry));
            let detector = t.span("squat.index_build", |_| SquatDetector::new(&registry));
            t.span("dnsdb.scan", |_| {
                try_scan_with_metrics(&snapshot, &registry, &detector, threads)
            })
        })
        .map_err(|e| format!("scan shard {}: {}", e.shard, e.cause))?;

    let (world, crawl, crawl_stats) = t.span("stage.crawl", |t| {
        let squats: Vec<(String, usize, SquatType, Ipv4Addr)> = scan
            .matches
            .iter()
            .map(|m| (m.domain.registrable(), m.brand, m.squat_type, m.ip))
            .collect();
        let world = Arc::new(t.span("web.world_build", |_| {
            WebWorld::build(&squats, &registry, &cfg.world)
        }));
        let jobs: Vec<(String, usize, SquatType)> = squats
            .iter()
            .map(|(d, b, ty, _)| (d.clone(), *b, *ty))
            .collect();
        let crawl_cfg = CrawlConfig::builder()
            .workers(threads.max(1))
            .snapshot(0)
            .build()
            .map_err(|e| e.to_string())?;
        let transport = InProcessTransport::new(world.clone());
        let (records, stats) = t.span("crawler.crawl", |_| {
            crawl_all(&jobs, &registry, &transport, &crawl_cfg)
        });
        Ok::<_, String>((world, records, stats))
    })?;

    let feed = GroundTruthFeed::generate(
        &registry,
        &FeedConfig {
            total_urls: cfg.feed.total_urls,
            seed: cfg.feed.seed,
        },
    );
    let extractor = if cfg.analysis_cache {
        FeatureExtractor::new(&registry)
    } else {
        FeatureExtractor::uncached(&registry)
    };
    let (train_split, eval, model) = t.span("stage.train", |t| {
        let (dataset, split) = training_set(
            t, &extractor, &registry, &feed, &crawl, &world, cfg, &mut log,
        );
        if split.0 == 0 || split.1 == 0 {
            return Err(format!("degenerate training split {split:?}"));
        }
        let mut models = Vec::new();
        let mut push = |name: &'static str, scores: Vec<(f64, bool)>| {
            models.push(ModelEval {
                name,
                metrics: Metrics::from_scores(&scores, 0.5),
                roc: RocCurve::from_scores(&scores),
            })
        };
        let (folds, seed) = (cfg.cv_folds, cfg.seed);
        push(
            "NaiveBayes",
            t.span("ml.cv_nb", |_| {
                cross_validate(GaussianNb::new, &dataset, folds, seed)
            }),
        );
        push(
            "KNN",
            t.span("ml.cv_knn", |_| {
                cross_validate(|| Knn::new(5), &dataset, folds, seed)
            }),
        );
        push(
            "RandomForest",
            t.span("ml.cv_rf", |_| {
                cross_validate(
                    || RandomForest::new(squatphi::train::forest_config(seed)),
                    &dataset,
                    folds,
                    seed,
                )
            }),
        );
        let eval = EvalReport {
            models,
            train_shape: (dataset.positives(), dataset.len() - dataset.positives()),
        };
        let model = t.span("ml.fit", |_| fit_final_model(&dataset, seed));
        Ok((split, eval, model))
    })?;

    let (web_detections, mobile_detections) = t.span("stage.detect", |t| {
        let mut detect = |device| {
            detect_device(
                t, &extractor, &model, &crawl, &world, device, threads, &mut log,
            )
        };
        (detect(Device::Web), detect(Device::Mobile))
    });

    let degraded = log.embedded.iter().filter(|a| a.degraded).count() as u64;
    let timings = StageTimings {
        scan: Duration::from_secs_f64(t.total_s("stage.scan")),
        crawl: Duration::from_secs_f64(t.total_s("stage.crawl")),
        train: Duration::from_secs_f64(t.total_s("stage.train")),
        detect: Duration::from_secs_f64(t.total_s("stage.detect")),
    };
    let result = PipelineResult {
        analysis: extractor.analyzer().metrics(),
        registry,
        scan,
        scan_metrics,
        timings,
        world,
        crawl,
        crawl_stats,
        feed,
        train_split,
        eval,
        model,
        extractor,
        web_detections,
        mobile_detections,
        supervision: SupervisionReport {
            degraded,
            degraded_natural: degraded,
            ..SupervisionReport::default()
        },
        durability: Default::default(),
        phash_index: cfg.phash_index,
    };
    t.span("stage.experiments", |t| {
        run_experiments(&result, |id, run| {
            let layer = if id == "fig17" {
                "core.snapshots.reclassify"
            } else {
                "experiments.tables"
            };
            t.span(layer, |_| run())
        })
    })?;
    Ok(Replay { result, pages: log })
}

/// The training set as `try_run` assembles it: the top-8 brands' feed
/// pages, then up to `sampled_benign` live benign squatting pages.
#[allow(clippy::too_many_arguments)]
fn training_set(
    t: &mut Tracer,
    extractor: &FeatureExtractor,
    registry: &BrandRegistry,
    feed: &GroundTruthFeed,
    crawl: &[CrawlRecord],
    world: &WebWorld,
    cfg: &SimConfig,
    log: &mut PageLog,
) -> (Dataset, (usize, usize)) {
    let mut htmls: Vec<&str> = Vec::new();
    let mut labels: Vec<bool> = Vec::new();
    for e in feed.top8(registry) {
        htmls.push(&e.html);
        labels.push(e.still_phishing);
    }
    let mut sampled = 0usize;
    for r in crawl {
        if sampled >= cfg.sampled_benign {
            break;
        }
        let Some(web) = r.web.as_ref().filter(|w| !w.html.is_empty()) else {
            continue;
        };
        let is_phishing = world
            .site(&r.domain)
            .map(|s| s.behavior.is_phishing())
            .unwrap_or(false);
        if !is_phishing {
            htmls.push(&web.html);
            labels.push(false);
            sampled += 1;
        }
    }
    let vectors = analyze_and_embed(t, extractor, &htmls, cfg.threads, log);
    let mut dataset = Dataset::new(extractor.dim());
    let mut split = (0usize, 0usize);
    for (v, label) in vectors.into_iter().zip(labels) {
        if label {
            split.0 += 1;
        } else {
            split.1 += 1;
        }
        dataset.push(v, label);
    }
    (dataset, split)
}

/// Classifies every page captured for `device` and simulates manual
/// verification against the world's ground truth, as `try_run` does.
#[allow(clippy::too_many_arguments)]
fn detect_device(
    t: &mut Tracer,
    extractor: &FeatureExtractor,
    model: &RandomForest,
    crawl: &[CrawlRecord],
    world: &WebWorld,
    device: Device,
    threads: usize,
    log: &mut PageLog,
) -> Vec<Detection> {
    let candidates: Vec<(&CrawlRecord, &str)> = crawl
        .iter()
        .filter_map(|r| {
            let cap = match device {
                Device::Web => r.web.as_ref(),
                Device::Mobile => r.mobile.as_ref(),
            }?;
            (!cap.html.is_empty()).then_some((r, cap.html.as_str()))
        })
        .collect();
    let htmls: Vec<&str> = candidates.iter().map(|(_, h)| *h).collect();
    let vectors = analyze_and_embed(t, extractor, &htmls, threads, log);
    let scores: Vec<f64> = t.span("ml.score", |_| {
        vectors.iter().map(|v| model.score(v)).collect()
    });
    candidates
        .iter()
        .zip(scores)
        .filter(|(_, score)| *score >= 0.5)
        .map(|((record, _), score)| {
            let confirmed = world
                .site(&record.domain)
                .map(|s| match &s.behavior {
                    SiteBehavior::Phishing(p) => {
                        p.lifetime.phishing_live(0)
                            && !matches!(
                                (p.cloaking, device),
                                (Cloaking::MobileOnly, Device::Web)
                                    | (Cloaking::WebOnly, Device::Mobile)
                            )
                    }
                    _ => false,
                })
                .unwrap_or(false);
            Detection {
                domain: record.domain.clone(),
                brand: record.brand,
                squat_type: record.squat_type,
                device,
                score,
                confirmed,
            }
        })
        .collect()
}

/// Where the replay differs from what `try_run` returned; empty when it
/// is faithful.
pub fn unfaithful(a: &PipelineResult, b: &PipelineResult) -> Vec<String> {
    let mut out = Vec::new();
    if a.model.encode() != b.model.encode() {
        out.push("deployed model encoding".to_string());
    }
    let bits = |e: &EvalReport| -> Vec<u64> {
        e.models
            .iter()
            .flat_map(|m| {
                let x = &m.metrics;
                [x.fpr, x.fnr, x.auc, x.accuracy]
                    .into_iter()
                    .chain(m.roc.points.iter().flat_map(|(p, q)| [*p, *q]))
            })
            .map(f64::to_bits)
            .collect()
    };
    if bits(&a.eval) != bits(&b.eval) {
        out.push("evaluation metrics (f64 bits)".to_string());
    }
    let key = |d: &Detection| {
        (
            d.domain.clone(),
            d.brand,
            d.squat_type,
            d.score.to_bits(),
            d.confirmed,
        )
    };
    for (name, x, y) in [
        ("web detections", &a.web_detections, &b.web_detections),
        (
            "mobile detections",
            &a.mobile_detections,
            &b.mobile_detections,
        ),
    ] {
        if !x.iter().map(key).eq(y.iter().map(key)) {
            out.push(name.to_string());
        }
    }
    if a.fingerprint() != b.fingerprint() {
        out.push("PipelineResult::fingerprint".to_string());
    }
    if crate::workload::summary_digest(a) != crate::workload::summary_digest(b) {
        out.push("stripped RunSummary JSON".to_string());
    }
    out
}

/// Busy seconds per page-analysis layer, summed over workers, from
/// calling each crate's public function over the distinct pages.
#[derive(Default)]
pub struct PageLayers {
    /// `html::parse`.
    pub parse: Duration,
    /// `html::extract` text and forms plus `html::js` indicators.
    pub extract: Duration,
    /// `render::try_render_page`.
    pub render: Duration,
    /// `imghash::perceptual_hash`.
    pub phash: Duration,
    /// `ocr::try_recognize` plus tokenization.
    pub ocr: Duration,
    /// Pages whose replayed pHash or OCR tokens differ from the
    /// artifact's.
    pub mismatched: Vec<String>,
}

impl PageLayers {
    fn add(&mut self, other: PageLayers) {
        self.parse += other.parse;
        self.extract += other.extract;
        self.render += other.render;
        self.phash += other.phash;
        self.ocr += other.ocr;
        self.mismatched.extend(other.mismatched);
    }
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// Replays the analyzer's layers over every distinct page on `threads`
/// workers and checks the pHash and OCR tokens against each artifact.
pub fn replay_pages(pages: &[(String, Arc<PageArtifact>)], threads: usize) -> PageLayers {
    let render_opts = RenderOptions::default();
    let ocr_cfg = OcrConfig::default();
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut acc = PageLayers::default();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some((html, artifact)) = pages.get(i) else {
                return acc;
            };
            let doc = timed(&mut acc.parse, || squatphi_html::parse(html));
            timed(&mut acc.extract, || {
                black_box((
                    extract::extract_text(&doc),
                    extract::extract_forms(&doc),
                    js::scan_document(&doc),
                ))
            });
            if artifact.degraded {
                // The analyzer's own visual derivation failed on this
                // page; there is nothing to compare against.
                continue;
            }
            let Ok(shot) = timed(&mut acc.render, || try_render_page(&doc, &render_opts)) else {
                acc.mismatched.push(format!("page {i}: render failed"));
                continue;
            };
            let hash = timed(&mut acc.phash, || perceptual_hash(&shot));
            let tokens = timed(&mut acc.ocr, || {
                try_recognize(&shot, &ocr_cfg).map(|r| remove_stopwords(tokenize(&r.joined())))
            });
            if hash != artifact.image_hash || tokens.as_ref().ok() != Some(&artifact.ocr_tokens) {
                acc.mismatched
                    .push(format!("page {i}: pHash or OCR tokens differ"));
            }
        }
    };
    let mut total = PageLayers::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(work)).collect();
        for w in workers {
            total.add(w.join().expect("page replay worker panicked"));
        }
    });
    total
}

/// Spell-corrects the OCR tokens behind every embedding with a checker
/// built like the extractor's, split over `threads` workers; returns
/// (busy seconds summed over workers, tokens corrected).
pub fn replay_spell(
    registry_size: usize,
    embedded: &[Arc<PageArtifact>],
    threads: usize,
) -> (f64, u64) {
    let registry = BrandRegistry::with_size(registry_size);
    let speller = SpellChecker::new(registry.brands().iter().map(|b| b.label.clone()));
    let chunk = embedded.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = embedded
            .chunks(chunk)
            .map(|part| {
                let speller = &speller;
                s.spawn(move || {
                    let started = Instant::now();
                    let mut tokens = 0u64;
                    for a in part {
                        tokens += a.ocr_tokens.len() as u64;
                        black_box(speller.correct_all(&a.ocr_tokens));
                    }
                    (started.elapsed().as_secs_f64(), tokens)
                })
            })
            .collect();
        workers.into_iter().fold((0.0, 0), |(busy, tokens), w| {
            let (b, t) = w.join().expect("spell replay worker panicked");
            (busy + b, tokens + t)
        })
    })
}

/// One `try_watch` call with its wall time and the bytes it wrote.
pub struct WatchCall {
    /// The run summary.
    pub summary: WatchSummary,
    /// Wall seconds of the call.
    pub wall_s: f64,
    /// Bytes passed to `write` during the call.
    pub bytes_written: u64,
}

/// Calls `try_watch` once, in a fresh checkpoint directory when `dir`
/// is given.
pub fn watch_call(cfg: &WatchConfig, dir: Option<&Path>) -> Result<WatchCall, String> {
    if let Some(dir) = dir {
        fresh_dir(dir)?;
    }
    let wrote = sys::bytes_written();
    let started = Instant::now();
    let summary = run_watch(cfg, dir)?;
    let wall_s = started.elapsed().as_secs_f64();
    Ok(WatchCall {
        summary,
        wall_s,
        bytes_written: sys::bytes_written() - wrote,
    })
}

/// Empties (or creates) a checkpoint directory.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Seconds to generate every event of the stream, and to classify every
/// registration among them, through the public `EventStream` and
/// `SquatDetector` the daemon uses.
pub fn replay_stream(cfg: &WatchConfig, t: &mut Tracer) -> (f64, f64) {
    let registry = BrandRegistry::with_size(cfg.brands());
    let stream = t.span("watch.stream_build", |_| {
        EventStream::new(cfg.stream(), &registry)
    });
    let domains: Vec<String> = t.span("dnsdb.events", |_| {
        (0..cfg.events())
            .filter_map(|i| match stream.event(i).event {
                StreamEvent::Registration { domain, .. } => Some(domain),
                _ => None,
            })
            .collect()
    });
    let detector = t.span("watch.detector_build", |_| SquatDetector::new(&registry));
    t.span("squat.classify", |_| {
        for d in &domains {
            black_box(
                DomainName::parse(d)
                    .ok()
                    .and_then(|p| detector.classify(&p)),
            );
        }
    });
    (t.total_s("dnsdb.events"), t.total_s("squat.classify"))
}
