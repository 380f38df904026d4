//! Durable state: crash-safe persistence of the pipeline's scan/crawl/train
//! outputs and of the watch daemon's watermark, so `--resume` replays
//! completed work from disk with byte-identical final output.
//!
//! Every durable state goes through one [`CheckpointStore`]: a thin
//! name-keyed layer over [`squatphi_durability::DurableStore`], which owns
//! atomicity, checksums, generations (`<name>.g<N>.ckpt`, latest two kept)
//! and damage classification. The store is bound to a config hash — for the
//! pipeline a seeded content hash over the canonical [`SimConfig`] *and* the
//! fault plan (worker threads, the analysis-cache toggle and the *disk*-fault
//! plan are excluded: all output-neutral), for the watch daemon its own
//! `watch_config_hash` — so a checkpoint written under another config
//! classifies as **stale** and is silently recomputed (surfaced in the
//! supervision report's `invalidated_checkpoints`); resuming under a changed
//! config can never splice incompatible outputs together.
//!
//! Damage is classified, never papered over: a corrupt or torn newest
//! generation falls back to the previous one ([`Loaded::Recovered`],
//! surfaced in the supervision report), and a store whose every
//! generation is damaged is a structured
//! [`CheckpointError::Unrecoverable`] — state that was durably written
//! and then lost must not silently recompute.
//!
//! Bodies are single-line JSON written and read through the workspace's one
//! codec, [`squatphi_telemetry::Json`]; each state type has one codec used
//! in both directions ([`SCAN`], [`CRAWL`], [`TRAIN`] here, the watermark in
//! [`crate::stream`]). Floats round-trip losslessly as `f64::to_bits`
//! integers, which is what makes resumed runs *byte-identical* rather than
//! merely close.
//!
//! The world, feed and feature extractor are deliberately **not**
//! checkpointed: they rebuild deterministically from the config, and the
//! crawl/train checkpoints capture everything downstream stages consume.

use crate::artifact::content_key;
use crate::config::SimConfig;
use crate::fault::PipelineFaultPlan;
use crate::supervise::PipelineStage;
use crate::train::{EvalReport, ModelEval};
use squatphi_crawler::{CrawlRecord, CrawlStats, PageCapture, RedirectClass, TransportSnapshot};
use squatphi_dnsdb::{ScanMetrics, ScanOutcome, SquatRecord, WorkerMetrics};
use squatphi_domain::DomainName;
use squatphi_durability::{
    render_classes, DiskFaultPlan, DurabilityStats, DurableStore, FaultVfs, LoadOutcome, RealVfs,
    StoreError, Vfs,
};
use squatphi_ml::{Metrics, RandomForest, RocCurve};
use squatphi_squat::SquatType;
use squatphi_telemetry::Json;
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Pipeline checkpoint format version; bumped on any codec change so old
/// files invalidate instead of mis-decoding.
const VERSION: u64 = 2;

/// Seed of the config-hash content key.
const HASH_SEED: u64 = 0xc4ec_4b01;

/// Checkpoint persistence failure. Stale checkpoints are recomputed, and
/// damage with a surviving older generation is recovered — but a store
/// whose every generation is damaged is a structured error, never a
/// silent recompute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the checkpoint directory failed.
    Io {
        /// Offending path.
        path: String,
        /// Stringified OS error.
        message: String,
    },
    /// Every on-disk generation of a checkpoint is damaged: state that
    /// was durably written has been lost, and resuming from it would
    /// silently recompute over the damage.
    Unrecoverable {
        /// The checkpoint name (stage name or `watch`).
        name: String,
        /// The checkpoint directory.
        dir: String,
        /// Per-generation damage classification, newest first
        /// (e.g. `g4 torn, g3 corrupt_body`).
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, message } => write!(f, "io error on {path}: {message}"),
            CheckpointError::Unrecoverable { name, dir, detail } => write!(
                f,
                "checkpoint {name:?} in {dir} is unrecoverable ({detail}); \
                 delete its generation files or rerun without --resume to recompute"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Outcome of a checkpoint read.
pub(crate) enum Loaded<T> {
    /// No checkpoint on disk (or `--resume` not requested).
    Missing,
    /// A checkpoint exists but was written under a different config or
    /// format version; the stage recomputes and overwrites it.
    Stale,
    /// The newest generation verified and decoded.
    Value(T),
    /// The newest generation(s) were damaged; an older one verified. The
    /// string is the skipped-damage classification, newest first.
    Recovered(T, String),
}

fn store_err(e: StoreError) -> CheckpointError {
    match e {
        StoreError::Io { path, message } => CheckpointError::Io { path, message },
    }
}

/// Canonical config hash binding pipeline checkpoints to the run that
/// wrote them.
pub(crate) fn config_hash(config: &SimConfig, faults: &PipelineFaultPlan) -> u64 {
    let canon = format!(
        "v{VERSION}|snap:{},{},{},{}|world:{},{},{},{},{},{},{}|feed:{},{}|brands:{}|benign:{}|cv:{}|seed:{}|faults:{}",
        config.snapshot.benign_records,
        config.snapshot.squatting_records,
        config.snapshot.subdomain_fraction.to_bits(),
        config.snapshot.seed,
        config.world.live_fraction.to_bits(),
        config.world.redirect_original.to_bits(),
        config.world.redirect_market.to_bits(),
        config.world.redirect_other.to_bits(),
        config.world.phishing_domains,
        config.world.confusing_fraction.to_bits(),
        config.world.seed,
        config.feed.total_urls,
        config.feed.seed,
        config.brands,
        config.sampled_benign,
        config.cv_folds,
        config.seed,
        faults.canonical(),
    );
    content_key(HASH_SEED, canon.as_bytes())
}

/// One checkpoint directory bound to a config hash: the pipeline stages
/// and the watch watermark both persist through it. The durable store
/// owns atomicity, checksums, generations and damage classification;
/// this type owns the JSON body and maps load outcomes onto [`Loaded`].
pub(crate) struct CheckpointStore {
    store: DurableStore,
    hash: u64,
}

impl CheckpointStore {
    /// Opens `dir` bound to `hash`, on the real filesystem or — when a
    /// disk-fault plan is active — the same wrapped in a seeded
    /// [`FaultVfs`].
    pub(crate) fn open(
        dir: &Path,
        hash: u64,
        disk_faults: &DiskFaultPlan,
    ) -> Result<Self, CheckpointError> {
        let vfs: Arc<dyn Vfs> = if disk_faults.is_none() {
            Arc::new(RealVfs)
        } else {
            Arc::new(FaultVfs::new(Arc::new(RealVfs), *disk_faults))
        };
        let store = DurableStore::open(dir, hash, vfs).map_err(store_err)?;
        Ok(CheckpointStore { store, hash })
    }

    /// The durable-state ledger for this checkpoint directory.
    pub(crate) fn stats(&self) -> DurabilityStats {
        self.store.stats()
    }

    /// A body object holding the informational header. Freshness is
    /// enforced by the durable store's own config binding (the config
    /// hash doubles as the store config, and the format version is folded
    /// into it), so these fields exist for humans inspecting a
    /// checkpoint, not for validation.
    pub(crate) fn header(&self, version: u64) -> Json {
        let mut body = Json::obj();
        body.push("version", Json::U64(version))
            .push("config_hash", Json::U64(self.hash));
        body
    }

    /// Durably commits `body` as the next generation of `name`.
    pub(crate) fn save(&self, name: &str, body: &Json) -> Result<(), CheckpointError> {
        self.store
            .save(name, &body.render_compact())
            .map(|_generation| ())
            .map_err(store_err)
    }

    /// Loads the newest verifiable generation of `name`, decoding its
    /// body with `decode` (parse or shape failures classify as corrupt
    /// and fall back to the previous generation).
    pub(crate) fn load<T>(
        &self,
        name: &str,
        decode: impl Fn(&Json) -> Option<T>,
    ) -> Result<Loaded<T>, CheckpointError> {
        let outcome = self
            .store
            .load_with(name, |body| Json::parse(body).ok().and_then(|v| decode(&v)))
            .map_err(store_err)?;
        Ok(match outcome {
            LoadOutcome::Missing => Loaded::Missing,
            LoadOutcome::Stale { .. } => Loaded::Stale,
            LoadOutcome::Valid(v) => Loaded::Value(v),
            LoadOutcome::Recovered { value, skipped, .. } => {
                Loaded::Recovered(value, render_classes(&skipped))
            }
            LoadOutcome::Unrecoverable { classes } => {
                return Err(CheckpointError::Unrecoverable {
                    name: name.to_string(),
                    dir: self.store.dir().display().to_string(),
                    detail: render_classes(&classes),
                })
            }
        })
    }

    /// Checkpoints one pipeline stage's output under the stage's name.
    pub(crate) fn save_stage<T>(
        &self,
        codec: &StageCodec<T>,
        value: &T,
    ) -> Result<(), CheckpointError> {
        let name = codec.stage.name();
        let mut body = self.header(VERSION);
        body.push("stage", text(name));
        (codec.encode)(value, &mut body);
        self.save(name, &body)
    }

    /// Loads one pipeline stage's checkpointed output.
    pub(crate) fn load_stage<T>(
        &self,
        codec: &StageCodec<T>,
    ) -> Result<Loaded<T>, CheckpointError> {
        self.load(codec.stage.name(), codec.decode)
    }
}

/// How one pipeline stage's output is written into (after the header)
/// and read back from its checkpoint body.
pub(crate) struct StageCodec<T> {
    pub(crate) stage: PipelineStage,
    encode: fn(&T, &mut Json),
    decode: fn(&Json) -> Option<T>,
}

/// Scan stage output.
pub(crate) type ScanState = (ScanOutcome, ScanMetrics);
/// Crawl stage output: records, stats and the number of records the
/// fault plan truncated (replayed into the supervisor on resume).
pub(crate) type CrawlState = (Vec<CrawlRecord>, CrawlStats, u64);
/// Train stage output: the (phishing, benign) split, the evaluation and
/// the deployed model.
pub(crate) type TrainState = ((usize, usize), EvalReport, RandomForest);

pub(crate) const SCAN: StageCodec<ScanState> = StageCodec {
    stage: PipelineStage::Scan,
    encode: encode_scan,
    decode: decode_scan,
};

pub(crate) const CRAWL: StageCodec<CrawlState> = StageCodec {
    stage: PipelineStage::Crawl,
    encode: encode_crawl,
    decode: decode_crawl,
};

pub(crate) const TRAIN: StageCodec<TrainState> = StageCodec {
    stage: PipelineStage::Train,
    encode: encode_train,
    decode: decode_train,
};

// ---------------------------------------------------------------------------
// Shared leaf codecs (decode failures → None → the generation is corrupt)
// ---------------------------------------------------------------------------

pub(crate) fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn usizes(xs: &[usize]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::U64(x as u64)).collect())
}

fn decode_usizes(v: &Json) -> Option<Vec<usize>> {
    v.as_arr()?.iter().map(Json::as_usize).collect()
}

fn u64s(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::U64(x)).collect())
}

fn decode_u64x4(v: &Json) -> Option<[u64; 4]> {
    let xs: Vec<u64> = v
        .as_arr()?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<_>>()?;
    xs.try_into().ok()
}

pub(crate) fn ip_json(ip: Ipv4Addr) -> Json {
    Json::Arr(ip.octets().iter().map(|&o| Json::U64(o.into())).collect())
}

pub(crate) fn decode_ip(v: &Json) -> Option<Ipv4Addr> {
    let octets: Vec<u8> = v
        .as_arr()?
        .iter()
        .map(|o| u8::try_from(o.as_u64()?).ok())
        .collect::<Option<_>>()?;
    let octets: [u8; 4] = octets.try_into().ok()?;
    Some(Ipv4Addr::from(octets))
}

pub(crate) fn decode_squat_type(v: &Json) -> Option<SquatType> {
    let name = v.as_str()?;
    SquatType::ALL.into_iter().find(|t| t.name() == name)
}

fn redirect_name(r: RedirectClass) -> &'static str {
    match r {
        RedirectClass::None => "None",
        RedirectClass::Original => "Original",
        RedirectClass::Market => "Market",
        RedirectClass::Other => "Other",
    }
}

fn decode_redirect(v: &Json) -> Option<RedirectClass> {
    Some(match v.as_str()? {
        "None" => RedirectClass::None,
        "Original" => RedirectClass::Original,
        "Market" => RedirectClass::Market,
        "Other" => RedirectClass::Other,
        _ => return None,
    })
}

/// The transport-stack counters, as the crawl checkpoint and the watch
/// watermark both store them.
pub(crate) fn transport_json(t: &TransportSnapshot) -> Json {
    let mut obj = Json::obj();
    obj.push("attempts", Json::U64(t.attempts))
        .push("successes", Json::U64(t.successes))
        .push("retries", Json::U64(t.retries))
        .push("backoff_ns", Json::U64(t.backoff_ns))
        .push("errors", u64s(&t.errors))
        .push("injected", u64s(&t.injected))
        .push("breaker_trips", Json::U64(t.breaker_trips))
        .push(
            "breaker_short_circuits",
            Json::U64(t.breaker_short_circuits),
        )
        .push("fetch_deadline_hits", Json::U64(t.fetch_deadline_hits))
        .push("crawl_deadline_hits", Json::U64(t.crawl_deadline_hits));
    obj
}

pub(crate) fn decode_transport(v: &Json) -> Option<TransportSnapshot> {
    let n = |key: &str| v.get(key)?.as_u64();
    Some(TransportSnapshot {
        attempts: n("attempts")?,
        successes: n("successes")?,
        retries: n("retries")?,
        backoff_ns: n("backoff_ns")?,
        errors: decode_u64x4(v.get("errors")?)?,
        injected: decode_u64x4(v.get("injected")?)?,
        breaker_trips: n("breaker_trips")?,
        breaker_short_circuits: n("breaker_short_circuits")?,
        fetch_deadline_hits: n("fetch_deadline_hits")?,
        crawl_deadline_hits: n("crawl_deadline_hits")?,
    })
}

// ---------------------------------------------------------------------------
// Stage codecs
// ---------------------------------------------------------------------------

fn encode_scan((outcome, metrics): &ScanState, body: &mut Json) {
    let matches = outcome.matches.iter().map(|m| {
        let mut obj = Json::obj();
        obj.push("domain", text(m.domain.as_str()))
            .push("ip", ip_json(m.ip))
            .push("brand", Json::U64(m.brand as u64))
            .push("type", text(m.squat_type.name()));
        obj
    });
    let workers = metrics.workers.iter().map(|w| {
        let mut obj = Json::obj();
        obj.push("records", Json::U64(w.records as u64))
            .push("invalid", Json::U64(w.invalid as u64))
            .push("blocks", Json::U64(w.blocks as u64))
            .push("probes", Json::U64(w.probes))
            .push("deep_probes", Json::U64(w.deep_probes))
            .push("allocations_avoided", Json::U64(w.allocations_avoided))
            .push("elapsed_nanos", Json::U64(w.elapsed.as_nanos() as u64));
        obj
    });
    let mut met = Json::obj();
    met.push(
        "requested_workers",
        Json::U64(metrics.requested_workers as u64),
    )
    .push(
        "dedupe_collisions",
        Json::U64(metrics.dedupe_collisions as u64),
    )
    .push("wall_nanos", Json::U64(metrics.wall.as_nanos() as u64))
    .push("workers", Json::Arr(workers.collect()));
    body.push("scanned", Json::U64(outcome.scanned as u64))
        .push("invalid", Json::U64(outcome.invalid as u64))
        .push("by_type", usizes(&outcome.by_type))
        .push("by_brand", usizes(&outcome.by_brand))
        .push("matches", Json::Arr(matches.collect()))
        .push("metrics", met);
}

fn decode_scan(v: &Json) -> Option<ScanState> {
    let mut matches = Vec::new();
    for m in v.get("matches")?.as_arr()? {
        matches.push(SquatRecord {
            domain: DomainName::parse(m.get("domain")?.as_str()?).ok()?,
            ip: decode_ip(m.get("ip")?)?,
            brand: m.get("brand")?.as_usize()?,
            squat_type: decode_squat_type(m.get("type")?)?,
        });
    }
    let met = v.get("metrics")?;
    let mut workers = Vec::new();
    for w in met.get("workers")?.as_arr()? {
        workers.push(WorkerMetrics {
            records: w.get("records")?.as_usize()?,
            invalid: w.get("invalid")?.as_usize()?,
            blocks: w.get("blocks")?.as_usize()?,
            probes: w.get("probes")?.as_u64()?,
            deep_probes: w.get("deep_probes")?.as_u64()?,
            allocations_avoided: w.get("allocations_avoided")?.as_u64()?,
            elapsed: Duration::from_nanos(w.get("elapsed_nanos")?.as_u64()?),
        });
    }
    Some((
        ScanOutcome {
            matches,
            by_type: decode_usizes(v.get("by_type")?)?.try_into().ok()?,
            by_brand: decode_usizes(v.get("by_brand")?)?,
            scanned: v.get("scanned")?.as_usize()?,
            invalid: v.get("invalid")?.as_usize()?,
        },
        ScanMetrics {
            workers,
            requested_workers: met.get("requested_workers")?.as_usize()?,
            dedupe_collisions: met.get("dedupe_collisions")?.as_usize()?,
            wall: Duration::from_nanos(met.get("wall_nanos")?.as_u64()?),
        },
    ))
}

fn capture_json(c: &Option<PageCapture>) -> Json {
    let Some(p) = c else { return Json::Null };
    let mut obj = Json::obj();
    obj.push("final_host", text(&p.final_host))
        .push("html", text(&p.html))
        .push(
            "redirects",
            Json::Arr(p.redirects.iter().map(|r| text(r)).collect()),
        );
    obj
}

fn decode_capture(c: &Json) -> Option<Option<PageCapture>> {
    if c.is_null() {
        return Some(None);
    }
    Some(Some(PageCapture {
        final_host: c.get("final_host")?.as_str()?.to_string(),
        html: c.get("html")?.as_str()?.to_string(),
        redirects: c
            .get("redirects")?
            .as_arr()?
            .iter()
            .map(|r| r.as_str().map(str::to_string))
            .collect::<Option<_>>()?,
    }))
}

fn encode_crawl((records, stats, truncated): &CrawlState, body: &mut Json) {
    let records = records.iter().map(|r| {
        let mut obj = Json::obj();
        obj.push("domain", text(&r.domain))
            .push("brand", Json::U64(r.brand as u64))
            .push("type", text(r.squat_type.name()))
            .push("web", capture_json(&r.web))
            .push("mobile", capture_json(&r.mobile))
            .push("web_redirect", text(redirect_name(r.web_redirect)))
            .push("mobile_redirect", text(redirect_name(r.mobile_redirect)));
        obj
    });
    body.push("truncated", Json::U64(*truncated))
        .push("transport", transport_json(&stats.transport))
        .push("records", Json::Arr(records.collect()));
}

fn decode_crawl(v: &Json) -> Option<CrawlState> {
    let mut records = Vec::new();
    for r in v.get("records")?.as_arr()? {
        records.push(CrawlRecord {
            domain: r.get("domain")?.as_str()?.to_string(),
            brand: r.get("brand")?.as_usize()?,
            squat_type: decode_squat_type(r.get("type")?)?,
            web: decode_capture(r.get("web")?)?,
            mobile: decode_capture(r.get("mobile")?)?,
            web_redirect: decode_redirect(r.get("web_redirect")?)?,
            mobile_redirect: decode_redirect(r.get("mobile_redirect")?)?,
        });
    }
    // Everything except the transport counters re-aggregates from the
    // records themselves; the snapshot is the only state the crawl stage
    // owns exclusively.
    let mut stats = CrawlStats::from_records(&records);
    stats.transport = decode_transport(v.get("transport")?)?;
    Some((records, stats, v.get("truncated")?.as_u64()?))
}

fn encode_train((split, eval, model): &TrainState, body: &mut Json) {
    let bits = |x: f64| Json::U64(x.to_bits());
    let models = eval.models.iter().map(|m| {
        let roc = m
            .roc
            .points
            .iter()
            .map(|&(x, y)| Json::Arr(vec![bits(x), bits(y)]));
        let mut obj = Json::obj();
        obj.push("name", text(m.name))
            .push("fpr", bits(m.metrics.fpr))
            .push("fnr", bits(m.metrics.fnr))
            .push("auc", bits(m.metrics.auc))
            .push("accuracy", bits(m.metrics.accuracy))
            .push("roc", Json::Arr(roc.collect()));
        obj
    });
    body.push("train_split", usizes(&[split.0, split.1]))
        .push(
            "train_shape",
            usizes(&[eval.train_shape.0, eval.train_shape.1]),
        )
        .push("models", Json::Arr(models.collect()))
        .push("model", text(&model.encode()));
}

fn decode_train(v: &Json) -> Option<TrainState> {
    let pair = |key: &str| -> Option<(usize, usize)> {
        let [a, b]: [usize; 2] = decode_usizes(v.get(key)?)?.try_into().ok()?;
        Some((a, b))
    };
    let mut models = Vec::new();
    for m in v.get("models")?.as_arr()? {
        let name = match m.get("name")?.as_str()? {
            "NaiveBayes" => "NaiveBayes",
            "KNN" => "KNN",
            "RandomForest" => "RandomForest",
            _ => return None,
        };
        let bits = |x: &Json| Some(f64::from_bits(x.as_u64()?));
        let mut points = Vec::new();
        for p in m.get("roc")?.as_arr()? {
            match p.as_arr()? {
                [x, y] => points.push((bits(x)?, bits(y)?)),
                _ => return None,
            }
        }
        models.push(ModelEval {
            name,
            metrics: Metrics {
                fpr: bits(m.get("fpr")?)?,
                fnr: bits(m.get("fnr")?)?,
                auc: bits(m.get("auc")?)?,
                accuracy: bits(m.get("accuracy")?)?,
            },
            roc: RocCurve { points },
        });
    }
    let eval = EvalReport {
        models,
        train_shape: pair("train_shape")?,
    };
    let model = RandomForest::decode(v.get("model")?.as_str()?).ok()?;
    Some((pair("train_split")?, eval, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("squatphi-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path, config: &SimConfig) -> CheckpointStore {
        let hash = config_hash(config, &PipelineFaultPlan::none());
        CheckpointStore::open(dir, hash, &DiskFaultPlan::none()).unwrap()
    }

    fn store(tag: &str) -> (CheckpointStore, PathBuf) {
        let dir = tempdir(tag);
        (open(&dir, &SimConfig::tiny()), dir)
    }

    fn empty_crawl(truncated: u64) -> CrawlState {
        (Vec::new(), CrawlStats::from_records(&[]), truncated)
    }

    /// Overwrites one on-disk generation with damage, through the same
    /// durable-write path production uses.
    fn corrupt(dir: &Path, name: &str) {
        RealVfs
            .write(&dir.join(name), b"{\"version\": 1, tru")
            .unwrap();
    }

    #[test]
    fn config_hash_ignores_output_neutral_knobs() {
        let base = SimConfig::tiny();
        let faults = PipelineFaultPlan::none();
        let mut threads = base.clone();
        threads.threads = 99;
        let mut cache = base.clone();
        cache.analysis_cache = false;
        assert_eq!(config_hash(&base, &faults), config_hash(&threads, &faults));
        assert_eq!(config_hash(&base, &faults), config_hash(&cache, &faults));
        let mut seed = base.clone();
        seed.seed = 999;
        assert_ne!(config_hash(&base, &faults), config_hash(&seed, &faults));
        assert_ne!(
            config_hash(&base, &faults),
            config_hash(&base, &PipelineFaultPlan::none().analyzer_panics(5)),
        );
    }

    #[test]
    fn crawl_checkpoint_round_trips() {
        let (store, dir) = store("crawl");
        let records = vec![
            CrawlRecord {
                domain: "payp\u{00e9}l.com".into(),
                brand: 3,
                squat_type: SquatType::Homograph,
                web: Some(PageCapture {
                    final_host: "paypél.com".into(),
                    html: "<html>\"quoted\"\nline</html>".into(),
                    redirects: vec!["a.com".into(), "b.com".into()],
                }),
                mobile: None,
                web_redirect: RedirectClass::Other,
                mobile_redirect: RedirectClass::None,
            },
            CrawlRecord {
                domain: "dead.com".into(),
                brand: 0,
                squat_type: SquatType::WrongTld,
                web: None,
                mobile: None,
                web_redirect: RedirectClass::None,
                mobile_redirect: RedirectClass::None,
            },
        ];
        let mut stats = CrawlStats::from_records(&records);
        stats.transport.attempts = 42;
        stats.transport.errors = [1, 2, 3, 4];
        store
            .save_stage(&CRAWL, &(records.clone(), stats.clone(), 7))
            .unwrap();
        let Loaded::Value((r2, s2, truncated)) = store.load_stage(&CRAWL).unwrap() else {
            panic!("crawl checkpoint did not load");
        };
        assert_eq!(r2, records);
        assert_eq!(truncated, 7);
        assert_eq!(s2.transport, stats.transport);
        assert_eq!(s2.web_live, stats.web_live);
        // Atomic writes leave no temp files behind.
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bodies in the exact layout the hand-built pretty writers of format
    /// version 2 produced (one field per line, `", "` separators, nested
    /// objects inline) still decode, so checkpoint directories written
    /// before the move to compact bodies keep resuming.
    #[test]
    fn version_2_pretty_layout_bodies_decode() {
        let scan = Json::parse(
            "{\n\"version\": 2,\n\"config_hash\": 4208810851125637765,\n\"stage\": \"scan\",\n\
             \"scanned\": 112404,\n\"invalid\": 3,\n\"by_type\": [16, 24, 83, 185, 20],\n\
             \"by_brand\": [5, 0],\n\"matches\": [\n\
             {\"domain\": \"2enpoint.net\", \"ip\": [101, 46, 13, 179], \"brand\": 187, \"type\": \"Homograph\"}\n],\n\
             \"metrics\": {\"requested_workers\": 1, \"dedupe_collisions\": 2, \"wall_nanos\": 9, \"workers\": [\n\
             {\"records\": 112404, \"invalid\": 3, \"blocks\": 4, \"probes\": 5, \"deep_probes\": 6, \"allocations_avoided\": 7, \"elapsed_nanos\": 8}\n]}\n}\n",
        )
        .unwrap();
        let (outcome, metrics) = decode_scan(&scan).expect("scan body decodes");
        assert_eq!((outcome.scanned, outcome.invalid), (112404, 3));
        assert_eq!(outcome.by_type, [16, 24, 83, 185, 20]);
        assert_eq!(outcome.matches[0].ip, Ipv4Addr::new(101, 46, 13, 179));
        assert_eq!(outcome.matches[0].squat_type, SquatType::Homograph);
        assert_eq!(metrics.workers[0].allocations_avoided, 7);
        assert_eq!(metrics.wall, Duration::from_nanos(9));

        let crawl = Json::parse(
            "{\n\"version\": 2,\n\"config_hash\": 4208810851125637765,\n\"stage\": \"crawl\",\n\
             \"truncated\": 1,\n\
             \"transport\": {\"attempts\": 656, \"successes\": 650, \"retries\": 2, \"backoff_ns\": 3, \"errors\": [0, 1, 0, 0], \"injected\": [0, 0, 4, 0], \"breaker_trips\": 5, \"breaker_short_circuits\": 6, \"fetch_deadline_hits\": 7, \"crawl_deadline_hits\": 8},\n\
             \"records\": [\n\
             {\"domain\": \"oxlab.com\", \"brand\": 265, \"type\": \"Typo\", \"web\": {\"final_host\": \"oxlab.com\", \"html\": \"<p class=\\\"x\\\">\\u00e9</p>\", \"redirects\": [\"a.com\"]}, \"mobile\": null, \"web_redirect\": \"Market\", \"mobile_redirect\": \"None\"}\n]\n}\n",
        )
        .unwrap();
        let (records, stats, truncated) = decode_crawl(&crawl).expect("crawl body decodes");
        assert_eq!(truncated, 1);
        assert_eq!(stats.transport.injected, [0, 0, 4, 0]);
        assert_eq!(stats.transport.crawl_deadline_hits, 8);
        let web = records[0].web.as_ref().expect("web capture");
        assert_eq!(web.html, "<p class=\"x\">é</p>");
        assert_eq!(records[0].web_redirect, RedirectClass::Market);
        assert!(records[0].mobile.is_none());

        let train = Json::parse(
            "{\n\"version\": 2,\n\"config_hash\": 4208810851125637765,\n\"stage\": \"train\",\n\
             \"train_split\": [1734, 2259],\n\"train_shape\": [1734, 2259],\n\"models\": [\n\
             {\"name\": \"KNN\", \"fpr\": 4587305974229462364, \"fnr\": 0, \"auc\": 4607182418800017408, \"accuracy\": 18446744073709551615, \"roc\": [[0, 0], [4602678819172646912, 4607182418800017408]]}\n],\n\
             \"model\": \"rf1 1 14 4 0 2018\\nT 1\\nL 4602678819172646912\\n\"\n}\n",
        )
        .unwrap();
        let (split, eval, model) = decode_train(&train).expect("train body decodes");
        assert_eq!(split, (1734, 2259));
        assert_eq!(eval.models[0].metrics.auc, 1.0);
        assert_eq!(eval.models[0].metrics.accuracy.to_bits(), u64::MAX);
        assert_eq!(eval.models[0].roc.points[1], (0.5, 1.0));
        assert_eq!(
            model.encode(),
            "rf1 1 14 4 0 2018\nT 1\nL 4602678819172646912\n"
        );
    }

    #[test]
    fn stale_checkpoints_are_recomputed_not_fatal() {
        let (store, dir) = store("stale");
        store.save_stage(&CRAWL, &empty_crawl(0)).unwrap();
        // A different config must not load this checkpoint.
        let mut other_cfg = SimConfig::tiny();
        other_cfg.seed = 4242;
        let other = open(&dir, &other_cfg);
        assert!(matches!(other.load_stage(&CRAWL).unwrap(), Loaded::Stale));
        // Missing checkpoint → Missing.
        assert!(matches!(store.load_stage(&SCAN).unwrap(), Loaded::Missing));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_newest_generation_recovers_from_the_previous() {
        let (store, dir) = store("recover");
        store.save_stage(&CRAWL, &empty_crawl(1)).unwrap();
        store.save_stage(&CRAWL, &empty_crawl(2)).unwrap();
        corrupt(&dir, "crawl.g2.ckpt");
        match store.load_stage(&CRAWL).unwrap() {
            Loaded::Recovered((_, _, truncated), detail) => {
                assert_eq!(truncated, 1, "recovery must serve the older generation");
                assert!(detail.contains("g2"), "damage detail missing: {detail}");
            }
            _ => panic!("expected recovery from the previous generation"),
        }
        assert!(store.stats().reconciles());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fully_damaged_checkpoint_is_a_structured_error_not_a_silent_recompute() {
        let (store, dir) = store("unrecoverable");
        store.save_stage(&CRAWL, &empty_crawl(0)).unwrap();
        corrupt(&dir, "crawl.g1.ckpt");
        match store.load_stage(&CRAWL) {
            Err(CheckpointError::Unrecoverable { name, detail, .. }) => {
                assert_eq!(name, "crawl");
                assert!(detail.contains("g1"), "damage detail missing: {detail}");
            }
            other => panic!("expected an unrecoverable error, got {:?}", other.is_ok()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
