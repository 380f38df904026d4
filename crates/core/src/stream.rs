//! The streaming watch daemon behind `squatphi watch` (ROADMAP: batch →
//! long-running service).
//!
//! Where [`SquatPhi::try_run`] scans a frozen snapshot, [`SquatPhi::
//! try_watch`] consumes the seeded registration feed from
//! [`squatphi_dnsdb::events`] continuously:
//!
//! ```text
//!   EventStream ──ingest──▶ [ingest queue] ──detect──▶ [candidate queue]
//!        │  (bounded: drops)       (SquatDetector,        (bounded: stalls)
//!        ▼                          worker threads)             │
//!   VirtualClock ──── cadence ticks ────────────────────────────▼
//!                                                        crawl sweep
//!                                              (WebWorld + transport stack,
//!                                               re-crawl scheduler, blacklist
//!                                               lag, takedown tracking)
//! ```
//!
//! Backpressure is explicit and *accounted*: every event the generator
//! emits is either accepted into the bounded ingest queue or counted as
//! a drop; every detected candidate either fits the bounded candidate
//! queue or stalls the detect stage (and is retried next tick). The
//! conservation identities live in [`WatchCounters::reconciles`] and are
//! asserted by CI.
//!
//! Determinism contract: the whole run is a pure function of
//! `(WatchConfig, stop point)` — same seed and same `stop_after` produce
//! a byte-identical [`WatchSummary::to_json`], at any worker-thread
//! count. The watermark checkpoint (generational `watch.g<N>.ckpt` files
//! in the same [`crate::checkpoint`] store the pipeline stages use,
//! bound to the watch config hash) round-trips the full daemon state
//! through one JSON codec, so killing the daemon at a checkpoint and
//! resuming reproduces the uninterrupted run's
//! [`WatchSummary::state_fingerprint`] exactly.
//! Because the run is a pure function of its inputs, resuming from *any*
//! verified generation — including an older one recovered after the
//! newest was damaged — still converges on the identical final summary.
//!
//! [`SquatPhi::try_run`]: crate::pipeline::SquatPhi::try_run
//! [`SquatPhi:: try_watch`]: crate::pipeline::SquatPhi

use crate::artifact::content_key;
use crate::checkpoint::{
    decode_ip, decode_squat_type, decode_transport, ip_json, text, transport_json, CheckpointError,
    CheckpointStore, Loaded,
};
use crate::pipeline::SquatPhi;
use squatphi_crawler::{
    crawl_all, CircuitBreakerPolicy, Clock, CrawlConfig, InProcessTransport, RecrawlScheduler,
    RetryPolicy, TransportSnapshot, TransportStack, VirtualClock,
};
use squatphi_dnsdb::{EventStream, EventStreamConfig, StreamEvent};
use squatphi_domain::DomainName;
use squatphi_durability::{DiskFaultPlan, DurabilityStats};
use squatphi_feeds::{Blacklists, PhishKind};
use squatphi_squat::{BrandRegistry, SquatDetector, SquatMatch, SquatType};
use squatphi_telemetry::Json;
use squatphi_web::{WebWorld, WorldConfig};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One daemon tick on the virtual clock (equals one event-stream burst
/// window, so each tick ingests about one burst).
const TICK_NANOS: u64 = 1_000_000;

/// Watch checkpoint format version.
const WATCH_VERSION: u64 = 1;

/// Name of the watermark state in the checkpoint directory.
const WATERMARK: &str = "watch";

/// Seed of the watch config-hash content key.
const HASH_SEED: u64 = 0x3a7c_9d02;

/// Seed of the state fingerprint.
const FINGERPRINT_SEED: u64 = 0x5171_2019;

/// World-behavior seed salt (decorrelates site behavior from the event
/// stream's own draws).
const WORLD_SALT: u64 = 0x0077_a7c4;

/// Blacklist-lag horizon in sweep-days (paper §6.3 measures a month).
const BLACKLIST_HORIZON_DAYS: u32 = 30;

// ---------------------------------------------------------------------------
// Config

/// Validated watch-daemon parameters; build one with
/// [`WatchConfig::builder`] (mirrors
/// [`squatphi_crawler::CrawlConfig::builder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchConfig {
    brands: usize,
    seed: u64,
    events: u64,
    ingest_capacity: usize,
    candidate_capacity: usize,
    detect_batch: usize,
    crawl_cadence: u64,
    crawl_batch: usize,
    threads: usize,
    checkpoint_every: u64,
    stream: EventStreamConfig,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig::builder()
            .build()
            .expect("default watch config is valid")
    }
}

impl WatchConfig {
    /// Starts a builder pre-loaded with the default values.
    pub fn builder() -> WatchConfigBuilder {
        WatchConfigBuilder::default()
    }

    /// Monitored brands.
    pub fn brands(&self) -> usize {
        self.brands
    }

    /// Stream + world seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total events this run consumes before draining and stopping.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Bounded ingest-queue capacity (overflow drops, counted).
    pub fn ingest_capacity(&self) -> usize {
        self.ingest_capacity
    }

    /// Bounded candidate-queue capacity (overflow stalls detect).
    pub fn candidate_capacity(&self) -> usize {
        self.candidate_capacity
    }

    /// Events classified per tick.
    pub fn detect_batch(&self) -> usize {
        self.detect_batch
    }

    /// Ticks between crawl sweeps (one sweep models one feed day).
    pub fn crawl_cadence(&self) -> u64 {
        self.crawl_cadence
    }

    /// Max domains crawled per sweep (new candidates get at least half).
    pub fn crawl_batch(&self) -> usize {
        self.crawl_batch
    }

    /// Worker threads for the detect and crawl stages. Never affects
    /// outputs — only wall-clock.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Events between watermark checkpoint writes.
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    /// The derived event-stream configuration.
    pub fn stream(&self) -> &EventStreamConfig {
        &self.stream
    }
}

/// Validating builder for [`WatchConfig`].
///
/// ```
/// use squatphi::stream::WatchConfig;
/// let cfg = WatchConfig::builder().seed(7).events(500).build().unwrap();
/// assert_eq!(cfg.seed(), 7);
/// assert!(WatchConfig::builder().ingest_capacity(0).build().is_err());
/// assert!(WatchConfig::builder().crawl_cadence(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct WatchConfigBuilder {
    brands: usize,
    seed: u64,
    events: u64,
    ingest_capacity: usize,
    candidate_capacity: usize,
    detect_batch: usize,
    crawl_cadence: u64,
    crawl_batch: usize,
    threads: usize,
    checkpoint_every: u64,
}

impl Default for WatchConfigBuilder {
    fn default() -> Self {
        WatchConfigBuilder {
            brands: 40,
            seed: 20180401,
            events: 2_000,
            ingest_capacity: 128,
            candidate_capacity: 32,
            detect_batch: 16,
            crawl_cadence: 4,
            crawl_batch: 8,
            threads: 4,
            checkpoint_every: 64,
        }
    }
}

impl WatchConfigBuilder {
    /// Monitored brands (must be >= 1).
    pub fn brands(mut self, n: usize) -> Self {
        self.brands = n;
        self
    }

    /// Stream + world seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total events to consume.
    pub fn events(mut self, n: u64) -> Self {
        self.events = n;
        self
    }

    /// Ingest queue capacity (must be >= 1).
    pub fn ingest_capacity(mut self, n: usize) -> Self {
        self.ingest_capacity = n;
        self
    }

    /// Candidate queue capacity (must be >= 1).
    pub fn candidate_capacity(mut self, n: usize) -> Self {
        self.candidate_capacity = n;
        self
    }

    /// Events classified per tick (must be >= 1).
    pub fn detect_batch(mut self, n: usize) -> Self {
        self.detect_batch = n;
        self
    }

    /// Ticks between crawl sweeps (must be >= 1).
    pub fn crawl_cadence(mut self, n: u64) -> Self {
        self.crawl_cadence = n;
        self
    }

    /// Max domains per sweep (must be >= 1).
    pub fn crawl_batch(mut self, n: usize) -> Self {
        self.crawl_batch = n;
        self
    }

    /// Worker threads (must be >= 1).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Events between checkpoint writes (must be >= 1).
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Validates and builds the config.
    pub fn build(self) -> Result<WatchConfig, WatchConfigError> {
        if self.ingest_capacity == 0 || self.candidate_capacity == 0 {
            return Err(WatchConfigError::ZeroQueueCapacity);
        }
        if self.crawl_cadence == 0 {
            return Err(WatchConfigError::ZeroCadence);
        }
        if self.detect_batch == 0 || self.crawl_batch == 0 {
            return Err(WatchConfigError::ZeroBatch);
        }
        if self.threads == 0 {
            return Err(WatchConfigError::ZeroWorkers);
        }
        if self.brands == 0 {
            return Err(WatchConfigError::ZeroBrands);
        }
        if self.checkpoint_every == 0 {
            return Err(WatchConfigError::ZeroCheckpointCadence);
        }
        Ok(WatchConfig {
            brands: self.brands,
            seed: self.seed,
            events: self.events,
            ingest_capacity: self.ingest_capacity,
            candidate_capacity: self.candidate_capacity,
            detect_batch: self.detect_batch,
            crawl_cadence: self.crawl_cadence,
            crawl_batch: self.crawl_batch,
            threads: self.threads,
            checkpoint_every: self.checkpoint_every,
            stream: EventStreamConfig {
                seed: self.seed,
                ..EventStreamConfig::default()
            },
        })
    }
}

/// Rejected [`WatchConfigBuilder`] combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchConfigError {
    /// Both queues must hold at least one entry — a zero-capacity queue
    /// drops or stalls everything forever.
    ZeroQueueCapacity,
    /// `crawl_cadence` must be >= 1 tick — candidates would never drain.
    ZeroCadence,
    /// `detect_batch` / `crawl_batch` must be >= 1.
    ZeroBatch,
    /// `threads` must be >= 1.
    ZeroWorkers,
    /// `brands` must be >= 1.
    ZeroBrands,
    /// `checkpoint_every` must be >= 1 event.
    ZeroCheckpointCadence,
}

impl std::fmt::Display for WatchConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WatchConfigError::ZeroQueueCapacity => "watch config: queue capacities must be >= 1",
            WatchConfigError::ZeroCadence => "watch config: crawl_cadence must be >= 1",
            WatchConfigError::ZeroBatch => "watch config: batch sizes must be >= 1",
            WatchConfigError::ZeroWorkers => "watch config: threads must be >= 1",
            WatchConfigError::ZeroBrands => "watch config: brands must be >= 1",
            WatchConfigError::ZeroCheckpointCadence => {
                "watch config: checkpoint_every must be >= 1"
            }
        })
    }
}

impl std::error::Error for WatchConfigError {}

/// How [`SquatPhi::try_watch`] should behave around persistence and
/// interruption (the watch analog of [`crate::RunOptions`]).
#[derive(Debug, Clone, Default)]
pub struct WatchOptions {
    /// Directory for the watermark checkpoint (generational
    /// `watch.g<N>.ckpt` files); `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the checkpoint if one matches the config hash.
    pub resume: bool,
    /// Stop (with a checkpoint, when persistence is on) once this many
    /// events have been injected — the deterministic kill stand-in.
    pub stop_after: Option<u64>,
    /// Seeded disk-fault plan injected under every durable write
    /// (default: none). Output-neutral: deliberately excluded from the
    /// config hash so a no-fault resume can load checkpoints a faulted
    /// run committed.
    pub disk_faults: DiskFaultPlan,
}

/// Why a watch run could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchError {
    /// Invalid [`WatchOptions`] combination.
    Options(String),
    /// Checkpoint persistence failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for WatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchError::Options(msg) => write!(f, "watch options: {msg}"),
            WatchError::Checkpoint(e) => write!(f, "watch checkpoint: {e}"),
        }
    }
}

impl std::error::Error for WatchError {}

// ---------------------------------------------------------------------------
// Counters and metrics

/// Conservation-checked stage counters. Every event the stream injects
/// is accounted for exactly once; see [`WatchCounters::reconciles`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchCounters {
    /// Events pulled from the generator (the watermark).
    pub injected: u64,
    /// Events accepted into the ingest queue.
    pub accepted: u64,
    /// Registrations dropped at a full ingest queue.
    pub dropped_registrations: u64,
    /// Deregistrations dropped at a full ingest queue.
    pub dropped_churn: u64,
    /// Feed updates dropped at a full ingest queue.
    pub dropped_feed: u64,
    /// Events fully processed by the detect stage.
    pub processed: u64,
    /// Processed registrations.
    pub registrations: u64,
    /// Deregistrations that removed a tracked candidate.
    pub churn_hits: u64,
    /// Deregistrations for domains we were not tracking.
    pub churn_misses: u64,
    /// Feed updates naming a tracked candidate (the feed confirmed us).
    pub feed_hits: u64,
    /// Feed updates for domains we were not tracking.
    pub feed_misses: u64,
    /// Registrations the detector classified as squatting.
    pub detected: u64,
    /// Detect-stage stalls on a full candidate queue (the stalled batch
    /// tail is retried next tick, never dropped).
    pub detect_stalls: u64,
    /// Candidates discarded before their first crawl because the domain
    /// was deregistered while still queued.
    pub purged_candidates: u64,
    /// Candidates discarded at sweep time because the domain was
    /// already tracked or already in the sweep batch.
    pub duplicate_candidates: u64,
    /// Jobs submitted to the crawler (first crawls + re-crawls).
    pub crawl_jobs: u64,
    /// First crawls of fresh candidates.
    pub first_crawls: u64,
    /// Scheduled re-crawls of tracked candidates.
    pub recrawls: u64,
    /// Fresh candidates found live (tracked from then on).
    pub live_found: u64,
    /// Fresh candidates found dead.
    pub dead_found: u64,
    /// Tracked candidates that went dead on a re-crawl (takedown).
    pub takedowns: u64,
    /// Tracked candidates removed by a deregistration event.
    pub churn_takedowns: u64,
    /// Tracked candidates whose age crossed their blacklist lag.
    pub blacklisted: u64,
}

impl WatchCounters {
    /// Total events dropped at ingest.
    pub fn dropped(&self) -> u64 {
        self.dropped_registrations + self.dropped_churn + self.dropped_feed
    }

    /// The conservation identities, given the final queue depths:
    ///
    /// * injected == accepted + dropped (ingest accounting),
    /// * accepted == processed + ingest backlog (detect accounting),
    /// * processed == per-kind processed counts,
    /// * detected == first crawls + purged + duplicates + candidate
    ///   backlog (candidate accounting),
    /// * crawl jobs == first crawls + re-crawls.
    ///
    /// Checked declaratively against the exported telemetry
    /// (`squatphi_telemetry::invariants::watch_invariants`).
    pub fn reconciles(&self, ingest_depth: usize, candidate_depth: usize) -> bool {
        self.violations(ingest_depth, candidate_depth).is_empty()
    }

    /// The violated identities, if any — the structured report behind
    /// [`WatchCounters::reconciles`].
    pub fn violations(
        &self,
        ingest_depth: usize,
        candidate_depth: usize,
    ) -> Vec<squatphi_telemetry::Violation> {
        let reg = squatphi_telemetry::Registry::new();
        let watch = reg.scope("watch");
        self.export(&watch.scope("counters"));
        let queues = watch.scope("queues");
        queues.set_u64("ingest_depth", ingest_depth as u64);
        queues.set_u64("candidate_depth", candidate_depth as u64);
        squatphi_telemetry::invariants::watch_invariants()
            .check_all(&reg.snapshot())
            .err()
            .unwrap_or_default()
    }

    /// Publishes the counters into a telemetry scope (canonically
    /// `watch.counters`), in declaration order under sorted names.
    pub fn export(&self, scope: &squatphi_telemetry::Scope) {
        for (name, value) in self.fields() {
            scope.set_u64(name, value);
        }
    }

    /// Field names and values in declaration (JSON) order — the single
    /// source for export, the summary and the watermark codec.
    fn fields(&self) -> [(&'static str, u64); 23] {
        self.clone()
            .fields_mut()
            .map(|(name, value)| (name, *value))
    }

    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 23] {
        [
            ("injected", &mut self.injected),
            ("accepted", &mut self.accepted),
            ("dropped_registrations", &mut self.dropped_registrations),
            ("dropped_churn", &mut self.dropped_churn),
            ("dropped_feed", &mut self.dropped_feed),
            ("processed", &mut self.processed),
            ("registrations", &mut self.registrations),
            ("churn_hits", &mut self.churn_hits),
            ("churn_misses", &mut self.churn_misses),
            ("feed_hits", &mut self.feed_hits),
            ("feed_misses", &mut self.feed_misses),
            ("detected", &mut self.detected),
            ("detect_stalls", &mut self.detect_stalls),
            ("purged_candidates", &mut self.purged_candidates),
            ("duplicate_candidates", &mut self.duplicate_candidates),
            ("crawl_jobs", &mut self.crawl_jobs),
            ("first_crawls", &mut self.first_crawls),
            ("recrawls", &mut self.recrawls),
            ("live_found", &mut self.live_found),
            ("dead_found", &mut self.dead_found),
            ("takedowns", &mut self.takedowns),
            ("churn_takedowns", &mut self.churn_takedowns),
            ("blacklisted", &mut self.blacklisted),
        ]
    }
}

/// One rolling metrics snapshot, emitted after every crawl sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchMetrics {
    /// Tick the snapshot was taken at.
    pub tick: u64,
    /// Events injected so far.
    pub injected: u64,
    /// Events processed so far.
    pub processed: u64,
    /// Ingest queue depth.
    pub ingest_depth: u64,
    /// Candidate queue depth.
    pub candidate_depth: u64,
    /// Drops so far.
    pub dropped: u64,
    /// Detect stalls so far.
    pub stalls: u64,
    /// Squatting registrations detected so far.
    pub detected: u64,
    /// Currently tracked live candidates.
    pub tracked: u64,
    /// Tracked candidates blacklists have caught so far.
    pub blacklisted: u64,
}

/// What a watch run produced. Everything here is deterministic —
/// [`WatchSummary::to_json`] is byte-identical for identical
/// `(config, stop point)` at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchSummary {
    /// Stream + world seed.
    pub seed: u64,
    /// Configured stream length.
    pub events: u64,
    /// Whether the run stopped early at `stop_after`.
    pub interrupted: bool,
    /// Next event index (events injected so far).
    pub watermark: u64,
    /// Final tick.
    pub tick: u64,
    /// Order-stable digest of the full daemon state (queues, tracked
    /// set, schedule, counters, transport, metrics history). A resumed
    /// run must reproduce the uninterrupted run's value exactly.
    pub state_fingerprint: u64,
    /// Stage counters.
    pub counters: WatchCounters,
    /// Final ingest backlog.
    pub ingest_depth: u64,
    /// Final candidate backlog.
    pub candidate_depth: u64,
    /// Tracked live candidates at shutdown.
    pub tracked: u64,
    /// Re-crawls still scheduled at shutdown.
    pub pending_recrawls: u64,
    /// Accumulated transport-stack counters over every sweep.
    pub transport: TransportSnapshot,
    /// Rolling per-sweep metrics history.
    pub metrics: Vec<WatchMetrics>,
    /// Whether this run restored state from a checkpoint. Deliberately
    /// not part of [`WatchSummary::to_json`]: a resumed run's JSON must
    /// stay byte-identical to the uninterrupted run's.
    pub resumed: bool,
    /// Damage classification when the resume had to skip damaged
    /// generations and recover from an older one (e.g. `g4 torn`).
    /// Surfaced on stderr by the CLI, never in the JSON summary.
    pub recovered_checkpoint: Option<String>,
    /// Durable-store ledger for the run (zero when persistence is off).
    /// Exported under `durability.` in [`WatchSummary::telemetry`];
    /// excluded from the JSON summary for the same byte-identity reason.
    pub durability: DurabilityStats,
}

impl WatchSummary {
    /// Whether the queue accounting reconciles exactly.
    pub fn reconciles(&self) -> bool {
        self.counters
            .reconciles(self.ingest_depth as usize, self.candidate_depth as usize)
    }

    /// One-line human report.
    pub fn report_line(&self) -> String {
        let c = &self.counters;
        format!(
            "{} events ({} dropped, {} stalls), {} detected, {} live, {} takedowns, {} blacklisted [{}]",
            c.injected,
            c.dropped(),
            c.detect_stalls,
            c.detected,
            self.tracked,
            c.takedowns + c.churn_takedowns,
            c.blacklisted,
            if self.reconciles() { "reconciled" } else { "UNRECONCILED" },
        )
    }

    /// Exports everything into a fresh telemetry registry: run header and
    /// queue gauges under `watch.`, stage counters under `watch.counters.`,
    /// transport counters under `watch.transport.`, and the per-sweep
    /// history length under `watch.sweeps`. [`WatchSummary::to_json`] reads
    /// back from the snapshot of this registry, so the summary is a typed
    /// view over it, not a parallel bookkeeping system.
    pub fn telemetry(&self) -> squatphi_telemetry::Registry {
        let reg = squatphi_telemetry::Registry::new();
        let watch = reg.scope("watch");
        watch.set_u64("seed", self.seed);
        watch.set_u64("events", self.events);
        watch.set_bool("interrupted", self.interrupted);
        watch.set_u64("watermark", self.watermark);
        watch.set_u64("tick", self.tick);
        watch.set_u64("state_fingerprint", self.state_fingerprint);
        watch.set_bool("reconciles", self.reconciles());
        watch.set_u64("sweeps", self.metrics.len() as u64);
        self.counters.export(&watch.scope("counters"));
        let queues = watch.scope("queues");
        queues.set_u64("ingest_depth", self.ingest_depth);
        queues.set_u64("candidate_depth", self.candidate_depth);
        queues.set_u64("tracked", self.tracked);
        queues.set_u64("pending_recrawls", self.pending_recrawls);
        self.transport.export(&watch.scope("transport"));
        self.durability.export(&reg.scope("durability"));
        reg
    }

    /// Deterministic pretty-printed JSON (stable field order, no
    /// wall-clock anywhere), rendered by the shared telemetry encoder
    /// from the exported registry snapshot. Equivalent to
    /// [`WatchSummary::to_json_with_timings`]`(false)`.
    pub fn to_json(&self) -> String {
        self.to_json_with_timings(false)
    }

    /// Like [`WatchSummary::to_json`] but with the workspace-wide
    /// `--timings` rule applied explicitly: unless `timings` is set, any
    /// timing-named entry in the exported snapshot is zeroed. The watch
    /// registry holds no wall-clock values today (`backoff_ns` is virtual
    /// simulated-clock time, deliberately not a timing name), so both
    /// forms currently render identically — the flag exists so every
    /// `--json` surface obeys one rule, including any timing metric a
    /// later change exports here.
    pub fn to_json_with_timings(&self, timings: bool) -> String {
        use squatphi_telemetry::Json;
        let mut snap = self.telemetry().snapshot();
        if !timings {
            snap.strip_timings();
        }
        let mut header = Json::obj();
        for leaf in [
            "seed",
            "events",
            "interrupted",
            "watermark",
            "tick",
            "state_fingerprint",
            "reconciles",
        ] {
            header.push(leaf, snap.json_value(&format!("watch.{leaf}")));
        }
        let mut counters = Json::obj();
        for (name, _) in self.counters.fields() {
            counters.push(name, snap.json_value(&format!("watch.counters.{name}")));
        }
        let mut queues = Json::obj();
        for leaf in [
            "ingest_depth",
            "candidate_depth",
            "tracked",
            "pending_recrawls",
        ] {
            queues.push(leaf, snap.json_value(&format!("watch.queues.{leaf}")));
        }
        let mut transport = Json::obj();
        for leaf in ["attempts", "successes", "retries", "backoff_ns"] {
            transport.push(leaf, snap.json_value(&format!("watch.transport.{leaf}")));
        }
        transport.push(
            "errors",
            Json::Arr(
                ["timeout", "refused", "truncated", "injected"]
                    .iter()
                    .map(|class| snap.json_value(&format!("watch.transport.errors.{class}")))
                    .collect(),
            ),
        );
        for leaf in ["breaker_trips", "breaker_short_circuits"] {
            transport.push(leaf, snap.json_value(&format!("watch.transport.{leaf}")));
        }
        let mut doc = Json::obj();
        doc.push("watch", header);
        doc.push("counters", counters);
        doc.push("queues", queues);
        doc.push("transport", transport);
        doc.push(
            "metrics",
            Json::Arr(self.metrics.iter().map(WatchMetrics::to_json).collect()),
        );
        let mut out = doc.render();
        out.push('\n');
        out
    }
}

impl WatchMetrics {
    /// One per-sweep snapshot as a JSON object (shared-encoder leaf of
    /// [`WatchSummary::to_json`]'s `metrics` array, and the watermark's).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.fields()
                .map(|(name, value)| (name.into(), Json::U64(value)))
                .into(),
        )
    }

    /// Field names and values in declaration (JSON) order.
    fn fields(&self) -> [(&'static str, u64); 10] {
        self.clone()
            .fields_mut()
            .map(|(name, value)| (name, *value))
    }

    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 10] {
        [
            ("tick", &mut self.tick),
            ("injected", &mut self.injected),
            ("processed", &mut self.processed),
            ("ingest_depth", &mut self.ingest_depth),
            ("candidate_depth", &mut self.candidate_depth),
            ("dropped", &mut self.dropped),
            ("stalls", &mut self.stalls),
            ("detected", &mut self.detected),
            ("tracked", &mut self.tracked),
            ("blacklisted", &mut self.blacklisted),
        ]
    }
}

// ---------------------------------------------------------------------------
// Internal state

/// A detected squatting registration waiting for its first crawl.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Candidate {
    seq: u64,
    domain: String,
    brand: usize,
    squat_type: SquatType,
    ip: Ipv4Addr,
    detected_tick: u64,
}

/// A candidate confirmed live, under periodic re-crawl.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tracked {
    brand: usize,
    squat_type: SquatType,
    ip: Ipv4Addr,
    first_live_tick: u64,
    crawls: u64,
    blacklist_day: Option<u32>,
    blacklisted: bool,
}

#[derive(Debug, Default)]
struct WatchState {
    next_seq: u64,
    tick: u64,
    last_checkpoint: u64,
    ingest: VecDeque<u64>,
    candidates: VecDeque<Candidate>,
    tracked: BTreeMap<String, Tracked>,
    scheduler: RecrawlScheduler,
    counters: WatchCounters,
    transport: TransportSnapshot,
    metrics: Vec<WatchMetrics>,
}

impl WatchState {
    /// Order-stable digest over everything that defines the daemon's
    /// progress. Checkpoint bookkeeping (`last_checkpoint`) is excluded
    /// so interrupted-and-resumed runs digest identically to
    /// uninterrupted ones.
    fn fingerprint(&self) -> u64 {
        let mut h = FINGERPRINT_SEED;
        h = mix_u64(h, self.next_seq);
        h = mix_u64(h, self.tick);
        for &seq in &self.ingest {
            h = mix_u64(h, seq);
        }
        for c in &self.candidates {
            h = mix_u64(h, c.seq);
            h = mix_str(h, &c.domain);
            h = mix_u64(h, c.brand as u64);
            h = mix_str(h, c.squat_type.name());
            h = mix(h, &c.ip.octets());
            h = mix_u64(h, c.detected_tick);
        }
        for (domain, t) in &self.tracked {
            h = mix_str(h, domain);
            h = mix_u64(h, t.brand as u64);
            h = mix_str(h, t.squat_type.name());
            h = mix(h, &t.ip.octets());
            h = mix_u64(h, t.first_live_tick);
            h = mix_u64(h, t.crawls);
            h = mix_u64(h, t.blacklist_day.map_or(u64::MAX, u64::from));
            h = mix_u64(h, u64::from(t.blacklisted));
        }
        for (due, domain) in self.scheduler.entries() {
            h = mix_u64(h, due);
            h = mix_str(h, domain);
        }
        for (_, v) in self.counters.fields() {
            h = mix_u64(h, v);
        }
        let t = &self.transport;
        for v in [
            t.attempts,
            t.successes,
            t.retries,
            t.backoff_ns,
            t.errors[0],
            t.errors[1],
            t.errors[2],
            t.errors[3],
            t.breaker_trips,
            t.breaker_short_circuits,
        ] {
            h = mix_u64(h, v);
        }
        for m in &self.metrics {
            for (_, v) in m.fields() {
                h = mix_u64(h, v);
            }
        }
        h
    }
}

fn mix(h: u64, bytes: &[u8]) -> u64 {
    content_key(h, bytes)
}

fn mix_u64(h: u64, v: u64) -> u64 {
    mix(h, &v.to_le_bytes())
}

fn mix_str(h: u64, s: &str) -> u64 {
    mix(mix_u64(h, s.len() as u64), s.as_bytes())
}

// ---------------------------------------------------------------------------
// Service entry point

impl SquatPhi {
    /// Runs the streaming watch daemon to completion (or to
    /// `opts.stop_after`), returning the deterministic run summary.
    ///
    /// The daemon ingests `config.events()` seeded feed events through
    /// bounded ingest → detect → crawl stages, re-crawling live
    /// candidates every `config.crawl_cadence()` ticks. With
    /// `opts.checkpoint_dir` set, the watermark state is persisted every
    /// `config.checkpoint_every()` events and — with `opts.resume` —
    /// restored, reproducing the uninterrupted run's
    /// [`WatchSummary::state_fingerprint`] exactly.
    pub fn try_watch(
        config: &WatchConfig,
        opts: &WatchOptions,
    ) -> Result<WatchSummary, WatchError> {
        if opts.resume && opts.checkpoint_dir.is_none() {
            return Err(WatchError::Options(
                "resume requires a checkpoint directory".into(),
            ));
        }
        let store = match &opts.checkpoint_dir {
            Some(dir) => Some(
                CheckpointStore::open(dir, watch_config_hash(config), &opts.disk_faults)
                    .map_err(WatchError::Checkpoint)?,
            ),
            None => None,
        };
        let registry = BrandRegistry::with_size(config.brands);
        let mut runner = Runner {
            detector: SquatDetector::new(&registry),
            stream: EventStream::new(&config.stream, &registry),
            registry,
            blacklists: Blacklists::new(),
            clock: VirtualClock::new(),
            config,
            state: WatchState::default(),
        };
        let mut resumed = false;
        let mut recovered_checkpoint = None;
        if opts.resume {
            if let Some(s) = &store {
                match s
                    .load(WATERMARK, WatchState::decode)
                    .map_err(WatchError::Checkpoint)?
                {
                    Loaded::Value(loaded) => {
                        runner.state = loaded;
                        resumed = true;
                    }
                    Loaded::Recovered(loaded, detail) => {
                        runner.state = loaded;
                        resumed = true;
                        recovered_checkpoint = Some(detail);
                    }
                    Loaded::Missing | Loaded::Stale => {}
                }
            }
        }
        runner
            .clock
            .advance(Duration::from_nanos(runner.state.tick * TICK_NANOS));

        let mut interrupted = false;
        loop {
            if runner.state.next_seq >= config.events
                && runner.state.ingest.is_empty()
                && runner.state.candidates.is_empty()
            {
                break;
            }
            runner.step();
            if let Some(s) = &store {
                if runner.state.next_seq - runner.state.last_checkpoint >= config.checkpoint_every {
                    runner.state.checkpoint(s).map_err(WatchError::Checkpoint)?;
                }
            }
            if let Some(n) = opts.stop_after {
                if runner.state.next_seq >= n {
                    if let Some(s) = &store {
                        runner.state.checkpoint(s).map_err(WatchError::Checkpoint)?;
                    }
                    interrupted = true;
                    break;
                }
            }
        }
        if let Some(s) = &store {
            if !interrupted {
                runner.state.checkpoint(s).map_err(WatchError::Checkpoint)?;
            }
        }

        let durability = store
            .as_ref()
            .map(CheckpointStore::stats)
            .unwrap_or_default();
        let state = runner.state;
        Ok(WatchSummary {
            seed: config.seed,
            events: config.events,
            interrupted,
            watermark: state.next_seq,
            tick: state.tick,
            state_fingerprint: state.fingerprint(),
            ingest_depth: state.ingest.len() as u64,
            candidate_depth: state.candidates.len() as u64,
            tracked: state.tracked.len() as u64,
            pending_recrawls: state.scheduler.len() as u64,
            counters: state.counters,
            transport: state.transport,
            metrics: state.metrics,
            resumed,
            recovered_checkpoint,
            durability,
        })
    }
}

struct Runner<'a> {
    config: &'a WatchConfig,
    registry: BrandRegistry,
    detector: SquatDetector,
    stream: EventStream,
    blacklists: Blacklists,
    clock: VirtualClock,
    state: WatchState,
}

impl Runner<'_> {
    /// One tick: advance the clock, ingest due events, classify a
    /// batch, and sweep the crawler on cadence boundaries.
    fn step(&mut self) {
        self.state.tick += 1;
        self.clock.advance(Duration::from_nanos(TICK_NANOS));
        self.ingest();
        self.detect();
        if self.state.tick.is_multiple_of(self.config.crawl_cadence) {
            self.sweep();
            self.snapshot_metrics();
        }
    }

    /// Pulls every event whose virtual timestamp falls inside the
    /// current tick window. The queue is bounded: overflow is counted
    /// per kind and dropped (the feed does not wait for us).
    fn ingest(&mut self) {
        let now = self.clock.now().as_nanos() as u64;
        while self.state.next_seq < self.config.events {
            let ev = self.stream.event(self.state.next_seq);
            if ev.at_nanos >= now {
                break;
            }
            self.state.next_seq += 1;
            self.state.counters.injected += 1;
            if self.state.ingest.len() < self.config.ingest_capacity {
                self.state.ingest.push_back(ev.seq);
                self.state.counters.accepted += 1;
            } else {
                match ev.event {
                    StreamEvent::Registration { .. } => {
                        self.state.counters.dropped_registrations += 1
                    }
                    StreamEvent::Deregistration { .. } => self.state.counters.dropped_churn += 1,
                    StreamEvent::FeedUpdate { .. } => self.state.counters.dropped_feed += 1,
                }
            }
        }
    }

    /// Classifies up to `detect_batch` queued events. Registration
    /// matches go to the bounded candidate queue; when it fills, the
    /// unapplied batch tail goes back to the head of the ingest queue
    /// (a stall, not a drop) and is retried next tick.
    fn detect(&mut self) {
        let take = self.config.detect_batch.min(self.state.ingest.len());
        if take == 0 {
            return;
        }
        let batch: Vec<u64> = self.state.ingest.drain(..take).collect();
        let events: Vec<StreamEvent> = batch
            .iter()
            .map(|&seq| self.stream.event(seq).event)
            .collect();
        let matches = self.classify_batch(&events);

        let mut stalled_at = None;
        for (i, event) in events.iter().enumerate() {
            match event {
                StreamEvent::Registration { domain, ip } => {
                    if matches[i].is_some()
                        && self.state.candidates.len() >= self.config.candidate_capacity
                    {
                        self.state.counters.detect_stalls += 1;
                        stalled_at = Some(i);
                        break;
                    }
                    if let Some(m) = &matches[i] {
                        self.state.candidates.push_back(Candidate {
                            seq: batch[i],
                            domain: domain.clone(),
                            brand: m.brand,
                            squat_type: m.squat_type,
                            ip: *ip,
                            detected_tick: self.state.tick,
                        });
                        self.state.counters.detected += 1;
                    }
                    self.state.counters.processed += 1;
                    self.state.counters.registrations += 1;
                }
                StreamEvent::Deregistration { domain } => {
                    self.state.counters.processed += 1;
                    if self.state.tracked.remove(domain).is_some() {
                        self.state.scheduler.cancel(domain);
                        self.state.counters.churn_hits += 1;
                        self.state.counters.churn_takedowns += 1;
                    } else {
                        self.state.counters.churn_misses += 1;
                    }
                    let before = self.state.candidates.len();
                    self.state.candidates.retain(|c| c.domain != *domain);
                    self.state.counters.purged_candidates +=
                        (before - self.state.candidates.len()) as u64;
                }
                StreamEvent::FeedUpdate { domain } => {
                    self.state.counters.processed += 1;
                    if self.state.tracked.contains_key(domain) {
                        self.state.counters.feed_hits += 1;
                    } else {
                        self.state.counters.feed_misses += 1;
                    }
                }
            }
        }
        if let Some(i) = stalled_at {
            for &seq in batch[i..].iter().rev() {
                self.state.ingest.push_front(seq);
            }
        }
    }

    /// Parallel, order-stable classification of a batch: a pure map
    /// chunked over the worker threads, so the thread count can never
    /// change the result.
    fn classify_batch(&self, events: &[StreamEvent]) -> Vec<Option<SquatMatch>> {
        let classify = |event: &StreamEvent| -> Option<SquatMatch> {
            let StreamEvent::Registration { domain, .. } = event else {
                return None;
            };
            let parsed = DomainName::parse(domain).ok()?;
            self.detector.classify(&parsed)
        };
        let threads = self.config.threads.min(events.len()).max(1);
        if threads == 1 {
            return events.iter().map(classify).collect();
        }
        let mut out: Vec<Option<SquatMatch>> = vec![None; events.len()];
        let chunk = events.len().div_ceil(threads);
        crossbeam::thread::scope(|s| {
            for (slots, evs) in out.chunks_mut(chunk).zip(events.chunks(chunk)) {
                s.spawn(move |_| {
                    for (slot, ev) in slots.iter_mut().zip(evs) {
                        *slot = classify(ev);
                    }
                });
            }
        })
        .expect("detect worker panicked");
        out
    }

    /// A crawl sweep: new candidates (guaranteed at least half the
    /// batch, so backlog always drains) plus due re-crawls, pushed
    /// through the tower-style transport stack against a per-sweep
    /// [`WebWorld`]. One sweep models one feed day for blacklist lag.
    fn sweep(&mut self) {
        let mut jobs: Vec<(String, usize, SquatType)> = Vec::new();
        let mut job_ips: Vec<Ipv4Addr> = Vec::new();
        let mut in_batch: HashSet<String> = HashSet::new();

        let new_quota = self.config.crawl_batch.div_ceil(2);
        while jobs.len() < new_quota {
            let Some(c) = self.state.candidates.pop_front() else {
                break;
            };
            if self.state.tracked.contains_key(&c.domain) || in_batch.contains(&c.domain) {
                self.state.counters.duplicate_candidates += 1;
                continue;
            }
            self.state.counters.first_crawls += 1;
            in_batch.insert(c.domain.clone());
            jobs.push((c.domain, c.brand, c.squat_type));
            job_ips.push(c.ip);
        }
        let fresh = jobs.len();
        let due = self
            .state
            .scheduler
            .due(self.state.tick, self.config.crawl_batch - jobs.len());
        for domain in due {
            let t = &self.state.tracked[&domain];
            self.state.counters.recrawls += 1;
            jobs.push((domain.clone(), t.brand, t.squat_type));
            job_ips.push(t.ip);
        }

        if !jobs.is_empty() {
            let records = self.crawl(&jobs, &job_ips);
            for (i, (record, (domain, brand, squat_type))) in records.iter().zip(&jobs).enumerate()
            {
                self.state.counters.crawl_jobs += 1;
                let live = record.live();
                if i < fresh {
                    if live {
                        self.state.counters.live_found += 1;
                        let lag = self.blacklists.detection_day(
                            domain,
                            PhishKind::Squatting,
                            BLACKLIST_HORIZON_DAYS,
                        );
                        self.state.tracked.insert(
                            domain.clone(),
                            Tracked {
                                brand: *brand,
                                squat_type: *squat_type,
                                ip: job_ips[i],
                                first_live_tick: self.state.tick,
                                crawls: 1,
                                blacklist_day: lag,
                                blacklisted: false,
                            },
                        );
                        self.state
                            .scheduler
                            .schedule(self.state.tick + self.config.crawl_cadence, domain);
                    } else {
                        self.state.counters.dead_found += 1;
                    }
                } else if live {
                    let entry = self
                        .state
                        .tracked
                        .get_mut(domain)
                        .expect("re-crawled domains stay tracked until this pass");
                    entry.crawls += 1;
                    self.state
                        .scheduler
                        .schedule(self.state.tick + self.config.crawl_cadence, domain);
                } else {
                    self.state.tracked.remove(domain);
                    self.state.counters.takedowns += 1;
                }
            }
        }

        // Blacklist-lag aging: one sweep == one day of feed age.
        let cadence = self.config.crawl_cadence;
        let tick = self.state.tick;
        for t in self.state.tracked.values_mut() {
            if t.blacklisted {
                continue;
            }
            let age_days = (tick - t.first_live_tick) / cadence;
            if let Some(day) = t.blacklist_day {
                if age_days >= u64::from(day) {
                    t.blacklisted = true;
                    self.state.counters.blacklisted += 1;
                }
            }
        }
    }

    /// Crawls one sweep batch through retry + circuit-breaker
    /// middleware over a per-sweep world. Every layer is deterministic
    /// per host, so worker count never changes the records or the
    /// transport counters.
    fn crawl(
        &mut self,
        jobs: &[(String, usize, SquatType)],
        job_ips: &[Ipv4Addr],
    ) -> Vec<squatphi_crawler::CrawlRecord> {
        let squats: Vec<(String, usize, SquatType, Ipv4Addr)> = jobs
            .iter()
            .zip(job_ips)
            .map(|((d, b, t), ip)| (d.clone(), *b, *t, *ip))
            .collect();
        let world = WebWorld::build(
            &squats,
            &self.registry,
            &WorldConfig {
                phishing_domains: squats.len().div_ceil(4),
                seed: self.config.seed ^ WORLD_SALT,
                ..WorldConfig::default()
            },
        );
        let stack = TransportStack::new(InProcessTransport::new(Arc::new(world)))
            .retry(RetryPolicy::default())
            .breaker(CircuitBreakerPolicy::default())
            .build();
        let sweep_index = self.state.tick / self.config.crawl_cadence;
        let crawl_cfg = CrawlConfig::builder()
            .workers(self.config.threads)
            .retries(1)
            .snapshot((sweep_index % 4) as u8)
            .build()
            .expect("watch crawl config is valid");
        let (records, stats) = crawl_all(jobs, &self.registry, &stack, &crawl_cfg);
        accumulate(&mut self.state.transport, &stats.transport);
        records
    }

    fn snapshot_metrics(&mut self) {
        let c = &self.state.counters;
        self.state.metrics.push(WatchMetrics {
            tick: self.state.tick,
            injected: c.injected,
            processed: c.processed,
            ingest_depth: self.state.ingest.len() as u64,
            candidate_depth: self.state.candidates.len() as u64,
            dropped: c.dropped(),
            stalls: c.detect_stalls,
            detected: c.detected,
            tracked: self.state.tracked.len() as u64,
            blacklisted: c.blacklisted,
        });
    }
}

/// Adds one sweep's transport snapshot into the running totals.
fn accumulate(total: &mut TransportSnapshot, s: &TransportSnapshot) {
    total.attempts += s.attempts;
    total.successes += s.successes;
    total.retries += s.retries;
    total.backoff_ns += s.backoff_ns;
    for i in 0..4 {
        total.errors[i] += s.errors[i];
        total.injected[i] += s.injected[i];
    }
    total.breaker_trips += s.breaker_trips;
    total.breaker_short_circuits += s.breaker_short_circuits;
    total.fetch_deadline_hits += s.fetch_deadline_hits;
    total.crawl_deadline_hits += s.crawl_deadline_hits;
}

// ---------------------------------------------------------------------------
// Watermark checkpoint

/// Canonical watch config hash binding the checkpoint to its run.
fn watch_config_hash(config: &WatchConfig) -> u64 {
    let s = &config.stream;
    let canon = format!(
        "wv{WATCH_VERSION}|brands:{}|seed:{}|events:{}|q:{},{}|batch:{},{}|cadence:{}|stream:{},{},{},{},{},{},{}",
        config.brands,
        config.seed,
        config.events,
        config.ingest_capacity,
        config.candidate_capacity,
        config.detect_batch,
        config.crawl_batch,
        config.crawl_cadence,
        s.seed,
        s.squat_permille,
        s.churn_permille,
        s.feed_permille,
        s.burst,
        s.period_nanos,
        s.intra_nanos,
    );
    content_key(HASH_SEED, canon.as_bytes())
}

impl WatchState {
    /// Persists the full daemon state as the next watermark generation
    /// (after the informational header), advancing the watermark.
    fn checkpoint(&mut self, store: &CheckpointStore) -> Result<(), CheckpointError> {
        self.last_checkpoint = self.next_seq;
        let candidates = self.candidates.iter().map(|c| {
            let mut obj = Json::obj();
            obj.push("seq", Json::U64(c.seq))
                .push("domain", text(&c.domain))
                .push("brand", Json::U64(c.brand as u64))
                .push("type", text(c.squat_type.name()))
                .push("ip", ip_json(c.ip))
                .push("detected_tick", Json::U64(c.detected_tick));
            obj
        });
        let tracked = self.tracked.iter().map(|(domain, t)| {
            let mut obj = Json::obj();
            obj.push("domain", text(domain))
                .push("brand", Json::U64(t.brand as u64))
                .push("type", text(t.squat_type.name()))
                .push("ip", ip_json(t.ip))
                .push("first_live_tick", Json::U64(t.first_live_tick))
                .push("crawls", Json::U64(t.crawls))
                .push(
                    "blacklist_day",
                    t.blacklist_day.map_or(Json::Null, |d| Json::U64(d.into())),
                )
                .push("blacklisted", Json::U64(t.blacklisted.into()));
            obj
        });
        let schedule = self.scheduler.entries().map(|(due, domain)| {
            let mut obj = Json::obj();
            obj.push("due", Json::U64(due)).push("domain", text(domain));
            obj
        });
        let counters = self
            .counters
            .fields()
            .map(|(name, v)| (name.into(), Json::U64(v)));
        let mut body = store.header(WATCH_VERSION);
        body.push("next_seq", Json::U64(self.next_seq))
            .push("tick", Json::U64(self.tick))
            .push("last_checkpoint", Json::U64(self.last_checkpoint))
            .push("counters", Json::Obj(counters.into()))
            .push("transport", transport_json(&self.transport))
            .push(
                "ingest",
                Json::Arr(self.ingest.iter().map(|&seq| Json::U64(seq)).collect()),
            )
            .push("candidates", Json::Arr(candidates.collect()))
            .push("tracked", Json::Arr(tracked.collect()))
            .push("schedule", Json::Arr(schedule.collect()))
            .push(
                "metrics",
                Json::Arr(self.metrics.iter().map(WatchMetrics::to_json).collect()),
            );
        store.save(WATERMARK, &body)
    }

    /// Reads a watermark body back; `None` when it does not have the
    /// shape [`WatchState::checkpoint`] writes.
    fn decode(v: &Json) -> Option<WatchState> {
        let mut state = WatchState {
            next_seq: v.get("next_seq")?.as_u64()?,
            tick: v.get("tick")?.as_u64()?,
            last_checkpoint: v.get("last_checkpoint")?.as_u64()?,
            transport: decode_transport(v.get("transport")?)?,
            ..WatchState::default()
        };
        let counters = v.get("counters")?;
        for (name, slot) in state.counters.fields_mut() {
            *slot = counters.get(name)?.as_u64()?;
        }
        for seq in v.get("ingest")?.as_arr()? {
            state.ingest.push_back(seq.as_u64()?);
        }
        for c in v.get("candidates")?.as_arr()? {
            state.candidates.push_back(Candidate {
                seq: c.get("seq")?.as_u64()?,
                domain: c.get("domain")?.as_str()?.to_string(),
                brand: c.get("brand")?.as_usize()?,
                squat_type: decode_squat_type(c.get("type")?)?,
                ip: decode_ip(c.get("ip")?)?,
                detected_tick: c.get("detected_tick")?.as_u64()?,
            });
        }
        for t in v.get("tracked")?.as_arr()? {
            let blacklist_day = t.get("blacklist_day")?;
            state.tracked.insert(
                t.get("domain")?.as_str()?.to_string(),
                Tracked {
                    brand: t.get("brand")?.as_usize()?,
                    squat_type: decode_squat_type(t.get("type")?)?,
                    ip: decode_ip(t.get("ip")?)?,
                    first_live_tick: t.get("first_live_tick")?.as_u64()?,
                    crawls: t.get("crawls")?.as_u64()?,
                    blacklist_day: if blacklist_day.is_null() {
                        None
                    } else {
                        Some(u32::try_from(blacklist_day.as_u64()?).ok()?)
                    },
                    blacklisted: t.get("blacklisted")?.as_u64()? != 0,
                },
            );
        }
        for e in v.get("schedule")?.as_arr()? {
            state
                .scheduler
                .schedule(e.get("due")?.as_u64()?, e.get("domain")?.as_str()?);
        }
        for m in v.get("metrics")?.as_arr()? {
            let mut metrics = WatchMetrics::default();
            for (name, slot) in metrics.fields_mut() {
                *slot = m.get(name)?.as_u64()?;
            }
            state.metrics.push(metrics);
        }
        Some(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn open_store(dir: &Path, config: &WatchConfig) -> CheckpointStore {
        CheckpointStore::open(dir, watch_config_hash(config), &DiskFaultPlan::none())
            .expect("open store")
    }

    fn tiny() -> WatchConfig {
        WatchConfig::builder()
            .brands(12)
            .seed(41)
            .events(240)
            .ingest_capacity(24)
            .candidate_capacity(8)
            .detect_batch(6)
            .crawl_cadence(3)
            .crawl_batch(6)
            .threads(2)
            .checkpoint_every(32)
            .build()
            .expect("tiny watch config")
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert_eq!(
            WatchConfig::builder().ingest_capacity(0).build(),
            Err(WatchConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            WatchConfig::builder().candidate_capacity(0).build(),
            Err(WatchConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            WatchConfig::builder().crawl_cadence(0).build(),
            Err(WatchConfigError::ZeroCadence)
        );
        assert_eq!(
            WatchConfig::builder().detect_batch(0).build(),
            Err(WatchConfigError::ZeroBatch)
        );
        assert_eq!(
            WatchConfig::builder().threads(0).build(),
            Err(WatchConfigError::ZeroWorkers)
        );
        assert_eq!(
            WatchConfig::builder().brands(0).build(),
            Err(WatchConfigError::ZeroBrands)
        );
        assert_eq!(
            WatchConfig::builder().checkpoint_every(0).build(),
            Err(WatchConfigError::ZeroCheckpointCadence)
        );
        for e in [
            WatchConfigError::ZeroQueueCapacity,
            WatchConfigError::ZeroCadence,
            WatchConfigError::ZeroBatch,
            WatchConfigError::ZeroWorkers,
            WatchConfigError::ZeroBrands,
            WatchConfigError::ZeroCheckpointCadence,
        ] {
            assert!(e.to_string().starts_with("watch config:"));
        }
    }

    #[test]
    fn default_config_builds_and_derives_stream_seed() {
        let cfg = WatchConfig::default();
        assert_eq!(cfg.stream().seed, cfg.seed());
        assert!(cfg.ingest_capacity() > 0);
    }

    #[test]
    fn resume_without_dir_is_an_options_error() {
        let opts = WatchOptions {
            resume: true,
            ..WatchOptions::default()
        };
        match SquatPhi::try_watch(&tiny(), &opts) {
            Err(WatchError::Options(msg)) => assert!(msg.contains("checkpoint")),
            other => panic!("expected options error, got {other:?}"),
        }
    }

    #[test]
    fn watch_runs_and_reconciles() {
        let summary = SquatPhi::try_watch(&tiny(), &WatchOptions::default())
            .expect("tiny watch run succeeds");
        assert!(!summary.interrupted);
        assert_eq!(summary.watermark, 240);
        assert!(summary.reconciles(), "{:?}", summary.counters);
        assert!(summary.counters.detected > 0, "no squats detected");
        assert!(summary.counters.live_found > 0, "no live candidates");
        assert!(!summary.metrics.is_empty());
        assert!(summary.report_line().contains("reconciled"));
        // Queues fully drained at shutdown.
        assert_eq!(summary.ingest_depth, 0);
        assert_eq!(summary.candidate_depth, 0);
    }

    #[test]
    fn two_runs_are_byte_identical() {
        let a = SquatPhi::try_watch(&tiny(), &WatchOptions::default()).expect("run a");
        let b = SquatPhi::try_watch(&tiny(), &WatchOptions::default()).expect("run b");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.state_fingerprint, b.state_fingerprint);
    }

    #[test]
    fn stop_after_interrupts_deterministically() {
        let opts = WatchOptions {
            stop_after: Some(100),
            ..WatchOptions::default()
        };
        let a = SquatPhi::try_watch(&tiny(), &opts).expect("interrupted run");
        assert!(a.interrupted);
        assert!(a.watermark >= 100);
        assert!(a.watermark < 240);
        let b = SquatPhi::try_watch(&tiny(), &opts).expect("interrupted run b");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn checkpoint_roundtrips_state() {
        let dir = std::env::temp_dir().join(format!("squatphi-watch-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = tiny();
        let store = open_store(&dir, &config);
        // Build a non-trivial state by running half the stream.
        let opts = WatchOptions {
            checkpoint_dir: Some(dir.clone()),
            stop_after: Some(120),
            ..WatchOptions::default()
        };
        let partial = SquatPhi::try_watch(&config, &opts).expect("partial run");
        let Loaded::Value(loaded) = store.load(WATERMARK, WatchState::decode).expect("load") else {
            panic!("expected a valid checkpoint");
        };
        assert_eq!(loaded.fingerprint(), partial.state_fingerprint);
        assert!(partial.durability.reconciles());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A body in the exact layout the hand-built pretty writer of
    /// `WATCH_VERSION` 1 produced (one field per line, `", "` separators,
    /// empty lists as `[\n\n]`) still decodes, so watermark directories
    /// written before the move to compact bodies keep resuming.
    #[test]
    fn version_1_pretty_layout_watermark_decodes() {
        let body = "{\n\"version\": 1,\n\"config_hash\": 10456505215242532270,\n\
            \"next_seq\": 900,\n\"tick\": 180,\n\"last_checkpoint\": 900,\n\
            \"counters\": {\"injected\": 900, \"accepted\": 900, \"dropped_registrations\": 0, \"dropped_churn\": 0, \"dropped_feed\": 0, \"processed\": 802, \"registrations\": 681, \"churn_hits\": 8, \"churn_misses\": 82, \"feed_hits\": 0, \"feed_misses\": 31, \"detected\": 209, \"detect_stalls\": 67, \"purged_candidates\": 2, \"duplicate_candidates\": 1, \"crawl_jobs\": 355, \"first_crawls\": 178, \"recrawls\": 177, \"live_found\": 140, \"dead_found\": 38, \"takedowns\": 79, \"churn_takedowns\": 8, \"blacklisted\": 1},\n\
            \"transport\": {\"attempts\": 1052, \"successes\": 476, \"retries\": 1152, \"backoff_ns\": 47892649935, \"errors\": [0, 1440, 0, 0], \"injected\": [0, 0, 0, 0], \"breaker_trips\": 144, \"breaker_short_circuits\": 144, \"fetch_deadline_hits\": 0, \"crawl_deadline_hits\": 0},\n\
            \"ingest\": [802, 803],\n\
            \"candidates\": [\n\
            {\"seq\": 710, \"domain\": \"xn--cico-1h5a.ml\", \"brand\": 31, \"type\": \"Homograph\", \"ip\": [214, 240, 158, 118], \"detected_tick\": 153}\n],\n\
            \"tracked\": [\n\
            {\"domain\": \"0citi.net\", \"brand\": 12, \"type\": \"Typo\", \"ip\": [11, 15, 167, 227], \"first_live_tick\": 108, \"crawls\": 3, \"blacklist_day\": null, \"blacklisted\": 0},\n\
            {\"domain\": \"allinacebank.pw\", \"brand\": 22, \"type\": \"Typo\", \"ip\": [145, 119, 4, 105], \"first_live_tick\": 168, \"crawls\": 1, \"blacklist_day\": 4, \"blacklisted\": 1}\n],\n\
            \"schedule\": [\n\n],\n\
            \"metrics\": [\n\
            {\"tick\": 4, \"injected\": 20, \"processed\": 20, \"ingest_depth\": 0, \"candidate_depth\": 2, \"dropped\": 0, \"stalls\": 0, \"detected\": 6, \"tracked\": 4, \"blacklisted\": 0}\n]\n}\n";
        let state = WatchState::decode(&Json::parse(body).expect("parses"))
            .expect("version 1 body decodes");
        assert_eq!(
            (state.next_seq, state.tick, state.last_checkpoint),
            (900, 180, 900)
        );
        assert_eq!(state.counters.processed, 802);
        assert_eq!(state.counters.blacklisted, 1);
        assert_eq!(state.transport.backoff_ns, 47892649935);
        assert_eq!(state.transport.errors, [0, 1440, 0, 0]);
        assert_eq!(state.ingest, [802, 803]);
        assert_eq!(state.candidates[0].ip, Ipv4Addr::new(214, 240, 158, 118));
        let cut = &state.tracked["allinacebank.pw"];
        assert_eq!((cut.blacklist_day, cut.blacklisted), (Some(4), true));
        assert_eq!(state.tracked["0citi.net"].blacklist_day, None);
        assert_eq!(state.scheduler.len(), 0);
        assert_eq!(state.metrics[0].candidate_depth, 2);
    }

    #[test]
    fn stale_checkpoint_is_ignored() {
        let dir = std::env::temp_dir().join(format!("squatphi-watch-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = tiny();
        let opts = WatchOptions {
            checkpoint_dir: Some(dir.clone()),
            stop_after: Some(60),
            ..WatchOptions::default()
        };
        SquatPhi::try_watch(&config, &opts).expect("seed the checkpoint");
        // A different config must not resume from it.
        let other = WatchConfig::builder()
            .brands(12)
            .seed(42)
            .events(240)
            .build()
            .expect("other config");
        let store = open_store(&dir, &other);
        assert!(matches!(
            store.load(WATERMARK, WatchState::decode).expect("load"),
            Loaded::Stale
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Overwrites one on-disk generation with damage, through the same
    /// durable-write path production uses.
    fn corrupt_generation(dir: &Path, name: &str) {
        use squatphi_durability::{RealVfs, Vfs};
        RealVfs
            .write(&dir.join(name), b"{not json")
            .expect("corrupt");
    }

    /// Newest generation on disk for the watch checkpoint.
    fn newest_generation(dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .expect("read_dir")
            .filter_map(|e| {
                let name = e.ok()?.file_name().to_string_lossy().into_owned();
                let gen = name.strip_prefix("watch.g")?.strip_suffix(".ckpt")?;
                gen.parse::<u64>().ok()
            })
            .max()
            .expect("at least one generation")
    }

    #[test]
    fn damaged_newest_generation_resumes_from_the_previous_and_converges() {
        let dir =
            std::env::temp_dir().join(format!("squatphi-watch-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = tiny();
        let baseline =
            SquatPhi::try_watch(&config, &WatchOptions::default()).expect("uninterrupted run");
        let opts = WatchOptions {
            checkpoint_dir: Some(dir.clone()),
            stop_after: Some(120),
            ..WatchOptions::default()
        };
        SquatPhi::try_watch(&config, &opts).expect("partial run");
        let newest = newest_generation(&dir);
        assert!(newest >= 2, "cadence 32 over 120 events makes >= 2 gens");
        corrupt_generation(&dir, &format!("watch.g{newest}.ckpt"));
        // Resume to completion: recovery restarts from the older
        // generation and — the run being a pure function of its inputs —
        // still converges on the byte-identical uninterrupted summary.
        let resumed = SquatPhi::try_watch(
            &config,
            &WatchOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..WatchOptions::default()
            },
        )
        .expect("resumed run");
        assert!(resumed.resumed);
        let detail = resumed.recovered_checkpoint.as_deref().unwrap_or_default();
        assert!(detail.contains(&format!("g{newest}")), "detail: {detail}");
        assert_eq!(resumed.to_json(), baseline.to_json());
        assert_eq!(resumed.state_fingerprint, baseline.state_fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fully_damaged_checkpoint_is_a_structured_error() {
        let dir =
            std::env::temp_dir().join(format!("squatphi-watch-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = tiny();
        let store = open_store(&dir, &config);
        corrupt_generation(&dir, "watch.g1.ckpt");
        match store.load(WATERMARK, WatchState::decode) {
            Err(CheckpointError::Unrecoverable { name, detail, .. }) => {
                assert_eq!(name, "watch");
                assert!(detail.contains("g1"), "detail: {detail}");
            }
            other => panic!("expected unrecoverable, got ok={}", other.is_ok()),
        }
        // And the service surface: --resume against it is a structured
        // WatchError, never a silent full recompute.
        let err = SquatPhi::try_watch(
            &config,
            &WatchOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..WatchOptions::default()
            },
        )
        .expect_err("resume over unrecoverable state must fail");
        assert!(matches!(
            err,
            WatchError::Checkpoint(CheckpointError::Unrecoverable { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
