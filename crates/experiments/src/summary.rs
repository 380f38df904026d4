//! Machine-readable run summary (`squatphi repro --json` prints it to
//! stdout).
//!
//! The summary is a typed view over the pipeline's exported telemetry:
//! [`RunSummary::collect`] reads the migrated stage counters back from
//! [`PipelineResult::telemetry`]'s registry snapshot (scan, crawl
//! transport, analysis, supervision) and takes only the ML-specific
//! numbers (models, detections, blacklist coverage) from the result
//! directly. JSON emission goes through the shared
//! [`squatphi_telemetry::Json`] encoder; timing fields are stripped by
//! the one telemetry-layer rule unless `squatphi repro --timings` asked
//! for them.

use squatphi::analysis;
use squatphi::artifact::AnalysisSnapshot;
use squatphi::pipeline::PipelineResult;
use squatphi_crawler::TransportSnapshot;
use squatphi_telemetry::{invariants, Json, Registry, Snapshot};
use squatphi_web::Device;

/// Headline numbers of one pipeline run — everything a dashboard or a
/// regression check needs without re-parsing the text tables.
#[derive(Debug)]
pub struct RunSummary {
    /// DNS records scanned.
    pub records_scanned: usize,
    /// Squatting domains found.
    pub squatting_domains: usize,
    /// Squatting counts per type, paper order.
    pub squatting_by_type: [usize; 5],
    /// Live domains crawled (web profile).
    pub web_live: usize,
    /// Transport middleware counters from the crawl stage.
    pub crawl_transport: TransportSnapshot,
    /// Page-analysis counters (cache hits/misses, per-stage nanos).
    pub analysis: AnalysisSnapshot,
    /// Training-set class balance: (positives, negatives).
    pub train_split: (usize, usize),
    /// Classifier metrics per model: (name, fpr, fnr, auc, acc).
    pub models: Vec<ModelSummary>,
    /// Pages flagged per device.
    pub flagged: DeviceCounts,
    /// Confirmed after manual verification.
    pub confirmed: DeviceCounts,
    /// Unique confirmed phishing domains (union).
    pub confirmed_domains: usize,
    /// Brands with at least one confirmed phishing domain.
    pub targeted_brands: usize,
    /// Blacklist coverage at day 30: phishtank / virustotal / ecrimex /
    /// undetected.
    pub blacklist: (usize, usize, usize, usize),
    /// Supervision accounting (fault injection, quarantine, degraded
    /// pages).
    pub supervision: SupervisionSummary,
}

/// Supervision block of the JSON summary. Checkpoint bookkeeping
/// (resumed/checkpointed stage lists) is deliberately excluded so a
/// resumed run serializes byte-identically to an uninterrupted one.
#[derive(Debug)]
pub struct SupervisionSummary {
    /// Analyzer panics planted by the fault plan.
    pub injected_panics: u64,
    /// Pages the fault plan poisoned into the degraded path.
    pub injected_poisons: u64,
    /// Crawl records whose HTML the fault plan truncated.
    pub injected_truncations: u64,
    /// Records excluded after exhausting their retry budget.
    pub quarantined: usize,
    /// Injected panics that recovered within the retry budget.
    pub recovered: u64,
    /// Pages that fell back to the lexical+form-only feature vector.
    pub degraded: u64,
    /// The non-injected subset of `degraded`.
    pub degraded_natural: u64,
    /// Crawl records actually truncated.
    pub truncated: u64,
    /// Re-analysis attempts spent across all records.
    pub retries: u64,
    /// Whether the injected counts reconcile against the observed ones.
    pub reconciles: bool,
}

impl SupervisionSummary {
    /// Reads the supervision block back from an exported `supervision.`
    /// scope; `reconciles` is the central invariant check over the same
    /// snapshot.
    fn from_snapshot(snap: &Snapshot) -> Self {
        SupervisionSummary {
            injected_panics: snap.u64_or_zero("supervision.injected.analyzer_panics"),
            injected_poisons: snap.u64_or_zero("supervision.injected.poisoned_pages"),
            injected_truncations: snap.u64_or_zero("supervision.injected.truncated_records"),
            quarantined: snap.u64_or_zero("supervision.quarantined") as usize,
            recovered: snap.u64_or_zero("supervision.recovered"),
            degraded: snap.u64_or_zero("supervision.degraded"),
            degraded_natural: snap.u64_or_zero("supervision.degraded_natural"),
            truncated: snap.u64_or_zero("supervision.truncated"),
            retries: snap.u64_or_zero("supervision.retries"),
            reconciles: invariants::supervision_invariants().all_hold(snap),
        }
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.push("injected_panics", Json::U64(self.injected_panics));
        obj.push("injected_poisons", Json::U64(self.injected_poisons));
        obj.push("injected_truncations", Json::U64(self.injected_truncations));
        obj.push("quarantined", Json::U64(self.quarantined as u64));
        obj.push("recovered", Json::U64(self.recovered));
        obj.push("degraded", Json::U64(self.degraded));
        obj.push("degraded_natural", Json::U64(self.degraded_natural));
        obj.push("truncated", Json::U64(self.truncated));
        obj.push("retries", Json::U64(self.retries));
        obj.push("reconciles", Json::Bool(self.reconciles));
        obj
    }
}

/// One classifier row.
#[derive(Debug)]
pub struct ModelSummary {
    /// Model name.
    pub name: String,
    /// False-positive rate.
    pub fpr: f64,
    /// False-negative rate.
    pub fnr: f64,
    /// Area under the ROC curve.
    pub auc: f64,
    /// Accuracy.
    pub accuracy: f64,
}

impl ModelSummary {
    fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.push("name", Json::Str(self.name.clone()));
        obj.push("fpr", Json::F64(self.fpr));
        obj.push("fnr", Json::F64(self.fnr));
        obj.push("auc", Json::F64(self.auc));
        obj.push("accuracy", Json::F64(self.accuracy));
        obj
    }
}

/// Web/mobile pair.
#[derive(Debug)]
pub struct DeviceCounts {
    /// Desktop profile.
    pub web: usize,
    /// Mobile profile.
    pub mobile: usize,
}

impl DeviceCounts {
    fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.push("web", Json::U64(self.web as u64));
        obj.push("mobile", Json::U64(self.mobile as u64));
        obj
    }
}

impl RunSummary {
    /// Collects the summary from a pipeline result, reading every
    /// migrated stage counter back from the result's telemetry registry.
    pub fn collect(result: &PipelineResult) -> Self {
        let snap = result.telemetry().snapshot();
        let brands: std::collections::HashSet<usize> = result
            .web_detections
            .iter()
            .chain(&result.mobile_detections)
            .filter(|d| d.confirmed)
            .map(|d| d.brand)
            .collect();
        let by_type = ["homograph", "bits", "typo", "combo", "wrong_tld"]
            .map(|name| snap.u64_or_zero(&format!("scan.by_type.{name}")) as usize);
        RunSummary {
            records_scanned: snap.u64_or_zero("scan.scanned") as usize,
            squatting_domains: snap.u64_or_zero("scan.matches") as usize,
            squatting_by_type: by_type,
            web_live: snap.u64_or_zero("crawl.web_live") as usize,
            crawl_transport: TransportSnapshot::from_snapshot(&snap, "crawl.transport"),
            analysis: AnalysisSnapshot::from_snapshot(&snap, "analysis"),
            train_split: result.train_split,
            models: result
                .eval
                .models
                .iter()
                .map(|m| ModelSummary {
                    name: m.name.to_string(),
                    fpr: m.metrics.fpr,
                    fnr: m.metrics.fnr,
                    auc: m.metrics.auc,
                    accuracy: m.metrics.accuracy,
                })
                .collect(),
            flagged: DeviceCounts {
                web: result.web_detections.len(),
                mobile: result.mobile_detections.len(),
            },
            confirmed: DeviceCounts {
                web: result.confirmed(Device::Web).len(),
                mobile: result.confirmed(Device::Mobile).len(),
            },
            confirmed_domains: result.confirmed_domains().len(),
            targeted_brands: brands.len(),
            blacklist: analysis::blacklist_coverage(result),
            supervision: SupervisionSummary::from_snapshot(&snap),
        }
    }

    /// Zeroes the wall-clock-dependent counters via the telemetry layer's
    /// timing rule — the same rule every CLI surface applies — so two
    /// runs of the same config serialize byte-identically. Counts (pages,
    /// hits, misses) are untouched. `squatphi repro` calls this unless `--timings`
    /// is passed.
    pub fn strip_timings(&mut self) {
        let reg = Registry::new();
        self.analysis.export(&reg.scope("analysis"));
        let mut snap = reg.snapshot();
        snap.strip_timings();
        self.analysis = AnalysisSnapshot::from_snapshot(&snap, "analysis");
    }

    /// Pretty-printed JSON (two-space indent, fields in declaration
    /// order, tuples as arrays), rendered by the shared telemetry
    /// encoder.
    pub fn to_json_pretty(&self) -> String {
        let t = &self.crawl_transport;
        let arr4 = |a: &[u64; 4]| Json::Arr(a.iter().map(|v| Json::U64(*v)).collect());
        let mut transport = Json::obj();
        transport.push("attempts", Json::U64(t.attempts));
        transport.push("successes", Json::U64(t.successes));
        transport.push("retries", Json::U64(t.retries));
        transport.push("errors", arr4(&t.errors));
        transport.push("injected", arr4(&t.injected));
        transport.push("breaker_trips", Json::U64(t.breaker_trips));
        transport.push(
            "breaker_short_circuits",
            Json::U64(t.breaker_short_circuits),
        );
        transport.push("fetch_deadline_hits", Json::U64(t.fetch_deadline_hits));
        transport.push("crawl_deadline_hits", Json::U64(t.crawl_deadline_hits));

        let a = &self.analysis;
        let mut analysis = Json::obj();
        analysis.push("pages", Json::U64(a.pages));
        analysis.push("cache_hits", Json::U64(a.cache_hits));
        analysis.push("cache_misses", Json::U64(a.cache_misses));
        analysis.push("key_collisions", Json::U64(a.key_collisions));
        analysis.push("parse_nanos", Json::U64(a.parse_nanos));
        analysis.push("extract_nanos", Json::U64(a.extract_nanos));
        analysis.push("render_nanos", Json::U64(a.render_nanos));
        analysis.push("hash_nanos", Json::U64(a.hash_nanos));
        analysis.push("ocr_nanos", Json::U64(a.ocr_nanos));
        analysis.push("embed_nanos", Json::U64(a.embed_nanos));

        let (pt, vt, ec, un) = self.blacklist;
        let mut doc = Json::obj();
        doc.push("records_scanned", Json::U64(self.records_scanned as u64));
        doc.push(
            "squatting_domains",
            Json::U64(self.squatting_domains as u64),
        );
        doc.push(
            "squatting_by_type",
            Json::Arr(
                self.squatting_by_type
                    .iter()
                    .map(|n| Json::U64(*n as u64))
                    .collect(),
            ),
        );
        doc.push("web_live", Json::U64(self.web_live as u64));
        doc.push("crawl_transport", transport);
        doc.push("analysis", analysis);
        doc.push("supervision", self.supervision.to_json());
        doc.push(
            "train_split",
            Json::Arr(vec![
                Json::U64(self.train_split.0 as u64),
                Json::U64(self.train_split.1 as u64),
            ]),
        );
        doc.push(
            "models",
            Json::Arr(self.models.iter().map(ModelSummary::to_json).collect()),
        );
        doc.push("flagged", self.flagged.to_json());
        doc.push("confirmed", self.confirmed.to_json());
        doc.push(
            "confirmed_domains",
            Json::U64(self.confirmed_domains as u64),
        );
        doc.push("targeted_brands", Json::U64(self.targeted_brands as u64));
        doc.push(
            "blacklist",
            Json::Arr(vec![
                Json::U64(pt as u64),
                Json::U64(vt as u64),
                Json::U64(ec as u64),
                Json::U64(un as u64),
            ]),
        );
        doc.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squatphi::{RunOptions, SimConfig, SquatPhi};

    #[test]
    fn summary_serializes_and_is_consistent() {
        let result = SquatPhi::try_run(&SimConfig::tiny(), &RunOptions::default())
            .expect("tiny pipeline runs clean");
        let summary = RunSummary::collect(&result);
        assert_eq!(summary.squatting_domains, result.scan.total_matches());
        assert_eq!(summary.records_scanned, result.scan.scanned);
        assert_eq!(summary.squatting_by_type, result.scan.by_type);
        assert_eq!(summary.models.len(), 3);
        assert!(summary.confirmed.web <= summary.flagged.web);
        let json = summary.to_json_pretty();
        assert!(json.contains("\"records_scanned\""));
        assert!(json.contains("RandomForest"));
        // The crawl stage runs over the middleware-aware engine, so the
        // transport counters are populated and serialized.
        assert!(summary.crawl_transport.attempts > 0);
        assert_eq!(summary.crawl_transport, result.crawl_stats.transport);
        assert!(json.contains("\"crawl_transport\""));
        assert!(json.contains("\"breaker_trips\""));
        // Page-analysis counters reconcile exactly and are serialized.
        assert!(summary.analysis.pages > 0);
        assert!(summary.analysis.reconciles());
        assert_eq!(
            summary.analysis.pages,
            summary.analysis.cache_hits + summary.analysis.cache_misses
        );
        assert!(json.contains("\"cache_hits\""));
        assert!(json.contains("\"train_split\""));
        assert_eq!(summary.train_split, result.eval.train_shape);
        // The supervision block is serialized and clean for an unfaulted
        // run; stripping timings zeroes only the nano counters.
        assert!(json.contains("\"supervision\""));
        assert!(json.contains("\"reconciles\": true"));
        assert_eq!(summary.supervision.injected_panics, 0);
        assert_eq!(summary.supervision.quarantined, 0);
        let mut stripped = RunSummary::collect(&result);
        stripped.strip_timings();
        assert_eq!(stripped.analysis.parse_nanos, 0);
        assert_eq!(stripped.analysis.embed_nanos, 0);
        assert_eq!(stripped.analysis.pages, summary.analysis.pages);
        assert!(stripped.to_json_pretty().contains("\"parse_nanos\": 0"));
    }

    #[test]
    fn json_escaping_and_floats_are_wellformed() {
        // The summary leans on the shared telemetry encoder; spot-check
        // its escaping and float policy from this consumer's side.
        assert_eq!(squatphi_telemetry::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(squatphi_telemetry::escape("\u{1}"), "\\u0001");
        assert_eq!(squatphi_telemetry::fmt_f64(0.25), "0.250000");
        assert_eq!(squatphi_telemetry::fmt_f64(f64::NAN), "0.000000");
    }
}
