//! Seeded end-to-end fault injection for the pipeline (the supervision
//! analogue of the crawler's transport chaos plans).
//!
//! A [`PipelineFaultPlan`] plants faults *above* the transport layer:
//! analyzer panics (persistent or first-attempt-only), poisoned pages
//! whose visual derivation is forced to fail, and truncated crawl
//! records. Every decision is a pure function of the plan's seed and a
//! stable, stage-qualified record key — never of thread interleaving or
//! processing order — so the same plan afflicts the same records under
//! any worker count, and the supervision report can reconcile injected
//! counts against quarantined/degraded/recovered outcomes exactly.
//!
//! Plans parse from the `squatphi repro --faults` grammar (seeded by
//! `--fault-seed`, which requires `--faults`): a comma-separated list
//! of `CLASS-permille-P` clauses (`P` in 0..=1000), e.g.
//! `panic-permille-60,poison-permille-50`. `none` is the empty plan.

use crate::artifact::content_key;

/// Per-class salts so one record never draws correlated faults across
/// classes from the same hash.
const SALT_PANIC: u64 = 0x70a1;
const SALT_FLAKY: u64 = 0xf1a2;
const SALT_POISON: u64 = 0x9013;
const SALT_TRUNCATE: u64 = 0x7254;

/// What a fault plan decided for one page record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFault {
    /// Panic on the first `failing_attempts` attempts. `u32::MAX` means
    /// the panic is persistent and the record ends in quarantine; `1`
    /// models a flaky analyzer that recovers on retry.
    Panic {
        /// Number of leading attempts that panic.
        failing_attempts: u32,
    },
    /// Force the visual derivation (render → pHash → OCR) to fail so the
    /// page takes the degraded lexical+form-only path.
    Poison,
}

/// Injected-fault counters, grouped the way [`reconciles`] consumes them.
///
/// [`reconciles`]: crate::supervise::SupervisionReport::reconciles
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Records afflicted with an injected analyzer panic (persistent or
    /// flaky), counted once per afflicted record at processing time.
    pub analyzer_panics: u64,
    /// Pages whose visual derivation was forcibly poisoned.
    pub poisoned_pages: u64,
    /// Crawl records whose captured HTML was truncated.
    pub truncated_records: u64,
}

impl FaultCounts {
    /// Total injected faults across all classes.
    pub fn total(&self) -> u64 {
        self.analyzer_panics + self.poisoned_pages + self.truncated_records
    }
}

/// A seeded, deterministic pipeline fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineFaultPlan {
    seed: u64,
    panic_permille: u16,
    flaky_permille: u16,
    poison_permille: u16,
    truncate_permille: u16,
}

impl Default for PipelineFaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl PipelineFaultPlan {
    /// The empty plan: injects nothing.
    pub fn none() -> Self {
        PipelineFaultPlan {
            seed: 0,
            panic_permille: 0,
            flaky_permille: 0,
            poison_permille: 0,
            truncate_permille: 0,
        }
    }

    /// Re-seeds the plan (the record population it afflicts shifts).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Plants persistent analyzer panics into `permille`/1000 of pages.
    pub fn analyzer_panics(mut self, permille: u16) -> Self {
        self.panic_permille = permille.min(1000);
        self
    }

    /// Plants first-attempt-only panics (recoverable given a retry
    /// budget ≥ 1) into `permille`/1000 of pages.
    pub fn flaky_panics(mut self, permille: u16) -> Self {
        self.flaky_permille = permille.min(1000);
        self
    }

    /// Poisons the visual derivation of `permille`/1000 of pages.
    pub fn poisons(mut self, permille: u16) -> Self {
        self.poison_permille = permille.min(1000);
        self
    }

    /// Truncates the captured HTML of `permille`/1000 of crawl records.
    pub fn truncations(mut self, permille: u16) -> Self {
        self.truncate_permille = permille.min(1000);
        self
    }

    /// True when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.panic_permille == 0
            && self.flaky_permille == 0
            && self.poison_permille == 0
            && self.truncate_permille == 0
    }

    /// Parses the `--faults` grammar: `none` or a comma-separated list of
    /// `panic-permille-P` / `flaky-permille-P` / `poison-permille-P` /
    /// `truncate-permille-P` clauses (`P` ∈ 0..=1000). Tokenization is
    /// the shared seeded-plan grammar in [`squatphi_durability::grammar`]
    /// (the same one `DiskFaultPlan` uses), so error wording names the
    /// offending clause consistently across both fault surfaces.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::none();
        for clause in squatphi_durability::grammar::parse_clauses("fault", spec)? {
            let permille = u16::try_from(clause.value)
                .ok()
                .filter(|p| *p <= 1000)
                .ok_or_else(|| format!("fault clause {:?}: permille exceeds 1000", clause.text))?;
            match clause.kind.as_str() {
                "panic-permille" => plan.panic_permille = permille,
                "flaky-permille" => plan.flaky_permille = permille,
                "poison-permille" => plan.poison_permille = permille,
                "truncate-permille" => plan.truncate_permille = permille,
                other => {
                    return Err(format!(
                        "fault clause {:?}: unknown class {other:?} \
                         (expected panic|flaky|poison|truncate -permille)",
                        clause.text
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Canonical spec string — part of the checkpoint config hash, so a
    /// checkpoint taken under one plan never replays under another.
    pub fn canonical(&self) -> String {
        format!(
            "seed={},panic={},flaky={},poison={},truncate={}",
            self.seed,
            self.panic_permille,
            self.flaky_permille,
            self.poison_permille,
            self.truncate_permille
        )
    }

    fn draws(&self, salt: u64, key: &str, permille: u16) -> bool {
        permille > 0 && content_key(self.seed ^ salt, key.as_bytes()) % 1000 < u64::from(permille)
    }

    /// Decides the fault (if any) for one page record. `key` must be a
    /// stable stage-qualified identifier (e.g. `detect:web:dom.com`);
    /// classes are checked in fixed precedence order (persistent panic >
    /// flaky panic > poison) so each record draws at most one fault.
    pub fn decide_page(&self, key: &str) -> Option<PageFault> {
        if self.draws(SALT_PANIC, key, self.panic_permille) {
            return Some(PageFault::Panic {
                failing_attempts: u32::MAX,
            });
        }
        if self.draws(SALT_FLAKY, key, self.flaky_permille) {
            return Some(PageFault::Panic {
                failing_attempts: 1,
            });
        }
        if self.draws(SALT_POISON, key, self.poison_permille) {
            return Some(PageFault::Poison);
        }
        None
    }

    /// Decides whether one crawl record's captured HTML gets truncated.
    pub fn truncates(&self, domain: &str) -> bool {
        self.draws(SALT_TRUNCATE, domain, self.truncate_permille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_class() {
        let plan = PipelineFaultPlan::parse(
            "panic-permille-60,flaky-permille-40,poison-permille-50,truncate-permille-30",
        )
        .unwrap();
        assert_eq!(plan.panic_permille, 60);
        assert_eq!(plan.flaky_permille, 40);
        assert_eq!(plan.poison_permille, 50);
        assert_eq!(plan.truncate_permille, 30);
        assert!(!plan.is_none());
        assert!(PipelineFaultPlan::parse("none").unwrap().is_none());
        assert!(PipelineFaultPlan::parse("").unwrap().is_none());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(PipelineFaultPlan::parse("panic-permille-1001").is_err());
        assert!(PipelineFaultPlan::parse("panic-permille-x").is_err());
        assert!(PipelineFaultPlan::parse("explode-permille-5").is_err());
        assert!(PipelineFaultPlan::parse("panic").is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_key_sensitive() {
        let plan = PipelineFaultPlan::none().analyzer_panics(500).with_seed(7);
        let keys: Vec<String> = (0..200).map(|i| format!("detect:web:d{i}.com")).collect();
        let first: Vec<_> = keys.iter().map(|k| plan.decide_page(k)).collect();
        let second: Vec<_> = keys.iter().map(|k| plan.decide_page(k)).collect();
        assert_eq!(first, second);
        let afflicted = first.iter().filter(|f| f.is_some()).count();
        assert!(
            (50..150).contains(&afflicted),
            "500‰ afflicted {afflicted}/200"
        );
        // A different seed shifts the afflicted population.
        let reseeded = plan.with_seed(8);
        assert!(keys
            .iter()
            .any(|k| plan.decide_page(k) != reseeded.decide_page(k)));
    }

    #[test]
    fn precedence_makes_faults_exclusive() {
        let plan = PipelineFaultPlan::none()
            .analyzer_panics(1000)
            .poisons(1000);
        // With both classes at 100%, the persistent panic always wins.
        for i in 0..50 {
            assert_eq!(
                plan.decide_page(&format!("k{i}")),
                Some(PageFault::Panic {
                    failing_attempts: u32::MAX
                })
            );
        }
    }

    #[test]
    fn canonical_distinguishes_plans() {
        let a = PipelineFaultPlan::none().analyzer_panics(10);
        let b = PipelineFaultPlan::none().poisons(10);
        assert_ne!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), a.canonical());
    }

    #[test]
    fn empty_plan_never_fires() {
        let plan = PipelineFaultPlan::none();
        for i in 0..100 {
            assert_eq!(plan.decide_page(&format!("k{i}")), None);
            assert!(!plan.truncates(&format!("d{i}.com")));
        }
    }
}
