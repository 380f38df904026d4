//! Argument parsing for the `squatphi` binary (std-only, no clap).
//!
//! Every subcommand reads its flags through one cursor, [`Args`], so a
//! value is fetched, parsed and range-checked the same way everywhere.
//! The checkpoint group `watch` and `repro` share is parsed and checked
//! once, by [`CheckpointFlags`].

use squatphi::{DiskFaultPlan, PipelineFaultPlan, PipelineStage};
use squatphi_crawler::{FaultPlan, FetchClass};
use squatphi_experiments::EXPERIMENT_IDS;
use std::str::FromStr;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `squatphi gen <brand> [--limit N]` — candidate squatting domains.
    Gen {
        /// Brand label to generate for.
        brand: String,
        /// Max candidates per squatting type.
        limit: usize,
    },
    /// `squatphi classify <domain>...` — squatting classification.
    Classify {
        /// Domains to classify.
        domains: Vec<String>,
    },
    /// `squatphi scan <zonefile> [--type TYPE] [--threads N] [--json]
    /// [--timings]` — scan a zone file for squatting domains.
    Scan {
        /// Zone file path.
        path: String,
        /// Only print matches of this type (paper name, e.g. `Combo`).
        type_filter: Option<String>,
        /// Scan worker threads.
        threads: usize,
        /// Emit the telemetry snapshot as JSON instead of the report.
        json: bool,
        /// Keep wall-clock timing values in the JSON (breaks two-run
        /// byte-identity, so it is opt-in).
        timings: bool,
    },
    /// `squatphi crawl <zonefile> [--threads N] [--retries N]
    /// [--chaos MODE[:CLASS]] [--seed N] [--json] [--timings]` — scan a
    /// zone file, rebuild the web world for the matches, and crawl it
    /// through the full transport middleware stack (optionally under
    /// fault injection).
    Crawl {
        /// Zone file path.
        path: String,
        /// Crawl worker threads.
        threads: usize,
        /// Engine-level retry budget.
        retries: usize,
        /// Fault-injection plan for the chaos layer.
        plan: FaultPlan,
        /// World + chaos seed.
        seed: u64,
        /// Emit the telemetry snapshot as JSON instead of the report.
        json: bool,
        /// Keep wall-clock timing values in the JSON (opt-in).
        timings: bool,
    },
    /// `squatphi page <file.html> [--brand LABEL]` — audit one page:
    /// forms, OCR text, JS indicators, evasion vs the brand page, and a
    /// phishing score.
    Page {
        /// HTML file path.
        path: String,
        /// Brand to measure evasion against.
        brand: Option<String>,
    },
    /// `squatphi render <file.html> [--width N]` — ASCII screenshot.
    Render {
        /// HTML file path.
        path: String,
        /// Output columns.
        width: usize,
    },
    /// `squatphi conformance [--seed N] [--budget ci|full] [--json]
    /// [--timings] [--report FILE]` — run the seeded conformance oracles
    /// (generator↔detector differential, codec round trips, never-panic
    /// fuzzing).
    Conformance {
        /// Seed for the randomized oracle halves.
        seed: u64,
        /// Budget name (`ci` | `full`).
        budget: String,
        /// Emit the machine-readable JSON summary instead of the table.
        json: bool,
        /// Include per-oracle wall-clock nanos (breaks byte-for-byte
        /// determinism between runs, so it is opt-in).
        timings: bool,
        /// Also write the (timing-free) JSON report to this file — set
        /// regardless of pass/fail so CI can upload shrunk inputs.
        report: Option<String>,
    },
    /// `squatphi watch [--seed N] [--events N] [--brands N] [--threads N]
    /// [--stop-after N] [CHECKPOINT FLAGS] [--json] [--timings]` — run
    /// the streaming detection daemon over the seeded registration feed.
    Watch {
        /// Stream + world seed.
        seed: u64,
        /// Total feed events to consume.
        events: u64,
        /// Monitored brands.
        brands: usize,
        /// Worker threads (never affects outputs).
        threads: usize,
        /// Stop once this many events have been injected (checkpointing
        /// first when `--checkpoint` is set).
        stop_after: Option<u64>,
        /// Watermark checkpoints.
        checkpoint: CheckpointArgs,
        /// Emit the machine-readable JSON summary instead of the report.
        json: bool,
        /// Keep wall-clock timing values in the JSON (opt-in; virtual
        /// `backoff_ns` totals are deterministic and always included).
        timings: bool,
    },
    /// `squatphi repro [--list] [--scale N] [--threads N] [--faults SPEC]
    /// [--fault-seed N] [--fail-fast] [--stop-after STAGE]
    /// [CHECKPOINT FLAGS] [--json] [--timings] [all | ID...]` — run the
    /// whole pipeline and regenerate the paper's tables and figures.
    Repro {
        /// Experiment ids whose reports are printed, in order.
        ids: Vec<String>,
        /// Print the experiment ids instead of running anything.
        list: bool,
        /// Haystack scale divisor (`SimConfig::paper_scale`).
        scale: usize,
        /// Worker threads (`None` keeps the scale's default).
        threads: Option<usize>,
        /// Seeded pipeline fault plan.
        faults: PipelineFaultPlan,
        /// Promote the first per-record panic to a run failure.
        fail_fast: bool,
        /// Stop after this stage's checkpoint is written.
        stop_after: Option<PipelineStage>,
        /// Stage checkpoints.
        checkpoint: CheckpointArgs,
        /// Print the run summary JSON instead of the experiment reports.
        json: bool,
        /// Keep wall-clock timing values in the JSON (opt-in).
        timings: bool,
    },
    /// `squatphi help`.
    Help,
}

/// The checkpoint flags `watch` and `repro` share: `--checkpoint DIR
/// --resume --disk-faults SPEC --disk-fault-seed N`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointArgs {
    /// Checkpoint directory (`None` = no checkpointing).
    pub dir: Option<String>,
    /// Resume from the checkpoints in `dir`.
    pub resume: bool,
    /// Seeded disk-fault plan injected under the checkpoint store.
    pub disk_faults: DiskFaultPlan,
}

/// Errors from argument parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

fn unexpected(arg: &str) -> CliError {
    err(format!("unexpected argument {arg:?}"))
}

/// Fails when `flag` was given without the `needed` flag it depends on.
fn requires(given: bool, needed: bool, flag: &str, needs: &str) -> Result<(), CliError> {
    if given && !needed {
        return Err(err(format!("{flag} requires {needs}")));
    }
    Ok(())
}

/// The usage text.
pub const USAGE: &str = "\
squatphi — squatting-phishing tooling (IMC '18 reproduction)

USAGE:
  squatphi gen <brand> [--limit N]          candidate squatting domains
  squatphi classify <domain>...             classify domains against 702 brands
  squatphi scan <zone-file> [--type T] [--threads N] [--json] [--timings]
                                            scan a zone file for squatting
  squatphi crawl <zone-file> [--threads N] [--retries N]
                 [--chaos MODE[:CLASS]] [--seed N] [--json] [--timings]
                                            scan, then crawl the matches through
                                            the fault-tolerant transport stack
                                            (MODE: none | first-K | every-K |
                                            permille-P; CLASS: timeout | refused |
                                            truncated | injected)
  squatphi page <file.html> [--brand L]     audit a page (forms/OCR/JS/score)
  squatphi render <file.html> [--width N]   ASCII screenshot of a page
  squatphi conformance [--seed N] [--budget ci|full] [--json] [--timings]
                       [--report FILE]
                                            run the seeded conformance oracles
                                            (differential, round-trip, fuzz);
                                            exits non-zero on any violation
  squatphi watch [--seed N] [--events N] [--brands N] [--threads N]
                 [--stop-after N] [CHECKPOINT FLAGS] [--json] [--timings]
                                            streaming detection daemon: ingest
                                            the seeded registration feed through
                                            bounded detect + re-crawl stages
                                            with watermark checkpoints
  squatphi repro [--list] [--scale N] [--threads N] [--faults SPEC]
                 [--fault-seed N] [--fail-fast] [--stop-after STAGE]
                 [CHECKPOINT FLAGS] [--json] [--timings] [all | ID...]
                                            run the pipeline at 1/N haystack
                                            scale (default 100), then print the
                                            named experiments, or with --json
                                            the run summary (no ids)
                                            (SPEC: comma-separated
                                            panic|flaky|poison|truncate
                                            -permille-P clauses, or none;
                                            STAGE: scan | crawl | train | detect)
  squatphi help                             this text

CHECKPOINT FLAGS (watch, repro):
  --checkpoint DIR [--resume] [--disk-faults SPEC] [--disk-fault-seed N]
                                            persist checkpoints in DIR; resume
                                            from them; inject seeded disk faults
                                            under the store (SPEC: comma-separated
                                            torn-at-byte-N | bitflip-permille-P |
                                            enospc-after-N | crash-at-write-K
                                            clauses, or none; crash-at-write
                                            exits 86)

Every --json surface strips wall-clock timing values by default (one
telemetry-layer rule), so two identical runs emit byte-identical JSON;
pass --timings to keep them.
";

/// The one cursor every subcommand reads its arguments through.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value after `flag`; `what` describes it in the error.
    fn value(&mut self, flag: &str, what: &str) -> Result<&'a str, CliError> {
        self.next()
            .ok_or_else(|| err(format!("{flag} needs {what}")))
    }

    /// The value after `flag`, parsed as a `T`.
    fn parsed<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, CliError> {
        self.next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err(format!("{flag} needs {what}")))
    }

    /// The value after `flag` as an integer of at least 1.
    fn positive<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, CliError> {
        self.next()
            .and_then(|s| s.parse().ok())
            .filter(|n| *n != T::default())
            .ok_or_else(|| err(format!("{flag} needs a positive integer")))
    }
}

/// The checkpoint group as given, before its cross-flag checks.
#[derive(Default)]
struct CheckpointFlags<'a> {
    dir: Option<&'a str>,
    resume: bool,
    disk_faults: Option<&'a str>,
    disk_fault_seed: Option<u64>,
}

impl<'a> CheckpointFlags<'a> {
    /// Reads `flag` (and its value) if it belongs to the group.
    fn accept(&mut self, flag: &str, a: &mut Args<'a>) -> Result<bool, CliError> {
        match flag {
            "--checkpoint" => self.dir = Some(a.value(flag, "a directory")?),
            "--resume" => self.resume = true,
            "--disk-faults" => self.disk_faults = Some(a.value(flag, "a plan spec")?),
            "--disk-fault-seed" => self.disk_fault_seed = Some(a.parsed(flag, "an integer")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resume and disk faults act on the checkpoint store, so they
    /// require one; a seed requires the plan it seeds.
    fn finish(self) -> Result<CheckpointArgs, CliError> {
        let (dir, plan) = (self.dir.is_some(), self.disk_faults.is_some());
        requires(self.resume, dir, "--resume", "--checkpoint DIR")?;
        let seeded = self.disk_fault_seed.is_some();
        requires(seeded, plan, "--disk-fault-seed", "--disk-faults")?;
        let disk_faults = DiskFaultPlan::parse(self.disk_faults.unwrap_or("none"))
            .map_err(|e| err(format!("--disk-faults: {e}")))?
            .with_seed(self.disk_fault_seed.unwrap_or(0));
        let faulty = !disk_faults.is_none();
        requires(faulty, dir, "--disk-faults", "--checkpoint DIR")?;
        Ok(CheckpointArgs {
            dir: self.dir.map(String::from),
            resume: self.resume,
            disk_faults,
        })
    }
}

/// Parses argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let mut a = Args(rest.iter());
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "gen" => {
            let mut brand = None;
            let mut limit = 10;
            while let Some(arg) = a.next() {
                match arg {
                    "--limit" => limit = a.positive(arg)?,
                    other if brand.is_none() => brand = Some(other.to_string()),
                    other => return Err(unexpected(other)),
                }
            }
            Ok(Command::Gen {
                brand: brand.ok_or_else(|| err("gen needs a brand label"))?,
                limit,
            })
        }
        "classify" => {
            if rest.is_empty() {
                return Err(err("classify needs at least one domain"));
            }
            Ok(Command::Classify {
                domains: rest.to_vec(),
            })
        }
        "scan" => {
            let mut path = None;
            let mut type_filter = None;
            let mut threads = 8;
            let (mut json, mut timings) = (false, false);
            while let Some(arg) = a.next() {
                match arg {
                    "--type" => type_filter = Some(a.value(arg, "a value")?.to_string()),
                    "--threads" => threads = a.positive(arg)?,
                    "--json" => json = true,
                    "--timings" => timings = true,
                    other if path.is_none() => path = Some(other.to_string()),
                    other => return Err(unexpected(other)),
                }
            }
            Ok(Command::Scan {
                path: path.ok_or_else(|| err("scan needs a zone-file path"))?,
                type_filter,
                threads,
                json,
                timings,
            })
        }
        "crawl" => {
            let mut path = None;
            let mut threads = 8;
            let mut retries = 1;
            let mut chaos = "none";
            let mut seed = 0;
            let (mut json, mut timings) = (false, false);
            while let Some(arg) = a.next() {
                match arg {
                    "--threads" => threads = a.positive(arg)?,
                    "--retries" => retries = a.parsed(arg, "a non-negative integer")?,
                    "--chaos" => chaos = a.value(arg, "MODE[:CLASS]")?,
                    "--seed" => seed = a.parsed(arg, "an integer")?,
                    "--json" => json = true,
                    "--timings" => timings = true,
                    other if path.is_none() => path = Some(other.to_string()),
                    other => return Err(unexpected(other)),
                }
            }
            Ok(Command::Crawl {
                path: path.ok_or_else(|| err("crawl needs a zone-file path"))?,
                threads,
                retries,
                plan: parse_fault_plan(chaos, seed)?,
                seed,
                json,
                timings,
            })
        }
        "page" => {
            let mut path = None;
            let mut brand = None;
            while let Some(arg) = a.next() {
                match arg {
                    "--brand" => brand = Some(a.value(arg, "a label")?.to_string()),
                    other if path.is_none() => path = Some(other.to_string()),
                    other => return Err(unexpected(other)),
                }
            }
            Ok(Command::Page {
                path: path.ok_or_else(|| err("page needs an HTML file path"))?,
                brand,
            })
        }
        "render" => {
            let mut path = None;
            let mut width = 80usize;
            while let Some(arg) = a.next() {
                match arg {
                    "--width" => width = a.positive(arg)?,
                    other if path.is_none() => path = Some(other.to_string()),
                    other => return Err(unexpected(other)),
                }
            }
            Ok(Command::Render {
                path: path.ok_or_else(|| err("render needs an HTML file path"))?,
                width: width.max(8),
            })
        }
        "conformance" => {
            let mut seed = 1;
            let mut budget = "ci";
            let mut report = None;
            let (mut json, mut timings) = (false, false);
            while let Some(arg) = a.next() {
                match arg {
                    "--seed" => seed = a.parsed(arg, "an integer")?,
                    "--budget" => budget = a.value(arg, "a value (ci | full)")?,
                    "--json" => json = true,
                    "--timings" => timings = true,
                    "--report" => report = Some(a.value(arg, "a file path")?.to_string()),
                    other => return Err(unexpected(other)),
                }
            }
            Ok(Command::Conformance {
                seed,
                budget: budget.to_string(),
                json,
                timings,
                report,
            })
        }
        "watch" => {
            let mut seed = 20180401;
            let mut events = 2000;
            let mut brands = 40;
            let mut threads = 4;
            let mut stop_after = None;
            let mut checkpoint = CheckpointFlags::default();
            let (mut json, mut timings) = (false, false);
            while let Some(arg) = a.next() {
                match arg {
                    "--seed" => seed = a.parsed(arg, "an integer")?,
                    "--events" => events = a.positive(arg)?,
                    "--brands" => brands = a.positive(arg)?,
                    "--threads" => threads = a.positive(arg)?,
                    "--stop-after" => stop_after = Some(a.positive(arg)?),
                    "--json" => json = true,
                    "--timings" => timings = true,
                    other if checkpoint.accept(other, &mut a)? => {}
                    other => return Err(unexpected(other)),
                }
            }
            Ok(Command::Watch {
                seed,
                events,
                brands,
                threads,
                stop_after,
                checkpoint: checkpoint.finish()?,
                json,
                timings,
            })
        }
        "repro" => {
            let mut ids = Vec::new();
            let mut list = false;
            let mut scale = 100;
            let mut threads = None;
            let (mut faults, mut fault_seed) = (None, None);
            let mut fail_fast = false;
            let mut stop_after = None;
            let mut checkpoint = CheckpointFlags::default();
            let (mut json, mut timings) = (false, false);
            while let Some(arg) = a.next() {
                match arg {
                    "--list" => list = true,
                    "--scale" => scale = a.positive(arg)?,
                    "--threads" => threads = Some(a.positive(arg)?),
                    "--faults" => faults = Some(a.value(arg, "a plan spec")?),
                    "--fault-seed" => fault_seed = Some(a.parsed(arg, "an integer")?),
                    "--fail-fast" => fail_fast = true,
                    "--stop-after" => {
                        let stage = a.value(arg, "a stage name")?;
                        stop_after = Some(PipelineStage::parse(stage).ok_or_else(|| {
                            err("--stop-after expects scan, crawl, train or detect")
                        })?);
                    }
                    "--json" => json = true,
                    "--timings" => timings = true,
                    "all" => ids = EXPERIMENT_IDS.iter().map(|id| id.to_string()).collect(),
                    id if EXPERIMENT_IDS.contains(&id) => ids.push(id.to_string()),
                    other if checkpoint.accept(other, &mut a)? => {}
                    other => {
                        return Err(err(format!(
                            "unknown argument {other:?} (use --list to see experiment ids)"
                        )))
                    }
                }
            }
            let seeded = fault_seed.is_some();
            requires(seeded, faults.is_some(), "--fault-seed", "--faults")?;
            let faults = PipelineFaultPlan::parse(faults.unwrap_or("none"))
                .map_err(|e| err(format!("--faults: {e}")))?
                .with_seed(fault_seed.unwrap_or(0));
            let checkpoint = checkpoint.finish()?;
            if json && !ids.is_empty() {
                return Err(err(
                    "--json prints the run summary in place of the experiment reports; \
                     drop the experiment ids",
                ));
            }
            if !list && ids.is_empty() && !json && stop_after.is_none() {
                return Err(err("nothing to run: pass experiment ids or `all`"));
            }
            Ok(Command::Repro {
                ids,
                list,
                scale,
                threads,
                faults,
                fail_fast,
                stop_after,
                checkpoint,
                json,
                timings,
            })
        }
        other => Err(err(format!(
            "unknown subcommand {other:?} (try `squatphi help`)"
        ))),
    }
}

/// Parses a `--chaos` spec — `MODE[:CLASS]` where MODE is `none`,
/// `first-K`, `every-K` or `permille-P` and CLASS is a
/// [`FetchClass`] name (default `injected`).
fn parse_fault_plan(spec: &str, seed: u64) -> Result<FaultPlan, CliError> {
    let (mode, class) = match spec.split_once(':') {
        Some((m, c)) => (
            m,
            FetchClass::parse(c)
                .ok_or_else(|| err(format!("unknown error class {c:?} in --chaos")))?,
        ),
        None => (spec, FetchClass::Injected),
    };
    let plan = if mode == "none" {
        FaultPlan::none()
    } else if let Some(k) = mode.strip_prefix("first-") {
        FaultPlan::fail_first(
            k.parse()
                .map_err(|_| err("--chaos first-K needs an integer K"))?,
        )
    } else if let Some(k) = mode.strip_prefix("every-") {
        FaultPlan::fail_every(
            k.parse()
                .map_err(|_| err("--chaos every-K needs an integer K >= 1"))?,
        )
    } else if let Some(p) = mode.strip_prefix("permille-") {
        FaultPlan::fail_permille(
            p.parse()
                .map_err(|_| err("--chaos permille-P needs an integer P in 0..=1000"))?,
        )
    } else {
        return Err(err(format!(
            "unknown --chaos mode {mode:?} (none | first-K | every-K | permille-P)"
        )));
    };
    Ok(plan.with_class(class).with_seed(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_gen() {
        assert_eq!(
            parse_args(&args("gen facebook --limit 5")).unwrap(),
            Command::Gen {
                brand: "facebook".into(),
                limit: 5
            }
        );
        assert_eq!(
            parse_args(&args("gen paypal")).unwrap(),
            Command::Gen {
                brand: "paypal".into(),
                limit: 10
            }
        );
        assert!(parse_args(&args("gen")).is_err());
        assert!(parse_args(&args("gen a b")).is_err());
    }

    #[test]
    fn parses_classify() {
        assert_eq!(
            parse_args(&args("classify faceb00k.pw goofle.com.ua")).unwrap(),
            Command::Classify {
                domains: vec!["faceb00k.pw".into(), "goofle.com.ua".into()]
            }
        );
        assert!(parse_args(&args("classify")).is_err());
    }

    #[test]
    fn parses_scan() {
        assert_eq!(
            parse_args(&args("scan zone.txt --type Combo --threads 4")).unwrap(),
            Command::Scan {
                path: "zone.txt".into(),
                type_filter: Some("Combo".into()),
                threads: 4,
                json: false,
                timings: false
            }
        );
        assert_eq!(
            parse_args(&args("scan zone.txt --json --timings")).unwrap(),
            Command::Scan {
                path: "zone.txt".into(),
                type_filter: None,
                threads: 8,
                json: true,
                timings: true
            }
        );
        assert!(parse_args(&args("scan --type Combo")).is_err());
        // Zero workers is a usage error on every subcommand.
        assert!(parse_args(&args("scan zone.txt --threads 0")).is_err());
    }

    #[test]
    fn parses_crawl() {
        assert_eq!(
            parse_args(&args("crawl zone.txt")).unwrap(),
            Command::Crawl {
                path: "zone.txt".into(),
                threads: 8,
                retries: 1,
                plan: FaultPlan::none(),
                seed: 0,
                json: false,
                timings: false
            }
        );
        assert_eq!(
            parse_args(&args(
                "crawl zone.txt --threads 4 --retries 0 --chaos every-2:timeout --seed 9 \
                 --json --timings"
            ))
            .unwrap(),
            Command::Crawl {
                path: "zone.txt".into(),
                threads: 4,
                retries: 0,
                plan: FaultPlan::fail_every(2)
                    .with_class(FetchClass::Timeout)
                    .with_seed(9),
                seed: 9,
                json: true,
                timings: true
            }
        );
        assert!(parse_args(&args("crawl")).is_err());
        assert!(parse_args(&args("crawl zone.txt --threads 0")).is_err());
        assert!(parse_args(&args("crawl zone.txt --chaos bogus")).is_err());
        assert!(parse_args(&args("crawl zone.txt --chaos first-1:nonsense")).is_err());
    }

    #[test]
    fn fault_plan_spec_roundtrips() {
        assert_eq!(parse_fault_plan("none", 0).unwrap(), FaultPlan::none());
        assert_eq!(
            parse_fault_plan("first-3", 1).unwrap(),
            FaultPlan::fail_first(3).with_seed(1)
        );
        assert_eq!(
            parse_fault_plan("permille-250:truncated", 7).unwrap(),
            FaultPlan::fail_permille(250)
                .with_class(FetchClass::Truncated)
                .with_seed(7)
        );
        assert!(parse_fault_plan("every-x", 0).is_err());
    }

    #[test]
    fn parses_page_and_render() {
        assert_eq!(
            parse_args(&args("page p.html --brand paypal")).unwrap(),
            Command::Page {
                path: "p.html".into(),
                brand: Some("paypal".into())
            }
        );
        assert_eq!(
            parse_args(&args("render p.html --width 60")).unwrap(),
            Command::Render {
                path: "p.html".into(),
                width: 60
            }
        );
        assert!(parse_args(&args("render --width 60")).is_err());
    }

    #[test]
    fn parses_conformance() {
        assert_eq!(
            parse_args(&args("conformance")).unwrap(),
            Command::Conformance {
                seed: 1,
                budget: "ci".into(),
                json: false,
                timings: false,
                report: None
            }
        );
        assert_eq!(
            parse_args(&args(
                "conformance --seed 7 --budget full --json --timings --report out.json"
            ))
            .unwrap(),
            Command::Conformance {
                seed: 7,
                budget: "full".into(),
                json: true,
                timings: true,
                report: Some("out.json".into())
            }
        );
        assert!(parse_args(&args("conformance --seed")).is_err());
        assert!(parse_args(&args("conformance bogus")).is_err());
    }

    #[test]
    fn parses_watch() {
        assert_eq!(
            parse_args(&args("watch")).unwrap(),
            Command::Watch {
                seed: 20180401,
                events: 2000,
                brands: 40,
                threads: 4,
                stop_after: None,
                checkpoint: CheckpointArgs::default(),
                json: false,
                timings: false
            }
        );
        assert_eq!(
            parse_args(&args(
                "watch --seed 7 --events 500 --brands 12 --threads 2 \
                 --stop-after 100 --checkpoint ckpt --resume --json --timings"
            ))
            .unwrap(),
            Command::Watch {
                seed: 7,
                events: 500,
                brands: 12,
                threads: 2,
                stop_after: Some(100),
                checkpoint: CheckpointArgs {
                    dir: Some("ckpt".into()),
                    resume: true,
                    disk_faults: DiskFaultPlan::none(),
                },
                json: true,
                timings: true
            }
        );
        assert!(parse_args(&args("watch --events 0")).is_err());
        assert!(parse_args(&args("watch --resume")).is_err());
        assert!(parse_args(&args("watch --stop-after")).is_err());
        assert!(parse_args(&args("watch bogus")).is_err());
    }

    #[test]
    fn parses_watch_disk_faults() {
        let cmd = parse_args(&args(
            "watch --checkpoint ckpt --disk-faults torn-at-byte-60,crash-at-write-2 \
             --disk-fault-seed 9",
        ))
        .unwrap();
        let Command::Watch { checkpoint, .. } = cmd else {
            panic!("parsed a non-watch command");
        };
        assert_eq!(
            checkpoint.disk_faults,
            DiskFaultPlan::parse("torn-at-byte-60,crash-at-write-2")
                .unwrap()
                .with_seed(9)
        );
        // Bad clauses are rejected with the offending clause named.
        let e = parse_args(&args("watch --checkpoint ckpt --disk-faults melt-cpu-5")).unwrap_err();
        assert!(e.0.contains("melt-cpu-5"), "{e}");
        // Disk faults only act on the checkpoint store, so they require one.
        assert!(parse_args(&args("watch --disk-faults torn-at-byte-60")).is_err());
        assert!(parse_args(&args("watch --disk-faults")).is_err());
        assert!(parse_args(&args("watch --disk-fault-seed x")).is_err());
        // A seed without the plan it seeds would be silently ignored.
        let e = parse_args(&args("watch --checkpoint ckpt --disk-fault-seed 5")).unwrap_err();
        assert!(
            e.0.contains("--disk-fault-seed requires --disk-faults"),
            "{e}"
        );
    }

    #[test]
    fn parses_repro() {
        let all: Vec<String> = EXPERIMENT_IDS.iter().map(|id| id.to_string()).collect();
        assert_eq!(
            parse_args(&args("repro table7 fig10")).unwrap(),
            Command::Repro {
                ids: vec!["table7".into(), "fig10".into()],
                list: false,
                scale: 100,
                threads: None,
                faults: PipelineFaultPlan::none(),
                fail_fast: false,
                stop_after: None,
                checkpoint: CheckpointArgs::default(),
                json: false,
                timings: false
            }
        );
        assert_eq!(
            parse_args(&args(
                "repro --scale 400 --threads 2 --faults panic-permille-60 --fault-seed 3 \
                 --fail-fast --stop-after crawl --checkpoint ckpt --resume \
                 --disk-faults crash-at-write-2 --disk-fault-seed 9 all"
            ))
            .unwrap(),
            Command::Repro {
                ids: all.clone(),
                list: false,
                scale: 400,
                threads: Some(2),
                faults: PipelineFaultPlan::parse("panic-permille-60")
                    .unwrap()
                    .with_seed(3),
                fail_fast: true,
                stop_after: Some(PipelineStage::Crawl),
                checkpoint: CheckpointArgs {
                    dir: Some("ckpt".into()),
                    resume: true,
                    disk_faults: DiskFaultPlan::parse("crash-at-write-2")
                        .unwrap()
                        .with_seed(9),
                },
                json: false,
                timings: false
            }
        );
        let Command::Repro { ids, .. } = parse_args(&args("repro all table1")).unwrap() else {
            panic!("parsed a non-repro command");
        };
        assert_eq!(ids.len(), all.len() + 1);
        // --list, --json and --stop-after each stand without experiment ids.
        let Command::Repro { list, .. } = parse_args(&args("repro --list")).unwrap() else {
            panic!("parsed a non-repro command");
        };
        assert!(list);
        assert!(parse_args(&args("repro --json --timings")).is_ok());
        assert!(parse_args(&args("repro --stop-after scan")).is_ok());
        let rejected = [
            "repro",
            "repro --scale 0",
            "repro --scale x all",
            "repro --threads 0 all",
            "repro --stop-after render all",
            "repro table99",
            "repro --resume all",
            "repro --disk-faults crash-at-write-1 all",
            "repro --faults melt-permille-5 all",
            // A seed without its plan would have nothing to seed.
            "repro --fault-seed 5 all",
            "repro --checkpoint ckpt --disk-fault-seed 5 all",
            // --json replaces the reports, so ids with it would be dropped.
            "repro --json all",
            "repro --json table7",
        ];
        for line in rejected {
            assert!(parse_args(&args(line)).is_err(), "{line}");
        }
    }

    #[test]
    fn help_and_unknown() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args("help")).unwrap(), Command::Help);
        assert!(parse_args(&args("bogus")).is_err());
    }
}
