//! Shared fixtures for the benchmark suite.

#![forbid(unsafe_code)]

use squatphi_squat::BrandRegistry;
use squatphi_telemetry::Json;
use squatphi_web::behavior::{Cloaking, LifetimePattern, PhishingProfile, ScamKind};
use squatphi_web::pages;
use std::process::Command;

/// Cores the scheduler lets this process use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, `"unknown"` when the
/// command is missing or fails.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host header every `BENCH_*.json` writer puts first: cores
/// available, `rustc -V` of the toolchain on `PATH`, and the git revision
/// of the working directory (suffixed `-dirty` when it has uncommitted
/// changes). Two baselines compare only when these agree.
pub fn host() -> Json {
    let mut host = Json::obj();
    host.push(
        "available_parallelism",
        Json::U64(available_parallelism() as u64),
    );
    host.push("rustc", Json::Str(first_line_of("rustc", &["-V"])));
    host.push(
        "git_revision",
        Json::Str(first_line_of(
            "git",
            &["describe", "--always", "--dirty", "--abbrev=40"],
        )),
    );
    host
}

/// A mid-sized registry shared by benches (full 702 where scan realism
/// matters, smaller where per-item cost is measured).
pub fn registry() -> BrandRegistry {
    BrandRegistry::paper()
}

/// A representative phishing page for page-pipeline benches.
pub fn sample_phishing_page() -> String {
    let registry = BrandRegistry::with_size(10);
    let brand = registry.by_label("paypal").expect("paypal");
    let profile = PhishingProfile {
        brand: brand.id,
        scam: ScamKind::FakeLogin,
        layout_obfuscation: 2,
        string_obfuscation: true,
        code_obfuscation: true,
        cloaking: Cloaking::None,
        lifetime: LifetimePattern::Stable,
    };
    pages::phishing_page(brand, &profile, "paypal-cash.com", 3)
}
