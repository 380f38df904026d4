//! Pins the detector's allocation contract: `classify` performs **zero
//! heap allocations** for ASCII labels (the scan hot path), while IDN
//! (`xn--`) labels are exempt because punycode decoding allocates.
//!
//! Integration test on purpose: a `#[global_allocator]` is process-wide,
//! so it lives in its own test binary where it cannot distort the unit
//! tests' behavior or timings. The count itself is per thread: sibling
//! tests run concurrently on other threads of this binary, and their
//! allocations must not land in the measured window.

use squatphi_domain::DomainName;
use squatphi_squat::{BrandRegistry, ClassifyStats, SquatDetector, SquatType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread. A `const`-initialised
    /// `Cell<u64>` needs no destructor and allocates nothing itself, so it
    /// is safe to touch from inside the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down; such
    // allocations belong to no measured window.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Heap allocations the calling thread performs while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn classify_is_allocation_free_for_ascii_labels() {
    let registry = BrandRegistry::with_size(30);
    let detector = SquatDetector::new(&registry);
    // Misses, near-misses and every ASCII squat type — each exercises a
    // different probe path (skeleton fold, glyph swaps, sequence folds,
    // merged deletion pass, adjacent swaps, omission, combo).
    let cases = [
        ("winterpillow.net", None),
        ("example.com", None),
        ("random-hyphen-words.org", None),
        ("faceb00k.pw", Some(SquatType::Homograph)),
        ("goog1e.nl", Some(SquatType::Homograph)),
        ("facebnok.tk", Some(SquatType::Bits)),
        ("facebok.tk", Some(SquatType::Typo)),
        ("facebo0ok.com", Some(SquatType::Typo)),
        ("fcaebook.org", Some(SquatType::Typo)),
        ("facebook-story.de", Some(SquatType::Combo)),
        ("facebook.audi", Some(SquatType::WrongTld)),
        ("facebook.com", None), // the brand itself
    ];
    let domains: Vec<(DomainName, Option<SquatType>)> = cases
        .iter()
        .map(|(s, t)| (DomainName::parse(s).expect("valid"), *t))
        .collect();

    // Warm-up pass: lets any lazy one-time allocation (hash randomization
    // state etc.) happen outside the measured window.
    for (d, _) in &domains {
        let _ = detector.classify(d);
    }

    for (d, expected) in &domains {
        let (allocs, got) = allocations_during(|| detector.classify(d));
        assert_eq!(got.map(|m| m.squat_type), *expected, "{d}");
        assert_eq!(allocs, 0, "classify({d}) allocated {allocs} times");
    }
}

#[test]
fn classify_with_stats_is_allocation_free_too() {
    let registry = BrandRegistry::with_size(30);
    let detector = SquatDetector::new(&registry);
    let d = DomainName::parse("winterpillow.net").expect("valid");
    let mut stats = ClassifyStats::default();
    let _ = detector.classify_with_stats(&d, &mut stats);
    let (allocs, _) = allocations_during(|| detector.classify_with_stats(&d, &mut stats));
    assert_eq!(allocs, 0);
    assert!(stats.probes > 0);
    assert!(stats.allocations_avoided > 0);
}

#[test]
fn idn_labels_are_exempt_but_still_classified() {
    let registry = BrandRegistry::with_size(30);
    let detector = SquatDetector::new(&registry);
    let d = DomainName::parse("xn--fcebook-8va.com").expect("valid");
    let _ = detector.classify(&d);
    let (allocs, got) = allocations_during(|| detector.classify(&d));
    // Punycode decoding allocates by design — the guarantee covers ASCII
    // labels only. The classification itself must still work.
    assert_eq!(got.map(|m| m.squat_type), Some(SquatType::Homograph));
    assert!(allocs > 0, "expected the IDN path to allocate (it decodes)");
}
