//! Perceptual image hashing (paper §4.2 "Layout Obfuscation").
//!
//! The paper measures layout obfuscation as the Hamming distance between
//! perceptual hashes of the phishing screenshot and the brand's real page
//! (Figures 8-9). This crate implements the three classic hashes from
//! scratch on our [`squatphi_render::Bitmap`]:
//!
//! * [`average_hash`] — 8×8 mean-threshold (64-bit),
//! * [`difference_hash`] — 9×8 horizontal-gradient (64-bit),
//! * [`perceptual_hash`] — 32×32 2-D DCT, top-left 8×8 low-frequency
//!   block thresholded at its median (64-bit).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;

use squatphi_render::Bitmap;
use std::sync::OnceLock;

/// A 64-bit perceptual hash.
///
/// Ordering is plain `u64` ordering of the raw bits; the index uses it only
/// for deterministic tie-breaking, never as a similarity measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImageHash(pub u64);

/// Hamming distance between two raw 64-bit hash words (0..=64).
///
/// The one shared distance path: [`ImageHash::distance`], [`phash_distance`],
/// the [`index::HashIndex`] verifier and the [`index::linear`] oracle all
/// delegate here, so production and oracle cannot diverge.
pub fn hamming64(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

impl ImageHash {
    /// Construct a hash from its raw 64-bit word.
    pub fn from_bits(bits: u64) -> ImageHash {
        ImageHash(bits)
    }

    /// The raw 64-bit word.
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// Hamming distance to another hash (0..=64).
    pub fn distance(&self, other: &ImageHash) -> u32 {
        hamming64(self.0, other.0)
    }
}

impl std::fmt::Display for ImageHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// 8×8 average hash: each bit is 1 when the cell exceeds the mean.
pub fn average_hash(bmp: &Bitmap) -> ImageHash {
    let small = bmp.resample(8, 8);
    let mean = small.mean();
    let mut bits = 0u64;
    for y in 0..8 {
        for x in 0..8 {
            if small.get(x, y) as f64 > mean {
                bits |= 1 << (y * 8 + x);
            }
        }
    }
    ImageHash(bits)
}

/// 9×8 difference hash: each bit is 1 when a cell is brighter than its
/// right neighbor.
pub fn difference_hash(bmp: &Bitmap) -> ImageHash {
    let small = bmp.resample(9, 8);
    let mut bits = 0u64;
    for y in 0..8 {
        for x in 0..8 {
            if small.get(x, y) > small.get(x + 1, y) {
                bits |= 1 << (y * 8 + x);
            }
        }
    }
    ImageHash(bits)
}

/// Side of the resampled image the DCT runs on.
const N: usize = 32;
/// Side of the low-frequency block the hash thresholds.
const LOW: usize = 8;

/// The DCT-II cosine basis, `basis[u * N + x] = cos(π/N · (x + ½) · u)`,
/// built once. Each entry is the exact expression the naive transform
/// evaluates inside its loop, so table lookups are bit-identical to it.
fn basis() -> &'static [f64; N * N] {
    static BASIS: OnceLock<[f64; N * N]> = OnceLock::new();
    BASIS.get_or_init(|| {
        let mut table = [0.0; N * N];
        for u in 0..N {
            for x in 0..N {
                table[u * N + x] =
                    ((std::f64::consts::PI / N as f64) * (x as f64 + 0.5) * u as f64).cos();
            }
        }
        table
    })
}

/// Top-left `LOW`×`LOW` block of the 2-D DCT-II of an `N`×`N` matrix,
/// row-major by frequency (`block[v * LOW + u]`).
///
/// Separable: rows then columns, summing in the same order as a full
/// transform, so every coefficient is bit-identical to the full DCT's.
/// Only the low frequencies the hash reads are computed.
fn dct2d(input: &[f64]) -> [f64; LOW * LOW] {
    let basis = basis();
    let mut rows = [0.0; N * LOW];
    for y in 0..N {
        for u in 0..LOW {
            let mut sum = 0.0;
            for x in 0..N {
                sum += input[y * N + x] * basis[u * N + x];
            }
            rows[y * LOW + u] = sum;
        }
    }
    let mut out = [0.0; LOW * LOW];
    for u in 0..LOW {
        for v in 0..LOW {
            let mut sum = 0.0;
            for y in 0..N {
                sum += rows[y * LOW + u] * basis[v * N + y];
            }
            out[v * LOW + u] = sum;
        }
    }
    out
}

/// 32×32 DCT perceptual hash. Robust to small translations/rescaling;
/// the paper's distances (7 / 24 / 38 for increasingly obfuscated pages)
/// are produced by this family of hashes.
pub fn perceptual_hash(bmp: &Bitmap) -> ImageHash {
    let small = bmp.resample(N, N);
    let input: Vec<f64> = small.pixels().iter().map(|&p| p as f64).collect();
    let block = dct2d(&input);
    // Median of the top-left 8×8 block, skipping the DC coefficient.
    let mut sorted: Vec<f64> = block[1..].to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite DCT coefficients"));
    let median = sorted[sorted.len() / 2];
    let mut bits = 0u64;
    for (i, &c) in block.iter().enumerate() {
        if c > median {
            bits |= 1 << i;
        }
    }
    ImageHash(bits)
}

/// Convenience: pHash distance between two bitmaps.
pub fn phash_distance(a: &Bitmap, b: &Bitmap) -> u32 {
    perceptual_hash(a).distance(&perceptual_hash(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(seed: u8) -> Bitmap {
        let mut b = Bitmap::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                let v = ((x * 7 + y * 13 + seed as usize * 31) % 256) as u8;
                b.put(x, y, v);
            }
        }
        b
    }

    /// The naive O(n³) transform `dct2d` replaced: the full n×n DCT-II,
    /// one `cos()` per multiply.
    fn naive_dct2d(input: &[f64], n: usize) -> Vec<f64> {
        let mut rows = vec![0.0; n * n];
        for y in 0..n {
            for u in 0..n {
                let mut sum = 0.0;
                for x in 0..n {
                    sum += input[y * n + x]
                        * ((std::f64::consts::PI / n as f64) * (x as f64 + 0.5) * u as f64).cos();
                }
                rows[y * n + u] = sum;
            }
        }
        let mut out = vec![0.0; n * n];
        for u in 0..n {
            for v in 0..n {
                let mut sum = 0.0;
                for y in 0..n {
                    sum += rows[y * n + u]
                        * ((std::f64::consts::PI / n as f64) * (y as f64 + 0.5) * v as f64).cos();
                }
                out[v * n + u] = sum;
            }
        }
        out
    }

    #[test]
    fn table_dct_is_bit_identical_to_the_naive_transform() {
        let mut inked = Bitmap::new(64, 64);
        inked.fill_rect(0, 0, 64, 64, 255);
        let mut blotched = textured(7);
        blotched.fill_rect(10, 20, 9, 5, 0);
        let cases = [
            Bitmap::new(64, 64), // blank (all white)
            inked,               // all black
            textured(1),
            textured(200),
            blotched,
            textured(3).resample(128, 96),
            textured(4).resample(33, 31),
        ];
        for bmp in &cases {
            let small = bmp.resample(N, N);
            let input: Vec<f64> = small.pixels().iter().map(|&p| p as f64).collect();
            let naive = naive_dct2d(&input, N);
            let block = dct2d(&input);
            for v in 0..LOW {
                for u in 0..LOW {
                    assert_eq!(
                        block[v * LOW + u].to_bits(),
                        naive[v * N + u].to_bits(),
                        "coefficient ({u}, {v})"
                    );
                }
            }
        }
    }

    #[test]
    fn identical_images_distance_zero() {
        let a = textured(1);
        for h in [average_hash(&a), difference_hash(&a), perceptual_hash(&a)] {
            assert_eq!(h.distance(&h), 0);
        }
    }

    #[test]
    fn small_perturbation_small_distance() {
        let a = textured(1);
        let mut b = a.clone();
        b.fill_rect(0, 0, 4, 4, 255); // tiny blotch
        let d = phash_distance(&a, &b);
        assert!(d <= 10, "tiny change moved hash by {d}");
    }

    #[test]
    fn different_textures_large_distance() {
        let mut a = Bitmap::new(64, 64);
        a.fill_rect(0, 0, 32, 64, 255); // left half dark
        let mut b = Bitmap::new(64, 64);
        b.fill_rect(0, 0, 64, 32, 255); // top half dark
        let d = phash_distance(&a, &b);
        assert!(d >= 12, "structurally different images only {d} apart");
    }

    #[test]
    fn phash_robust_to_rescale() {
        let a = textured(3);
        let bigger = a.resample(128, 128);
        let d = perceptual_hash(&a).distance(&perceptual_hash(&bigger));
        assert!(d <= 6, "rescale moved pHash by {d}");
    }

    #[test]
    fn ahash_and_dhash_disagree_with_phash_sometimes() {
        // Not a correctness property, just ensures the three functions are
        // actually distinct computations.
        let a = textured(5);
        let h1 = average_hash(&a).0;
        let h2 = difference_hash(&a).0;
        let h3 = perceptual_hash(&a).0;
        assert!(h1 != h2 || h2 != h3);
    }

    #[test]
    fn display_is_hex() {
        let s = ImageHash(0xDEAD_BEEF).to_string();
        assert_eq!(s, "00000000deadbeef");
    }

    #[test]
    fn from_bits_round_trips_and_orders_by_raw_word() {
        let a = ImageHash::from_bits(0x1);
        let b = ImageHash::from_bits(0x2);
        assert_eq!(a.to_bits(), 0x1);
        assert!(a < b);
        assert_eq!(a.distance(&b), hamming64(0x1, 0x2));
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let a = perceptual_hash(&textured(1));
        let b = perceptual_hash(&textured(9));
        assert_eq!(a.distance(&b), b.distance(&a));
        assert!(a.distance(&b) <= 64);
    }
}
