//! Dictionary spell checker for OCR-error correction (paper §5.2:
//! "Tesseract sometimes introduces errors such as passwod, which can be
//! easily corrected to password by a spell checker").

use std::collections::HashMap;

/// The task dictionary: phishing-salient keywords the feature pipeline
/// cares about. Brand names are added per-registry at construction.
pub const BASE_DICTIONARY: &[&str] = &[
    "account",
    "address",
    "agree",
    "bank",
    "billing",
    "card",
    "cash",
    "click",
    "confirm",
    "continue",
    "create",
    "credentials",
    "credit",
    "customer",
    "debit",
    "details",
    "email",
    "enter",
    "forgot",
    "free",
    "help",
    "here",
    "home",
    "identity",
    "invoice",
    "limited",
    "log",
    "login",
    "member",
    "mobile",
    "money",
    "name",
    "number",
    "offer",
    "online",
    "password",
    "pay",
    "payment",
    "phone",
    "please",
    "prize",
    "register",
    "reset",
    "secure",
    "security",
    "sign",
    "signin",
    "submit",
    "support",
    "suspended",
    "transfer",
    "update",
    "upgrade",
    "urgent",
    "username",
    "verify",
    "wallet",
    "welcome",
    "win",
    "your",
];

/// Largest edit distance a correction may span (tokens of length ≤ 4
/// get 1).
const MAX_DISTANCE: usize = 2;

/// Edit-distance-≤2 spell checker over a fixed dictionary with
/// frequency-free nearest-match semantics (ties break to the shorter,
/// then lexicographically smaller word — deterministic).
///
/// Lookups go through a deletion-neighbourhood index (the SymSpell idea):
/// every string reachable from a dictionary word by up to
/// [`MAX_DISTANCE`] byte deletions maps to that word. If two strings are
/// within Levenshtein distance k, each reaches a common string in at most
/// k deletions, so probing a token's own deletions finds every word in
/// its budget; each candidate is then verified with the exact distance.
#[derive(Debug, Clone)]
pub struct SpellChecker {
    words: Vec<String>,
    exact: HashMap<String, usize>,
    /// Deletion variant → ids of the words producing it, ascending.
    deletions: HashMap<Box<[u8]>, Vec<u32>>,
    /// Longest word, in bytes: longer tokens cannot be within budget (and
    /// their deletion neighbourhood grows with the square of their length).
    max_len: usize,
}

impl SpellChecker {
    /// Builds a checker over [`BASE_DICTIONARY`] plus `extra` words
    /// (typically brand labels).
    pub fn new<I, S>(extra: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut words: Vec<String> = BASE_DICTIONARY.iter().map(|w| w.to_string()).collect();
        for w in extra {
            let w = w.as_ref().to_ascii_lowercase();
            if !w.is_empty() {
                words.push(w);
            }
        }
        words.sort();
        words.dedup();
        let exact = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i))
            .collect();
        let mut deletions: HashMap<Box<[u8]>, Vec<u32>> = HashMap::new();
        for (id, w) in words.iter().enumerate() {
            let id = id as u32;
            for_each_deletion(w.as_bytes(), MAX_DISTANCE, &mut |variant| {
                let ids = deletions.entry(variant.into()).or_default();
                if ids.last() != Some(&id) {
                    ids.push(id);
                }
            });
        }
        let max_len = words.iter().map(String::len).max().unwrap_or(0);
        SpellChecker {
            words,
            exact,
            deletions,
            max_len,
        }
    }

    /// Number of dictionary words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether `word` is a dictionary word.
    pub fn contains(&self, word: &str) -> bool {
        self.exact.contains_key(word)
    }

    /// Corrects a token: exact dictionary hits and very short tokens pass
    /// through; otherwise the nearest dictionary word within distance 2
    /// (scaled down to 1 for tokens of length ≤ 4) is returned; tokens
    /// with no near word pass through unchanged.
    pub fn correct<'a>(&'a self, word: &'a str) -> &'a str {
        if word.len() <= 2 || self.contains(word) {
            return word;
        }
        let budget = if word.len() <= 4 { 1 } else { MAX_DISTANCE };
        if word.len() > self.max_len + budget {
            return word;
        }
        let mut candidates: Vec<u32> = Vec::new();
        for_each_deletion(word.as_bytes(), budget, &mut |variant| {
            if let Some(ids) = self.deletions.get(variant) {
                candidates.extend_from_slice(ids);
            }
        });
        candidates.sort_unstable();
        candidates.dedup();
        let mut best: Option<(&str, usize)> = None;
        let mut rows = Vec::new();
        for id in candidates {
            let w = self.words[id as usize].as_str();
            let Some(d) = bounded_levenshtein(word, w, budget, &mut rows) else {
                continue;
            };
            let better = match best {
                None => true,
                Some((bw, bd)) => d < bd || (d == bd && (w.len(), w) < (bw.len(), bw)),
            };
            if better {
                best = Some((w, d));
            }
        }
        best.map(|(w, _)| w).unwrap_or(word)
    }

    /// Corrects a whole token stream, returning the corrected copy.
    pub fn correct_all(&self, tokens: &[String]) -> Vec<String> {
        tokens.iter().map(|t| self.correct(t).to_string()).collect()
    }
}

/// Calls `visit` with `word` and with every distinct choice of up to
/// `depth` byte positions deleted from it (equal strings from different
/// positions are visited once per choice).
fn for_each_deletion(word: &[u8], depth: usize, visit: &mut impl FnMut(&[u8])) {
    fn delete_from(buf: &mut Vec<u8>, start: usize, depth: usize, visit: &mut impl FnMut(&[u8])) {
        if depth == 0 {
            return;
        }
        for i in start..buf.len() {
            let byte = buf.remove(i);
            visit(buf);
            delete_from(buf, i, depth - 1, visit);
            buf.insert(i, byte);
        }
    }
    let mut buf = word.to_vec();
    visit(&buf);
    delete_from(&mut buf, 0, depth, visit);
}

/// Levenshtein distance over bytes capped at `budget`; `None` when it
/// exceeds it. `rows` is scratch space for the two DP rows, reused across
/// calls so verification does not allocate per candidate.
fn bounded_levenshtein(a: &str, b: &str, budget: usize, rows: &mut Vec<usize>) -> Option<usize> {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len().abs_diff(b.len()) > budget {
        return None;
    }
    rows.clear();
    rows.extend(0..=b.len());
    rows.resize(2 * (b.len() + 1), 0);
    let (mut prev, mut cur) = rows.split_at_mut(b.len() + 1);
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        let mut row_min = cur[0];
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            row_min = row_min.min(cur[j + 1]);
        }
        if row_min > budget {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    (prev[b.len()] <= budget).then_some(prev[b.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::rng::TestRng;

    fn checker() -> SpellChecker {
        SpellChecker::new(["paypal", "facebook", "google"])
    }

    /// Unbounded byte-level Levenshtein distance.
    fn levenshtein(a: &[u8], b: &[u8]) -> usize {
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        for (i, &ca) in a.iter().enumerate() {
            let mut cur = vec![i + 1; b.len() + 1];
            for (j, &cb) in b.iter().enumerate() {
                cur[j + 1] = (prev[j] + usize::from(ca != cb))
                    .min(prev[j + 1] + 1)
                    .min(cur[j] + 1);
            }
            prev = cur;
        }
        prev[b.len()]
    }

    /// The linear dictionary scan the deletion index replaced: every word
    /// within the budget competes on (distance, length, word).
    fn linear_correct<'a>(c: &'a SpellChecker, word: &'a str) -> &'a str {
        if word.len() <= 2 || c.contains(word) {
            return word;
        }
        let budget = if word.len() <= 4 { 1 } else { MAX_DISTANCE };
        c.words
            .iter()
            .map(|w| {
                (
                    levenshtein(word.as_bytes(), w.as_bytes()),
                    w.len(),
                    w.as_str(),
                )
            })
            .filter(|&(d, _, _)| d <= budget)
            .min()
            .map_or(word, |(_, _, w)| w)
    }

    /// Dictionary for the differential test: brands with non-ASCII
    /// labels, plus clusters whose members tie on distance and length.
    fn tie_checker() -> SpellChecker {
        SpellChecker::new([
            "paypal",
            "facebook",
            "google",
            "münchen",
            "crédit",
            "abcx",
            "abcy",
            "abdx",
            "bcdx",
            "abcxy",
            "signn",
            "中文网",
            "ab",
        ])
    }

    const ALPHABET: &[char] = &['a', 'b', 'c', 'd', 'e', 'n', 's', 'x', 'y', 'é', 'ü', '中'];

    fn random_char(rng: &mut TestRng) -> char {
        ALPHABET[rng.below(ALPHABET.len() as u64) as usize]
    }

    /// A dictionary word with 0–3 random character edits, a random token
    /// of 1–4 characters, or a random 3–10 character string over the
    /// tie-prone alphabet.
    fn token(c: &SpellChecker, rng: &mut TestRng) -> String {
        match rng.below(3) {
            0 => {
                let mut chars: Vec<char> = c.words[rng.below(c.words.len() as u64) as usize]
                    .chars()
                    .collect();
                for _ in 0..rng.below(4) {
                    let at = rng.below(chars.len() as u64 + 1) as usize;
                    match rng.below(3) {
                        0 => chars.insert(at, random_char(rng)),
                        1 if at < chars.len() => {
                            chars.remove(at);
                        }
                        _ if at < chars.len() => chars[at] = random_char(rng),
                        _ => chars.push(random_char(rng)),
                    }
                }
                chars.into_iter().collect()
            }
            1 => (0..rng.range_inclusive(1, 4))
                .map(|_| random_char(rng))
                .collect(),
            _ => (0..rng.range_inclusive(3, 10))
                .map(|_| random_char(rng))
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn index_matches_the_linear_scan(seed in any::<u64>()) {
            let c = tie_checker();
            let word = token(&c, &mut TestRng::from_seed(seed));
            let got = c.correct(&word);
            let want = linear_correct(&c, &word);
            prop_assert_eq!(got, want, "token {:?}: index {:?}, linear scan {:?}", word, got, want);
        }
    }

    #[test]
    fn distance_and_length_ties_break_like_the_linear_scan() {
        let c = tie_checker();
        // abcx, abcy and abdx are all one edit away: lexicographic wins.
        assert_eq!(c.correct("abcz"), "abcx");
        // sign and signin are both one edit from "signi": shorter wins.
        assert_eq!(c.correct("signi"), "sign");
        // Non-ASCII bytes count per byte: "é" is two of them.
        assert_eq!(c.correct("munchen"), "münchen");
        assert_eq!(c.correct("credit"), "credit");
        for w in ["abcz", "signi", "munchen", "credit", "中文", "abé"] {
            assert_eq!(c.correct(w), linear_correct(&c, w), "{w}");
        }
    }

    #[test]
    fn paper_example_passwod() {
        assert_eq!(checker().correct("passwod"), "password");
    }

    #[test]
    fn exact_words_pass_through() {
        let c = checker();
        assert_eq!(c.correct("password"), "password");
        assert_eq!(c.correct("paypal"), "paypal");
    }

    #[test]
    fn brand_typos_corrected() {
        let c = checker();
        assert_eq!(c.correct("paypol"), "paypal");
        assert_eq!(c.correct("facebok"), "facebook");
    }

    #[test]
    fn unknown_tokens_unchanged() {
        let c = checker();
        assert_eq!(c.correct("zxqwvk"), "zxqwvk");
        assert_eq!(c.correct("blockchainstuff"), "blockchainstuff");
    }

    #[test]
    fn short_tokens_untouched() {
        let c = checker();
        assert_eq!(c.correct("ok"), "ok");
        assert_eq!(c.correct("a"), "a");
    }

    #[test]
    fn ties_are_deterministic() {
        let c = checker();
        let first = c.correct("sign");
        for _ in 0..5 {
            assert_eq!(c.correct("sign"), first);
        }
    }

    #[test]
    fn correct_all_streams() {
        let c = checker();
        let toks: Vec<String> = ["enter", "yur", "passwod"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let fixed = c.correct_all(&toks);
        assert_eq!(fixed[2], "password");
    }

    #[test]
    fn bounded_levenshtein_honors_budget() {
        let rows = &mut Vec::new();
        assert_eq!(bounded_levenshtein("abc", "abd", 2, rows), Some(1));
        assert_eq!(bounded_levenshtein("abc", "xyz", 2, rows), None);
        assert_eq!(bounded_levenshtein("same", "same", 0, rows), Some(0));
        // A longer row after shorter ones: the scratch buffer is re-initialised.
        assert_eq!(
            bounded_levenshtein("passwords", "password", 2, rows),
            Some(1)
        );
    }

    #[test]
    fn dictionary_dedupes() {
        let c = SpellChecker::new(["password", "password", "login"]);
        let n = c.len();
        assert_eq!(n, BASE_DICTIONARY.len()); // both extras already present
    }
}
