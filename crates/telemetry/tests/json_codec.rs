//! Round-trip and robustness properties of the workspace JSON codec
//! ([`squatphi_telemetry::Json`]): every durable state is written with one
//! of its renderings and read back with [`Json::parse`], so the pair must
//! be an exact inverse, and damaged input must be rejected, never panic.

use proptest::prelude::*;
use proptest::rng::TestRng;
use proptest::strategy::{IntoStrategy, Strategy};
use squatphi_telemetry::Json;

/// Characters that stress the escaper and the reader: quotes, backslash,
/// every escape class, raw controls, DEL, BMP non-ASCII (incl. U+2028 and
/// U+FFFF) and non-BMP scalars.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '中',
    '\u{2028}',
    '\u{ffff}',
    '🦀',
    '𝄞',
    '\u{10ffff}',
];

/// Generates arbitrary documents whose numbers are `U64` or negative
/// `I64` — the numbers [`Json::parse`] reads back exactly.
struct Docs {
    depth: u32,
}

impl IntoStrategy for Docs {
    type Strategy = Docs;

    fn into_strategy(self) -> Docs {
        self
    }
}

impl Strategy for Docs {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        doc(rng, self.depth)
    }
}

fn text(rng: &mut TestRng) -> String {
    (0..rng.below(8))
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

fn doc(rng: &mut TestRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::U64(match rng.below(3) {
            0 => u64::MAX,
            1 => rng.below(1000),
            _ => rng.next_u64(),
        }),
        3 => Json::I64(match rng.below(3) {
            0 => i64::MIN,
            1 => -1 - rng.below(1000) as i64,
            _ => (rng.next_u64() | 1 << 63) as i64,
        }),
        4 => Json::Str(text(rng)),
        5 => Json::Arr((0..rng.below(4)).map(|_| doc(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (text(rng).into(), doc(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn both_renderings_parse_back_exactly(doc in Docs { depth: 4 }) {
        prop_assert_eq!(Json::parse(&doc.render()), Ok(doc.clone()));
        prop_assert_eq!(Json::parse(&doc.render_compact()), Ok(doc.clone()));
        prop_assert!(!doc.render_compact().contains('\n'), "compact form spans lines");
    }

    /// Every strict prefix of a container document lacks its closing
    /// bracket, so a torn write can never parse as a (shorter) document.
    #[test]
    fn truncated_documents_are_rejected(items in Docs { depth: 3 }, cut in any::<u32>()) {
        let doc = Json::Arr(vec![items]);
        for text in [doc.render(), doc.render_compact()] {
            let mut cut = cut as usize % text.len();
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            prop_assert!(Json::parse(&text[..cut]).is_err(), "prefix parsed: {:?}", &text[..cut]);
        }
    }

    /// Arbitrary text, and rendered documents with one byte replaced by
    /// a JSON-significant character, never panic the reader.
    #[test]
    fn arbitrary_input_never_panics(
        noise in "[\\[\\]{}\",:\\\\0-9a-z \\-.+eE]{0,40}",
        doc in Docs { depth: 3 },
        at in any::<u32>(),
        with in "[\\[\\]{}\",:\\\\0-9uen\\-]",
    ) {
        let _ = Json::parse(&noise);
        let mut text = doc.render_compact();
        let mut at = at as usize % text.len();
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let end = at + text[at..].chars().next().map_or(0, char::len_utf8);
        text.replace_range(at..end, &with);
        let _ = Json::parse(&text);
    }
}

#[test]
fn reads_the_checkpoint_writer_subset() {
    let v = Json::parse(
        "{\"a\": 1, \"b\": [1, 2, 3], \"c\": \"x\\ny \\u00e9\", \"d\": null, \"e\": {\"f\": 18446744073709551615}}",
    )
    .expect("valid document");
    assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
    assert_eq!(
        v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
        Some(3)
    );
    assert_eq!(v.get("c").and_then(Json::as_str), Some("x\ny é"));
    assert!(v.get("d").is_some_and(Json::is_null));
    assert_eq!(
        v.get("e").and_then(|e| e.get("f")).and_then(Json::as_u64),
        Some(u64::MAX),
        "u64 bit patterns must survive parsing"
    );
    assert_eq!(v.get("missing"), None);
    assert_eq!(Json::parse("-9223372036854775808"), Ok(Json::I64(i64::MIN)));
    assert_eq!(Json::parse("0.5"), Ok(Json::F64(0.5)));
    assert_eq!(Json::parse("\"\\ud834\\udd1e\""), Ok(Json::Str("𝄞".into())));
    assert_eq!(
        Json::parse("\"\\b\\f\\/\\u001f\""),
        Ok(Json::Str("\u{8}\u{c}/\u{1f}".into()))
    );
}

#[test]
fn malformed_documents_are_errors() {
    let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
    for bad in [
        "",
        "   ",
        "{\"a\": }",
        "[1, 2",
        "[1,]",
        "{,}",
        "{\"a\" 1}",
        "{\"a\": 1,}",
        "tru",
        "nul",
        "-",
        "1-2",
        "[1] 2",
        "\"unterminated",
        "\"raw \u{1} control\"",
        "\"raw\nnewline\"",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\u+123\"",
        "\"\\ud800\"",
        "\"\\ud800\\u0041\"",
        "\"\\udc00\"",
        deep.as_str(),
    ] {
        assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
    }
    let nested = format!("{}{}", "[".repeat(100), "]".repeat(100));
    assert!(Json::parse(&nested).is_ok());
}
