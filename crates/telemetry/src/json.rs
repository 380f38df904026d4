//! The one JSON codec in the workspace: every metrics surface emits through
//! it, and every durable state (stage checkpoints, the watch watermark) is
//! written and read back through it.
//!
//! The workspace builds offline with no serde; before this crate existed each
//! metrics struct hand-rolled its own encoder (ten copies, each with its own
//! escaping and float rules). `Json` is an ordered document value: objects
//! preserve insertion order, so callers control field layout explicitly and
//! two runs of the same code render byte-identical output.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Nesting depth past which [`Json::parse`] rejects a document instead of
/// recursing further, so no input can exhaust the stack.
const MAX_DEPTH: usize = 128;

/// An ordered JSON document value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    /// Rendered with [`fmt_f64`]: fixed precision, non-finite values map to 0.
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object; keys are rendered in the order pushed.
    /// Keys are mostly static field names, borrowed rather than allocated:
    /// durable state encodes tens of thousands of objects per write.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// Empty object, ready for [`Json::push`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object. Panics if `self` is not an object: that
    /// is a programming error in an encoder, not a data condition.
    pub fn push(&mut self, key: impl Into<Cow<'static, str>>, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.into(), value)),
            _ => panic!("Json::push on non-object"),
        }
        self
    }

    /// Render as pretty-printed JSON: two-space indent, `"key": value`,
    /// trailing newline omitted (callers add one when writing files).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Render on one line with no insignificant whitespace — the form
    /// durable state is written in, at roughly half the bytes of
    /// [`Json::render`].
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// Integers without a fraction or exponent parse exactly: non-negative
    /// ones into `U64`, negative ones into `I64`, so `f64::to_bits`
    /// patterns up to `u64::MAX` survive. Every other number parses into
    /// `F64`. Hence `parse(render(x)) == x` for any document whose numbers
    /// are `U64` or negative `I64`, in either rendering.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value(0)?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return p.err("trailing bytes");
        }
        Ok(value)
    }

    /// The first field named `key`, when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value of a `U64` that fits a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }

    /// The text of a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether `self` is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Writes `self` pretty-printed at `indent` levels, or compact when
    /// `indent` is `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(v) => write_u64(out, *v),
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => out.push_str(&fmt_f64(*v)),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(
                out,
                indent,
                ['[', ']'],
                items.iter().map(|item| (None, item)),
            ),
            Json::Obj(fields) => write_seq(
                out,
                indent,
                ['{', '}'],
                fields
                    .iter()
                    .map(|(key, value)| (Some(key.as_ref()), value)),
            ),
        }
    }
}

/// Writes an array (keys `None`) or object between `brackets`; empty
/// containers render as `[]` / `{}` in both forms.
fn write_seq<'a>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(brackets[0]);
    let len = items.len();
    let inner = indent.map(|i| i + 1);
    for (i, (key, value)) in items.enumerate() {
        if let Some(depth) = inner {
            out.push('\n');
            pad(out, depth);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if inner.is_some() { ": " } else { ":" });
        }
        value.write(out, inner);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let (Some(depth), true) = (indent, len > 0) {
        out.push('\n');
        pad(out, depth);
    }
    out.push(brackets[1]);
}

/// Decimal digits of `v`, without the formatting machinery: durable state
/// is mostly integers.
fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).unwrap_or_default());
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    // Every byte that needs escaping is ASCII, and no byte of a multi-byte
    // UTF-8 sequence is, so the runs between such bytes are copied whole.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Deterministic float formatting: six fractional digits, and non-finite
/// values (NaN, ±inf from empty-denominator rates) render as `0.000000` so
/// output never contains tokens JSON parsers reject.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.000000".to_string()
    }
}

/// Recursive-descent reader behind [`Json::parse`]. `at` only ever stops on
/// an ASCII byte or the end, so the slices it decodes start and end on
/// char boundaries.
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.at))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.bytes.get(self.at) == Some(&b);
        if hit {
            self.at += 1;
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.bytes[self.at..].starts_with(word.as_bytes()) {
            return self.err("bad literal");
        }
        self.at += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        self.eat(b'-');
        while matches!(
            self.bytes.get(self.at),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or_default();
        let integer = if text.contains(['.', 'e', 'E']) {
            None
        } else if text.starts_with('-') {
            text.parse().ok().map(Json::I64)
        } else {
            text.parse().ok().map(Json::U64)
        };
        match integer.or_else(|| text.parse().ok().map(Json::F64)) {
            Some(v) => Ok(v),
            None => {
                self.at = start;
                self.err("bad number")
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return self.err("expected a string");
        }
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.at..];
            let Some(run) = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            else {
                return self.err("unterminated string");
            };
            match std::str::from_utf8(&rest[..run]) {
                Ok(s) => out.push_str(s),
                Err(_) => return self.err("invalid utf-8"),
            }
            self.at += run;
            if self.eat(b'"') {
                return Ok(out);
            }
            if rest[run] < 0x20 {
                return self.err("raw control character in string");
            }
            self.at += 1; // the backslash
            let c = match self.bytes.get(self.at) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    self.at += 1;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                _ => return self.err("bad escape"),
            };
            self.at += 1;
            out.push(c);
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair into one char.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&hi) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return self.err("lone high surrogate");
            }
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return self.err("bad low surrogate");
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            hi
        };
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => self.err("bad \\u escape"),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let Some(digits) = self.bytes.get(self.at..self.at + 4) else {
            return self.err("truncated \\u escape");
        };
        let mut code = 0;
        for &d in digits {
            match char::from(d).to_digit(16) {
                Some(x) => code = code * 16 + x,
                None => return self.err("bad \\u escape"),
            }
        }
        self.at += 4;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.at += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return self.err("expected ',' or ']'");
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.at += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return self.err("expected ':'");
            }
            fields.push((key.into(), self.value(depth + 1)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return self.err("expected ',' or '}'");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_object_in_insertion_order() {
        let mut inner = Json::obj();
        inner.push("b", Json::U64(2));
        inner.push("a", Json::U64(1));
        let mut doc = Json::obj();
        doc.push("z", inner);
        doc.push("list", Json::Arr(vec![Json::Bool(true), Json::Null]));
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"z\": {\n    \"b\": 2,\n    \"a\": 1\n  },\n  \"list\": [\n    true,\n    null\n  ]\n}"
        );
        assert_eq!(
            doc.render_compact(),
            "{\"z\":{\"b\":2,\"a\":1},\"list\":[true,null]}"
        );
    }

    #[test]
    fn escapes_control_characters_and_quotes() {
        assert_eq!(escape("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
    }

    #[test]
    fn non_finite_floats_render_as_zero() {
        assert_eq!(fmt_f64(f64::NAN), "0.000000");
        assert_eq!(fmt_f64(f64::INFINITY), "0.000000");
        assert_eq!(fmt_f64(0.25), "0.250000");
    }

    #[test]
    fn empty_containers_render_compact() {
        assert_eq!(Json::obj().render(), "{}");
        assert_eq!(Json::Arr(vec![]).render(), "[]");
        assert_eq!(Json::obj().render_compact(), "{}");
    }
}
