//! Point-in-time view of a [`Registry`](crate::Registry): a sorted map from
//! dotted metric names to values, plus the single workspace-wide rule for
//! which names count as timing data.

use std::collections::BTreeMap;

use crate::json::Json;

/// A metric value. Counters and histogram buckets are `U64`; gauges may carry
/// any variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    fn zeroed(&self) -> Value {
        match self {
            Value::U64(_) => Value::U64(0),
            Value::I64(_) => Value::I64(0),
            Value::F64(_) => Value::F64(0.0),
            Value::Bool(b) => Value::Bool(*b),
            Value::Str(s) => Value::Str(s.clone()),
        }
    }

    /// The value as a [`Json`] leaf.
    pub fn to_json(&self) -> Json {
        match self {
            Value::U64(v) => Json::U64(*v),
            Value::I64(v) => Json::I64(*v),
            Value::F64(v) => Json::F64(*v),
            Value::Bool(v) => Json::Bool(*v),
            Value::Str(v) => Json::Str(v.clone()),
        }
    }
}

/// The one `--timings` rule, applied by every CLI surface.
///
/// A metric name is timing data when any dot-separated segment ends with
/// `_nanos`, `_durations`, or `_per_sec`, or equals `wall` or `elapsed`.
/// Timing values are measured from the host's monotonic clock, so they vary
/// run to run; stripping them (zeroing, not removing, so the schema is
/// stable) is what makes default `--json` output two-run byte-identical.
///
/// Deliberately *not* timing data: `_ns` names like `transport.backoff_ns`,
/// which count **virtual** (simulated-clock) time and are fully
/// deterministic — they have always appeared in byte-identity-checked
/// output and must keep doing so.
pub fn is_timing_name(name: &str) -> bool {
    name.split('.').any(|segment| {
        segment == "wall"
            || segment == "elapsed"
            || segment.ends_with("_nanos")
            || segment.ends_with("_durations")
            || segment.ends_with("_per_sec")
    })
}

/// Sorted, immutable-by-convention view of a registry at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    entries: BTreeMap<String, Value>,
}

impl Snapshot {
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, value: Value) {
        self.entries.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries.get(name)
    }

    /// Counter/gauge lookup as u64. Missing names and non-numeric values
    /// resolve to `None`.
    pub fn get_u64(&self, name: &str) -> Option<u64> {
        match self.entries.get(name)? {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Like [`Snapshot::get_u64`] but missing names read as zero — the
    /// resolution rule invariant terms use.
    pub fn u64_or_zero(&self, name: &str) -> u64 {
        self.get_u64(name).unwrap_or(0)
    }

    pub fn get_f64(&self, name: &str) -> Option<f64> {
        match self.entries.get(name)? {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Zero every timing entry (per [`is_timing_name`]). Keys stay in place so
    /// stripped and unstripped output share a schema.
    pub fn strip_timings(&mut self) {
        for (name, value) in self.entries.iter_mut() {
            if is_timing_name(name) {
                *value = value.zeroed();
            }
        }
    }

    /// Copy of this snapshot with entries failing the predicate removed.
    /// Used by invariance tests to drop execution-shape scopes (worker
    /// breakdowns) that legitimately differ with thread count.
    pub fn retain(&self, mut keep: impl FnMut(&str) -> bool) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, value)| (name.clone(), value.clone()))
                .collect(),
        }
    }

    /// Render the snapshot as a nested JSON tree: names split on `.` become
    /// object paths, siblings sorted lexicographically (BTreeMap order).
    pub fn to_json(&self) -> Json {
        let mut root = Tree::default();
        for (name, value) in &self.entries {
            root.insert(name.split('.').collect::<Vec<_>>().as_slice(), value);
        }
        root.to_json()
    }

    /// Convenience: nested-tree render via the shared encoder.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// One entry as a [`Json`] leaf (`Json::Null` when absent) — for
    /// encoders that lay out snapshot values in a bespoke field order.
    pub fn json_value(&self, name: &str) -> Json {
        self.entries
            .get(name)
            .map(Value::to_json)
            .unwrap_or(Json::Null)
    }
}

/// Intermediate trie for nested rendering. A name that is both a leaf and a
/// prefix (`a` and `a.b`) keeps the leaf under the reserved key `_value`.
#[derive(Default)]
struct Tree<'a> {
    value: Option<&'a Value>,
    children: BTreeMap<&'a str, Tree<'a>>,
}

impl<'a> Tree<'a> {
    fn insert(&mut self, path: &[&'a str], value: &'a Value) {
        match path {
            [] => self.value = Some(value),
            [head, rest @ ..] => self.children.entry(head).or_default().insert(rest, value),
        }
    }

    fn to_json(&self) -> Json {
        if self.children.is_empty() {
            return self.value.map(Value::to_json).unwrap_or(Json::Null);
        }
        let mut obj = Json::obj();
        if let Some(value) = self.value {
            obj.push("_value", value.to_json());
        }
        for (key, child) in &self.children {
            obj.push(key.to_string(), child.to_json());
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_rule_matches_by_segment() {
        assert!(is_timing_name("scan.wall"));
        assert!(is_timing_name("analysis.parse_nanos"));
        assert!(is_timing_name("scan.exec.worker_durations.le_1024"));
        assert!(is_timing_name("scan.records_per_sec"));
        assert!(!is_timing_name("scan.records"));
        assert!(!is_timing_name("watch.counters.injected"));
        // Virtual-clock totals are deterministic and must survive stripping.
        assert!(!is_timing_name("transport.backoff_ns"));
        // A segment merely containing the suffix mid-word does not match.
        assert!(!is_timing_name("scan.wallpaper"));
    }

    #[test]
    fn strip_zeroes_timing_values_but_keeps_keys() {
        let mut snap = Snapshot::new();
        snap.insert("a.records", Value::U64(10));
        snap.insert("a.wall_nanos", Value::U64(12345));
        snap.insert("a.rate_per_sec", Value::F64(88.5));
        snap.strip_timings();
        assert_eq!(snap.get_u64("a.records"), Some(10));
        assert_eq!(snap.get_u64("a.wall_nanos"), Some(0));
        assert_eq!(snap.get_f64("a.rate_per_sec"), Some(0.0));
        assert_eq!(snap.len(), 3);
    }

    #[test]
    fn nested_render_is_sorted_and_stable() {
        let mut snap = Snapshot::new();
        snap.insert("b.y", Value::U64(2));
        snap.insert("b.x", Value::U64(1));
        snap.insert("a", Value::Bool(true));
        let text = snap.render();
        assert_eq!(
            text,
            "{\n  \"a\": true,\n  \"b\": {\n    \"x\": 1,\n    \"y\": 2\n  }\n}"
        );
        assert_eq!(text, snap.render());
    }

    #[test]
    fn retain_filters_scopes() {
        let mut snap = Snapshot::new();
        snap.insert("scan.records", Value::U64(5));
        snap.insert("scan.exec.workers", Value::U64(8));
        let core = snap.retain(|name| !name.starts_with("scan.exec."));
        assert_eq!(core.len(), 1);
        assert_eq!(core.get_u64("scan.records"), Some(5));
    }
}
