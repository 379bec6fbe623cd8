//! Ordered attribute indexes over class extents.
//!
//! An index covers one attribute of one class's own extent and maps each
//! key to the objects holding it. OQL reads it for an index scan; the
//! scan only has to return a superset of the matching objects, because
//! the executor re-evaluates the whole predicate on every candidate.

use crate::model::{OValue, Oid};
use std::collections::BTreeSet;
use std::ops::Bound;

/// An index key, ordered as [`OValue::compare`] orders values of one
/// family. Int and Double share the numeric family, with −0.0 stored as
/// +0.0; an i64 that does not round-trip through f64 may share a key
/// with its neighbours, which is why every scan bound is inclusive.
/// Text and Bool each keep their own order. The derived order puts the
/// families in the order of the variants, so Text sorts last.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Key {
    Bool(bool),
    /// A number, as bits whose unsigned order is the numeric order.
    Num(u64),
    Text(String),
}

impl Key {
    /// The key `v` is indexed under. Null and NaN never compare, so
    /// they have none; nor do lists and references, which no OQL
    /// literal names.
    pub(crate) fn of(v: &OValue) -> Option<Key> {
        match v {
            OValue::Int(i) => Some(Key::num(*i as f64)),
            OValue::Double(d) if d.is_nan() => None,
            OValue::Double(d) => Some(Key::num(*d)),
            OValue::Text(s) => Some(Key::Text(s.clone())),
            OValue::Bool(b) => Some(Key::Bool(*b)),
            OValue::Null | OValue::List(_) | OValue::Ref(_) => None,
        }
    }

    /// The key of the non-NaN `d`.
    fn num(d: f64) -> Key {
        // `-0.0 == 0.0`, so this stores both zeros as +0.0.
        let bits = if d == 0.0 { 0.0f64 } else { d }.to_bits();
        // Setting the sign bit of a positive and flipping every bit of a
        // negative turn the float order into the unsigned order.
        Key::Num(if bits >> 63 == 0 {
            bits | 1 << 63
        } else {
            !bits
        })
    }

    /// The least key of this key's family.
    fn family_min(&self) -> Key {
        match self {
            Key::Bool(_) => Key::Bool(false),
            Key::Num(_) => Key::num(f64::NEG_INFINITY),
            Key::Text(_) => Key::Text(String::new()),
        }
    }

    /// The greatest key of this key's family; Text has none.
    fn family_max(&self) -> Option<Key> {
        match self {
            Key::Bool(_) => Some(Key::Bool(true)),
            Key::Num(_) => Some(Key::num(f64::INFINITY)),
            Key::Text(_) => None,
        }
    }
}

/// The keys an index scan reads. Every literal in it has a [`Key`].
#[derive(Debug, Clone, PartialEq)]
pub enum KeyRange {
    /// The keys between two bounds, at least one of them finite.
    Between {
        /// Lower bound.
        lo: Bound<OValue>,
        /// Upper bound.
        hi: Bound<OValue>,
    },
    /// Exactly these keys (an `IN` list).
    Points(Vec<OValue>),
}

/// One attribute's index over one class's own extent.
#[derive(Debug, Clone)]
pub(crate) struct AttrIndex(BTreeSet<(Key, Oid)>);

impl AttrIndex {
    /// Bulk-load from `(oid, value)` pairs: collecting a `BTreeSet`
    /// sorts the entries once and builds the tree from the sorted run.
    pub(crate) fn build<'a>(entries: impl Iterator<Item = (Oid, &'a OValue)>) -> AttrIndex {
        AttrIndex(
            entries
                .filter_map(|(oid, v)| Key::of(v).map(|k| (k, oid)))
                .collect(),
        )
    }

    pub(crate) fn insert(&mut self, oid: Oid, v: &OValue) {
        if let Some(k) = Key::of(v) {
            self.0.insert((k, oid));
        }
    }

    pub(crate) fn remove(&mut self, oid: Oid, v: &OValue) {
        if let Some(k) = Key::of(v) {
            self.0.remove(&(k, oid));
        }
    }

    /// Append every object whose key lies in `range`.
    pub(crate) fn scan(&self, range: &KeyRange, out: &mut Vec<Oid>) {
        match range {
            KeyRange::Between { lo, hi } => {
                let key = |b: &Bound<OValue>| match b {
                    Bound::Included(v) | Bound::Excluded(v) => Key::of(v),
                    Bound::Unbounded => None,
                };
                let (lo, hi) = match (key(lo), key(hi)) {
                    (Some(lo), Some(hi)) => (lo, Some(hi)),
                    (Some(lo), None) => {
                        let hi = lo.family_max();
                        (lo, hi)
                    }
                    (None, Some(hi)) => (hi.family_min(), Some(hi)),
                    (None, None) => return,
                };
                if hi.as_ref().is_some_and(|hi| lo > *hi) {
                    return;
                }
                let upper = match hi {
                    Some(hi) => Bound::Included((hi, Oid(u64::MAX))),
                    None => Bound::Unbounded,
                };
                let lower = Bound::Included((lo, Oid(0)));
                out.extend(self.0.range((lower, upper)).map(|(_, oid)| *oid));
            }
            KeyRange::Points(values) => {
                for k in values.iter().filter_map(Key::of) {
                    let (lo, hi) = ((k.clone(), Oid(0)), (k, Oid(u64::MAX)));
                    out.extend(self.0.range(lo..=hi).map(|(_, oid)| *oid));
                }
            }
        }
    }
}
