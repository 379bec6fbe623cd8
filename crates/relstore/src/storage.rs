//! Heap table storage with B-tree primary and secondary indexes.
//!
//! Rows live in slot-addressed heaps (`Vec<Option<Row>>`); deletion
//! tombstones the slot so that slot ids stay stable for index entries
//! and for the transaction undo log. Primary keys are enforced through
//! a B-tree unique index; `CREATE INDEX` adds non-unique secondary
//! B-trees used by the executor for equality lookups and range scans.
//!
//! Index keys are [`Datum`]s under their total order ([`Datum::cmp`]),
//! held inline in the B-tree nodes: a probe hands in a `&Datum`, builds
//! no key, and gets its slots back as a slice borrowed from the index.

use crate::schema::TableSchema;
use crate::types::{Datum, Row};
use crate::{RelError, RelResult};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

/// The unique index over a table's primary-key columns. A one-column
/// key is the datum itself; only composite keys pay for a `Vec`.
#[derive(Debug, Clone)]
enum PkIndex {
    One(BTreeMap<Datum, usize>),
    Many(BTreeMap<Vec<Datum>, usize>),
}

fn composite(row: &[Datum], cols: &[usize]) -> Vec<Datum> {
    cols.iter().map(|&c| row[c].clone()).collect()
}

impl PkIndex {
    fn new(cols: &[usize]) -> PkIndex {
        if cols.len() == 1 {
            PkIndex::One(BTreeMap::new())
        } else {
            PkIndex::Many(BTreeMap::new())
        }
    }

    /// The slot holding the row whose key columns equal `row`'s.
    fn get(&self, row: &[Datum], cols: &[usize]) -> Option<usize> {
        match self {
            PkIndex::One(m) => m.get(&row[cols[0]]).copied(),
            PkIndex::Many(m) => m.get(&composite(row, cols)).copied(),
        }
    }

    fn insert(&mut self, row: &[Datum], cols: &[usize], slot: usize) {
        match self {
            PkIndex::One(m) => m.insert(row[cols[0]].clone(), slot),
            PkIndex::Many(m) => m.insert(composite(row, cols), slot),
        };
    }

    fn remove(&mut self, row: &[Datum], cols: &[usize]) {
        match self {
            PkIndex::One(m) => m.remove(&row[cols[0]]),
            PkIndex::Many(m) => m.remove(&composite(row, cols)),
        };
    }

    fn len(&self) -> usize {
        match self {
            PkIndex::One(m) => m.len(),
            PkIndex::Many(m) => m.len(),
        }
    }
}

/// The slots holding one secondary-index key. Most keys hold one row
/// (a foreign key mirroring a primary key), and that slot sits inline
/// in the B-tree node rather than behind a `Vec`.
#[derive(Debug, Clone)]
enum SlotList {
    One(usize),
    Many(Vec<usize>),
}

impl SlotList {
    fn as_slice(&self) -> &[usize] {
        match self {
            SlotList::One(slot) => std::slice::from_ref(slot),
            SlotList::Many(slots) => slots,
        }
    }
}

/// A non-unique secondary index over one column.
#[derive(Debug, Default, Clone)]
pub struct SecondaryIndex {
    /// Index name (lowercase).
    pub name: String,
    /// Indexed column position.
    pub column: usize,
    /// Key → slots holding that key, in insertion order.
    map: BTreeMap<Datum, SlotList>,
}

impl SecondaryIndex {
    fn add(&mut self, row: &[Datum], slot: usize) {
        match self.map.get_mut(&row[self.column]) {
            None => {
                self.map
                    .insert(row[self.column].clone(), SlotList::One(slot));
            }
            Some(SlotList::Many(slots)) => slots.push(slot),
            Some(one @ SlotList::One(_)) => {
                *one = SlotList::Many(vec![one.as_slice()[0], slot]);
            }
        }
    }

    fn remove(&mut self, row: &[Datum], slot: usize) {
        let key = &row[self.column];
        let now_empty = match self.map.get_mut(key) {
            None => false,
            Some(SlotList::One(only)) => *only == slot,
            Some(SlotList::Many(slots)) => {
                slots.retain(|&s| s != slot);
                slots.is_empty()
            }
        };
        if now_empty {
            self.map.remove(key);
        }
    }
}

/// A stored table: schema, heap, and indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    slots: Vec<Option<Row>>,
    live: usize,
    /// Unique index over the primary-key columns (if any are declared).
    pk: Option<PkIndex>,
    pk_cols: Vec<usize>,
    secondary: Vec<SecondaryIndex>,
}

impl Table {
    /// Create an empty table for `schema`.
    pub fn new(schema: TableSchema) -> Table {
        let pk_cols = schema.primary_key_indices();
        Table {
            schema,
            slots: Vec::new(),
            live: 0,
            pk: (!pk_cols.is_empty()).then(|| PkIndex::new(&pk_cols)),
            pk_cols,
            secondary: Vec::new(),
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Names of secondary indexes.
    pub fn index_names(&self) -> Vec<String> {
        self.secondary.iter().map(|s| s.name.clone()).collect()
    }

    /// Validate and coerce a row against the schema.
    fn check_row(&self, mut row: Row) -> RelResult<Row> {
        if row.len() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                found: row.len(),
            });
        }
        for (i, col) in self.schema.columns.iter().enumerate() {
            if row[i].is_null() {
                if col.not_null {
                    return Err(RelError::ConstraintViolation(format!(
                        "column {}.{} is NOT NULL",
                        self.schema.name, col.name
                    )));
                }
                continue;
            }
            match row[i].coerce(col.data_type) {
                Some(v) => row[i] = v,
                None => {
                    return Err(RelError::TypeMismatch {
                        expected: format!("{} for column {}", col.data_type, col.name),
                        found: format!("{}", row[i]),
                    })
                }
            }
        }
        Ok(row)
    }

    /// Insert a row, returning its slot id.
    pub fn insert(&mut self, row: Row) -> RelResult<usize> {
        let row = self.check_row(row)?;
        let slot = self.slots.len();
        if let Some(pk) = &mut self.pk {
            if pk.get(&row, &self.pk_cols).is_some() {
                return Err(RelError::DuplicateKey(format!(
                    "{} in table {}",
                    self.pk_cols
                        .iter()
                        .map(|&c| row[c].to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                    self.schema.name
                )));
            }
            pk.insert(&row, &self.pk_cols, slot);
        }
        for idx in &mut self.secondary {
            idx.add(&row, slot);
        }
        self.slots.push(Some(row));
        self.live += 1;
        Ok(slot)
    }

    /// Delete the row in `slot`, returning it (for the undo log).
    pub fn delete_slot(&mut self, slot: usize) -> Option<Row> {
        let row = self.slots.get_mut(slot)?.take()?;
        self.live -= 1;
        if let Some(pk) = &mut self.pk {
            pk.remove(&row, &self.pk_cols);
        }
        for idx in &mut self.secondary {
            idx.remove(&row, slot);
        }
        Some(row)
    }

    /// Restore a previously deleted row into its original slot
    /// (transaction rollback). The slot must be empty.
    pub fn restore_slot(&mut self, slot: usize, row: Row) {
        debug_assert!(self.slots[slot].is_none(), "restoring into a live slot");
        if let Some(pk) = &mut self.pk {
            pk.insert(&row, &self.pk_cols, slot);
        }
        for idx in &mut self.secondary {
            idx.add(&row, slot);
        }
        self.slots[slot] = Some(row);
        self.live += 1;
    }

    /// Restore `row` into `slot` even if the heap has never grown that
    /// far (log replay and snapshot loading, where slot ids must land
    /// exactly where the log says). Intermediate slots are padded with
    /// tombstones.
    pub fn force_restore(&mut self, slot: usize, row: Row) {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        self.restore_slot(slot, row);
    }

    /// Grow the heap to at least `n` slots (tombstones), so that the
    /// next insert allocates the same slot id it did before a crash.
    pub fn pad_slots(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, None);
        }
    }

    /// Total heap slots ever allocated (live + tombstoned).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Secondary index definitions as `(name, column)` pairs.
    pub fn secondary_defs(&self) -> Vec<(String, usize)> {
        self.secondary
            .iter()
            .map(|s| (s.name.clone(), s.column))
            .collect()
    }

    /// Replace the row in `slot`, returning the old row.
    pub fn update_slot(&mut self, slot: usize, new_row: Row) -> RelResult<Row> {
        let new_row = self.check_row(new_row)?;
        let old = self.slots[slot]
            .clone()
            .expect("update_slot targets a live slot");
        // Primary key change must stay unique.
        if let Some(pk) = &mut self.pk {
            if self.pk_cols.iter().any(|&c| old[c] != new_row[c]) {
                if pk.get(&new_row, &self.pk_cols).is_some() {
                    return Err(RelError::DuplicateKey(format!(
                        "update collides in table {}",
                        self.schema.name
                    )));
                }
                pk.remove(&old, &self.pk_cols);
                pk.insert(&new_row, &self.pk_cols, slot);
            }
        }
        for idx in &mut self.secondary {
            if old[idx.column] != new_row[idx.column] {
                idx.remove(&old, slot);
                idx.add(&new_row, slot);
            }
        }
        self.slots[slot] = Some(new_row);
        Ok(old)
    }

    /// Iterate live `(slot, row)` pairs.
    pub fn scan(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|row| (i, row)))
    }

    /// The row in `slot`, if live.
    pub fn row(&self, slot: usize) -> Option<&Row> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Create a secondary index named `name` over `column`.
    pub fn create_index(&mut self, name: &str, column: usize) -> RelResult<()> {
        let lower = name.to_ascii_lowercase();
        if self.secondary.iter().any(|s| s.name == lower) {
            return Err(RelError::IndexExists(lower));
        }
        let mut idx = SecondaryIndex {
            name: lower,
            column,
            map: BTreeMap::new(),
        };
        for (slot, row) in self.scan() {
            idx.add(row, slot);
        }
        self.secondary.push(idx);
        Ok(())
    }

    /// Drop the secondary index named `name` (recovery UNDO of an
    /// uncommitted `CREATE INDEX`). Returns false when absent.
    pub fn drop_index(&mut self, name: &str) -> bool {
        let lower = name.to_ascii_lowercase();
        let before = self.secondary.len();
        self.secondary.retain(|s| s.name != lower);
        self.secondary.len() != before
    }

    /// The PK B-tree, when `column` alone is the primary key.
    fn single_pk(&self, column: usize) -> Option<&BTreeMap<Datum, usize>> {
        match (&self.pk, &self.pk_cols[..]) {
            (Some(PkIndex::One(pk)), [pk_col]) if *pk_col == column => Some(pk),
            _ => None,
        }
    }

    /// Slots whose `column` equals `value`, via a secondary index or the
    /// PK index when applicable. `None` means no usable index exists
    /// (the executor falls back to a scan). The probe key is borrowed
    /// from the caller and the slots from the index itself, so a lookup
    /// allocates nothing.
    pub fn index_lookup(&self, column: usize, value: &Datum) -> Option<&[usize]> {
        if let Some(pk) = self.single_pk(column) {
            return Some(pk.get(value).map(std::slice::from_ref).unwrap_or_default());
        }
        self.secondary
            .iter()
            .find(|s| s.column == column)
            .map(|s| s.map.get(value).map(SlotList::as_slice).unwrap_or_default())
    }

    /// The kind of index usable for point/range access on `column`,
    /// if any: the PK B-tree (single-column primary keys only) or the
    /// first secondary index over that column.
    pub fn index_kind(&self, column: usize) -> Option<IndexKind> {
        if self.schema.single_primary_key() == Some(column) {
            return Some(IndexKind::PrimaryKey);
        }
        self.secondary
            .iter()
            .find(|s| s.column == column)
            .map(|_| IndexKind::Secondary)
    }

    /// Number of distinct keys in the index over `column`, or `None`
    /// when no usable index exists. The planner uses this to estimate
    /// equality-sarg selectivity as `len() / distinct`.
    pub fn index_distinct(&self, column: usize) -> Option<usize> {
        if self.schema.single_primary_key() == Some(column) {
            return self.pk.as_ref().map(PkIndex::len);
        }
        self.secondary
            .iter()
            .find(|s| s.column == column)
            .map(|s| s.map.len())
    }

    /// Lightweight planner statistics: live row count plus the distinct
    /// key count of every index (PK and secondary), keyed by column
    /// position. Maintained for free by the B-tree indexes themselves.
    pub fn stats(&self) -> TableStats {
        let mut column_distinct = Vec::new();
        if let (Some(col), Some(pk)) = (self.schema.single_primary_key(), self.pk.as_ref()) {
            column_distinct.push((col, pk.len()));
        }
        for s in &self.secondary {
            if !column_distinct.iter().any(|&(c, _)| c == s.column) {
                column_distinct.push((s.column, s.map.len()));
            }
        }
        TableStats {
            rows: self.live,
            column_distinct,
        }
    }

    /// Slots whose `column` falls in the half-open/closed range
    /// `(lo, hi)`, exploiting B-tree key order; `None` means no usable
    /// index exists over `column`. NULL keys (which sort below every
    /// non-null datum) are never returned: no SQL range predicate is
    /// true of NULL. Slots come back in index-key order. An inverted
    /// range (lo above hi) yields an empty result.
    pub fn index_range(
        &self,
        column: usize,
        lo: Bound<&Datum>,
        hi: Bound<&Datum>,
    ) -> Option<Vec<usize>> {
        static NULL_KEY: Datum = Datum::Null;
        // An open lower bound must still skip the NULL keys that sort
        // first in the B-tree.
        let lo = match lo {
            Bound::Unbounded => Bound::Excluded(&NULL_KEY),
            other => other,
        };
        // BTreeMap::range panics on inverted bounds; detect and return
        // an empty slot list instead.
        let inverted = match (lo, hi) {
            (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
                match a.cmp(b) {
                    Ordering::Greater => true,
                    Ordering::Equal => {
                        matches!(lo, Bound::Excluded(_)) && matches!(hi, Bound::Excluded(_))
                    }
                    Ordering::Less => false,
                }
            }
            _ => false,
        };
        if let Some(pk) = self.single_pk(column) {
            if inverted {
                return Some(Vec::new());
            }
            return Some(pk.range::<Datum, _>((lo, hi)).map(|(_, &s)| s).collect());
        }
        self.secondary.iter().find(|s| s.column == column).map(|s| {
            if inverted {
                return Vec::new();
            }
            s.map
                .range::<Datum, _>((lo, hi))
                .flat_map(|(_, slots)| slots.as_slice().iter().copied())
                .collect()
        })
    }
}

/// Which index structure serves an access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// The unique primary-key B-tree.
    PrimaryKey,
    /// A non-unique secondary B-tree.
    Secondary,
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexKind::PrimaryKey => write!(f, "PRIMARY KEY"),
            IndexKind::Secondary => write!(f, "secondary index"),
        }
    }
}

/// Planner statistics for one table; see [`Table::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Live row count.
    pub rows: usize,
    /// `(column position, distinct key count)` per indexed column.
    pub column_distinct: Vec<(usize, usize)>,
}

impl TableStats {
    /// Distinct key count for `column`, if it is indexed.
    pub fn distinct(&self, column: usize) -> Option<usize> {
        self.column_distinct
            .iter()
            .find(|&&(c, _)| c == column)
            .map(|&(_, n)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::types::DataType;

    fn beds() -> Table {
        Table::new(TableSchema::new(
            "beds",
            vec![
                Column::new("bed_id", DataType::Int).primary_key(),
                Column::new("location", DataType::Text).not_null(),
                Column::new("default_patient_type", DataType::Text),
            ],
        ))
    }

    fn row(id: i64, loc: &str) -> Row {
        vec![Datum::Int(id), Datum::Text(loc.into()), Datum::Null]
    }

    #[test]
    fn insert_scan_delete() {
        let mut t = beds();
        let s0 = t.insert(row(1, "ward A")).unwrap();
        let s1 = t.insert(row(2, "ward B")).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.scan().count(), 2);
        let deleted = t.delete_slot(s0).unwrap();
        assert_eq!(deleted[0], Datum::Int(1));
        assert_eq!(t.len(), 1);
        assert!(t.row(s0).is_none());
        assert!(t.row(s1).is_some());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = beds();
        t.insert(row(1, "ward A")).unwrap();
        assert!(matches!(
            t.insert(row(1, "ward B")),
            Err(RelError::DuplicateKey(_))
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pk_free_after_delete() {
        let mut t = beds();
        let s = t.insert(row(1, "ward A")).unwrap();
        t.delete_slot(s);
        t.insert(row(1, "ward A again")).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn not_null_enforced() {
        let mut t = beds();
        let r = vec![Datum::Int(1), Datum::Null, Datum::Null];
        assert!(matches!(t.insert(r), Err(RelError::ConstraintViolation(_))));
    }

    #[test]
    fn arity_enforced() {
        let mut t = beds();
        assert!(matches!(
            t.insert(vec![Datum::Int(1)]),
            Err(RelError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn type_coercion_on_insert() {
        let mut t = Table::new(TableSchema::new(
            "f",
            vec![Column::new("x", DataType::Double)],
        ));
        t.insert(vec![Datum::Int(3)]).unwrap();
        assert_eq!(t.scan().next().unwrap().1[0], Datum::Double(3.0));
        assert!(matches!(
            t.insert(vec![Datum::Text("x".into())]),
            Err(RelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn update_slot_maintains_pk_index() {
        let mut t = beds();
        let s = t.insert(row(1, "ward A")).unwrap();
        t.insert(row(2, "ward B")).unwrap();
        // Moving pk 1 → 3 frees 1 and occupies 3.
        let old = t.update_slot(s, row(3, "ward C")).unwrap();
        assert_eq!(old[0], Datum::Int(1));
        assert!(t.index_lookup(0, &Datum::Int(1)).unwrap().is_empty());
        assert_eq!(t.index_lookup(0, &Datum::Int(3)).unwrap(), vec![s]);
        // Colliding update rejected.
        assert!(matches!(
            t.update_slot(s, row(2, "collide")),
            Err(RelError::DuplicateKey(_))
        ));
    }

    #[test]
    fn secondary_index_lookup_and_maintenance() {
        let mut t = beds();
        let s0 = t.insert(row(1, "ward A")).unwrap();
        let s1 = t.insert(row(2, "ward A")).unwrap();
        t.insert(row(3, "ward B")).unwrap();
        t.create_index("beds_loc", 1).unwrap();
        assert!(matches!(
            t.create_index("beds_loc", 1),
            Err(RelError::IndexExists(_))
        ));
        let hits = t.index_lookup(1, &Datum::Text("ward A".into())).unwrap();
        assert_eq!(hits, vec![s0, s1]);
        t.delete_slot(s0);
        let hits = t.index_lookup(1, &Datum::Text("ward A".into())).unwrap();
        assert_eq!(hits, vec![s1]);
        // Update relocates index entry.
        t.update_slot(s1, row(2, "ward B")).unwrap();
        assert!(t
            .index_lookup(1, &Datum::Text("ward A".into()))
            .unwrap()
            .is_empty());
        assert_eq!(
            t.index_lookup(1, &Datum::Text("ward B".into()))
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn restore_slot_round_trips() {
        let mut t = beds();
        let s = t.insert(row(1, "ward A")).unwrap();
        let r = t.delete_slot(s).unwrap();
        t.restore_slot(s, r);
        assert_eq!(t.len(), 1);
        assert_eq!(t.index_lookup(0, &Datum::Int(1)).unwrap(), vec![s]);
    }

    #[test]
    fn no_index_means_none() {
        let t = beds();
        assert!(t.index_lookup(1, &Datum::Text("x".into())).is_none());
        assert!(t.index_lookup(2, &Datum::Null).is_none());
    }

    #[test]
    fn index_range_over_pk_and_secondary() {
        let mut t = beds();
        for i in 1..=9 {
            t.insert(row(i, if i % 2 == 0 { "even" } else { "odd" }))
                .unwrap();
        }
        // PK range: 3 <= bed_id < 7.
        let lo = Datum::Int(3);
        let hi = Datum::Int(7);
        let slots = t
            .index_range(0, Bound::Included(&lo), Bound::Excluded(&hi))
            .unwrap();
        let ids: Vec<i64> = slots
            .iter()
            .map(|&s| match t.row(s).unwrap()[0] {
                Datum::Int(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![3, 4, 5, 6]);
        // Unbounded below excludes nothing non-null; bounded above.
        let slots = t
            .index_range(0, Bound::Unbounded, Bound::Included(&lo))
            .unwrap();
        assert_eq!(slots.len(), 3);
        // No index on column 1 until created.
        assert!(t
            .index_range(1, Bound::Unbounded, Bound::Unbounded)
            .is_none());
        t.create_index("beds_loc", 1).unwrap();
        let e = Datum::Text("even".into());
        let slots = t
            .index_range(1, Bound::Included(&e), Bound::Included(&e))
            .unwrap();
        assert_eq!(slots.len(), 4);
        // Inverted range yields empty, not panic.
        let slots = t
            .index_range(0, Bound::Included(&hi), Bound::Included(&lo))
            .unwrap();
        assert!(slots.is_empty());
        let slots = t
            .index_range(0, Bound::Excluded(&lo), Bound::Excluded(&lo))
            .unwrap();
        assert!(slots.is_empty());
    }

    #[test]
    fn index_range_skips_null_keys() {
        let mut t = beds();
        t.insert(vec![Datum::Int(1), Datum::Text("a".into()), Datum::Null])
            .unwrap();
        t.insert(vec![
            Datum::Int(2),
            Datum::Text("b".into()),
            Datum::Text("icu".into()),
        ])
        .unwrap();
        t.create_index("beds_type", 2).unwrap();
        // Fully unbounded range must not surface the NULL key.
        let slots = t
            .index_range(2, Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        assert_eq!(slots.len(), 1);
        assert_eq!(t.row(slots[0]).unwrap()[0], Datum::Int(2));
    }

    #[test]
    fn stats_track_rows_and_distinct_keys() {
        let mut t = beds();
        t.insert(row(1, "ward A")).unwrap();
        t.insert(row(2, "ward A")).unwrap();
        t.insert(row(3, "ward B")).unwrap();
        t.create_index("beds_loc", 1).unwrap();
        let st = t.stats();
        assert_eq!(st.rows, 3);
        assert_eq!(st.distinct(0), Some(3)); // pk
        assert_eq!(st.distinct(1), Some(2)); // two wards
        assert_eq!(st.distinct(2), None); // unindexed
        assert_eq!(t.index_kind(0), Some(IndexKind::PrimaryKey));
        assert_eq!(t.index_kind(1), Some(IndexKind::Secondary));
        assert_eq!(t.index_kind(2), None);
        assert_eq!(t.index_distinct(1), Some(2));
        t.delete_slot(0);
        assert_eq!(t.stats().rows, 2);
    }
}
