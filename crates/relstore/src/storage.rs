//! Heap table storage with a hashed primary-key point index and B-tree
//! range and secondary indexes.
//!
//! Rows live in slot-addressed heaps (`Vec<Option<Row>>`); deletion
//! tombstones the slot so that slot ids stay stable for index entries
//! and for the changes an open transaction and the WAL record.
//!
//! A primary key of any width is enforced, and answers `=`, through a
//! point index: an open-addressing hash table whose buckets hold only a
//! key's hash and its heap slot. The key is read back from the heap row,
//! so the index keeps no second copy of it. A one-column primary key
//! also keeps a B-tree from key to slot, which only range scans read.
//! `CREATE INDEX` adds non-unique secondary B-trees used by the executor
//! for equality lookups and range scans.
//!
//! B-tree keys are [`Datum`]s under their total order ([`Datum::cmp`]),
//! held inline in the nodes. A probe of any index hands in a `&Datum`
//! and gets its slots back as a slice borrowed from the index.

use crate::schema::TableSchema;
use crate::types::{format_date, parse_date, DataType, Datum, GroupKey, Row};
use crate::{RelError, RelResult};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Bound;

/// One bucket of a [`PointIndex`]: a key's hash and the heap slot of
/// its row, or [`VACANT`].
#[derive(Debug, Clone, Copy)]
struct Bucket {
    hash: u64,
    slot: usize,
}

/// The slot of a bucket that holds no entry; no heap reaches it.
const VACANT: usize = usize::MAX;

/// How many keys [`Table::index_lookup_batch`] probes a primary key's
/// point index with at once, and so how many cache misses it can keep
/// in flight.
pub const PROBE_BATCH: usize = 16;

/// The primary key's point index: linear probing over a power-of-two
/// bucket array, at most 7/8 full. Keys are hashed by their
/// [`GroupKey`]s under a per-table random seed, so a client cannot
/// choose keys that collide. The caller compares keys: every probe takes
/// an `eq` test over heap slots. Deletion shifts the entries after the
/// hole back, so no tombstones are left behind.
#[derive(Debug, Clone, Default)]
struct PointIndex {
    buckets: Vec<Bucket>,
    len: usize,
    seed: RandomState,
}

impl PointIndex {
    /// The hash of a key given column by column.
    fn hash<'k>(&self, key: impl IntoIterator<Item = GroupKey<'k>>) -> u64 {
        let mut h = self.seed.build_hasher();
        for k in key {
            k.hash(&mut h);
        }
        h.finish()
    }

    /// The first bucket from `i` on (wrapping) whose entry has `hash`,
    /// or `None` once a vacant bucket ends the probe run. A probe starts
    /// at `hash`'s home, `i = hash as usize`.
    fn next_with(&self, hash: u64, mut i: usize) -> Option<usize> {
        let mask = self.buckets.len().checked_sub(1)?;
        loop {
            i &= mask;
            let b = self.buckets[i];
            if b.slot == VACANT {
                return None;
            }
            if b.hash == hash {
                return Some(i);
            }
            i += 1;
        }
    }

    /// [`PointIndex::get`] of each of `hashes` (`None` matches nothing),
    /// appended to `out` as a slice of one slot or none. `load` reads
    /// the heap slot of a candidate entry, and `eq(k, loaded)` tests it
    /// against probe `k`. At most [`PROBE_BATCH`] probes run in stages,
    /// each a loop of loads that do not depend on one another: every
    /// home bucket, then every candidate's `load`, then every
    /// comparison. So their cache misses are in flight together.
    fn get_batch<'s, L: Copy>(
        &'s self,
        hashes: &[Option<u64>],
        load: impl Fn(usize) -> L,
        eq: impl Fn(usize, L) -> bool,
        out: &mut Vec<&'s [usize]>,
    ) {
        assert!(hashes.len() <= PROBE_BATCH, "a batch of {}", hashes.len());
        // Load every home bucket, walking its run to the first entry
        // with the probe's hash.
        let mut at: [Option<usize>; PROBE_BATCH] = std::array::from_fn(|k| {
            let hash = hashes.get(k).copied().flatten()?;
            self.next_with(hash, hash as usize)
        });
        // Load every candidate's heap slot.
        let mut loaded: [Option<L>; PROBE_BATCH] =
            std::array::from_fn(|k| at[k].map(|b| load(self.buckets[b].slot)));
        // Compare every probe; an entry whose hash alone matched hands
        // the walk on along the run.
        for (k, &hash) in hashes.iter().enumerate() {
            while let (Some(b), Some(l), Some(hash)) = (at[k], loaded[k], hash) {
                if eq(k, l) {
                    break;
                }
                at[k] = self.next_with(hash, b + 1);
                loaded[k] = at[k].map(|b| load(self.buckets[b].slot));
            }
            out.push(at[k].map_or(&[], |b| std::slice::from_ref(&self.buckets[b].slot)));
        }
    }

    /// The bucket holding an entry with `hash` whose slot `eq` accepts.
    fn position(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut i = self.next_with(hash, hash as usize)?;
        while !eq(self.buckets[i].slot) {
            i = self.next_with(hash, i + 1)?;
        }
        Some(i)
    }

    /// The slot of the entry with `hash` that `eq` accepts, borrowed
    /// from the index.
    fn get(&self, hash: u64, eq: impl FnMut(usize) -> bool) -> Option<&usize> {
        self.position(hash, eq).map(|i| &self.buckets[i].slot)
    }

    /// Enter `slot` under `hash`; the caller has checked that its key is
    /// absent.
    fn insert(&mut self, hash: u64, slot: usize) {
        self.reserve(1);
        self.place(Bucket { hash, slot });
        self.len += 1;
    }

    /// Grow, by doubling from 8 buckets, until `additional` more entries
    /// fit at most 7/8 full, re-placing the entries held once.
    fn reserve(&mut self, additional: usize) {
        let mut size = self.buckets.len();
        while (self.len + additional) * 8 > size * 7 {
            size = (size * 2).max(8);
        }
        if size == self.buckets.len() {
            return;
        }
        let vacant = Bucket {
            hash: 0,
            slot: VACANT,
        };
        for b in std::mem::replace(&mut self.buckets, vec![vacant; size]) {
            if b.slot != VACANT {
                self.place(b);
            }
        }
    }

    /// Store `b` in the first vacant bucket from its home on.
    fn place(&mut self, b: Bucket) {
        let mask = self.buckets.len() - 1;
        let mut i = b.hash as usize & mask;
        while self.buckets[i].slot != VACANT {
            i = (i + 1) & mask;
        }
        self.buckets[i] = b;
    }

    /// Remove the entry for `slot` under `hash`, then close the hole:
    /// each later entry of the probe run moves back into it unless its
    /// home bucket lies after the hole.
    fn remove(&mut self, hash: u64, slot: usize) {
        let Some(mut hole) = self.position(hash, |s| s == slot) else {
            return;
        };
        self.len -= 1;
        let mask = self.buckets.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let b = self.buckets[i];
            if b.slot == VACANT {
                break;
            }
            let home = b.hash as usize & mask;
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.buckets[hole] = b;
                hole = i;
            }
        }
        self.buckets[hole].slot = VACANT;
    }
}

/// `value` as a key of type `ty` stores it, for an equality probe: the
/// conversions [`Datum::sql_cmp`] makes when it compares the two. Int
/// and Double need none, as their [`GroupKey`]s already agree. `None`
/// (NULL, or text that is no date) matches no key.
fn probe_as(value: &Datum, ty: DataType) -> Option<Cow<'_, Datum>> {
    match (value, ty) {
        (Datum::Null, _) => None,
        (Datum::Text(s), DataType::Date) => parse_date(s).map(|d| Cow::Owned(Datum::Date(d))),
        (Datum::Date(d), DataType::Text) => Some(Cow::Owned(Datum::Text(format_date(*d)))),
        _ => Some(Cow::Borrowed(value)),
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
    /// Point index over the primary-key columns (if any are declared).
    pk: Option<PointIndex>,
    pk_cols: Vec<usize>,
    /// A one-column primary key's B-tree, which only range scans read.
    pk_range: Option<BTreeMap<Datum, usize>>,
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
            pk: (!pk_cols.is_empty()).then(PointIndex::default),
            pk_range: (pk_cols.len() == 1).then(BTreeMap::new),
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

    /// Validate a row against the schema, converting each cell whose
    /// type differs from its column's (Int→Double, a text date→Date).
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
            if row[i].data_type() == Some(col.data_type) {
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

    /// The hash of `row`'s primary key in the point index (0 when the
    /// table has no key). Writers take it once per row and pass it on.
    fn key_hash(&self, row: &[Datum]) -> u64 {
        self.pk.as_ref().map_or(0, |pk| {
            pk.hash(self.pk_cols.iter().map(|&c| GroupKey::of(&row[c])))
        })
    }

    /// True when a live row holds `row`'s primary key, whose hash is
    /// `hash`.
    fn key_taken(&self, row: &[Datum], hash: u64) -> bool {
        let Some(pk) = &self.pk else {
            return false;
        };
        let same = |slot: usize| {
            self.slots[slot].as_ref().is_some_and(|r| {
                self.pk_cols
                    .iter()
                    .all(|&c| GroupKey::of(&r[c]) == GroupKey::of(&row[c]))
            })
        };
        pk.get(hash, same).is_some()
    }

    /// Enter `row`, stored or about to be stored in `slot`, in every
    /// index; `hash` is its key's.
    fn index_row(&mut self, row: &[Datum], hash: u64, slot: usize) {
        if let Some(pk) = &mut self.pk {
            pk.insert(hash, slot);
        }
        if let Some(range) = &mut self.pk_range {
            range.insert(row[self.pk_cols[0]].clone(), slot);
        }
        for idx in &mut self.secondary {
            idx.add(row, slot);
        }
    }

    /// Remove `row`, held in `slot`, from every index.
    fn unindex_row(&mut self, row: &[Datum], slot: usize) {
        let hash = self.key_hash(row);
        if let Some(pk) = &mut self.pk {
            pk.remove(hash, slot);
        }
        if let Some(range) = &mut self.pk_range {
            range.remove(&row[self.pk_cols[0]]);
        }
        for idx in &mut self.secondary {
            idx.remove(row, slot);
        }
    }

    /// Insert a row, returning its slot id.
    pub fn insert(&mut self, row: Row) -> RelResult<usize> {
        let row = self.check_row(row)?;
        let hash = self.key_hash(&row);
        if self.key_taken(&row, hash) {
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
        let slot = self.slots.len();
        self.index_row(&row, hash, slot);
        self.slots.push(Some(row));
        self.live += 1;
        Ok(slot)
    }

    /// Insert `rows` in order, as [`Table::insert`] does one by one, up
    /// to the first error, and return how many were inserted. For a bulk
    /// load: the heap and the point index are sized for every row up
    /// front, and a one-column key's range B-tree is built once from its
    /// keys in order, not by one descent per row.
    pub fn insert_all(&mut self, rows: Vec<Row>) -> RelResult<usize> {
        let n = rows.len();
        self.bulk_load(n, |t| {
            for row in rows {
                t.insert(row)?;
            }
            Ok(n)
        })
    }

    /// Run `fill`, which adds about `n` rows, as one bulk load, as
    /// [`Table::insert_all`] describes. `insert_all` and the decoding of
    /// a stored table both load through here.
    pub(crate) fn bulk_load<T>(
        &mut self,
        n: usize,
        fill: impl FnOnce(&mut Table) -> RelResult<T>,
    ) -> RelResult<T> {
        self.slots.reserve(n);
        if let Some(pk) = &mut self.pk {
            pk.reserve(n);
        }
        let ranged = self.pk_range.take().is_some();
        let result = fill(self);
        if ranged {
            let col = self.pk_cols[0];
            self.pk_range = Some(self.scan().map(|(s, r)| (r[col].clone(), s)).collect());
        }
        result
    }

    /// Delete the row in `slot`, returning it.
    pub(crate) fn delete_slot(&mut self, slot: usize) -> Option<Row> {
        let row = self.slots.get_mut(slot)?.take()?;
        self.live -= 1;
        self.unindex_row(&row, slot);
        Some(row)
    }

    /// Put `row` back into the empty `slot`, even if the heap has never
    /// grown that far (undo of a delete, log replay and table decoding,
    /// where slot ids must land exactly where they were). Intermediate
    /// slots are padded with tombstones.
    pub(crate) fn force_restore(&mut self, slot: usize, row: Row) {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        debug_assert!(self.slots[slot].is_none(), "restoring into a live slot");
        self.index_row(&row, self.key_hash(&row), slot);
        self.slots[slot] = Some(row);
        self.live += 1;
    }

    /// Grow the heap to at least `n` slots (tombstones), so that the
    /// next insert allocates the same slot id it did before a crash.
    pub(crate) fn pad_slots(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, None);
        }
    }

    /// Total heap slots ever allocated (live + tombstoned).
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Secondary index definitions as `(name, column)` pairs.
    pub(crate) fn secondary_defs(&self) -> impl Iterator<Item = (&str, usize)> {
        self.secondary.iter().map(|s| (s.name.as_str(), s.column))
    }

    /// Replace the row in `slot`, returning the old row, which is moved
    /// out of the heap (`Option::replace`) once the checks have passed,
    /// not copied.
    pub(crate) fn update_slot(&mut self, slot: usize, new_row: Row) -> RelResult<Row> {
        let new_row = self.check_row(new_row)?;
        let old = self.slots[slot]
            .as_ref()
            .expect("update_slot targets a live slot");
        // Primary key change must stay unique.
        if self.pk_cols.iter().any(|&c| old[c] != new_row[c]) {
            let (old_hash, hash) = (self.key_hash(old), self.key_hash(&new_row));
            if self.key_taken(&new_row, hash) {
                return Err(RelError::DuplicateKey(format!(
                    "update collides in table {}",
                    self.schema.name
                )));
            }
            if let Some(pk) = &mut self.pk {
                pk.remove(old_hash, slot);
                pk.insert(hash, slot);
            }
            if let Some(range) = &mut self.pk_range {
                range.remove(&old[self.pk_cols[0]]);
                range.insert(new_row[self.pk_cols[0]].clone(), slot);
            }
        }
        for idx in &mut self.secondary {
            if old[idx.column] != new_row[idx.column] {
                idx.remove(old, slot);
                idx.add(&new_row, slot);
            }
        }
        let old = self.slots[slot].replace(new_row);
        Ok(old.expect("update_slot targets a live slot"))
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

    /// Slots whose `column` equals `value`, via the point index when
    /// `column` alone is the primary key, else via a secondary index.
    /// `None` means no usable index exists (the executor falls back to a
    /// scan). The probe key is borrowed from the caller and the slots
    /// from the index itself, so a lookup allocates nothing.
    ///
    /// A primary-key probe matches the stored key whose [`GroupKey`]
    /// equals the probe's, once the probe is converted to the column's
    /// type as [`Datum::sql_cmp`] would compare it: Int and Double
    /// through their shared key, a Text probe on a DATE key through
    /// [`parse_date`], a Date probe on a TEXT key through
    /// [`format_date`]. NULL, and text that is no date, match nothing.
    /// The match is exact where `sql_cmp` is not: an Int/Double pair at
    /// or above 2^53 matches only the key holding that very integer, as
    /// equi-joins do.
    pub fn index_lookup(&self, column: usize, value: &Datum) -> Option<&[usize]> {
        if self.pk_cols == [column] {
            let pk = self.pk.as_ref()?;
            let hit = probe_as(value, self.schema.columns[column].data_type).and_then(|probe| {
                let key = GroupKey::of(&probe);
                let same = |slot: usize| {
                    self.slots[slot]
                        .as_ref()
                        .is_some_and(|r| GroupKey::of(&r[column]) == key)
                };
                pk.get(pk.hash([key.clone()]), same)
            });
            return Some(hit.map(std::slice::from_ref).unwrap_or_default());
        }
        self.secondary
            .iter()
            .find(|s| s.column == column)
            .map(|s| s.map.get(value).map(SlotList::as_slice).unwrap_or_default())
    }

    /// [`Table::index_lookup`] of each of `keys` in turn, appended to
    /// `out`, one slice per key: an empty one for a key that matches
    /// nothing, for NULL (which an equi-join never matches, though a
    /// secondary index holds NULL keys), and for every key when no
    /// usable index exists.
    ///
    /// A one-column primary key probes up to [`PROBE_BATCH`] keys at a
    /// time in stages: hash every key, load every home bucket, load
    /// every candidate heap slot, then compare every key. Each stage is
    /// a loop of loads that do not depend on one another, so a batch's
    /// cache misses are in flight together instead of one after another.
    /// A secondary index looks each key up in turn.
    pub fn index_lookup_batch<'t>(
        &'t self,
        column: usize,
        keys: &[&Datum],
        out: &mut Vec<&'t [usize]>,
    ) {
        match &self.pk {
            Some(pk) if self.pk_cols == [column] => {
                for batch in keys.chunks(PROBE_BATCH) {
                    self.pk_lookup_batch(pk, column, batch, out);
                }
            }
            _ => out.extend(keys.iter().map(|key| match key {
                Datum::Null => &[][..],
                key => self.index_lookup(column, key).unwrap_or_default(),
            })),
        }
    }

    /// One batch of [`Table::index_lookup_batch`] over the one-column
    /// primary key `column`, whose point index is `pk`.
    fn pk_lookup_batch<'t>(
        &'t self,
        pk: &'t PointIndex,
        column: usize,
        keys: &[&Datum],
        out: &mut Vec<&'t [usize]>,
    ) {
        let ty = self.schema.columns[column].data_type;
        // Hash every key.
        let probes: [Option<Cow<'_, Datum>>; PROBE_BATCH] =
            std::array::from_fn(|k| keys.get(k).and_then(|key| probe_as(key, ty)));
        let hashes: [Option<u64>; PROBE_BATCH] =
            std::array::from_fn(|k| probes[k].as_deref().map(|p| pk.hash([GroupKey::of(p)])));
        let hit_from = out.len();
        pk.get_batch(
            &hashes[..keys.len()],
            |slot| self.slots[slot].as_deref(),
            |k, row: Option<&[Datum]>| {
                row.zip(probes[k].as_deref())
                    .is_some_and(|(r, p)| GroupKey::of(&r[column]) == GroupKey::of(p))
            },
            out,
        );
        // Touch the text of every hit row, which the join's consumers
        // read next, so that those misses overlap too.
        for &slot in out[hit_from..].iter().copied().flatten() {
            for cell in self.slots[slot].iter().flatten() {
                if let Datum::Text(t) = cell {
                    std::hint::black_box(t.as_bytes().first().copied());
                }
            }
        }
    }

    /// The kind of index usable for point/range access on `column`,
    /// if any: the primary key's (one-column keys only) or the first
    /// secondary index over that column.
    pub fn index_kind(&self, column: usize) -> Option<IndexKind> {
        if self.pk_cols == [column] {
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
        if self.pk_cols == [column] {
            return Some(self.live);
        }
        self.secondary
            .iter()
            .find(|s| s.column == column)
            .map(|s| s.map.len())
    }

    /// Lightweight planner statistics: live row count plus the distinct
    /// key count of every index (PK and secondary), keyed by column
    /// position. A primary key has one key per live row; a secondary
    /// B-tree counts its own keys.
    pub fn stats(&self) -> TableStats {
        let mut column_distinct = Vec::new();
        if let [col] = self.pk_cols[..] {
            column_distinct.push((col, self.live));
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

    /// Slots whose `column` key `k` satisfies both bounds under
    /// [`Datum::sql_cmp`] (`lo <= k` or `lo < k`, `k <= hi` or
    /// `k < hi`), in index-key order; `None` means no usable index
    /// exists over `column`. The answer is exact for every bound that
    /// converts to the column's type as [`Datum::coerce`] converts a
    /// literal (an INT on a DOUBLE column, a text date on a DATE
    /// column), which is every range the planner serves from an index,
    /// so the planner drops the conjuncts a range came from. NULL and
    /// NaN keys, which no SQL range accepts, are never returned. A NULL
    /// or NaN bound, a bound that does not convert, and an inverted
    /// range return nothing.
    pub fn index_range(
        &self,
        column: usize,
        lo: Bound<&Datum>,
        hi: Bound<&Datum>,
    ) -> Option<Vec<usize>> {
        let ty = self.schema.columns[column].data_type;
        let bounds = key_bounds(lo, hi, ty);
        let walk = bounds.as_ref().map(|(lo, hi)| (lo.as_ref(), hi.as_ref()));
        if let Some(pk) = self.pk_range.as_ref().filter(|_| self.pk_cols == [column]) {
            return Some(walk.map_or_else(Vec::new, |walk| {
                pk.range::<Datum, _>(walk).map(|(_, &s)| s).collect()
            }));
        }
        self.secondary.iter().find(|s| s.column == column).map(|s| {
            walk.map_or_else(Vec::new, |walk| {
                s.map
                    .range::<Datum, _>(walk)
                    .flat_map(|(_, slots)| slots.as_slice().iter().copied())
                    .collect()
            })
        })
    }
}

/// `b` as a bound on keys of type `ty`: its value converted as
/// [`Datum::coerce`] converts a literal (an INT on a DOUBLE column, a
/// text date on a DATE column). `None` when the value does not convert,
/// or is NULL or NaN, which no key satisfies under [`Datum::sql_cmp`].
pub(crate) fn key_bound(b: Bound<&Datum>, ty: DataType) -> Option<Bound<Datum>> {
    let typed = |d: &Datum| {
        d.coerce(ty)
            .filter(|d| !d.is_null() && !matches!(d, Datum::Double(v) if v.is_nan()))
    };
    Some(match b {
        Bound::Included(d) => Bound::Included(typed(d)?),
        Bound::Excluded(d) => Bound::Excluded(typed(d)?),
        Bound::Unbounded => Bound::Unbounded,
    })
}

/// The B-tree walk that answers `lo`/`hi` over keys of type `ty`: each
/// bound a [`key_bound`], an open lower end above the NULL keys that
/// sort first, and an open upper end of a DOUBLE column below the NaN
/// keys that sort last. `None` when no key can satisfy both bounds.
fn key_bounds(
    lo: Bound<&Datum>,
    hi: Bound<&Datum>,
    ty: DataType,
) -> Option<(Bound<Datum>, Bound<Datum>)> {
    let lo = match key_bound(lo, ty)? {
        Bound::Unbounded => Bound::Excluded(Datum::Null),
        b => b,
    };
    let hi = match key_bound(hi, ty)? {
        Bound::Unbounded if ty == DataType::Double => Bound::Excluded(Datum::Double(f64::NAN)),
        b => b,
    };
    // `BTreeMap::range` panics on inverted bounds; an inverted range
    // holds no key.
    if let (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) =
        (&lo, &hi)
    {
        match a.cmp(b) {
            Ordering::Greater => return None,
            Ordering::Equal
                if matches!(lo, Bound::Excluded(_)) || matches!(hi, Bound::Excluded(_)) =>
            {
                return None
            }
            _ => {}
        }
    }
    Some((lo, hi))
}

/// Which index structure serves an access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// The primary key's point index, and its B-tree for ranges.
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
    use webfindit_base::rng::StdRng;

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
            vec![
                Column::new("i", DataType::Int),
                Column::new("x", DataType::Double),
                Column::new("s", DataType::Text).not_null(),
                Column::new("day", DataType::Date),
                Column::new("b", DataType::Bool),
            ],
        ));
        let text = |s: &str| Datum::Text(s.into());
        // Typed rows as stored, compared by variant: `Int(3)` is not
        // `Double(3.0)` here, though they are equal under `==`.
        let stored = |t: &Table, slot| format!("{:?}", t.row(slot).unwrap());
        let same = vec![
            Datum::Int(3),
            Datum::Double(f64::NAN),
            text("ward"),
            Datum::Date(19727),
            Datum::Bool(true),
        ];
        let s = t.insert(same.clone()).unwrap();
        assert_eq!(stored(&t, s), format!("{same:?}"));
        // Only a cell of another type converts: INT into DOUBLE, a text
        // date into DATE. NULL stays NULL in a nullable column.
        let s = t
            .insert(vec![
                Datum::Int(3),
                Datum::Int(4),
                text("2024-1-5"),
                text("2024-1-5"),
                Datum::Null,
            ])
            .unwrap();
        assert_eq!(
            stored(&t, s),
            r#"[Int(3), Double(4.0), Text("2024-1-5"), Date(19727), Null]"#
        );
        for (col, cell) in [
            (0, text("3")),
            (0, Datum::Double(3.0)),
            (1, text("x")),
            (2, Datum::Date(19727)),
            (3, text("someday")),
            (4, Datum::Int(1)),
        ] {
            let mut r = same.clone();
            r[col] = cell.clone();
            let Err(RelError::TypeMismatch { expected, found }) = t.insert(r) else {
                panic!("{cell:?} in column {col} must not convert");
            };
            let ty = t.schema.columns[col].data_type;
            let name = &t.schema.columns[col].name;
            assert_eq!(expected, format!("{ty} for column {name}"));
            assert_eq!(found, cell.to_string());
        }
        let mut r = same.clone();
        r[2] = Datum::Null;
        let Err(RelError::ConstraintViolation(msg)) = t.insert(r) else {
            panic!("NULL into a NOT NULL column");
        };
        assert_eq!(msg, "column f.s is NOT NULL");
        assert_eq!(t.len(), 2);
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
        t.force_restore(s, r);
        assert_eq!(t.len(), 1);
        assert_eq!(t.index_lookup(0, &Datum::Int(1)).unwrap(), vec![s]);
    }

    /// The `(hash, slot)` entries of `ix` must each be found from their
    /// home bucket, and the index must hold nothing else.
    fn assert_holds(ix: &PointIndex, entries: &[(u64, usize)]) {
        for &(hash, slot) in entries {
            assert_eq!(ix.get(hash, |s| s == slot), Some(&slot), "{hash}/{slot}");
        }
        let occupied = ix.buckets.iter().filter(|b| b.slot != VACANT).count();
        assert_eq!((ix.len, occupied), (entries.len(), entries.len()));
    }

    #[test]
    fn point_index_wraps_around_and_shifts_back_on_delete() {
        let mut ix = PointIndex::default();
        // Eight buckets: hashes 7 and 15 share home 7, so their run
        // wraps past the end into 0, 1 and 2, over hash 0's home.
        let mut entries = vec![(7, 10), (15, 11), (7, 12), (6, 13), (0, 14)];
        for &(hash, slot) in &entries {
            ix.insert(hash, slot);
        }
        assert_eq!(ix.buckets.len(), 8);
        let at: Vec<usize> = ix.buckets.iter().map(|b| b.slot).collect();
        assert_eq!(at, [11, 12, 14, VACANT, VACANT, VACANT, 13, 10]);
        // Deleting the run's head pulls each later entry back one step,
        // across the wrap, and leaves bucket 2 vacant, not a tombstone.
        ix.remove(7, 10);
        entries.retain(|&e| e != (7, 10));
        let at: Vec<usize> = ix.buckets.iter().map(|b| b.slot).collect();
        assert_eq!(at, [12, 14, VACANT, VACANT, VACANT, VACANT, 13, 11]);
        assert_holds(&ix, &entries);
        // An entry already at its home stays; later ones whose home lies
        // after the hole do too.
        ix.remove(6, 13);
        entries.retain(|&e| e != (6, 13));
        assert_eq!(ix.buckets[7].slot, 11);
        assert_holds(&ix, &entries);
        // A miss whose home is inside the run stops at the first vacancy.
        assert_eq!(ix.get(7, |s| s == 99), None);
        // Removing an absent entry changes nothing.
        ix.remove(0, 99);
        assert_holds(&ix, &entries);
    }

    #[test]
    fn point_index_agrees_with_a_list_under_colliding_hashes() {
        webfindit_base::prop::cases(64, |rng| {
            let mut ix = PointIndex::default();
            let mut live: Vec<(u64, usize)> = Vec::new();
            for slot in 0..rng.gen_range(1..200usize) {
                // Four hashes low and high: long runs, wrapped, and
                // entries displaced across the resizes.
                let hash = rng.gen_range(0..4u64) * (1 << rng.gen_range(0..3u32)) + u64::MAX / 2;
                if !live.is_empty() && rng.gen_bool(0.4) {
                    let (h, s) = live.swap_remove(rng.gen_range(0..live.len()));
                    ix.remove(h, s);
                }
                ix.insert(hash, slot);
                live.push((hash, slot));
                assert!(ix.len * 8 <= ix.buckets.len() * 7);
            }
            assert_holds(&ix, &live);
            while let Some((h, s)) = live.pop() {
                ix.remove(h, s);
                assert_holds(&ix, &live);
            }
        });
    }

    #[test]
    fn point_index_batches_agree_with_single_probes_under_colliding_hashes() {
        webfindit_base::prop::cases(64, |rng| {
            let mut ix = PointIndex::default();
            let mut live: Vec<(u64, usize)> = Vec::new();
            // Four hashes whose homes sit near the end of the array, so
            // their runs wrap into its start; deletions shift entries back.
            let hash = |rng: &mut StdRng| {
                rng.gen_range(0..4u64) * (1 << rng.gen_range(0..3u32)) + u64::MAX / 2
            };
            for slot in 0..rng.gen_range(0..120usize) {
                if !live.is_empty() && rng.gen_bool(0.3) {
                    let (h, s) = live.swap_remove(rng.gen_range(0..live.len()));
                    ix.remove(h, s);
                }
                let h = hash(rng);
                ix.insert(h, slot);
                live.push((h, slot));
            }
            // Probes for live entries, for absent slots under a live
            // hash, for hashes nobody holds, and `None`.
            let probes: Vec<(Option<u64>, usize)> = (0..rng.gen_range(0..=PROBE_BATCH))
                .map(|_| match rng.gen_range(0..4u32) {
                    0 if !live.is_empty() => live[rng.gen_range(0..live.len())],
                    0 | 1 => (hash(rng), 999),
                    2 => (rng.gen_range(0..64u64), rng.gen_range(0..120usize)),
                    _ => (0, usize::MAX),
                })
                .map(|(h, s)| ((s != usize::MAX).then_some(h), s))
                .collect();
            let hashes: Vec<Option<u64>> = probes.iter().map(|p| p.0).collect();
            let mut got = Vec::new();
            ix.get_batch(
                &hashes,
                |slot| slot,
                |k, slot| slot == probes[k].1,
                &mut got,
            );
            let want: Vec<&[usize]> = probes
                .iter()
                .map(|&(h, s)| {
                    h.and_then(|h| ix.get(h, |slot| slot == s))
                        .map_or(&[][..], std::slice::from_ref)
                })
                .collect();
            assert_eq!(got, want);
        });
    }

    #[test]
    fn batch_lookups_equal_single_lookups_key_by_key() {
        let mut t = Table::new(TableSchema::new(
            "k",
            vec![
                Column::new("i", DataType::Int).primary_key(),
                Column::new("day", DataType::Date),
                Column::new("t", DataType::Text),
            ],
        ));
        let mut days = Table::new(TableSchema::new(
            "d",
            vec![Column::new("day", DataType::Date).primary_key()],
        ));
        for n in 0..40i64 {
            let day = format!("2024-01-{:02}", n % 28 + 1);
            let row = vec![
                Datum::Int(n * 2),
                Datum::Text(day.clone()),
                if n % 5 == 0 {
                    Datum::Null
                } else {
                    Datum::Text(format!("w{}", n % 7))
                },
            ];
            t.insert(row).unwrap();
            let _ = days.insert(vec![Datum::Text(day)]);
        }
        t.create_index("by_t", 2).unwrap();
        t.delete_slot(3).unwrap();
        let mut keys: Vec<Datum> = vec![Datum::Null];
        for n in 0..24i64 {
            keys.extend([
                Datum::Int(n),
                Datum::Double(n as f64),
                Datum::Double(n as f64 + 0.5),
                Datum::Text(n.to_string()),
                Datum::Text(format!("2024-1-{}", n + 1)),
                Datum::Text(format!("w{n}")),
                Datum::Date(19723 + n as i32),
            ]);
        }
        keys.push(Datum::Text("someday".into()));
        // Over the INT key, the DATE key, a secondary index (which holds
        // NULL keys) and an unindexed column; longer and shorter than a
        // batch, so that batches end at every offset.
        for (table, column) in [(&t, 0), (&days, 0), (&t, 2), (&t, 1)] {
            for len in [
                0,
                1,
                PROBE_BATCH - 1,
                PROBE_BATCH,
                PROBE_BATCH + 1,
                keys.len(),
            ] {
                let keys: Vec<&Datum> = keys.iter().take(len).collect();
                let mut got = Vec::new();
                table.index_lookup_batch(column, &keys, &mut got);
                let want: Vec<&[usize]> = keys
                    .iter()
                    .map(|key| match key {
                        Datum::Null => &[][..],
                        key => table.index_lookup(column, key).unwrap_or_default(),
                    })
                    .collect();
                assert_eq!(
                    got, want,
                    "{} column {column}, {len} keys",
                    table.schema.name
                );
            }
        }
        // The probes found something on every index.
        let hits = |table: &Table, column| {
            let keys: Vec<&Datum> = keys.iter().collect();
            let mut got = Vec::new();
            table.index_lookup_batch(column, &keys, &mut got);
            got.iter().filter(|h| !h.is_empty()).count()
        };
        assert!(hits(&t, 0) > 0 && hits(&days, 0) > 0 && hits(&t, 2) > 0);
        assert_eq!(hits(&t, 1), 0);
    }

    #[test]
    fn a_bulk_load_equals_inserting_row_by_row() {
        // Keys out of order, then a duplicate key or an unconvertible
        // cell at the end, or no fault.
        for (n, fault) in [
            (0, None),
            (1, None),
            (7, None),
            (100, Some(0)),
            (1000, Some(1)),
        ] {
            let mut rows: Vec<Row> = (0..n as i64)
                .map(|id| row((id * 37) % n as i64, "ward"))
                .collect();
            match fault {
                Some(0) => rows.push(row(3, "again")),
                Some(_) => rows.push(vec![Datum::Text("x".into()), Datum::Null, Datum::Null]),
                None => {}
            }
            rows.push(row(n as i64, "never reached on a fault"));
            let mut one = beds();
            let counted = rows
                .iter()
                .try_fold(0, |k, r| one.insert(r.clone()).map(|_| k + 1));
            let mut bulk = beds();
            let loaded = bulk.insert_all(rows.clone());
            assert_eq!(format!("{loaded:?}"), format!("{counted:?}"), "{n} rows");
            let heap = |t: &Table| format!("{:?}", t.scan().collect::<Vec<_>>());
            assert_eq!(heap(&bulk), heap(&one));
            let size = |t: &Table| t.pk.as_ref().unwrap().buckets.len();
            assert_eq!(size(&bulk), size(&one), "{n} rows");
            let all = |t: &Table| t.index_range(0, Bound::Unbounded, Bound::Unbounded);
            assert_eq!(all(&bulk), all(&one));
            for id in 0..=n as i64 + 1 {
                let key = Datum::Int(id);
                assert_eq!(bulk.index_lookup(0, &key), one.index_lookup(0, &key));
            }
        }
    }

    #[test]
    fn pk_probes_convert_to_the_key_type() {
        let mut t = Table::new(TableSchema::new(
            "k",
            vec![
                Column::new("d", DataType::Double).primary_key(),
                Column::new("day", DataType::Date),
            ],
        ));
        let s = t.insert(vec![Datum::Int(3), Datum::Null]).unwrap();
        let hit = |t: &Table, col, v: Datum| t.index_lookup(col, &v).unwrap().to_vec();
        assert_eq!(hit(&t, 0, Datum::Int(3)), [s]);
        assert_eq!(hit(&t, 0, Datum::Double(3.0)), [s]);
        assert!(hit(&t, 0, Datum::Double(3.5)).is_empty());
        assert!(hit(&t, 0, Datum::Text("3".into())).is_empty());
        assert!(hit(&t, 0, Datum::Null).is_empty());
        for (ty, stored, probe, found) in [
            (
                DataType::Date,
                "2024-01-05",
                Datum::Text("2024-01-05".into()),
                true,
            ),
            (
                DataType::Date,
                "2024-01-05",
                Datum::Text("2024-1-5".into()),
                true,
            ),
            (
                DataType::Date,
                "2024-01-05",
                Datum::Text("someday".into()),
                false,
            ),
            (DataType::Text, "2024-01-05", Datum::Date(19727), true),
            (DataType::Text, "2024-1-5", Datum::Date(19727), false),
        ] {
            let mut t = Table::new(TableSchema::new(
                "k",
                vec![Column::new("k", ty).primary_key()],
            ));
            let s = t.insert(vec![Datum::Text(stored.into())]).unwrap();
            let want: &[usize] = if found { &[s] } else { &[] };
            assert_eq!(hit(&t, 0, probe.clone()), want, "{ty} {stored} {probe:?}");
        }
    }

    #[test]
    fn composite_keys_are_unique_through_the_point_index() {
        let mut t = Table::new(TableSchema::new(
            "visit",
            vec![
                Column::new("patient", DataType::Int).primary_key(),
                Column::new("day", DataType::Date).primary_key(),
            ],
        ));
        let row = |p: i64, d: &str| vec![Datum::Int(p), Datum::Text(d.into())];
        let s = t.insert(row(1, "2024-01-05")).unwrap();
        t.insert(row(1, "2024-01-06")).unwrap();
        t.insert(row(2, "2024-01-05")).unwrap();
        assert!(matches!(
            t.insert(row(1, "2024-1-5")),
            Err(RelError::DuplicateKey(_))
        ));
        // A composite key serves no single-column probe or range.
        assert!(t.index_lookup(0, &Datum::Int(1)).is_none());
        assert!(t
            .index_range(0, Bound::Unbounded, Bound::Unbounded)
            .is_none());
        assert!(matches!(
            t.update_slot(s, row(2, "2024-01-05")),
            Err(RelError::DuplicateKey(_))
        ));
        let old = t.delete_slot(s).unwrap();
        t.insert(row(1, "2024-01-05")).unwrap();
        assert!(matches!(t.insert(old), Err(RelError::DuplicateKey(_))));
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
    fn index_range_never_returns_nan_keys() {
        let mut t = Table::new(TableSchema::new(
            "m",
            vec![
                Column::new("id", DataType::Int).primary_key(),
                Column::new("c", DataType::Double),
            ],
        ));
        for (id, c) in [1.0, f64::NAN, 7.0, 3.0].into_iter().enumerate() {
            t.insert(vec![Datum::Int(id as i64), Datum::Double(c)])
                .unwrap();
        }
        t.create_index("m_c", 1).unwrap();
        let range = |lo: Bound<&Datum>, hi: Bound<&Datum>| t.index_range(1, lo, hi).unwrap();
        let (two, ten) = (Datum::Int(2), Datum::Int(10));
        // An INT bound answers as its DOUBLE does: NaN sorts after it.
        assert_eq!(range(Bound::Included(&two), Bound::Included(&ten)), [3, 2]);
        assert_eq!(
            range(
                Bound::Included(&Datum::Double(2.0)),
                Bound::Included(&Datum::Double(10.0))
            ),
            [3, 2]
        );
        // An open upper end stops below the NaN keys.
        assert_eq!(range(Bound::Excluded(&two), Bound::Unbounded), [3, 2]);
        assert_eq!(range(Bound::Unbounded, Bound::Unbounded), [0, 3, 2]);
        // A NaN or NULL bound, or one of no numeric type, holds no key.
        let nan = Datum::Double(f64::NAN);
        for b in [nan, Datum::Null, Datum::Text("2".into())] {
            assert!(range(Bound::Included(&b), Bound::Unbounded).is_empty());
            assert!(range(Bound::Unbounded, Bound::Included(&b)).is_empty());
        }
    }

    #[test]
    fn index_range_converts_text_dates_on_a_date_key() {
        let mut t = Table::new(TableSchema::new(
            "d",
            vec![Column::new("day", DataType::Date).primary_key()],
        ));
        for day in ["2024-01-08", "2024-01-09", "2024-01-10"] {
            t.insert(vec![Datum::Text(day.into())]).unwrap();
        }
        // '2024-1-9' sorts after '2024-01-10' as text, before it as a date.
        let lo = Datum::Text("2024-1-9".into());
        let hi = Datum::Text("2024-01-10".into());
        let slots = t
            .index_range(0, Bound::Included(&lo), Bound::Included(&hi))
            .unwrap();
        assert_eq!(slots, [1, 2]);
        let junk = Datum::Text("junk".into());
        assert!(t
            .index_range(0, Bound::Included(&junk), Bound::Unbounded)
            .unwrap()
            .is_empty());
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
