//! Planned OQL against a reference scan.
//!
//! Each case builds a class `P` with a subclass `S`, whose objects hold
//! Nulls, NaN, both zeros, Ints in a Double attribute, i64s above 2^53,
//! Text and Bools. It runs generated queries, whose `WHERE` mixes every
//! comparison, `LIKE`, `IN` and `IS [NOT] NULL` under `AND`, `OR` and
//! `NOT`, with literals of every type. Between queries it creates,
//! updates and deletes objects and drops and redefines `S`, so that
//! indexes built by earlier queries are checked after maintenance.
//!
//! The reference below shares nothing with the executor but the parsed
//! query: it keeps its own copy of every object, walks the closure in
//! OID order, and evaluates the predicate with its own three-valued
//! comparison. Every query must return the same rows in the same order,
//! and the operators that ran must be the ones the plan names.
//!
//! An index scan returns exactly the objects its range accepts, so the
//! plan's filter must hold exactly the conjuncts the range does not
//! answer; a classifier of its own decides which those are. The rows a
//! sink is handed as they are produced must be the collected rows.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use webfindit_base::prop::{self, pick};
use webfindit_base::rng::StdRng;
use webfindit_oostore::oql::{CmpOp, OqlSink, Pred};
use webfindit_oostore::{
    ClassDef, KeyRange, OType, OValue, ObjectStore, Oid, OoError, OqlPlan, OqlQuery,
};

const BIG: i64 = 1 << 53;

/// One live object as the reference sees it.
struct Obj {
    oid: Oid,
    in_sub: bool,
    attrs: BTreeMap<String, OValue>,
}

/// The store under test beside the reference's copy of its objects.
struct World {
    store: ObjectStore,
    objects: Vec<Obj>,
    sub_exists: bool,
}

fn define_sub(store: &mut ObjectStore) {
    store
        .define_class(ClassDef::root("S").extends("P").attr("x", OType::Int))
        .expect("S is absent");
}

fn new_world() -> World {
    let mut store = ObjectStore::new("prop-oql");
    store
        .define_class(
            ClassDef::root("P")
                .attr("n", OType::Double)
                .attr("i", OType::Int)
                .attr("t", OType::Text)
                .attr("b", OType::Bool),
        )
        .expect("fresh store");
    define_sub(&mut store);
    World {
        store,
        objects: Vec::new(),
        sub_exists: true,
    }
}

fn small_int(rng: &mut StdRng) -> i64 {
    rng.gen_range(-3i64..4)
}

fn big_int(rng: &mut StdRng) -> i64 {
    *pick(rng, &[BIG, BIG + 1, BIG + 2, BIG + 3, -(BIG + 1), i64::MAX])
}

const DOUBLES: [f64; 7] = [-1.5, -0.0, 0.0, 0.5, 2.0, 9007199254740992.0, f64::NAN];
const TEXTS: [&str; 6] = ["", "a", "ab", "b", "ba", "it's"];

/// A stored value for `attr`, of its declared type or Null.
fn stored(rng: &mut StdRng, attr: &str) -> OValue {
    if rng.gen_bool(0.15) {
        return OValue::Null;
    }
    match attr {
        "n" => match rng.gen_range(0..4) {
            0 => OValue::Int(small_int(rng)),
            1 => OValue::Int(big_int(rng)),
            2 => OValue::Double(f64::INFINITY),
            _ => OValue::Double(*pick(rng, &DOUBLES)),
        },
        "i" if rng.gen_bool(0.3) => OValue::Int(big_int(rng)),
        "i" | "x" => OValue::Int(small_int(rng)),
        "t" => OValue::Text(pick(rng, &TEXTS).to_string()),
        "b" => OValue::Bool(rng.gen_bool(0.5)),
        other => unreachable!("no attribute {other}"),
    }
}

fn attrs_of(in_sub: bool) -> &'static [&'static str] {
    if in_sub {
        &["n", "i", "t", "b", "x"]
    } else {
        &["n", "i", "t", "b"]
    }
}

fn create(w: &mut World, rng: &mut StdRng) {
    let in_sub = w.sub_exists && rng.gen_bool(0.4);
    let mut attrs = BTreeMap::new();
    for a in attrs_of(in_sub) {
        if rng.gen_bool(0.8) {
            attrs.insert(a.to_string(), stored(rng, a));
        }
    }
    let class = if in_sub { "S" } else { "P" };
    let oid = w
        .store
        .create(class, attrs.clone())
        .expect("values of the declared types");
    w.objects.push(Obj { oid, in_sub, attrs });
}

/// One write between queries.
fn mutate(w: &mut World, rng: &mut StdRng) {
    match rng.gen_range(0..20) {
        0..=6 => create(w, rng),
        7..=12 if !w.objects.is_empty() => {
            let k = rng.gen_range(0..w.objects.len());
            let obj = &mut w.objects[k];
            let attr = *pick(rng, attrs_of(obj.in_sub));
            let value = stored(rng, attr);
            w.store
                .set_attr(obj.oid, attr, value.clone())
                .expect("a declared attribute");
            obj.attrs.insert(attr.to_string(), value);
        }
        13..=16 if !w.objects.is_empty() => {
            let k = rng.gen_range(0..w.objects.len());
            let obj = w.objects.remove(k);
            w.store.delete(obj.oid).expect("a live object");
        }
        17 if w.sub_exists => {
            w.store.drop_class("S").expect("S exists");
            w.objects.retain(|o| !o.in_sub);
            w.sub_exists = false;
        }
        18 if !w.sub_exists => {
            define_sub(&mut w.store);
            w.sub_exists = true;
        }
        19 => w.store = w.store.clone(),
        _ => create(w, rng),
    }
}

// ---- query text -----------------------------------------------------

fn literal(rng: &mut StdRng) -> String {
    match rng.gen_range(0..6) {
        0 => small_int(rng).to_string(),
        1 => big_int(rng).to_string(),
        2 => {
            let d = *pick(rng, &DOUBLES[..6]);
            format!("{d:?}")
        }
        3 => format!("'{}'", pick(rng, &TEXTS).replace('\'', "''")),
        4 => pick(rng, &["true", "false"]).to_string(),
        _ => pick(rng, &["null", "1", "'a'", "0.0"]).to_string(),
    }
}

fn atom(rng: &mut StdRng) -> String {
    let attr = *pick(rng, &["n", "n", "i", "i", "t", "t", "b", "x", "zz"]);
    match rng.gen_range(0..10) {
        0..=5 => {
            let op = *pick(rng, &["=", "<>", "<", "<=", ">", ">="]);
            format!("{attr} {op} {}", literal(rng))
        }
        6 => {
            let pattern = *pick(rng, &["'a%'", "'%b'", "'_'", "'%'", "'it''%'", "1"]);
            format!("{attr} like {pattern}")
        }
        7 | 8 => {
            let n = rng.gen_range(1..4);
            let list: Vec<String> = (0..n).map(|_| literal(rng)).collect();
            format!("{attr} in ({})", list.join(", "))
        }
        _ => format!(
            "{attr} is {}null",
            if rng.gen_bool(0.5) { "not " } else { "" }
        ),
    }
}

fn pred(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 {
        return atom(rng);
    }
    match rng.gen_range(0..10) {
        0..=3 => atom(rng),
        4..=6 => format!("({})", chain(rng, depth - 1, " and ")),
        7 | 8 => format!("({})", chain(rng, depth - 1, " or ")),
        _ => format!("not {}", pred(rng, depth - 1)),
    }
}

/// Two parts, or a flat chain of 2 to 8, joined by `kw`; a run of two
/// or more of them may sit in parentheses, the same kind of chain
/// inside its own kind, which parses into the same list.
fn chain(rng: &mut StdRng, depth: u32, kw: &str) -> String {
    let n = if rng.gen_bool(0.5) {
        2
    } else {
        rng.gen_range(2..9)
    };
    let parts: Vec<String> = (0..n).map(|_| pred(rng, depth)).collect();
    run_in_parens(rng, &parts, kw)
}

/// `parts` joined by `kw`, with a run of two or more of them in
/// parentheses when there are three or more and the coin says so.
fn run_in_parens(rng: &mut StdRng, parts: &[String], kw: &str) -> String {
    let n = parts.len();
    if n < 3 || rng.gen_bool(0.5) {
        return parts.join(kw);
    }
    let from = rng.gen_range(0..n - 1);
    let to = rng.gen_range(from + 2..=n);
    let run = format!("({})", parts[from..to].join(kw));
    let mut out: Vec<&str> = parts[..from].iter().map(String::as_str).collect();
    out.push(&run);
    out.extend(parts[to..].iter().map(String::as_str));
    out.join(kw)
}

fn query(rng: &mut StdRng, sub_exists: bool) -> String {
    let class = if sub_exists && rng.gen_bool(0.3) {
        "S"
    } else {
        "P"
    };
    let projection = *pick(rng, &["*", "n", "t, i", "b, n, x"]);
    let mut text = format!("select {projection} from {class}");
    if rng.gen_bool(0.9) {
        let n = rng.gen_range(1..4);
        let conjuncts: Vec<String> = (0..n)
            .map(|_| {
                let depth = rng.gen_range(0u32..3);
                pred(rng, depth)
            })
            .collect();
        text += &format!(" where {}", run_in_parens(rng, &conjuncts, " and "));
    }
    if rng.gen_bool(0.3) {
        let attr = *pick(rng, &["n", "i", "t", "x"]);
        let dir = *pick(rng, &["", " asc", " desc"]);
        text += &format!(" order by {attr}{dir}");
    }
    if rng.gen_bool(0.3) {
        text += &format!(" limit {}", rng.gen_range(0..6));
    }
    text
}

// ---- the reference ----------------------------------------------------

fn num(v: &OValue) -> Option<f64> {
    match v {
        OValue::Int(i) => Some(*i as f64),
        OValue::Double(d) => Some(*d),
        _ => None,
    }
}

/// SQL comparison: unknown for Null and across types; Ints compare
/// exactly with each other and as f64 with Doubles.
fn compare(a: &OValue, b: &OValue) -> Option<Ordering> {
    match (a, b) {
        (OValue::Int(x), OValue::Int(y)) => Some(x.cmp(y)),
        (OValue::Text(x), OValue::Text(y)) => Some(x.cmp(y)),
        (OValue::Bool(x), OValue::Bool(y)) => Some(x.cmp(y)),
        _ => num(a)?.partial_cmp(&num(b)?),
    }
}

fn like(text: &[char], pattern: &[char]) -> bool {
    match pattern.split_first() {
        None => text.is_empty(),
        Some(('%', rest)) => (0..=text.len()).any(|k| like(&text[k..], rest)),
        Some((p, rest)) => text
            .split_first()
            .is_some_and(|(t, tail)| (*p == '_' || p == t) && like(tail, rest)),
    }
}

fn eval(p: &Pred, attrs: &BTreeMap<String, OValue>) -> Option<bool> {
    let get = |a: &str| attrs.get(a).cloned().unwrap_or(OValue::Null);
    match p {
        Pred::Cmp { attr, op, value } => {
            let v = get(attr);
            if *op == CmpOp::Like {
                return match (&v, value) {
                    (OValue::Text(t), OValue::Text(pat)) => {
                        let (t, pat): (Vec<char>, Vec<char>) =
                            (t.chars().collect(), pat.chars().collect());
                        Some(like(&t, &pat))
                    }
                    _ => None,
                };
            }
            let ord = compare(&v, value)?;
            Some(match op {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => ord.is_ne(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
                CmpOp::Like => unreachable!("handled above"),
            })
        }
        Pred::IsNull { attr, negated } => Some(get(attr).is_null() != *negated),
        Pred::In { attr, values } => {
            let v = get(attr);
            let answers: Vec<Option<Ordering>> = values.iter().map(|c| compare(&v, c)).collect();
            if answers.contains(&Some(Ordering::Equal)) {
                Some(true)
            } else if answers.contains(&None) {
                None
            } else {
                Some(false)
            }
        }
        Pred::And(parts) => {
            let all: Vec<Option<bool>> = parts.iter().map(|p| eval(p, attrs)).collect();
            if all.contains(&Some(false)) {
                Some(false)
            } else if all.contains(&None) {
                None
            } else {
                Some(true)
            }
        }
        Pred::Or(parts) => {
            let any: Vec<Option<bool>> = parts.iter().map(|p| eval(p, attrs)).collect();
            if any.contains(&Some(true)) {
                Some(true)
            } else if any.contains(&None) {
                None
            } else {
                Some(false)
            }
        }
        Pred::Not(a) => eval(a, attrs).map(|b| !b),
    }
}

/// ORDER BY's total order: NULLs, Bools, numbers by exact value, NaNs,
/// then Text.
fn sort_order(a: &OValue, b: &OValue) -> Ordering {
    fn rank(v: &OValue) -> u8 {
        match v {
            OValue::Null => 0,
            OValue::Bool(_) => 1,
            OValue::Double(d) if d.is_nan() => 3,
            OValue::Int(_) | OValue::Double(_) => 2,
            _ => 4,
        }
    }
    // A finite number as its floor and fraction; infinities saturate.
    fn exact(v: &OValue) -> (i128, f64) {
        match v {
            OValue::Int(i) => (*i as i128, 0.0),
            OValue::Double(d) => (d.floor() as i128, d - d.floor()),
            _ => (0, 0.0),
        }
    }
    rank(a).cmp(&rank(b)).then_with(|| match (a, b) {
        (OValue::Text(x), OValue::Text(y)) => x.cmp(y),
        (OValue::Bool(x), OValue::Bool(y)) => x.cmp(y),
        _ if rank(a) == 2 => {
            let ((ai, af), (bi, bf)) = (exact(a), exact(b));
            ai.cmp(&bi)
                .then(af.partial_cmp(&bf).unwrap_or(Ordering::Equal))
        }
        _ => Ordering::Equal,
    })
}

/// The rows `q` must return, from the reference's copy of the objects.
fn reference(q: &OqlQuery, objects: &[Obj]) -> Vec<(Oid, Vec<OValue>)> {
    let in_closure = |o: &&Obj| q.class == "P" || o.in_sub;
    let columns: Vec<&str> = if q.attrs.is_empty() {
        attrs_of(q.class == "S").to_vec()
    } else {
        q.attrs.iter().map(String::as_str).collect()
    };
    let get = |o: &Obj, a: &str| o.attrs.get(a).cloned().unwrap_or(OValue::Null);
    let mut hits: Vec<&Obj> = objects
        .iter()
        .filter(in_closure)
        .filter(|o| {
            q.filter
                .as_ref()
                .is_none_or(|p| eval(p, &o.attrs) == Some(true))
        })
        .collect();
    if let Some((attr, desc)) = &q.order_by {
        hits.sort_by(|a, b| {
            let ord = sort_order(&get(a, attr), &get(b, attr));
            let ord = if *desc { ord.reverse() } else { ord };
            ord.then(a.oid.cmp(&b.oid))
        });
    }
    if let Some(n) = q.limit {
        hits.truncate(n);
    }
    hits.iter()
        .map(|o| (o.oid, columns.iter().map(|c| get(o, c)).collect()))
        .collect()
}

/// Run `check` on two generated queries between each of eight rounds
/// of writes, in each of 1 000 worlds.
fn each_query(mut check: impl FnMut(&World, &str, &OqlQuery)) {
    prop::cases(1000, |rng| {
        let mut w = new_world();
        for _ in 0..rng.gen_range(0..25) {
            create(&mut w, rng);
        }
        for _ in 0..8 {
            for _ in 0..2 {
                let text = query(rng, w.sub_exists);
                let q = OqlQuery::parse(&text).expect("generated queries parse");
                check(&w, &text, &q);
            }
            for _ in 0..rng.gen_range(1..4) {
                mutate(&mut w, rng);
            }
        }
    });
}

#[test]
fn planned_oql_matches_a_reference_scan() {
    let (mut index_scans, mut extent_scans) = (0, 0);
    each_query(|w, text, q| {
        let plan = q.plan(&w.store).expect("the class exists");
        let (got, m) = q.execute_with_metrics(&w.store).expect("the class exists");
        assert_eq!(m.operators, plan.operator_names(), "{text}");
        match m.operators[0] {
            "index scan" => index_scans += 1,
            _ => extent_scans += 1,
        }
        // Debug text tells both zeros apart and equates NaNs.
        assert_eq!(
            format!("{:?}", got.rows),
            format!("{:?}", reference(q, &w.objects)),
            "{text}\n{}",
            plan.render().join("\n")
        );
    });
    // Both leaves ran often enough for the comparison to mean something.
    assert!(
        index_scans > 2000 && extent_scans > 2000,
        "{index_scans} {extent_scans}"
    );
}

// ---- which conjuncts a range answers -------------------------------------

/// The key family an index files a literal under, if any: numbers
/// share one, Text and Bool have their own.
fn family(v: &OValue) -> Option<u8> {
    match v {
        OValue::Int(_) => Some(0),
        OValue::Double(d) if !d.is_nan() => Some(0),
        OValue::Text(_) => Some(1),
        OValue::Bool(_) => Some(2),
        _ => None,
    }
}

/// Whether a literal's key orders stored values exactly as comparing
/// with the literal does. An i64 of magnitude 2^53 or more shares its
/// f64 key with a neighbour that compares unequal to it.
fn exact(v: &OValue) -> bool {
    !matches!(v, OValue::Int(i) if i.unsigned_abs() >= 1 << 53)
}

/// The top-level `AND` conjuncts of `p`, in query order.
fn top_conjuncts(p: &Pred) -> Vec<&Pred> {
    match p {
        Pred::And(parts) => parts.iter().collect(),
        other => vec![other],
    }
}

/// The conjuncts a scan of `attr` over `range` answers exactly. A
/// range between bounds answers every `=`, `<`, `<=`, `>` and `>=` on
/// `attr` whose literal is in the bounds' family and has an exact key;
/// a list of points answers the first `IN` on `attr` that lists them,
/// when all its keyed values are exact.
fn answered<'q>(conjuncts: &[&'q Pred], attr: &str, range: &KeyRange) -> Vec<&'q Pred> {
    match range {
        KeyRange::Between { lo, hi } => {
            let bound = |b: &Bound<OValue>| match b {
                Bound::Included(v) | Bound::Excluded(v) => family(v),
                Bound::Unbounded => None,
            };
            let fam = bound(lo).or(bound(hi)).expect("one bound is finite");
            conjuncts
                .iter()
                .copied()
                .filter(|c| match c {
                    Pred::Cmp { attr: a, op, value } => {
                        a == attr
                            && !matches!(op, CmpOp::Ne | CmpOp::Like)
                            && family(value) == Some(fam)
                            && exact(value)
                    }
                    _ => false,
                })
                .collect()
        }
        KeyRange::Points(points) => {
            let list = conjuncts.iter().copied().find(|c| match c {
                Pred::In { attr: a, values } => {
                    let keyed: Vec<&OValue> =
                        values.iter().filter(|v| family(v).is_some()).collect();
                    a == attr
                        && format!("{keyed:?}")
                            == format!("{:?}", points.iter().collect::<Vec<_>>())
                }
                _ => false,
            });
            let list = list.expect("the chosen IN list is a conjunct");
            let Pred::In { values, .. } = list else {
                unreachable!()
            };
            let keyed = values.iter().filter(|v| family(v).is_some());
            if keyed.clone().all(exact) {
                vec![list]
            } else {
                Vec::new()
            }
        }
    }
}

fn literal_text(v: &OValue) -> String {
    match v {
        OValue::Text(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

/// `p` as EXPLAIN prints a predicate.
fn pred_text(p: &Pred) -> String {
    match p {
        Pred::Cmp { attr, op, value } => {
            let op = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Like => "LIKE",
            };
            format!("{attr} {op} {}", literal_text(value))
        }
        Pred::IsNull { attr, negated } => {
            format!("{attr} IS {}NULL", if *negated { "NOT " } else { "" })
        }
        Pred::In { attr, values } => {
            let vs: Vec<String> = values.iter().map(literal_text).collect();
            format!("{attr} IN ({})", vs.join(", "))
        }
        Pred::And(parts) => parts_text(parts.iter().map(pred_text).collect(), " AND "),
        Pred::Or(parts) => parts_text(parts.iter().map(pred_text).collect(), " OR "),
        Pred::Not(a) => format!("NOT {}", pred_text(a)),
    }
}

/// One part's text as it is; two or more joined by `sep` in one pair of
/// parentheses.
fn parts_text(mut texts: Vec<String>, sep: &str) -> String {
    match texts.len() {
        1 => texts.remove(0),
        _ => format!("({})", texts.join(sep)),
    }
}

/// `p`'s text without the top-level conjuncts in `gone`; `None` when
/// nothing is left.
fn without(p: &Pred, gone: &[&Pred]) -> Option<String> {
    let kept: Vec<String> = top_conjuncts(p)
        .into_iter()
        .filter(|c| !gone.iter().any(|g| std::ptr::eq(*g, *c)))
        .map(pred_text)
        .collect();
    (!kept.is_empty()).then(|| parts_text(kept, " AND "))
}

/// The plan's filter text, if it has a filter, and its leaf.
fn filter_and_leaf(plan: &OqlPlan) -> (Option<&str>, &OqlPlan) {
    let mut filter = None;
    let mut node = plan;
    while let Some(input) = node.input() {
        if let OqlPlan::Filter { pred, .. } = node {
            filter = Some(pred.as_str());
        }
        node = input;
    }
    (filter, node)
}

#[test]
fn the_filter_holds_exactly_the_conjuncts_the_range_does_not_answer() {
    let (mut unfiltered, mut partly, mut kept) = (0, 0, 0);
    each_query(|w, text, q| {
        let plan = q.plan(&w.store).expect("the class exists");
        let (filter, leaf) = filter_and_leaf(&plan);
        let want = match (leaf, &q.filter) {
            (_, None) => None,
            (OqlPlan::IndexScan { attr, range, .. }, Some(p)) => {
                let conjuncts = top_conjuncts(p);
                let gone = answered(&conjuncts, attr, range);
                match (gone.len(), gone.len() == conjuncts.len()) {
                    (_, true) => unfiltered += 1,
                    (0, _) => kept += 1,
                    _ => partly += 1,
                }
                without(p, &gone)
            }
            (_, Some(p)) => Some(pred_text(p)),
        };
        assert_eq!(
            filter,
            want.as_deref(),
            "{text}\n{}",
            plan.render().join("\n")
        );
    });
    // Each outcome was planned often enough to mean something.
    assert!(
        unfiltered > 300 && partly > 300 && kept > 300,
        "{unfiltered} {partly} {kept}"
    );
}

/// A sink that records what it is handed, checks the order of the
/// calls, and fails once it holds `cap` rows.
struct Recorder {
    columns: Option<Vec<String>>,
    rows: Vec<(Oid, Vec<OValue>)>,
    cap: usize,
}

#[derive(Debug, PartialEq)]
enum SinkError {
    Store(OoError),
    Full,
}

impl From<OoError> for SinkError {
    fn from(e: OoError) -> SinkError {
        SinkError::Store(e)
    }
}

impl OqlSink<SinkError> for Recorder {
    fn columns(&mut self, columns: &[String]) -> Result<(), SinkError> {
        assert!(self.columns.is_none(), "the columns come once");
        self.columns = Some(columns.to_vec());
        Ok(())
    }

    fn row(&mut self, oid: Oid, values: &[&OValue]) -> Result<(), SinkError> {
        let width = self.columns.as_ref().expect("the columns come first").len();
        assert_eq!(values.len(), width);
        if self.rows.len() == self.cap {
            return Err(SinkError::Full);
        }
        self.rows
            .push((oid, values.iter().map(|v| (*v).clone()).collect()));
        Ok(())
    }
}

#[test]
fn the_streamed_rows_are_the_collected_rows() {
    each_query(|w, text, q| {
        let (collected, m) = q.execute_with_metrics(&w.store).expect("the class exists");
        let mut sink = Recorder {
            columns: None,
            rows: Vec::new(),
            cap: usize::MAX,
        };
        let streamed = q.execute_into(&w.store, &mut sink);
        assert_eq!(streamed, Ok(m), "{text}");
        assert_eq!(sink.columns.as_ref(), Some(&collected.columns), "{text}");
        assert_eq!(
            format!("{:?}", sink.rows),
            format!("{:?}", collected.rows),
            "{text}"
        );
        // A sink that fails ends the run: it is handed no row after.
        if !collected.rows.is_empty() {
            let cap = collected.rows.len() / 2;
            let mut full = Recorder {
                columns: None,
                rows: Vec::new(),
                cap,
            };
            assert_eq!(q.execute_into(&w.store, &mut full), Err(SinkError::Full));
            assert_eq!(
                format!("{:?}", full.rows),
                format!("{:?}", &collected.rows[..cap]),
                "{text}"
            );
        }
    });
}

/// `2^53 + 1` is greater than the Int literal `2^53` but is indexed
/// under the same f64 key, so that literal's bound is read inclusively
/// and its conjunct stays in the filter. A bound just below 2^53 is
/// exact and answers its conjunct.
#[test]
fn an_int_bound_at_2_pow_53_is_read_inclusively_and_stays_in_the_filter() {
    let mut w = new_world();
    let mut oids = Vec::new();
    for i in [BIG - 1, BIG, BIG + 1, BIG + 2] {
        let attrs = BTreeMap::from([("i".to_string(), OValue::Int(i))]);
        let oid = w.store.create("P", attrs.clone()).expect("an Int");
        w.objects.push(Obj {
            oid,
            in_sub: false,
            attrs,
        });
        oids.push(oid);
    }
    let q = OqlQuery::parse("select b, n, x from P where i > 9007199254740992").unwrap();
    assert_eq!(
        q.explain(&w.store).unwrap(),
        vec![
            "project: b, n, x",
            "  filter: i > 9007199254740992",
            "    index scan P.i [9007199254740992, ∞) (closure)",
        ]
    );
    let (got, m) = q.execute_with_metrics(&w.store).unwrap();
    let rows: Vec<Oid> = got.rows.iter().map(|(oid, _)| *oid).collect();
    assert_eq!(rows, vec![oids[2], oids[3]], "2^53 + 1 is kept");
    assert_eq!(
        format!("{:?}", got.rows),
        format!("{:?}", reference(&q, &w.objects))
    );
    // 2^53 and 2^53 + 1 share a key: both are read, the filter drops one.
    assert_eq!((m.index_hits, m.objects_matched), (3, 2));

    let q = OqlQuery::parse("select i from P where i > 9007199254740991").unwrap();
    assert_eq!(
        q.explain(&w.store).unwrap(),
        vec![
            "project: i",
            "  index scan P.i (9007199254740991, ∞) (closure)",
        ]
    );
    let rows: Vec<Oid> = q
        .execute(&w.store)
        .unwrap()
        .rows
        .iter()
        .map(|(oid, _)| *oid)
        .collect();
    assert_eq!(rows, oids[1..]);
}
