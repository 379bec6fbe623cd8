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

use std::cmp::Ordering;
use std::collections::BTreeMap;
use webfindit_base::prop::{self, pick};
use webfindit_base::rng::StdRng;
use webfindit_oostore::oql::{CmpOp, Pred};
use webfindit_oostore::{ClassDef, OType, OValue, ObjectStore, Oid, OqlQuery};

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
        4..=6 => format!("({} and {})", pred(rng, depth - 1), pred(rng, depth - 1)),
        7 | 8 => format!("({} or {})", pred(rng, depth - 1), pred(rng, depth - 1)),
        _ => format!("not {}", pred(rng, depth - 1)),
    }
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
        text += &format!(" where {}", conjuncts.join(" and "));
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
        Pred::And(a, b) => match (eval(a, attrs), eval(b, attrs)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Pred::Or(a, b) => match (eval(a, attrs), eval(b, attrs)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
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

#[test]
fn planned_oql_matches_a_reference_scan() {
    let (mut index_scans, mut extent_scans) = (0, 0);
    prop::cases(1000, |rng| {
        let mut w = new_world();
        for _ in 0..rng.gen_range(0..25) {
            create(&mut w, rng);
        }
        for _ in 0..8 {
            for _ in 0..2 {
                let text = query(rng, w.sub_exists);
                let q = OqlQuery::parse(&text).expect("generated queries parse");
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
                    format!("{:?}", reference(&q, &w.objects)),
                    "{text}\n{}",
                    plan.render().join("\n")
                );
            }
            for _ in 0..rng.gen_range(1..4) {
                mutate(&mut w, rng);
            }
        }
    });
    // Both leaves ran often enough for the comparison to mean something.
    assert!(
        index_scans > 2000 && extent_scans > 2000,
        "{index_scans} {extent_scans}"
    );
}
