//! A query's length cannot abort the thread that runs it.
//!
//! OQL's `AND` and `OR` lists are flat, so a `WHERE` of 200 000
//! conjuncts or disjuncts parses, plans, renders its EXPLAIN, runs and
//! drops on a 2 MiB stack, the size of every thread the ORB spawns.

use webfindit_oostore::{ClassDef, OType, OValue, ObjectStore, OqlQuery};

const TERMS: usize = 200_000;

/// Run `f` on a thread with a 2 MiB stack.
fn on_a_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .expect("the thread returns")
}

/// Ten `Visit`s, `seq` 0 to 9, each in ward `A`.
fn store() -> ObjectStore {
    let mut store = ObjectStore::new("chains");
    let class = ClassDef::root("Visit")
        .attr("seq", OType::Int)
        .attr("ward", OType::Text);
    store.define_class(class).unwrap();
    for seq in 0..10 {
        let attrs = [
            ("seq".to_string(), OValue::Int(seq)),
            ("ward".to_string(), OValue::Text("A".into())),
        ];
        store.create("Visit", attrs).unwrap();
    }
    store
}

/// `select seq from Visit where <first> <kw> <rest> <kw> <rest> …`, with
/// `TERMS` parts in all.
fn query_where(first: &str, kw: &str, rest: impl Fn(usize) -> String) -> String {
    let mut text = format!("select seq from Visit where {first}");
    for i in 1..TERMS {
        text.push_str(kw);
        text.push_str(&rest(i));
    }
    text
}

/// Parse `text`, render its plan, run it, and drop it all: the `seq`s
/// it selects, and its EXPLAIN lines.
fn run_and_render(text: String) -> (Vec<OValue>, Vec<String>) {
    let store = store();
    let query = OqlQuery::parse(&text).unwrap();
    let explain = query.explain(&store).unwrap();
    let rows = query.execute(&store).unwrap().rows;
    (rows.into_iter().flat_map(|(_, v)| v).collect(), explain)
}

/// The first word of each EXPLAIN line.
fn operators(explain: &[String]) -> Vec<&str> {
    explain
        .iter()
        .filter_map(|l| l.split_whitespace().next())
        .collect()
}

#[test]
fn a_long_and_list_answers_on_a_small_stack() {
    let text = query_where("seq = 3", " and ", |_| "ward <> 'B'".into());
    let (seqs, explain) = on_a_small_stack(move || run_and_render(text));
    assert_eq!(seqs, [OValue::Int(3)]);
    assert_eq!(operators(&explain), ["project:", "filter:", "index"]);
}

#[test]
fn a_long_list_of_ranges_is_one_index_range_on_a_small_stack() {
    let text = query_where("seq >= 2", " and ", |i| {
        if i % 2 == 0 { "seq >= 2" } else { "seq <= 7" }.into()
    });
    let (seqs, explain) = on_a_small_stack(move || run_and_render(text));
    assert_eq!(seqs, (2..=7).map(OValue::Int).collect::<Vec<_>>());
    assert_eq!(
        explain,
        ["project: seq", "  index scan Visit.seq [2, 7] (closure)"]
    );
}

#[test]
fn a_long_or_list_answers_on_a_small_stack() {
    let text = query_where("seq = 3", " or ", |i| format!("seq = {}", 100 + i));
    let (seqs, explain) = on_a_small_stack(move || run_and_render(text));
    assert_eq!(seqs, [OValue::Int(3)]);
    assert_eq!(operators(&explain), ["project:", "filter:", "extent"]);
}
