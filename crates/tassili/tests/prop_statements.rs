//! Property-based tests for WebTassili: display ∘ parse is the identity
//! on statement ASTs, and the SQL translation of random predicates is
//! always parseable by the relational engine's grammar shape (checked
//! structurally: balanced quoting via re-parse of the rendered
//! predicate inside a WebTassili statement).

use webfindit_base::prop::{self, string_from, vec_of};
use webfindit_base::rng::StdRng;
use webfindit_tassili::ast::{
    render_pred, Arg, FedScope, LinkTarget, Literal, PredOp, Predicate, SemiJoin,
};
use webfindit_tassili::{parse, Statement};

const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const IDENT_TAIL: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_";
const STR_CHARS: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 '%_.-";
const NATIVE_CHARS: &str =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 =*<>_.,-";
const DOC_CHARS: &str = "abcdefghijklmnopqrstuvwxyz ";

fn name_word_is_keyword(w: &str) -> bool {
    matches!(
        w.to_ascii_lowercase().as_str(),
        "of" | "to"
            | "from"
            | "under"
            | "on"
            | "with"
            | "and"
            | "or"
            | "not"
            | "class"
            | "instance"
            | "coalition"
            | "description"
            | "documentation"
            | "find"
            | "display"
            | "connect"
            | "join"
            | "leave"
            | "link"
            | "invoke"
            | "submit"
            | "native"
            | "create"
            | "dissolve"
            | "is"
            | "null"
            | "like"
            | "information"
            | "true"
            | "false"
            | "access"
            | "interface"
            | "document"
            | "instances"
            | "subclasses"
            | "coalitions"
            | "databases"
            | "at"
            | "in"
            | "where"
            | "limit"
            | "sites"
            | "explain"
    )
}

/// Multi-word names like the paper's ("Royal Brisbane Hospital"),
/// avoiding WebTassili keywords as words.
fn arb_name(rng: &mut StdRng) -> String {
    loop {
        let n_words = rng.gen_range(1..4usize);
        let words: Vec<String> = (0..n_words)
            .map(|_| {
                let mut w = string_from(rng, UPPER, 1);
                let tail = rng.gen_range(1usize..9);
                w.push_str(&string_from(rng, LOWER, tail));
                w
            })
            .collect();
        if !words.iter().any(|w| name_word_is_keyword(w)) {
            return words.join(" ");
        }
    }
}

fn arb_ident(rng: &mut StdRng) -> String {
    loop {
        let mut s = string_from(rng, UPPER, 1);
        let tail = rng.gen_range(0usize..11);
        s.push_str(&string_from(rng, IDENT_TAIL, tail));
        if !matches!(
            s.to_ascii_lowercase().as_str(),
            "on" | "and" | "or" | "not" | "is" | "null" | "like" | "true" | "false"
        ) {
            return s;
        }
    }
}

fn arb_literal(rng: &mut StdRng) -> Literal {
    match rng.gen_range(0..3) {
        0 => Literal::Int(rng.gen_range(0i64..1_000_000)),
        1 => {
            let len = rng.gen_range(0usize..17);
            Literal::Str(string_from(rng, STR_CHARS, len))
        }
        _ => Literal::Bool(rng.gen_bool(0.5)),
    }
}

fn arb_op(rng: &mut StdRng) -> PredOp {
    [
        PredOp::Eq,
        PredOp::Ne,
        PredOp::Lt,
        PredOp::Le,
        PredOp::Gt,
        PredOp::Ge,
    ][rng.gen_range(0..6usize)]
}

fn arb_pred(rng: &mut StdRng, depth: u32) -> Predicate {
    let pick = if depth == 0 { 0 } else { rng.gen_range(0..7) };
    match pick {
        // Flat `And` and `Or` lists of 2 to 8 parts.
        1 => Predicate::junction(
            Predicate::And,
            vec_of(rng, 2..9, |r| arb_pred(r, depth - 1)),
        ),
        2 => Predicate::junction(Predicate::Or, vec_of(rng, 2..9, |r| arb_pred(r, depth - 1))),
        3 => Predicate::Not(Box::new(arb_pred(rng, depth - 1))),
        4 => {
            let (t, a) = (arb_ident(rng), arb_ident(rng));
            Predicate::InList {
                path: format!("{t}.{a}"),
                values: vec_of(rng, 1..4, arb_literal),
            }
        }
        _ => {
            let (t, a) = (arb_ident(rng), arb_ident(rng));
            Predicate::Cmp {
                path: format!("{t}.{a}"),
                op: arb_op(rng),
                value: arb_literal(rng),
            }
        }
    }
}

fn arb_args(rng: &mut StdRng) -> Vec<Arg> {
    vec_of(rng, 0..3, |r| {
        if r.gen_bool(0.5) {
            Arg::Predicate(arb_pred(r, 3))
        } else {
            let (t, a) = (arb_ident(r), arb_ident(r));
            Arg::AttrRef(format!("{t}.{a}"))
        }
    })
}

fn arb_fed_invoke(rng: &mut StdRng) -> Statement {
    Statement::FedInvoke {
        type_name: arb_ident(rng),
        function: arb_ident(rng),
        args: arb_args(rng),
        scope: if rng.gen_bool(0.5) {
            FedScope::Coalition(arb_name(rng))
        } else {
            FedScope::Topic(arb_name(rng))
        },
        semi: if rng.gen_bool(0.5) {
            let (pt, pa) = (arb_ident(rng), arb_ident(rng));
            Some(SemiJoin {
                probe_attr: format!("{pt}.{pa}"),
                build_type: arb_ident(rng),
                build_attr: arb_ident(rng),
                build_args: arb_args(rng),
            })
        } else {
            None
        },
        limit: if rng.gen_bool(0.5) {
            Some(rng.gen_range(0i64..1_000) as u64)
        } else {
            None
        },
    }
}

fn arb_statement(rng: &mut StdRng) -> Statement {
    match rng.gen_range(0..17) {
        0 => Statement::FindCoalitions {
            topic: arb_name(rng),
        },
        1 => Statement::FindDatabases {
            topic: arb_name(rng),
        },
        2 => Statement::ConnectToCoalition {
            name: arb_name(rng),
        },
        3 => Statement::DisplaySubclasses {
            class: arb_name(rng),
        },
        4 => Statement::DisplayInstances {
            class: arb_name(rng),
        },
        5 => Statement::DisplayDocument {
            instance: arb_name(rng),
            class: if rng.gen_bool(0.5) {
                Some(arb_name(rng))
            } else {
                None
            },
        },
        6 => Statement::DisplayAccessInfo {
            instance: arb_name(rng),
        },
        7 => Statement::DisplayInterface {
            instance: arb_name(rng),
        },
        8 => Statement::Native {
            instance: arb_name(rng),
            query: {
                let len = rng.gen_range(1usize..41);
                string_from(rng, NATIVE_CHARS, len)
            },
        },
        9 => Statement::CreateCoalition {
            name: arb_name(rng),
            parent: if rng.gen_bool(0.5) {
                Some(arb_name(rng))
            } else {
                None
            },
            documentation: if rng.gen_bool(0.5) {
                Some({
                    let len = rng.gen_range(1usize..21);
                    string_from(rng, DOC_CHARS, len)
                })
            } else {
                None
            },
        },
        10 => Statement::DissolveCoalition {
            name: arb_name(rng),
        },
        11 => Statement::Join {
            instance: arb_name(rng),
            coalition: arb_name(rng),
        },
        12 => Statement::Leave {
            instance: arb_name(rng),
            coalition: arb_name(rng),
        },
        13 => {
            let (a, b) = (arb_name(rng), arb_name(rng));
            let (ca, cb) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
            Statement::AddLink {
                from: if ca {
                    LinkTarget::Coalition(a)
                } else {
                    LinkTarget::Instance(a)
                },
                to: if cb {
                    LinkTarget::Coalition(b)
                } else {
                    LinkTarget::Instance(b)
                },
                description: None,
            }
        }
        14 => arb_fed_invoke(rng),
        15 => Statement::Explain(Box::new(arb_fed_invoke(rng))),
        _ => Statement::Invoke {
            instance: arb_name(rng),
            type_name: arb_ident(rng),
            function: arb_ident(rng),
            args: arb_args(rng),
        },
    }
}

#[test]
fn display_parse_roundtrip() {
    prop::cases(256, |rng| {
        let stmt = arb_statement(rng);
        let text = stmt.to_string();
        let reparsed = parse(&text);
        assert!(reparsed.is_ok(), "failed to reparse {text:?}: {reparsed:?}");
        assert_eq!(reparsed.unwrap(), stmt, "roundtrip of {text}");
    });
}

#[test]
fn rendered_predicates_reparse() {
    prop::cases(256, |rng| {
        let p = arb_pred(rng, 3);
        let text = format!("Invoke T.F(({})) On Instance D;", render_pred(&p));
        let stmt = parse(&text);
        assert!(stmt.is_ok(), "predicate rendering unparseable: {text}");
    });
}

/// A list written with a run of its parts in parentheses, `(a And b)
/// And c` or `a Or (b Or c) Or d`, parses into the one flat list the
/// constructor builds from the same parts.
#[test]
fn a_parenthesised_run_of_a_list_parses_into_the_list() {
    prop::cases(256, |rng| {
        let and = rng.gen_bool(0.5);
        let parts = vec_of(rng, 3..9, |r| arb_pred(r, 2));
        let from = rng.gen_range(0..parts.len() - 1);
        let to = rng.gen_range(from + 2..=parts.len());
        let kw = if and { " And " } else { " Or " };
        let text = |ps: &[Predicate]| {
            let texts: Vec<String> = ps.iter().map(|p| format!("({})", render_pred(p))).collect();
            texts.join(kw)
        };
        let mut pieces = Vec::new();
        if from > 0 {
            pieces.push(text(&parts[..from]));
        }
        pieces.push(format!("({})", text(&parts[from..to])));
        if to < parts.len() {
            pieces.push(text(&parts[to..]));
        }
        let stmt = format!("Invoke T.F(({})) On Instance D;", pieces.join(kw));
        let want = if and {
            Predicate::junction(Predicate::And, parts)
        } else {
            Predicate::junction(Predicate::Or, parts)
        };
        let Ok(Statement::Invoke { args, .. }) = parse(&stmt) else {
            panic!("{stmt}: not an Invoke");
        };
        assert_eq!(args, [Arg::Predicate(want)], "{stmt}");
    });
}

#[test]
fn parser_never_panics_on_noise() {
    prop::cases(256, |rng| {
        // Printable ASCII noise (space through tilde).
        let len = rng.gen_range(0..80usize);
        let s: String = (0..len)
            .map(|_| rng.gen_range(0x20u8..0x7f) as char)
            .collect();
        let _ = parse(&s);
    });
}
