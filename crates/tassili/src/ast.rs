//! The WebTassili statement AST.

use std::fmt;
use webfindit_base::float::write_double;

/// A literal value in a WebTassili expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => write_double(f, *v),
            Literal::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Comparison operators in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `Like`
    Like,
}

impl PredOp {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            PredOp::Eq => "=",
            PredOp::Ne => "<>",
            PredOp::Lt => "<",
            PredOp::Le => "<=",
            PredOp::Gt => ">",
            PredOp::Ge => ">=",
            PredOp::Like => "LIKE",
        }
    }
}

/// A predicate over exported attributes (used in access-function calls).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `Path op literal`, e.g. `ResearchProjects.Title = 'AIDS and drugs'`.
    Cmp {
        /// Dotted attribute path.
        path: String,
        /// Operator.
        op: PredOp,
        /// Literal operand.
        value: Literal,
    },
    /// `Path In (lit, lit, …)` — membership in a literal list. The
    /// federated executor synthesizes these to ship a semi-join's key
    /// set to the probe sites.
    InList {
        /// Dotted attribute path.
        path: String,
        /// The admitted values (at least one).
        values: Vec<Literal>,
    },
    /// Conjunction of two or more parts, none of them an `And`. Built
    /// by [`Predicate::junction`].
    And(Vec<Predicate>),
    /// Disjunction of two or more parts, none of them an `Or`. Built by
    /// [`Predicate::junction`].
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// The one way a [`Predicate::And`] or [`Predicate::Or`] is built:
    /// `make` is that variant, and a part that is itself one,
    /// parenthesised or not, is spliced in. So a chain of any length is
    /// one flat list and nothing recurses once per operator. A single
    /// part comes back unchanged; `parts` must not be empty.
    pub fn junction(
        make: fn(Vec<Predicate>) -> Predicate,
        parts: impl IntoIterator<Item = Predicate>,
    ) -> Predicate {
        let kind = make(Vec::new());
        let mut flat = Vec::new();
        for part in parts {
            match (&kind, part) {
                (Predicate::And(_), Predicate::And(inner))
                | (Predicate::Or(_), Predicate::Or(inner)) => flat.extend(inner),
                (_, part) => flat.push(part),
            }
        }
        match flat.len() {
            1 => flat.pop().expect("one part"),
            _ => make(flat),
        }
    }
}

/// Each of `parts` rendered by `render` in parentheses, joined by `sep`:
/// how every renderer writes an `And` or `Or` list.
pub(crate) fn list_text(
    parts: &[Predicate],
    render: impl Fn(&Predicate) -> String,
    sep: &str,
) -> String {
    let texts: Vec<String> = parts.iter().map(|p| format!("({})", render(p))).collect();
    texts.join(sep)
}

/// An argument to an access-function invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A dotted attribute reference, e.g. `ResearchProjects.Title`.
    AttrRef(String),
    /// A literal.
    Literal(Literal),
    /// A parenthesized predicate.
    Predicate(Predicate),
}

/// The member-set scope of a federated invocation: which sites a
/// coalition-wide query fans out to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FedScope {
    /// `At Coalition <name>` — every member of the named coalition.
    Coalition(String),
    /// `At Sites With Information <topic>` — the members of every
    /// coalition discovery finds for the topic.
    Topic(String),
}

impl fmt::Display for FedScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedScope::Coalition(name) => write!(f, "At Coalition {name}"),
            FedScope::Topic(topic) => write!(f, "At Sites With Information {topic}"),
        }
    }
}

/// A semi-join clause on a federated invocation:
/// `Where <probe attr> In <BuildType>.<BuildAttr>(build args…)`.
///
/// The build side runs first over the sites exporting `build_type`; its
/// distinct values become the key set shipped (as an `In` predicate) to
/// the sites answering the probe side.
#[derive(Debug, Clone, PartialEq)]
pub struct SemiJoin {
    /// Probe-side attribute the keys restrict (dotted path).
    pub probe_attr: String,
    /// Exported type of the build side.
    pub build_type: String,
    /// Attribute/function projected on the build side (the keys).
    pub build_attr: String,
    /// Arguments (predicates) pushed down to the build side.
    pub build_args: Vec<Arg>,
}

/// A service-link endpoint in management statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkTarget {
    /// `Coalition <name>`.
    Coalition(String),
    /// `Instance <name>` (a database).
    Instance(String),
}

impl LinkTarget {
    /// The endpoint name.
    pub fn name(&self) -> &str {
        match self {
            LinkTarget::Coalition(n) | LinkTarget::Instance(n) => n,
        }
    }
}

/// A parsed WebTassili statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `Find Coalitions With Information <topic>` — locate clusters.
    FindCoalitions {
        /// The requested information type.
        topic: String,
    },
    /// `Find Databases With Information <topic>` — locate sources
    /// directly.
    FindDatabases {
        /// The requested information type.
        topic: String,
    },
    /// `Connect To Coalition <name>` — obtain a point of entry.
    ConnectToCoalition {
        /// Target coalition.
        name: String,
    },
    /// `Display SubClasses of Class <name>` — refine within the lattice.
    DisplaySubclasses {
        /// The class to expand.
        class: String,
    },
    /// `Display Instances of Class <name>` — the member databases.
    DisplayInstances {
        /// The class whose instances to list.
        class: String,
    },
    /// `Display Document of Instance <name> [Of Class <class>]` — the
    /// documentation of an information source.
    DisplayDocument {
        /// Source name.
        instance: String,
        /// Optional class qualification (as in the paper's example).
        class: Option<String>,
    },
    /// `Display Access Information of Instance <name>` — location,
    /// wrapper, and exported interface summary.
    DisplayAccessInfo {
        /// Source name.
        instance: String,
    },
    /// `Display Interface of Instance <name>` — the full exported types.
    DisplayInterface {
        /// Source name.
        instance: String,
    },
    /// `Invoke <Type>.<Function>(args…) On Instance <name>` — call an
    /// exported access routine (translated to the native language).
    Invoke {
        /// Target source.
        instance: String,
        /// Exported type owning the function.
        type_name: String,
        /// Function name.
        function: String,
        /// Arguments.
        args: Vec<Arg>,
    },
    /// `Submit Native '<query>' To Instance <name>` — pass a native
    /// query through unchanged (the Fetch button path of Figure 6).
    Native {
        /// Target source.
        instance: String,
        /// The native query text.
        query: String,
    },
    /// `Invoke <Type>.<Function>(args…) At Coalition <name>` (or
    /// `At Sites With Information <topic>`) — a federated access-function
    /// call fanned out to every member site exporting the type, merged
    /// as a union. An optional `Where <attr> In <T2>.<A2>(…)` clause
    /// adds a cross-site semi-join, and `Limit <n>` bounds the merged
    /// result (pushed to the members as a row cap).
    FedInvoke {
        /// Exported type owning the function.
        type_name: String,
        /// Function name (the projected column).
        function: String,
        /// Arguments (predicates are pushed down to every site).
        args: Vec<Arg>,
        /// Which member sites to fan out to.
        scope: FedScope,
        /// Optional cross-site semi-join.
        semi: Option<SemiJoin>,
        /// Optional row cap on the merged result.
        limit: Option<u64>,
    },
    /// `Explain <statement>` — render the execution plan instead of
    /// running the statement (federated invocations only).
    Explain(Box<Statement>),
    /// `Create Coalition <name> [Under <parent>] [Documentation '<d>']`.
    CreateCoalition {
        /// New coalition name.
        name: String,
        /// Optional parent in the lattice.
        parent: Option<String>,
        /// Optional documentation string.
        documentation: Option<String>,
    },
    /// `Dissolve Coalition <name>`.
    DissolveCoalition {
        /// Doomed coalition.
        name: String,
    },
    /// `Join Instance <db> To Coalition <c>` — membership change.
    Join {
        /// The joining source.
        instance: String,
        /// The coalition joined.
        coalition: String,
    },
    /// `Leave Instance <db> From Coalition <c>`.
    Leave {
        /// The leaving source.
        instance: String,
        /// The coalition left.
        coalition: String,
    },
    /// `Link <end> To <end> [Description '<d>']` — create a service link.
    AddLink {
        /// Offering end.
        from: LinkTarget,
        /// Consuming end.
        to: LinkTarget,
        /// Optional description of the shared information.
        description: Option<String>,
    },
}

impl fmt::Display for Statement {
    /// Canonical WebTassili rendering (parse ∘ display is identity on
    /// the AST — checked by property tests).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::FindCoalitions { topic } => {
                write!(f, "Find Coalitions With Information {topic};")
            }
            Statement::FindDatabases { topic } => {
                write!(f, "Find Databases With Information {topic};")
            }
            Statement::ConnectToCoalition { name } => {
                write!(f, "Connect To Coalition {name};")
            }
            Statement::DisplaySubclasses { class } => {
                write!(f, "Display SubClasses of Class {class};")
            }
            Statement::DisplayInstances { class } => {
                write!(f, "Display Instances of Class {class};")
            }
            Statement::DisplayDocument { instance, class } => match class {
                Some(c) => write!(f, "Display Document of Instance {instance} Of Class {c};"),
                None => write!(f, "Display Document of Instance {instance};"),
            },
            Statement::DisplayAccessInfo { instance } => {
                write!(f, "Display Access Information of Instance {instance};")
            }
            Statement::DisplayInterface { instance } => {
                write!(f, "Display Interface of Instance {instance};")
            }
            Statement::Invoke {
                instance,
                type_name,
                function,
                args,
            } => write!(
                f,
                "Invoke {type_name}.{function}({}) On Instance {instance};",
                render_args(args)
            ),
            Statement::Native { instance, query } => write!(
                f,
                "Submit Native '{}' To Instance {instance};",
                query.replace('\'', "''")
            ),
            Statement::FedInvoke {
                type_name,
                function,
                args,
                scope,
                semi,
                limit,
            } => {
                write!(
                    f,
                    "Invoke {type_name}.{function}({}) {scope}",
                    render_args(args)
                )?;
                if let Some(s) = semi {
                    write!(
                        f,
                        " Where {} In {}.{}({})",
                        s.probe_attr,
                        s.build_type,
                        s.build_attr,
                        render_args(&s.build_args)
                    )?;
                }
                if let Some(n) = limit {
                    write!(f, " Limit {n}")?;
                }
                write!(f, ";")
            }
            Statement::Explain(inner) => write!(f, "Explain {inner}"),
            Statement::CreateCoalition {
                name,
                parent,
                documentation,
            } => {
                write!(f, "Create Coalition {name}")?;
                if let Some(p) = parent {
                    write!(f, " Under {p}")?;
                }
                if let Some(d) = documentation {
                    write!(f, " Documentation '{}'", d.replace('\'', "''"))?;
                }
                write!(f, ";")
            }
            Statement::DissolveCoalition { name } => {
                write!(f, "Dissolve Coalition {name};")
            }
            Statement::Join {
                instance,
                coalition,
            } => write!(f, "Join Instance {instance} To Coalition {coalition};"),
            Statement::Leave {
                instance,
                coalition,
            } => write!(f, "Leave Instance {instance} From Coalition {coalition};"),
            Statement::AddLink {
                from,
                to,
                description,
            } => {
                let render_end = |e: &LinkTarget| match e {
                    LinkTarget::Coalition(n) => format!("Coalition {n}"),
                    LinkTarget::Instance(n) => format!("Instance {n}"),
                };
                write!(f, "Link {} To {}", render_end(from), render_end(to))?;
                if let Some(d) = description {
                    write!(f, " Description '{}'", d.replace('\'', "''"))?;
                }
                write!(f, ";")
            }
        }
    }
}

/// Render call arguments as written, comma-separated.
fn render_args(args: &[Arg]) -> String {
    let rendered: Vec<String> = args
        .iter()
        .map(|a| match a {
            Arg::AttrRef(p) => p.clone(),
            Arg::Literal(l) => l.to_string(),
            Arg::Predicate(p) => format!("({})", render_pred(p)),
        })
        .collect();
    rendered.join(", ")
}

/// Render a predicate in WebTassili/SQL-compatible syntax.
pub fn render_pred(p: &Predicate) -> String {
    match p {
        Predicate::Cmp { path, op, value } => format!("{path} {} {value}", op.sql()),
        Predicate::InList { path, values } => {
            let vs: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            format!("{path} In ({})", vs.join(", "))
        }
        Predicate::And(parts) => list_text(parts, render_pred, " And "),
        Predicate::Or(parts) => list_text(parts, render_pred, " Or "),
        Predicate::Not(a) => format!("Not ({})", render_pred(a)),
    }
}
