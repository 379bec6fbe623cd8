//! Federated cross-site query execution — query shipping, streaming
//! merge, and graceful per-site degradation.
//!
//! Discovery (§2) finds *where* information lives; this module makes a
//! single WebTassili access-function call execute *across* that set.
//! A [`FedExecutor`] resolves the member set of an `At Coalition …` or
//! `At Sites With Information …` scope, decomposes the call into one
//! native subquery per member (SQL or OQL, decided by each site's
//! wrapper scheme, with predicates and the row limit pushed down),
//! ships the subqueries in parallel over the multiplexed IIOP channels
//! through each site's ISI, and pull-merges the partial results into
//! one deterministic answer.
//!
//! Two properties are load-bearing:
//!
//! * **Serial ≡ parallel.** Subqueries are shipped by the bounded wave
//!   pool discovery uses (`crate::wave`): results come back and merge
//!   in member order, and unreachable-endpoint causes
//!   canonicalize through [`crate::failure::degrade_reason`], so a
//!   `max_workers = 1` reference run is byte-identical to the parallel
//!   one.
//! * **Graceful degradation.** A killed or circuit-open member never
//!   aborts the query: it becomes a [`SiteFailure`] in
//!   [`FedOutcome::degraded`] — the same shape discovery reports — and
//!   the merge keeps every row the surviving members shipped. The
//!   federation's [`webfindit_orb::CallOptions`] deadline bounds each
//!   shipped call, so the fan-out cannot hang on a silent member.
//!
//! The cross-site join strategy is a semi-join: the build side
//! (`Where probe In Build.Attr(…)`) runs first over the members
//! exporting the build type, its distinct keys are shipped to the
//! probe sites as an `IN`-list predicate, and only matching rows come
//! back — the paper's "ship the smaller side" discipline.

use crate::discovery::DiscoveryEngine;
use crate::failure::{degrade_reason, is_breaker_rejection, SiteFailure};
use crate::federation::Federation;
use crate::trace::{Layer, Trace};
use crate::value_map::value_to_strings;
use crate::{Lead, WebfinditError, WfResult};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use webfindit_tassili::ast::{Arg, FedScope, Literal, Predicate, SemiJoin, Statement};
use webfindit_tassili::translate::{access_call_to_oql, access_call_to_sql};
use webfindit_wire::Value;

/// A member excluded at plan time: `(site, reason)`. Skips are not
/// degradation — the site is healthy, it just does not export the
/// queried type (or is not deployed here).
pub type SkippedSite = (String, String);

/// One per-site subquery in a federated plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SitePlan {
    /// The member site.
    pub site: String,
    /// Native language shipped ("SQL" or "OQL").
    pub language: &'static str,
    /// The shipped query text (for the probe side of a semi-join, the
    /// key list is bound at execution time).
    pub native: String,
}

/// The federated execution plan `EXPLAIN` renders: member resolution,
/// per-site subqueries, skips, and the merge operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FedPlan {
    /// Rendered scope ("Coalition Research", "Sites With Information …").
    pub scope: String,
    /// Resolved member set, in merge order.
    pub members: Vec<String>,
    /// Semi-join build side, when the statement has a `Where … In`
    /// clause (runs before the ship wave).
    pub build: Vec<SitePlan>,
    /// Probe attribute restricted by the shipped key set.
    pub probe_attr: Option<String>,
    /// Subqueries shipped to the answering members.
    pub ship: Vec<SitePlan>,
    /// Members excluded at plan time: `(site, why)`.
    pub skipped: Vec<SkippedSite>,
    /// Row limit applied by the merge (and pushed to members).
    pub limit: Option<u64>,
}

impl FedPlan {
    /// Render root-first, indented — the style of the relstore/oostore
    /// local plans, lifted to the federation.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!(
            "FedQuery At {} ({} member(s))",
            self.scope,
            self.members.len()
        ));
        let mut merge = String::from("  Merge: Union in member order");
        if let Some(n) = self.limit {
            merge.push_str(&format!(" -> Limit {n}"));
        }
        out.push(merge);
        if !self.build.is_empty() {
            let probe = self.probe_attr.as_deref().unwrap_or("?");
            out.push(format!("  SemiJoin: {probe} In keys of"));
            for b in &self.build {
                out.push(format!(
                    "    Build @ {} [{}]: {}",
                    b.site, b.language, b.native
                ));
            }
        }
        for s in &self.ship {
            out.push(format!(
                "  Ship @ {} [{}]: {}",
                s.site, s.language, s.native
            ));
        }
        for (site, why) in &self.skipped {
            out.push(format!("  Skip @ {site}: {why}"));
        }
        out
    }
}

webfindit_base::counter_set! {
    /// Totals over every federated query the executors of one
    /// federation ran — [`FedStats`] summed, plus the degradations.
    pub struct FedMetrics => FedSnapshot {
        /// Federated queries planned and executed (each fans out one
        /// subquery per member site).
        counter queries "fed queries",
        /// Per-site subqueries shipped.
        counter subqueries "subqueries",
        /// Member sites that answered their shipped subquery.
        counter sites_answered "sites answered",
        /// Member sites that degraded (timeout, kill, open breaker)
        /// instead of answering; their absence is reported, not fatal.
        counter sites_degraded "sites degraded",
        /// Rows returned over the wire by answering member sites.
        counter rows_shipped "rows shipped",
        /// Approximate bytes of those shipped rows.
        counter bytes_shipped "bytes shipped",
        /// Rows surviving the coordinator's merge (dedup/limit applied).
        counter rows_merged "rows merged",
        /// Semi-join build keys shipped to probe sites as IN-list values.
        counter keys_shipped "keys shipped",
    }
}

/// Cost accounting for one federated execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FedStats {
    /// Members the plan targeted (ship + build sides, deduplicated).
    pub sites_targeted: usize,
    /// Members that answered their subquery.
    pub sites_answered: usize,
    /// Subqueries actually shipped over the wire.
    pub subqueries_shipped: u64,
    /// Rows returned by answering members.
    pub rows_shipped: u64,
    /// Approximate bytes of those rows.
    pub bytes_shipped: u64,
    /// Rows surviving the merge (after the limit).
    pub rows_merged: u64,
    /// Semi-join keys shipped to probe sites.
    pub keys_shipped: u64,
}

/// The outcome of one federated query: the merged table, per-site
/// contributions, and — mirroring [`crate::DiscoveryOutcome`] — the
/// members that degraded instead of answering.
#[derive(Debug, Clone, PartialEq)]
pub struct FedOutcome {
    /// Output column names; the first is always `site`.
    pub columns: Vec<String>,
    /// Merged rows, member-ordered then site-row-ordered.
    pub rows: Vec<Vec<String>>,
    /// Rows contributed per answering member, in merge order.
    pub per_site: Vec<(String, usize)>,
    /// Members that could not answer; non-empty means `rows` covers
    /// only the surviving subtree of the federation.
    pub degraded: Vec<SiteFailure>,
    /// Cost accounting.
    pub stats: FedStats,
}

impl FedOutcome {
    /// True if every targeted member answered.
    pub fn complete(&self) -> bool {
        self.degraded.is_empty()
    }

    /// Names of the members that could not be consulted.
    pub fn degraded_sites(&self) -> Vec<&str> {
        self.degraded.iter().map(|f| f.site.as_str()).collect()
    }

    /// Render as a text table with a per-site footer.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.columns.join(" | "));
        for r in &self.rows {
            out.push_str(&r.join(" | "));
            out.push('\n');
        }
        let contrib: Vec<String> = self
            .per_site
            .iter()
            .map(|(s, n)| format!("{s}: {n}"))
            .collect();
        out.push_str(&format!(
            "({} row(s) from {} site(s){})",
            self.rows.len(),
            self.per_site.len(),
            if contrib.is_empty() {
                String::new()
            } else {
                format!(" — {}", contrib.join(", "))
            }
        ));
        for f in &self.degraded {
            out.push_str(&format!("\ndegraded: {} — {}", f.site, f.reason));
        }
        out
    }
}

/// The pieces of a `FedInvoke` statement the planner consumes.
struct FedCall<'a> {
    type_name: &'a str,
    function: &'a str,
    args: &'a [Arg],
    scope: &'a FedScope,
    semi: Option<&'a SemiJoin>,
    limit: Option<u64>,
}

fn fed_parts(stmt: &Statement) -> WfResult<FedCall<'_>> {
    match stmt {
        Statement::FedInvoke {
            type_name,
            function,
            args,
            scope,
            semi,
            limit,
        } => Ok(FedCall {
            type_name,
            function,
            args,
            scope,
            semi: semi.as_ref(),
            limit: *limit,
        }),
        other => Err(WebfinditError::Protocol(format!(
            "not a federated invocation: {other}"
        ))),
    }
}

/// Case- and plural-insensitive exported-type matching: the Research
/// coalition exports the same concept as a `ResearchProjects` table at
/// one member and a `ResearchProject` class at another.
fn type_key(name: &str) -> String {
    let lower = name.to_ascii_lowercase();
    lower.strip_suffix('s').map(str::to_owned).unwrap_or(lower)
}

/// A decoded subquery answer.
struct Shipped {
    /// Projected cells as strings.
    rows: Vec<Vec<String>>,
    /// Approximate bytes those cells occupied on the wire.
    bytes: u64,
    /// The first projected cell of every row as a typed literal, `NULL`s
    /// dropped; filled on the semi-join build wave only.
    keys: Vec<Literal>,
}

/// Which side of a federated plan a wave ships.
#[derive(Clone, Copy, PartialEq)]
enum Wave {
    /// Semi-join build side: the answers' first column becomes the key
    /// set shipped to the probe sites.
    Build,
    /// The answering members, whose rows are merged, capped per member
    /// at the statement's limit.
    Ship(Option<u64>),
}

/// The federated planner/executor (the coordinator role).
pub struct FedExecutor {
    fed: Arc<Federation>,
    /// Ship-wave concurrency. `1` is the sequential reference execution
    /// the parallel merge must be byte-identical to.
    pub max_workers: usize,
}

impl FedExecutor {
    /// Create an executor over a federation (parallel shipping).
    pub fn new(fed: Arc<Federation>) -> FedExecutor {
        FedExecutor {
            fed,
            max_workers: 8,
        }
    }

    /// Resolve the member set of a scope, in deterministic (sorted)
    /// order, along with any sites discovery had to skip on the way.
    fn resolve_members(
        &self,
        engine: &DiscoveryEngine,
        origin_site: &str,
        scope: &FedScope,
    ) -> WfResult<(Vec<String>, Vec<SiteFailure>)> {
        match scope {
            FedScope::Coalition(name) => {
                let members = self.fed.coalition_members(name)?;
                if members.is_empty() {
                    return Err(WebfinditError::NothingFound(name.clone()));
                }
                Ok((members, Vec::new()))
            }
            FedScope::Topic(topic) => {
                let outcome = engine.find(origin_site, topic)?;
                let mut members = Vec::new();
                for lead in &outcome.leads {
                    if let Lead::Coalition { name, via_site, .. } = lead {
                        let ior = self
                            .fed
                            .naming_client()
                            .resolve(&format!("codb/{via_site}"))?;
                        if let Ok(v) =
                            self.fed
                                .invoke(&ior, "members", &[Value::string(name.clone())])
                        {
                            members.extend(value_to_strings(&v)?);
                        }
                    }
                }
                members.sort();
                members.dedup();
                if members.is_empty() {
                    return Err(WebfinditError::NothingFound(topic.clone()));
                }
                Ok((members, outcome.degraded))
            }
        }
    }

    /// Per-site decomposition of one access call over `members`: a
    /// native subquery for every member exporting `type_name`, and a
    /// skip entry for every member that does not.
    fn decompose(
        &self,
        members: &[String],
        type_name: &str,
        function: &str,
        args: &[Arg],
        extra: Option<&Predicate>,
    ) -> WfResult<(Vec<SitePlan>, Vec<SkippedSite>)> {
        let want = type_key(type_name);
        let mut ship = Vec::new();
        let mut skipped = Vec::new();
        for member in members {
            let site = match self.fed.site(member) {
                Ok(s) => s,
                Err(_) => {
                    skipped.push((member.clone(), "not deployed in this federation".into()));
                    continue;
                }
            };
            let exported = site
                .descriptor
                .interface
                .iter()
                .find(|t| type_key(&t.name) == want);
            let Some(exported) = exported else {
                skipped.push((member.clone(), format!("does not export {type_name}")));
                continue;
            };
            // The wrapper address decides the native language, exactly
            // as the single-site Invoke path does.
            let (language, native) = if site.descriptor.wrapper.starts_with("jdbc:") {
                (
                    "SQL",
                    access_call_to_sql(&exported.name, function, args, extra)?,
                )
            } else {
                (
                    "OQL",
                    access_call_to_oql(&exported.name, function, args, extra)?,
                )
            };
            ship.push(SitePlan {
                site: member.clone(),
                language,
                native,
            });
        }
        Ok((ship, skipped))
    }

    /// Build the federated plan for a `FedInvoke` statement without
    /// executing anything (the `EXPLAIN` surface).
    pub fn plan(
        &self,
        engine: &DiscoveryEngine,
        origin_site: &str,
        stmt: &Statement,
    ) -> WfResult<FedPlan> {
        let call = fed_parts(stmt)?;
        let (members, _) = self.resolve_members(engine, origin_site, call.scope)?;
        let (build, probe_attr) = match call.semi {
            Some(semi) => {
                let (build, _) = self.decompose(
                    &members,
                    &semi.build_type,
                    &semi.build_attr,
                    &semi.build_args,
                    None,
                )?;
                (build, Some(semi.probe_attr.clone()))
            }
            None => (Vec::new(), None),
        };
        let (ship, skipped) =
            self.decompose(&members, call.type_name, call.function, call.args, None)?;
        Ok(FedPlan {
            scope: call.scope.to_string().trim_start_matches("At ").to_owned(),
            members,
            build,
            probe_attr,
            ship,
            skipped,
            limit: call.limit,
        })
    }

    /// Ship one subquery to one member's ISI and decode the answer.
    fn ship_one(&self, plan: &SitePlan, kind: Wave) -> WfResult<Shipped> {
        let ior = self
            .fed
            .naming_client()
            .resolve(&format!("isi/{}", plan.site))?;
        let mut args = vec![Value::string(plan.native.clone())];
        if let Wave::Ship(Some(n)) = kind {
            args.push(Value::ULong(n.min(u32::MAX as u64) as u32));
        }
        let v = self.fed.invoke(&ior, "execute", &args)?;
        decode_rows(&v, kind == Wave::Build)
    }

    /// Ship a wave of subqueries on the bounded pool and account for
    /// every member: an answer is counted into `stats` and returned
    /// with its site, **in wave order** regardless of completion order
    /// (so serial and parallel runs merge byte-identically); a failure
    /// becomes a [`SiteFailure`] in `degraded`. Breaker rejections get
    /// the pool's one serial re-run first.
    fn ship_wave(
        &self,
        wave: &[SitePlan],
        kind: Wave,
        stats: &mut FedStats,
        degraded: &mut Vec<SiteFailure>,
    ) -> Vec<(String, Shipped)> {
        let metrics = self.fed.fed_metrics();
        stats.subqueries_shipped += wave.len() as u64;
        let results = crate::wave::run_ordered(
            wave,
            self.max_workers,
            |plan| self.ship_one(plan, kind),
            |r| r.as_ref().is_err_and(is_breaker_rejection),
        );
        let mut answered = Vec::with_capacity(wave.len());
        for (plan, result) in wave.iter().zip(results) {
            let site = plan.site.clone();
            match result {
                Ok(s) => {
                    stats.sites_answered += 1;
                    stats.rows_shipped += s.rows.len() as u64;
                    stats.bytes_shipped += s.bytes;
                    metrics.sites_answered.fetch_add(1, Relaxed);
                    metrics.rows_shipped.fetch_add(s.rows.len() as u64, Relaxed);
                    metrics.bytes_shipped.fetch_add(s.bytes, Relaxed);
                    answered.push((site, s));
                }
                Err(e) => {
                    metrics.sites_degraded.fetch_add(1, Relaxed);
                    degraded.push(SiteFailure {
                        site,
                        distance: 0,
                        reason: degrade_reason(&e),
                    });
                }
            }
        }
        answered
    }

    /// Execute a `FedInvoke` statement: resolve members, run the
    /// semi-join build side (if any), ship the per-site subqueries in
    /// parallel, and pull-merge the partials deterministically.
    pub fn execute(
        &self,
        engine: &DiscoveryEngine,
        origin_site: &str,
        stmt: &Statement,
        mut trace: Option<&mut Trace>,
    ) -> WfResult<FedOutcome> {
        let call = fed_parts(stmt)?;
        let (members, mut degraded) = self.resolve_members(engine, origin_site, call.scope)?;
        let mut stats = FedStats::default();
        let metrics = self.fed.fed_metrics();

        // ---- semi-join build phase ---------------------------------
        let mut extra: Option<Predicate> = None;
        let mut probe_dead = false; // an empty key set proves no probe row matches
        if let Some(semi) = call.semi {
            let (build, _) = self.decompose(
                &members,
                &semi.build_type,
                &semi.build_attr,
                &semi.build_args,
                None,
            )?;
            let mut keys: Vec<Literal> = self
                .ship_wave(&build, Wave::Build, &mut stats, &mut degraded)
                .into_iter()
                .flat_map(|(_, s)| s.keys)
                .collect();
            keys.sort_by_key(|l| l.to_string());
            keys.dedup_by_key(|l| l.to_string());
            stats.keys_shipped = keys.len() as u64;
            if let Some(t) = trace.as_deref_mut() {
                t.event(
                    Layer::Query,
                    format!(
                        "semi-join build {}.{} shipped {} distinct key(s)",
                        semi.build_type,
                        semi.build_attr,
                        keys.len()
                    ),
                );
            }
            if keys.is_empty() {
                probe_dead = true;
            } else {
                extra = Some(Predicate::InList {
                    path: semi.probe_attr.clone(),
                    values: keys,
                });
            }
        }

        // ---- ship phase --------------------------------------------
        let (ship, skipped) = self.decompose(
            &members,
            call.type_name,
            call.function,
            call.args,
            extra.as_ref(),
        )?;
        stats.sites_targeted = ship.len() + skipped.len();
        let mut per_site: Vec<(String, usize)> = Vec::new();
        let mut rows: Vec<Vec<String>> = Vec::new();
        if !probe_dead {
            if let Some(t) = trace.as_deref_mut() {
                t.event(
                    Layer::Communication,
                    format!(
                        "shipping {} subquery(ies) over {} worker(s), {} member(s) skipped",
                        ship.len(),
                        self.max_workers.max(1).min(ship.len().max(1)),
                        skipped.len()
                    ),
                );
            }
            // ---- pull-merge, in member order ------------------------
            let kind = Wave::Ship(call.limit);
            for (site, s) in self.ship_wave(&ship, kind, &mut stats, &mut degraded) {
                per_site.push((site.clone(), s.rows.len()));
                for r in s.rows {
                    let mut row = Vec::with_capacity(r.len() + 1);
                    row.push(site.clone());
                    row.extend(r);
                    rows.push(row);
                }
            }
        }
        if let Some(n) = call.limit {
            rows.truncate(n as usize);
        }
        stats.rows_merged = rows.len() as u64;
        metrics.queries.fetch_add(1, Relaxed);
        metrics
            .subqueries
            .fetch_add(stats.subqueries_shipped, Relaxed);
        metrics.keys_shipped.fetch_add(stats.keys_shipped, Relaxed);
        metrics.rows_merged.fetch_add(stats.rows_merged, Relaxed);
        if let Some(t) = trace {
            t.counters(
                Layer::Query,
                format!(
                    "merged {} row(s) from {}/{} member(s)",
                    rows.len(),
                    per_site.len(),
                    stats.sites_targeted
                ),
                metrics.snapshot().iter(),
            );
        }
        Ok(FedOutcome {
            columns: vec!["site".into(), call.function.to_ascii_lowercase()],
            rows,
            per_site,
            degraded,
            stats,
        })
    }
}

/// Decode one ISI `execute` answer into projected string cells plus an
/// approximate wire size — and, when `keyed`, the first projected
/// column as semi-join keys. Object answers drop the leading OID cell
/// (an object identity is site-local and meaningless in a federated
/// merge).
fn decode_rows(v: &Value, keyed: bool) -> WfResult<Shipped> {
    let object = v.field("object_rows").is_some();
    if v.field("columns").is_none() {
        return Err(WebfinditError::Protocol(
            "federated subquery did not return rows".into(),
        ));
    }
    let rows_v = v
        .field("rows")
        .and_then(Value::as_sequence)
        .ok_or_else(|| WebfinditError::Protocol("result set missing rows".into()))?;
    let mut rows = Vec::with_capacity(rows_v.len());
    let mut bytes = 0u64;
    let mut keys = Vec::new();
    for r in rows_v {
        let cells = r
            .as_sequence()
            .ok_or_else(|| WebfinditError::Protocol("row is not a sequence".into()))?;
        let skip = usize::from(object);
        if keyed {
            keys.extend(cells.get(skip).and_then(key_literal));
        }
        let row: Vec<String> = cells.iter().skip(skip).map(|c| c.to_string()).collect();
        bytes += row.iter().map(|c| c.len() as u64).sum::<u64>();
        rows.push(row);
    }
    Ok(Shipped { rows, bytes, keys })
}

/// The WebTassili literal a build-side cell ships as in the semi-join
/// `IN` list. The literal follows the cell's wire type, never its
/// spelling: a text key that happens to look numeric (`'007'`, a
/// postcode) must reach the probe sites as text. `NULL` yields no key —
/// it never matches `IN`.
fn key_literal(cell: &Value) -> Option<Literal> {
    Some(match cell {
        Value::Null => return None,
        Value::Str(s) => Literal::Str(s.clone()),
        Value::Bool(b) => Literal::Bool(*b),
        Value::Octet(v) => Literal::Int(i64::from(*v)),
        Value::Short(v) => Literal::Int(i64::from(*v)),
        Value::Long(v) => Literal::Int(i64::from(*v)),
        Value::LongLong(v) => Literal::Int(*v),
        Value::ULong(v) => Literal::Int(i64::from(*v)),
        Value::Float(v) => Literal::Float(f64::from(*v)),
        Value::Double(v) => Literal::Float(*v),
        // Dates, references and collections have no literal form; they
        // ship as their rendering, which is what the merged rows show.
        other => Literal::Str(other.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fed_counter_is_listed_and_rendered_once() {
        let m = FedMetrics::default();
        let table = [
            (&m.queries, "fed queries"),
            (&m.subqueries, "subqueries"),
            (&m.sites_answered, "sites answered"),
            (&m.sites_degraded, "sites degraded"),
            (&m.rows_shipped, "rows shipped"),
            (&m.bytes_shipped, "bytes shipped"),
            (&m.rows_merged, "rows merged"),
            (&m.keys_shipped, "keys shipped"),
        ];
        crate::trace::assert_listed_and_rendered_once(&table, || m.snapshot().iter());
    }

    #[test]
    fn type_key_normalizes_case_and_plural() {
        assert_eq!(type_key("ResearchProjects"), "researchproject");
        assert_eq!(type_key("ResearchProject"), "researchproject");
        assert_eq!(type_key("Grant"), "grant");
        assert_ne!(type_key("Members"), type_key("Policies"));
    }

    #[test]
    fn semi_join_keys_keep_their_wire_type() {
        let cells = [
            Value::string("007"),
            Value::Null,
            Value::LongLong(42),
            Value::Long(7),
            Value::Double(2.5),
            Value::Bool(true),
            Value::string("true"),
            Value::string("Alice Nguyen"),
        ];
        let answer = Value::record([
            ("columns", Value::Sequence(vec![Value::string("k")])),
            (
                "rows",
                Value::Sequence(
                    cells
                        .iter()
                        .map(|c| Value::Sequence(vec![c.clone(), Value::string("ignored")]))
                        .collect(),
                ),
            ),
        ]);
        let shipped = decode_rows(&answer, true).unwrap();
        assert_eq!(
            shipped.keys,
            vec![
                Literal::Str("007".into()),
                Literal::Int(42),
                Literal::Int(7),
                Literal::Float(2.5),
                Literal::Bool(true),
                Literal::Str("true".into()),
                Literal::Str("Alice Nguyen".into()),
            ],
            "text stays text however it is spelled; NULL yields no key"
        );
        assert_eq!(shipped.rows.len(), cells.len(), "NULL rows still ship");
        assert_eq!(shipped.rows[1], vec!["NULL", "ignored"]);
        assert!(decode_rows(&answer, false).unwrap().keys.is_empty());
    }

    #[test]
    fn plan_renders_root_first() {
        let plan = FedPlan {
            scope: "Coalition Research".into(),
            members: vec!["A".into(), "B".into(), "C".into()],
            build: vec![SitePlan {
                site: "A".into(),
                language: "SQL",
                native: "SELECT a.name FROM members a".into(),
            }],
            probe_attr: Some("Policies.Holder".into()),
            ship: vec![
                SitePlan {
                    site: "B".into(),
                    language: "SQL",
                    native: "SELECT a.premium FROM policies a".into(),
                },
                SitePlan {
                    site: "C".into(),
                    language: "OQL",
                    native: "select premium from Policy".into(),
                },
            ],
            skipped: vec![("A".into(), "does not export Policies".into())],
            limit: Some(5),
        };
        let lines = plan.render();
        assert_eq!(lines[0], "FedQuery At Coalition Research (3 member(s))");
        assert_eq!(lines[1], "  Merge: Union in member order -> Limit 5");
        assert!(lines[2].starts_with("  SemiJoin: Policies.Holder In keys of"));
        assert!(lines.iter().any(|l| l.contains("Ship @ B [SQL]")));
        assert!(lines.iter().any(|l| l.contains("Skip @ A")));
    }

    #[test]
    fn outcome_renders_degradation() {
        let o = FedOutcome {
            columns: vec!["site".into(), "funding".into()],
            rows: vec![vec!["A".into(), "100".into()]],
            per_site: vec![("A".into(), 1)],
            degraded: vec![SiteFailure {
                site: "B".into(),
                distance: 0,
                reason: "endpoint h:1 unreachable".into(),
            }],
            stats: FedStats::default(),
        };
        assert!(!o.complete());
        assert_eq!(o.degraded_sites(), vec!["B"]);
        let text = o.render();
        assert!(text.contains("site | funding"));
        assert!(text.contains("degraded: B — endpoint h:1 unreachable"));
    }
}
