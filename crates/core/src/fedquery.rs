//! Federated cross-site query execution — query shipping, streaming
//! merge, and graceful per-site degradation.
//!
//! Discovery (§2) finds *where* information lives; this module makes a
//! single WebTassili access-function call execute *across* that set.
//! A [`FedExecutor`] resolves the member set of an `At Coalition …` or
//! `At Sites With Information …` scope, decomposes the call into one
//! native subquery per member (SQL or OQL, decided by each site's
//! wrapper scheme, with predicates and the row limit pushed down),
//! ships the subqueries pipelined over the multiplexed IIOP channels
//! through each site's ISI, and pull-merges the partial results into
//! one deterministic answer.
//!
//! Two properties are load-bearing:
//!
//! * **Serial ≡ parallel.** Subqueries are shipped the way discovery
//!   sends its probes (`crate::wave::batched`): each batch of
//!   [`FedExecutor::max_workers`] goes out from the calling thread
//!   through [`Federation::call_all`] before any answer is read,
//!   results come back and merge in member order, and
//!   unreachable-endpoint causes canonicalize through
//!   [`crate::failure::degrade_reason`], so a `max_workers = 1`
//!   reference run is byte-identical to the batched one.
//! * **Graceful degradation.** A killed or circuit-open member never
//!   aborts the query: it becomes a [`SiteFailure`] in
//!   [`FedOutcome::degraded`] — the same shape discovery reports — and
//!   the merge keeps every row the surviving members shipped. The
//!   federation's [`webfindit_orb::CallOptions`] deadline bounds each
//!   shipped call, so the fan-out cannot hang on a silent member.
//!
//! Answers are read straight from each reply frame: `read_shipped`,
//! the decoder each member's `isi::Execute` carries into
//! [`Federation::call_all`], turns the member's table into merge rows
//! that lead with the member's site name, and the merge moves those rows
//! into place in member order. Every member answers with the same table
//! shape; a member that was shipped OQL leads its table with an `oid`
//! column, which the decoder drops because the plan says the member is
//! an object site. Each cell is rendered once, as `Value`'s `Display`
//! renders it, into a [`Cell`], which stores short text inline; a
//! double goes through [`write_double`], the renderer `Value` uses too.
//!
//! The cross-site join strategy is a semi-join: the build side
//! (`Where probe In Build.Attr(…)`) runs first over the members
//! exporting the build type, its distinct keys are shipped to the
//! probe sites as an `IN`-list predicate, and only matching rows come
//! back — the paper's "ship the smaller side" discipline.

use crate::discovery::DiscoveryEngine;
use crate::failure::{degrade_reason, is_breaker_rejection, SiteFailure};
use crate::federation::Federation;
use crate::servants::isi;
use crate::trace::{Layer, Trace};
use crate::value_map::{is_result_set, read_head, read_row_len, read_tagged_datum};
use crate::{WebfinditError, WfResult};
use std::fmt::{self, Write as _};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use webfindit_base::float::write_double;
use webfindit_relstore::types::{format_date, Datum};
use webfindit_tassili::ast::{Arg, FedScope, Literal, Predicate, SemiJoin, Statement};
use webfindit_tassili::translate::{access_call_to_oql, access_call_to_sql};
use webfindit_wire::marshal::expect_tag;
use webfindit_wire::value::tag;
use webfindit_wire::{CdrReader, Ior, Trailing};

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

/// The bytes of text a [`Cell`] holds without a heap allocation.
const INLINE: usize = 22;

/// One rendered cell of a federated answer. Text of up to 22 bytes is
/// stored inline; longer text is stored in a `Box<str>`. A cell
/// dereferences to `str`, compares equal with `str`, `&str` and
/// `String`, and its `Display` and `Debug` print the text as `str`'s do.
#[derive(Clone)]
pub struct Cell(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Box<str>),
}

impl Cell {
    /// `text` as a cell.
    pub fn new(text: &str) -> Cell {
        let mut bytes = [0; INLINE];
        match bytes.get_mut(..text.len()) {
            Some(head) => {
                head.copy_from_slice(text.as_bytes());
                Cell(Repr::Inline {
                    len: text.len() as u8,
                    bytes,
                })
            }
            None => Cell(Repr::Heap(text.into())),
        }
    }

    /// What `write` writes, as a cell.
    fn written(write: impl FnOnce(&mut Cell) -> fmt::Result) -> Cell {
        let mut cell = Cell::new("");
        // Writing to a cell never fails, so an error here is a
        // `Display`'s own, and it has written what it could.
        let _ = write(&mut cell);
        cell
    }

    /// The length of the cell's text in bytes, read without checking
    /// that the text is UTF-8 as [`Cell::as_str`] does.
    fn text_len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Heap(text) => text.len(),
        }
    }

    /// The cell's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                // Only whole `str`s are ever copied in, so this holds.
                std::str::from_utf8(&bytes[..usize::from(*len)]).unwrap_or_default()
            }
            Repr::Heap(text) => text,
        }
    }
}

impl From<&str> for Cell {
    fn from(text: &str) -> Cell {
        Cell::new(text)
    }
}

impl fmt::Write for Cell {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        match &mut self.0 {
            Repr::Inline { len, bytes } if usize::from(*len) + s.len() <= INLINE => {
                let at = usize::from(*len);
                bytes[at..at + s.len()].copy_from_slice(s.as_bytes());
                *len += s.len() as u8;
            }
            _ => *self = Cell(Repr::Heap([self.as_str(), s].concat().into())),
        }
        Ok(())
    }
}

impl std::ops::Deref for Cell {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::borrow::Borrow<str> for Cell {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Cell {
    fn eq(&self, other: &Cell) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Cell {}

impl PartialEq<str> for Cell {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Cell {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Cell {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The outcome of one federated query: the merged table, per-site
/// contributions, and — mirroring [`crate::DiscoveryOutcome`] — the
/// members that degraded instead of answering.
#[derive(Debug, Clone, PartialEq)]
pub struct FedOutcome {
    /// Output column names; the first is always `site`.
    pub columns: Vec<String>,
    /// Merged rows, member-ordered then site-row-ordered.
    pub rows: Vec<Vec<Cell>>,
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

/// A member's subquery answer, read by [`read_shipped`].
struct Shipped {
    /// One merged row per answer row: the site name, then the
    /// projected cells.
    rows: Vec<Vec<Cell>>,
    /// Approximate bytes the projected cells occupied on the wire: the
    /// lengths of their renderings.
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
    /// Bound on one build or ship wave's subqueries in flight at once:
    /// a wave is sent from the calling thread in batches of this many,
    /// each batch whole before any of its answers is read. `1` is the
    /// serial reference the batched merge must be byte-identical to.
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
                let members = engine.lead_members(&outcome.leads)?;
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

    /// Ship `plans` as one pipelined batch: resolve each member's ISI,
    /// then send every subquery before reading any answer. The decoded
    /// answers come back in `plans` order; a member whose ISI did not
    /// resolve keeps that error in its place.
    fn ship_batch(&self, plans: &[SitePlan], kind: Wave) -> Vec<WfResult<Shipped>> {
        let nc = self.fed.naming_client();
        let targets: Vec<WfResult<Ior>> = plans
            .iter()
            .map(|plan| Ok(nc.resolve(&format!("isi/{}", plan.site))?))
            .collect();
        let keyed = kind == Wave::Build;
        let max_rows = match kind {
            Wave::Ship(Some(n)) => Some(n.min(u32::MAX as u64) as u32),
            _ => None,
        };
        let calls: Vec<(&Ior, isi::Execute<_>)> = targets
            .iter()
            .zip(plans)
            .filter_map(|(target, plan)| {
                let (site, object) = (plan.site.as_str(), plan.language == "OQL");
                let execute = isi::Execute {
                    text: plan.native.clone(),
                    max_rows: Trailing(max_rows),
                    read: move |r: &mut CdrReader<'_>| read_shipped(r, site, keyed, object),
                };
                Some((target.as_ref().ok()?, execute))
            })
            .collect();
        let mut answers = self.fed.call_all(&calls).into_iter();
        targets
            .into_iter()
            .map(|target| {
                target?;
                answers.next().expect("one answer per resolved member")
            })
            .collect()
    }

    /// Ship a wave of subqueries in pipelined batches of
    /// [`FedExecutor::max_workers`] and account for every member: an
    /// answer is counted into `stats` and returned with its site, **in
    /// wave order** (so serial and batched runs merge byte-identically);
    /// a failure becomes a [`SiteFailure`] in `degraded`. Breaker
    /// rejections get `crate::wave::batched`'s one re-run first.
    fn ship_wave(
        &self,
        wave: &[SitePlan],
        kind: Wave,
        stats: &mut FedStats,
        degraded: &mut Vec<SiteFailure>,
    ) -> Vec<(String, Shipped)> {
        let metrics = self.fed.fed_metrics();
        stats.subqueries_shipped += wave.len() as u64;
        let results = crate::wave::batched(
            wave,
            self.max_workers,
            |plans| self.ship_batch(plans, kind),
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
    /// pipelined batches, and pull-merge the partials deterministically.
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
            // Each key is rendered once; the stable sort and the dedup
            // order and compare those renderings.
            let mut rendered: Vec<(String, Literal)> = self
                .ship_wave(&build, Wave::Build, &mut stats, &mut degraded)
                .into_iter()
                .flat_map(|(_, s)| s.keys)
                .map(|l| (l.to_string(), l))
                .collect();
            rendered.sort_by(|a, b| a.0.cmp(&b.0));
            rendered.dedup_by(|a, b| a.0 == b.0);
            let keys: Vec<Literal> = rendered.into_iter().map(|(_, l)| l).collect();
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
        let mut rows: Vec<Vec<Cell>> = Vec::new();
        if !probe_dead {
            if let Some(t) = trace.as_deref_mut() {
                t.event(
                    Layer::Communication,
                    format!(
                        "shipping {} subquery(ies) in batches of {}, {} member(s) skipped",
                        ship.len(),
                        self.max_workers.max(1).min(ship.len().max(1)),
                        skipped.len()
                    ),
                );
            }
            // ---- pull-merge, in member order ------------------------
            let kind = Wave::Ship(call.limit);
            let answered = self.ship_wave(&ship, kind, &mut stats, &mut degraded);
            rows.reserve_exact(answered.iter().map(|(_, s)| s.rows.len()).sum());
            for (site, s) in answered {
                per_site.push((site, s.rows.len()));
                rows.extend(s.rows);
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

/// Read one ISI `execute` answer, a table, straight from the reply into
/// merge rows (see [`Shipped`]) that lead with `site`, each cell rendered
/// as `Value`'s `Display` renders it. When `keyed`, the first projected
/// cell of every row also becomes a semi-join key. The answer of an
/// `object` member (one shipped OQL) leads with its `oid` column, which
/// is dropped: an object identity is site-local and meaningless in a
/// federated merge. Any other answer is a [`WebfinditError::Protocol`]
/// error.
fn read_shipped(r: &mut CdrReader<'_>, site: &str, keyed: bool, object: bool) -> WfResult<Shipped> {
    if !is_result_set(r) {
        return Err(WebfinditError::Protocol(
            "federated subquery did not return rows".into(),
        ));
    }
    let (_, n) = read_head(r)?;
    let (mut rows, mut bytes, mut keys) = (Vec::with_capacity(n), 0u64, Vec::new());
    let site = Cell::new(site);
    for _ in 0..n {
        let mut width = read_row_len(r)?;
        if object && width > 0 {
            expect_tag(r, tag::LONGLONG, "object oid")?;
            r.read_longlong()?;
            width -= 1;
        }
        let mut row = Vec::with_capacity(width + 1);
        row.push(site.clone());
        for i in 0..width {
            let (cell, key) = read_cell(r, keyed && i == 0)?;
            bytes += cell.text_len() as u64;
            keys.extend(key);
            row.push(cell);
        }
        rows.push(row);
    }
    Ok(Shipped { rows, bytes, keys })
}

/// Read one cell, a datum as [`crate::value_map::read_datum`] reads
/// it: its rendering and, when `keyed`, the literal it ships as in a
/// semi-join `IN` list. Text is copied from the reply into its cell
/// once. The literal follows the cell's wire type, never its spelling:
/// a text key that happens to look numeric (`'007'`, a postcode) must
/// reach the probe sites as text. `NULL` yields no key, since it never
/// matches `IN`. A date renders as `Value` renders its record
/// `{date: "iso"}` and ships as that text.
fn read_cell(r: &mut CdrReader<'_>, keyed: bool) -> WfResult<(Cell, Option<Literal>)> {
    let text = |cell: Cell| {
        let key = keyed.then(|| Literal::Str(cell.to_string()));
        (cell, key)
    };
    let t = r.read_octet()?;
    if t == tag::STRING {
        return Ok(text(Cell::new(r.read_str()?)));
    }
    Ok(match read_tagged_datum(t, r)? {
        Datum::Null => (Cell::new("NULL"), None),
        Datum::Int(v) => (
            Cell::written(|c| write!(c, "{v}")),
            keyed.then_some(Literal::Int(v)),
        ),
        Datum::Double(v) => (
            Cell::written(|c| write_double(c, v)),
            keyed.then_some(Literal::Float(v)),
        ),
        Datum::Bool(b) => (
            Cell::new(if b { "true" } else { "false" }),
            keyed.then_some(Literal::Bool(b)),
        ),
        Datum::Text(s) => text(Cell::new(&s)),
        Datum::Date(days) => text(Cell::written(|c| {
            write!(c, "{{date: {}}}", format_date(days))
        })),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use webfindit_wire::Value;

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
    fn a_cell_holds_22_bytes_inline_and_reads_as_its_text() {
        assert!(std::mem::size_of::<Cell>() <= 32);
        for text in [
            "",
            "NULL",
            "é",
            &"x".repeat(22),
            &"x".repeat(23),
            "ééééééééééé日",
        ] {
            let cell = Cell::new(text);
            let inline = matches!(cell.0, Repr::Inline { .. });
            assert_eq!(inline, text.len() <= INLINE, "{text:?}");
            assert_eq!(cell.text_len(), text.len());
            assert_eq!(cell, text);
            assert_eq!(cell, *text);
            assert_eq!(cell, text.to_owned());
            assert_eq!(format!("{cell}|{cell:?}"), format!("{text}|{text:?}"));
            // Written in pieces, a cell spills to the heap past 22 bytes.
            let mut pieces = Cell::new("");
            for c in text.chars() {
                write!(pieces, "{c}").unwrap();
            }
            assert_eq!(pieces, cell);
            assert_eq!(matches!(pieces.0, Repr::Inline { .. }), inline);
        }
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
        let read = |answer: &Value, keyed| {
            let order = webfindit_wire::ByteOrder::BigEndian;
            let mut w = webfindit_wire::CdrWriter::new(order);
            answer.encode(&mut w).unwrap();
            read_shipped(
                &mut CdrReader::new(&w.into_bytes(), order),
                "",
                keyed,
                false,
            )
        };
        let shipped = read(&answer, true).unwrap();
        assert_eq!(
            shipped.keys,
            vec![
                Literal::Str("007".into()),
                Literal::Int(42),
                Literal::Float(2.5),
                Literal::Bool(true),
                Literal::Str("true".into()),
                Literal::Str("Alice Nguyen".into()),
            ],
            "text stays text however it is spelled; NULL yields no key"
        );
        assert_eq!(shipped.rows.len(), cells.len(), "NULL rows still ship");
        assert_eq!(shipped.rows[1], vec!["", "NULL", "ignored"]);
        assert!(read(&answer, false).unwrap().keys.is_empty());

        // A table holds only the cells `TableWriter` writes: a LONG is
        // refused, not read as a key.
        let long = Value::record([
            ("columns", Value::Sequence(vec![Value::string("k")])),
            (
                "rows",
                Value::Sequence(vec![Value::Sequence(vec![Value::Long(7)])]),
            ),
        ]);
        for keyed in [false, true] {
            assert!(
                matches!(
                    read(&long, keyed),
                    Err(WebfinditError::Orb(webfindit_orb::OrbError::Wire(
                        webfindit_wire::WireError::BadTag { .. }
                    )))
                ),
                "a LONG cell was read"
            );
        }
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

    /// The federated merge's reply decoder (`read_shipped`) and the ISI's
    /// object answers against the path they replaced: a reply decoded
    /// into a `Value` tree, then mapped to string rows and semi-join
    /// keys, and an OQL answer built as the `Value` record `{columns,
    /// rows: [[ULong oid, cell…]]}` (less the flag field that marked it).
    /// The old mapping renders a double with std's `{}`, not with the
    /// renderer `Value` shares with the decoder.
    ///
    /// Over random relational answers and random object sites whose
    /// attributes take every `OValue` kind, doubles from
    /// `prop::double`'s families and text on either side of a cell's
    /// inline bytes, in both byte orders and at the body offset of a
    /// GIOP frame:
    ///
    /// * every row leads with the site name, and the decoder's cells
    ///   after it, byte count and semi-join keys equal the old
    ///   mapping's, an object answer's equal to the old record's;
    /// * an object answer's `Response::Table` cells print the strings
    ///   the old record's cells printed, its `oid` column first;
    /// * an answer that is not a table fails with the old message.
    mod decoder {
        use crate::fedquery::{read_shipped, Cell};
        use crate::processor::{decode_isi_output, Response};
        use crate::servants::{InformationSourceOperations, IsiServant};
        use crate::value_map::write_result_set;
        use crate::{WebfinditError, WfResult};
        use std::sync::Arc;
        use webfindit_base::prop;
        use webfindit_base::rng::StdRng;
        use webfindit_connect::manager::standard_manager;
        use webfindit_connect::DataSourceRegistry;
        use webfindit_oostore::method::MethodTable;
        use webfindit_oostore::model::{ClassDef, OType};
        use webfindit_oostore::{OValue, ObjectStore, Oid, OqlQuery};
        use webfindit_relstore::exec::ResultSet;
        use webfindit_relstore::types::Datum;
        use webfindit_tassili::ast::Literal;
        use webfindit_wire::{ByteOrder, CdrReader, CdrWriter, Trailing, Value};

        /// The site name the decoder leads every row with.
        const SITE: &str = "Bench North";

        /// What the old decoder produced: rows without the site slot, the
        /// rendered byte count, and the keys.
        type OldShipped = (Vec<Vec<String>>, u64, Vec<Literal>);

        /// The decoder `read_shipped` replaced, kept here as its oracle.
        /// It told an `object` record by its flag field.
        fn old_decode_rows(v: &Value, keyed: bool, object: bool) -> WfResult<OldShipped> {
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
                    keys.extend(cells.get(skip).and_then(old_key_literal));
                }
                let row: Vec<String> = cells.iter().skip(skip).map(std_display).collect();
                bytes += row.iter().map(|c| c.len() as u64).sum::<u64>();
                rows.push(row);
            }
            Ok((rows, bytes, keys))
        }

        /// `Value`'s `Display` of `cell`, with a double written by std's
        /// `{}`, so that the oracle does not share the renderer it checks.
        fn std_display(cell: &Value) -> String {
            match cell {
                Value::Double(v) => format!("{v}"),
                other => other.to_string(),
            }
        }

        fn old_key_literal(cell: &Value) -> Option<Literal> {
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
                other => Literal::Str(other.to_string()),
            })
        }

        /// The record the ISI answered an OQL query with before an object
        /// answer became a table.
        fn old_object_record(columns: &[String], rows: &[(Oid, Vec<OValue>)]) -> Value {
            Value::record([
                (
                    "columns",
                    Value::Sequence(columns.iter().cloned().map(Value::Str).collect()),
                ),
                (
                    "rows",
                    Value::Sequence(
                        rows.iter()
                            .map(|(oid, vals)| {
                                let mut cells = vec![Value::ULong(oid.0 as u32)];
                                cells.extend(vals.iter().map(old_ovalue_to_value));
                                Value::Sequence(cells)
                            })
                            .collect(),
                    ),
                ),
            ])
        }

        fn old_ovalue_to_value(v: &OValue) -> Value {
            match v {
                OValue::Null => Value::Null,
                OValue::Int(i) => Value::LongLong(*i),
                OValue::Double(d) => Value::Double(*d),
                OValue::Text(s) => Value::Str(s.clone()),
                OValue::Bool(b) => Value::Bool(*b),
                OValue::List(items) => {
                    Value::Sequence(items.iter().map(old_ovalue_to_value).collect())
                }
                OValue::Ref(oid) => Value::record([("oid", Value::ULong(oid.0 as u32))]),
            }
        }

        const TEXT: &str = "abcXYZ 019_-'\"é日本🦀";

        /// Text on either side of a cell's 22 inline bytes: empty, 22 and
        /// 23 ASCII bytes, 22 bytes of `é`, 23 bytes that end in a 3-byte
        /// or a 4-byte character, 20 bytes of CJK and crabs, 36 bytes.
        const EDGES: [&str; 8] = [
            "",
            "abcdefghijklmnopqrstuv",
            "abcdefghijklmnopqrstuvw",
            "ééééééééééé",
            "éééééééééé日",
            "abcdefghijklmnopqrs🦀",
            "日本🦀日本🦀",
            "abcdefghijklmnopqrstuvwxyz0123456789",
        ];

        fn text(rng: &mut StdRng) -> String {
            if rng.gen_bool(0.5) {
                prop::pick(rng, &EDGES).to_string()
            } else {
                prop::string_of(rng, TEXT, 0..30)
            }
        }

        fn datum(rng: &mut StdRng) -> Datum {
            match rng.gen_range(0u32..7) {
                0 => Datum::Null,
                1 => Datum::Int(*prop::pick(rng, &[i64::MIN, -1, 0, 7, i64::MAX])),
                2 => Datum::Double(prop::double(rng)),
                3 => Datum::Text(text(rng)),
                // Text that reads as a number or a boolean stays text.
                4 => Datum::Text(prop::pick(rng, &["007", "true", "2.5", ""]).to_string()),
                5 => Datum::Bool(rng.gen_bool(0.5)),
                // 1900-01-01 ..= 2100-12-31 as days from 1970-01-01.
                _ => Datum::Date(rng.gen_range(-25_567i32..47_847)),
            }
        }

        fn ovalue(rng: &mut StdRng, depth: u32) -> OValue {
            match rng.gen_range(0u32..if depth < 2 { 7 } else { 6 }) {
                0 => OValue::Null,
                1 => OValue::Int(rng.gen_range(-1_000_000i64..1_000_000)),
                2 => OValue::Double(prop::double(rng)),
                3 => OValue::Text(text(rng)),
                4 => OValue::Bool(rng.gen_bool(0.5)),
                5 => OValue::Ref(Oid(rng.gen_range(0u64..1 << 32))),
                _ => OValue::List(prop::vec_of(rng, 0..4, |rng| ovalue(rng, depth + 1))),
            }
        }

        const OTYPES: [OType; 6] = [
            OType::Int,
            OType::Double,
            OType::Text,
            OType::Bool,
            OType::List,
            OType::Ref,
        ];

        /// A value an attribute of type `t` accepts: `NULL`, an `Int` for
        /// a `Double`, or one of its own kind.
        fn ovalue_of(rng: &mut StdRng, t: OType) -> OValue {
            loop {
                let v = ovalue(rng, 0);
                match v.otype() {
                    None => return v,
                    Some(OType::Int) if t == OType::Double => return v,
                    Some(k) if k == t => return v,
                    Some(_) => {}
                }
            }
        }

        fn columns(rng: &mut StdRng, width: usize) -> Vec<String> {
            (0..width)
                .map(|_| prop::string_of(rng, TEXT, 0..8))
                .collect()
        }

        const OBJECT_QUERY: &str = "select * from C";

        /// A random object site: `width` attributes of random types and up
        /// to 20 objects. Returns its ISI and the old record of the answer
        /// to [`OBJECT_QUERY`], built from the store's own answer.
        fn object_site(rng: &mut StdRng, width: usize) -> (IsiServant, Value) {
            let types: Vec<OType> = (0..width).map(|_| *prop::pick(rng, &OTYPES)).collect();
            let mut class = ClassDef::root("C");
            for (i, t) in types.iter().enumerate() {
                class = class.attr(format!("a{i}"), *t);
            }
            let mut store = ObjectStore::new("Objects");
            store.define_class(class).unwrap();
            for _ in 0..rng.gen_range(0usize..20) {
                let attrs: Vec<(String, OValue)> = types
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (format!("a{i}"), ovalue_of(rng, *t)))
                    .collect();
                store.create("C", attrs).unwrap();
            }
            let answer = OqlQuery::parse(OBJECT_QUERY)
                .unwrap()
                .execute(&store)
                .unwrap();
            let old = old_object_record(&answer.columns, &answer.rows);
            let registry = DataSourceRegistry::new();
            registry.register_object("objectstore", "Objects", store, MethodTable::new());
            let manager = Arc::new(standard_manager(registry));
            let isi = IsiServant::new(manager, "native:objectstore://h/Objects");
            (isi, old)
        }

        /// A random answer as `(its old Value record, the new reply bytes,
        /// whether it is an object answer)`.
        fn answer(rng: &mut StdRng, order: ByteOrder) -> (Value, Vec<u8>, bool) {
            let width = rng.gen_range(0usize..5);
            if rng.gen_bool(0.5) {
                let columns = columns(rng, width);
                let rows = prop::vec_of(rng, 0..20, |rng| (0..width).map(|_| datum(rng)).collect());
                let rs = ResultSet { columns, rows };
                let bytes = frame_bytes(order, |w| write_result_set(&rs, w).unwrap());
                (
                    Value::decode(&mut CdrReader::new(&bytes[12..], order)).unwrap(),
                    bytes,
                    false,
                )
            } else {
                let (isi, old) = object_site(rng, width);
                let bytes = frame_bytes(order, |w| {
                    isi.execute(OBJECT_QUERY.into(), Trailing(None), w).unwrap()
                });
                (old, bytes, true)
            }
        }

        /// What the old browser showed of an object answer: the record's
        /// columns, and every cell of its rows, the OID first, printed by
        /// `Value`'s `Display`.
        fn old_object_strings(old: &Value) -> (Vec<String>, Vec<Vec<String>>) {
            let printed = |v: &Value| {
                let cells = v.as_sequence().expect("a sequence");
                cells.iter().map(Value::to_string).collect::<Vec<_>>()
            };
            let rows = old.field("rows").and_then(Value::as_sequence).unwrap();
            let columns = printed(old.field("columns").unwrap());
            (columns, rows.iter().map(printed).collect())
        }

        /// A frame writer: CDR alignment counts from byte 12, as in a GIOP body.
        fn frame_bytes(order: ByteOrder, write: impl FnOnce(&mut CdrWriter)) -> Vec<u8> {
            let mut w = CdrWriter::frame(order, Vec::new());
            write(&mut w);
            w.into_bytes()
        }

        /// Keys compared by their Debug form, under which NaN equals NaN and
        /// `-0.0` differs from `0.0`.
        fn debug<T: std::fmt::Debug>(items: &[T]) -> Vec<String> {
            items.iter().map(|k| format!("{k:?}")).collect()
        }

        #[test]
        fn the_fed_decoder_reads_what_the_value_path_read() {
            prop::cases(2_000, |rng| {
                for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
                    let (old, bytes, object) = answer(rng, order);
                    for keyed in [false, true] {
                        let (rows, old_bytes, keys) = old_decode_rows(&old, keyed, object).unwrap();
                        let mut r = CdrReader::new(&bytes[12..], order);
                        let new = read_shipped(&mut r, SITE, keyed, object).unwrap();
                        assert!(r.is_exhausted(), "the decoder left bytes behind");
                        assert!(new.rows.iter().all(|row| row[0] == SITE));
                        let cells: Vec<&[Cell]> = new.rows.iter().map(|row| &row[1..]).collect();
                        assert_eq!(cells, rows, "{order:?}: rows differ");
                        assert_eq!(new.bytes, old_bytes);
                        assert_eq!(debug(&new.keys), debug(&keys), "{order:?}: keys differ");
                    }
                    if !object {
                        continue;
                    }
                    let mut r = CdrReader::new(&bytes[12..], order);
                    let Response::Table(rs) = decode_isi_output(&mut r).unwrap() else {
                        panic!("{order:?}: an object answer is not a table")
                    };
                    assert!(r.is_exhausted(), "the table decode left bytes behind");
                    let (columns, rows) = old_object_strings(&old);
                    assert_eq!(rs.columns[0], "oid");
                    assert_eq!(rs.columns[1..], columns);
                    let printed: Vec<Vec<String>> = rs
                        .rows
                        .iter()
                        .map(|row| row.iter().map(Datum::to_string).collect())
                        .collect();
                    assert_eq!(printed, rows, "{order:?}: printed cells differ");
                }
            });
        }

        #[test]
        fn a_non_table_answer_fails_with_the_old_message() {
            let answers = [
                Value::record([("count", Value::ULong(3))]),
                Value::Void,
                Value::Null,
                Value::Long(5),
                Value::string("done"),
                Value::Sequence(vec![Value::string("columns")]),
                Value::record([("rows", Value::Sequence(vec![]))]),
            ];
            for v in answers {
                let old = old_decode_rows(&v, false, false).unwrap_err().to_string();
                for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
                    let bytes = frame_bytes(order, |w| v.encode(w).unwrap());
                    let mut r = CdrReader::new(&bytes[12..], order);
                    let Err(new) = read_shipped(&mut r, SITE, true, false) else {
                        panic!("{v}: a non-table answer was read as a table")
                    };
                    assert!(matches!(new, WebfinditError::Protocol(_)), "{v}: {new:?}");
                    assert_eq!(new.to_string(), old, "{v}");
                }
            }
        }
    }
}
