//! The WebTassili query processor — the query layer's engine.
//!
//! "The query processor receives queries from the browser, coordinates
//! their execution and returns their results to the browser." Each
//! statement kind maps to metadata-layer invocations (co-database
//! servants), data-layer invocations (ISI servants), or federation
//! management, all through the communication layer.

use crate::discovery::{DiscoveryEngine, Lead};
use crate::docs::{DocFormat, Document};
use crate::federation::Federation;
use crate::fedquery::{FedExecutor, FedOutcome};
use crate::session::BrowserSession;
use crate::trace::{Layer, Trace};
use crate::value_map::{is_result_set, read_result_set, value_to_descriptor, value_to_strings};
use crate::{WebfinditError, WfResult};
use std::sync::Arc;
use webfindit_codb::{InformationSource, LinkEnd, ServiceLink};
use webfindit_relstore::exec::ResultSet;
use webfindit_tassili::{parse, translate_invoke_to_sql, Statement};
use webfindit_wire::{CdrReader, Ior, Value};

/// What the processor hands back to the browser.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Discovery results: leads plus the cost of finding them.
    Leads {
        /// The leads.
        leads: Vec<Lead>,
        /// Remote round-trips spent.
        round_trips: u64,
    },
    /// Database names.
    Databases(Vec<String>),
    /// Connected to a coalition.
    Connected {
        /// The coalition.
        coalition: String,
        /// The site whose co-database serves it.
        via_site: String,
    },
    /// Subclass names.
    Subclasses(Vec<String>),
    /// Instance (member database) names.
    Instances(Vec<String>),
    /// A document with the formats available for it.
    Document {
        /// Formats the documentation URL offers.
        formats: Vec<DocFormat>,
        /// The fetched document (best format).
        document: Document,
    },
    /// Access information of a source.
    AccessInfo(Box<InformationSource>),
    /// Rendered exported interface types.
    Interface(Vec<String>),
    /// A relational result table.
    Table(ResultSet),
    /// Object-query rows (first column is the OID).
    Objects {
        /// Column names (after the implicit oid column).
        columns: Vec<String>,
        /// Stringified cells, one row per object.
        rows: Vec<Vec<String>>,
    },
    /// A scalar result.
    Scalar(String),
    /// A federated query answer: merged rows plus degradation report.
    Federated(Box<FedOutcome>),
    /// An execution plan (`Explain …`), rendered root-first.
    Plan(Vec<String>),
    /// Acknowledgement of a management action, with its ORB-call cost.
    Ack {
        /// Human-readable summary.
        message: String,
        /// ORB invocations spent propagating the change.
        calls: u64,
    },
}

impl Response {
    /// Render for the browser transcript.
    pub fn render(&self) -> String {
        match self {
            Response::Leads { leads, round_trips } => {
                if leads.is_empty() {
                    return format!("No leads found ({round_trips} round-trips).");
                }
                let mut out = String::new();
                for lead in leads {
                    match lead {
                        Lead::Coalition {
                            name,
                            via_site,
                            distance,
                        } => out.push_str(&format!(
                            "coalition {name} (via {via_site}, distance {distance})\n"
                        )),
                        Lead::Link {
                            link,
                            via_site,
                            distance,
                        } => out.push_str(&format!(
                            "service link {} — {} (via {via_site}, distance {distance})\n",
                            link.link_name(),
                            link.description
                        )),
                    }
                }
                out.push_str(&format!("({round_trips} round-trips)"));
                out
            }
            Response::Databases(names) => names.join("\n"),
            Response::Connected {
                coalition,
                via_site,
            } => format!("Connected to coalition {coalition} (via {via_site})."),
            Response::Subclasses(names) | Response::Instances(names) => names.join("\n"),
            Response::Document { formats, document } => {
                let fs: Vec<String> = formats.iter().map(|f| f.to_string()).collect();
                format!(
                    "formats: {}\n--- {} ---\n{}",
                    fs.join(", "),
                    document.format,
                    document.content
                )
            }
            Response::AccessInfo(d) => d.to_string(),
            Response::Interface(types) => types.join("\n\n"),
            Response::Table(rs) => rs.to_text_table(),
            Response::Objects { columns, rows } => {
                let mut out = format!("oid | {}\n", columns.join(" | "));
                for r in rows {
                    out.push_str(&r.join(" | "));
                    out.push('\n');
                }
                out
            }
            Response::Scalar(s) => s.clone(),
            Response::Federated(outcome) => outcome.render(),
            Response::Plan(lines) => lines.join("\n"),
            Response::Ack { message, calls } => format!("{message} ({calls} ORB calls)"),
        }
    }
}

/// The query processor.
pub struct Processor {
    fed: Arc<Federation>,
    engine: DiscoveryEngine,
    fedex: FedExecutor,
}

impl Processor {
    /// Create a processor over a federation.
    pub fn new(fed: Arc<Federation>) -> Processor {
        let engine = DiscoveryEngine::new(Arc::clone(&fed));
        let fedex = FedExecutor::new(Arc::clone(&fed));
        Processor { fed, engine, fedex }
    }

    /// The federation this processor operates on.
    pub fn federation(&self) -> &Arc<Federation> {
        &self.fed
    }

    /// Set how many subqueries of a federated build or ship wave are
    /// pipelined per batch ([`FedExecutor::max_workers`]; `1` = the
    /// serial reference the batched merge is byte-identical to).
    pub fn set_fed_workers(&mut self, workers: usize) {
        self.fedex.max_workers = workers;
    }

    /// Parse and execute WebTassili text in a session.
    pub fn submit(
        &self,
        session: &mut BrowserSession,
        text: &str,
        trace: Option<&mut Trace>,
    ) -> WfResult<Response> {
        let stmt = parse(text)?;
        self.execute(session, &stmt, trace)
    }

    /// Execute a parsed statement in a session.
    pub fn execute(
        &self,
        session: &mut BrowserSession,
        stmt: &Statement,
        mut trace: Option<&mut Trace>,
    ) -> WfResult<Response> {
        if let Some(t) = trace.as_deref_mut() {
            t.event(Layer::Query, format!("executing: {stmt}"));
        }
        let response = match stmt {
            Statement::FindCoalitions { topic } => {
                let outcome = self.engine.find(&session.site, topic)?;
                if let Some(t) = trace.as_deref_mut() {
                    t.counters(
                        Layer::Query,
                        format!(
                            "discovery visited {} co-database(s), {} round-trips",
                            outcome.stats.sites_visited,
                            outcome.stats.total_round_trips()
                        ),
                        self.fed.discovery_metrics().snapshot().iter(),
                    );
                    t.counters(
                        Layer::Communication,
                        "IIOP traffic of the client ORB so far",
                        self.fed.client_orb().metrics().snapshot().iter(),
                    );
                }
                session.last_leads = outcome.leads.clone();
                Response::Leads {
                    leads: outcome.leads,
                    round_trips: outcome.stats.total_round_trips(),
                }
            }
            Statement::FindDatabases { topic } => {
                let outcome = self.engine.find(&session.site, topic)?;
                session.last_leads = outcome.leads.clone();
                Response::Databases(self.engine.lead_members(&outcome.leads)?)
            }
            Statement::ConnectToCoalition { name } => {
                let via_site = self.locate_coalition(session, name)?;
                if let Some(t) = trace.as_deref_mut() {
                    t.counters(
                        Layer::Communication,
                        format!("bound to co-database of {via_site}"),
                        self.fed.client_orb().metrics().snapshot().iter(),
                    );
                }
                session.coalition = Some((name.clone(), via_site.clone()));
                Response::Connected {
                    coalition: name.clone(),
                    via_site,
                }
            }
            Statement::DisplaySubclasses { class } => {
                let ior = self.connected_codb(session)?;
                let v = self
                    .fed
                    .invoke(&ior, "subclasses", &[Value::string(class.clone())])?;
                Response::Subclasses(value_to_strings(&v)?)
            }
            Statement::DisplayInstances { class } => {
                let ior = self.connected_codb(session)?;
                if let Some(t) = trace.as_deref_mut() {
                    t.event(Layer::Metadata, format!("listing instances of {class}"));
                }
                let v = self
                    .fed
                    .invoke(&ior, "members", &[Value::string(class.clone())])?;
                Response::Instances(value_to_strings(&v)?)
            }
            Statement::DisplayDocument { instance, .. } => {
                let (descriptor, _) = self.find_descriptor(session, instance)?;
                let url = &descriptor.documentation_url;
                let formats = self.fed.docs().formats(url);
                let document = self.fed.docs().fetch_best(url)?;
                if let Some(t) = trace.as_deref_mut() {
                    t.event(Layer::Data, format!("fetched document {url}"));
                }
                Response::Document { formats, document }
            }
            Statement::DisplayAccessInfo { instance } => {
                let (descriptor, _) = self.find_descriptor(session, instance)?;
                Response::AccessInfo(Box::new(descriptor))
            }
            Statement::DisplayInterface { instance } => {
                let (descriptor, _) = self.find_descriptor(session, instance)?;
                Response::Interface(descriptor.interface.iter().map(|t| t.render()).collect())
            }
            Statement::Invoke { instance, .. } => {
                let (descriptor, _) = self.find_descriptor(session, instance)?;
                // The wrapper address decides the native language.
                let native = if descriptor.wrapper.starts_with("jdbc:") {
                    translate_invoke_to_sql(stmt)?
                } else {
                    webfindit_tassili::translate::translate_invoke_to_oql(stmt)?
                };
                if let Some(t) = trace.as_deref_mut() {
                    t.event(Layer::Data, format!("translated to native query: {native}"));
                }
                self.run_native(session, instance, &native, trace.as_deref_mut())?
            }
            Statement::Native { instance, query } => {
                self.run_native(session, instance, query, trace.as_deref_mut())?
            }
            Statement::FedInvoke { .. } => {
                let outcome =
                    self.fedex
                        .execute(&self.engine, &session.site, stmt, trace.as_deref_mut())?;
                session.last_degraded = outcome.degraded.clone();
                Response::Federated(Box::new(outcome))
            }
            Statement::Explain(inner) => {
                let lines = match inner.as_ref() {
                    Statement::FedInvoke { .. } => self
                        .fedex
                        .plan(&self.engine, &session.site, inner)?
                        .render(),
                    Statement::Invoke { instance, .. } => {
                        let (descriptor, _) = self.find_descriptor(session, instance)?;
                        let (language, native) = if descriptor.wrapper.starts_with("jdbc:") {
                            ("SQL", translate_invoke_to_sql(inner)?)
                        } else {
                            (
                                "OQL",
                                webfindit_tassili::translate::translate_invoke_to_oql(inner)?,
                            )
                        };
                        vec![format!("Invoke @ {instance} [{language}]: {native}")]
                    }
                    other => vec![format!("No plan surface for: {other}")],
                };
                Response::Plan(lines)
            }
            // ---- management -------------------------------------------
            Statement::CreateCoalition {
                name,
                parent,
                documentation,
            } => {
                let site = self.fed.site(&session.site)?;
                let mut args = vec![Value::string(name.clone())];
                args.push(match parent {
                    Some(p) => Value::string(p.clone()),
                    None => Value::Null,
                });
                args.push(Value::string(documentation.clone().unwrap_or_default()));
                self.fed.invoke(&site.codb_ior, "create_coalition", &args)?;
                Response::Ack {
                    message: format!("coalition {name} created at {}", site.name),
                    calls: 1,
                }
            }
            Statement::DissolveCoalition { name } => {
                let mut calls = 0;
                for site_name in self.fed.site_names() {
                    let site = self.fed.site(&site_name)?;
                    calls += 1;
                    match self.fed.invoke(
                        &site.codb_ior,
                        "dissolve_coalition",
                        &[Value::string(name.clone())],
                    ) {
                        Ok(_) => {}
                        Err(WebfinditError::Orb(webfindit_orb::OrbError::RemoteException {
                            system: false,
                            ..
                        })) => {}
                        Err(e) => return Err(e),
                    }
                }
                Response::Ack {
                    message: format!("coalition {name} dissolved"),
                    calls,
                }
            }
            Statement::Join {
                instance,
                coalition,
            } => {
                let calls = self.fed.join_coalition(instance, coalition, "")?;
                Response::Ack {
                    message: format!("{instance} joined {coalition}"),
                    calls,
                }
            }
            Statement::Leave {
                instance,
                coalition,
            } => {
                let calls = self.fed.leave_coalition(instance, coalition)?;
                Response::Ack {
                    message: format!("{instance} left {coalition}"),
                    calls,
                }
            }
            Statement::AddLink {
                from,
                to,
                description,
            } => {
                let to_end = |t: &webfindit_tassili::LinkTarget| match t {
                    webfindit_tassili::LinkTarget::Coalition(n) => LinkEnd::Coalition(n.clone()),
                    webfindit_tassili::LinkTarget::Instance(n) => LinkEnd::Database(n.clone()),
                };
                let link = ServiceLink {
                    from: to_end(from),
                    to: to_end(to),
                    description: description.clone().unwrap_or_default(),
                };
                let calls = self.fed.add_service_link(&link)?;
                Response::Ack {
                    message: format!("service link {} recorded", link.link_name()),
                    calls,
                }
            }
        };
        if let Some(t) = trace {
            t.event(Layer::Query, "response ready");
        }
        Ok(response)
    }

    fn codb_ior_of(&self, site: &str) -> WfResult<Ior> {
        Ok(self.fed.naming_client().resolve(&format!("codb/{site}"))?)
    }

    fn isi_ior_of(&self, site: &str) -> WfResult<Ior> {
        Ok(self.fed.naming_client().resolve(&format!("isi/{site}"))?)
    }

    /// The co-database the session browses: the connected coalition's
    /// reporting site, or the session's local site.
    fn connected_codb(&self, session: &BrowserSession) -> WfResult<Ior> {
        match &session.coalition {
            Some((_, via_site)) => self.codb_ior_of(via_site),
            None => Ok(self.fed.site(&session.site)?.codb_ior),
        }
    }

    /// Find which site's co-database can serve `coalition`.
    fn locate_coalition(&self, session: &BrowserSession, coalition: &str) -> WfResult<String> {
        // Local first.
        let local = self.fed.site(&session.site)?;
        if local.codb.read().subclasses(coalition).is_ok() {
            return Ok(local.name);
        }
        // Then the most recent discovery leads.
        for lead in &session.last_leads {
            if let Lead::Coalition { name, via_site, .. } = lead {
                if name.eq_ignore_ascii_case(coalition) {
                    return Ok(via_site.clone());
                }
            }
        }
        // Last resort: any site that knows it.
        for name in self.fed.site_names() {
            let site = self.fed.site(&name)?;
            if site.codb.read().subclasses(coalition).is_ok() {
                return Ok(site.name);
            }
        }
        Err(WebfinditError::NothingFound(coalition.to_owned()))
    }

    /// Find the descriptor of `instance`: connected co-database first,
    /// then the local one, then any.
    pub fn find_descriptor(
        &self,
        session: &BrowserSession,
        instance: &str,
    ) -> WfResult<(InformationSource, String)> {
        let mut candidates: Vec<String> = Vec::new();
        if let Some((_, via)) = &session.coalition {
            candidates.push(via.clone());
        }
        candidates.push(session.site.clone());
        candidates.extend(self.fed.site_names());
        let mut seen = std::collections::BTreeSet::new();
        for site in candidates {
            if !seen.insert(site.to_ascii_lowercase()) {
                continue;
            }
            let Ok(ior) = self.codb_ior_of(&site) else {
                continue;
            };
            if let Ok(v) = self
                .fed
                .invoke(&ior, "descriptor", &[Value::string(instance)])
            {
                return Ok((value_to_descriptor(&v)?, site));
            }
        }
        Err(WebfinditError::UnknownSite(instance.to_owned()))
    }

    /// Execute a native query through a source's ISI.
    fn run_native(
        &self,
        _session: &BrowserSession,
        instance: &str,
        query: &str,
        mut trace: Option<&mut Trace>,
    ) -> WfResult<Response> {
        let ior = self.isi_ior_of(instance)?;
        if let Some(t) = trace.as_deref_mut() {
            t.counters(
                Layer::Communication,
                format!("GIOP request execute → isi/{instance}"),
                self.fed.client_orb().metrics().snapshot().iter(),
            );
        }
        let response =
            self.fed
                .invoke_as(&ior, "execute", &[Value::string(query)], decode_isi_output)?;
        if let Some(t) = trace {
            // The site's ISI servant counts the data-layer work it does;
            // annotate the Data-layer event with its totals.
            let message = "native query executed by the wrapper";
            match self.fed.site(instance) {
                Ok(site) => t.counters(Layer::Data, message, site.isi.metrics().snapshot().iter()),
                Err(_) => t.event(Layer::Data, message),
            }
        }
        Ok(response)
    }
}

/// Decode an ISI's answer: a table straight into a [`ResultSet`], any
/// other shape (objects, a count, void, a scalar) through its [`Value`].
fn decode_isi_output(r: &mut CdrReader<'_>) -> WfResult<Response> {
    if is_result_set(r) {
        return Ok(Response::Table(read_result_set(r)?));
    }
    let v = Value::decode(r)?;
    if v.field("object_rows").is_some() {
        let columns = value_to_strings(
            v.field("columns")
                .ok_or_else(|| WebfinditError::Protocol("missing columns".into()))?,
        )?;
        let mut rows = Vec::new();
        if let Some(seq) = v.field("rows").and_then(Value::as_sequence) {
            for r in seq {
                let cells = r
                    .as_sequence()
                    .ok_or_else(|| WebfinditError::Protocol("bad object row".into()))?;
                rows.push(cells.iter().map(|c| c.to_string()).collect());
            }
        }
        return Ok(Response::Objects { columns, rows });
    }
    if let Some(n) = v.field("count") {
        return Ok(Response::Scalar(format!("{n} row(s) affected")));
    }
    Ok(Response::Scalar(v.to_string()))
}
