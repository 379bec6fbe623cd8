//! CORBA servants for the metadata and data layers.
//!
//! The paper encapsulates *every* database and co-database in a CORBA
//! server object. [`CoDatabaseServant`] exports a co-database's metadata
//! operations; [`IsiServant`] is the Information Source Interface — the
//! wrapper through which actual data queries reach a database over its
//! JDBC/JNI/native bridge.

use crate::discovery::probe_reply;
use crate::value_map::{
    descriptor_to_value, strings_to_value, value_to_descriptor, write_object_rows, write_ovalue,
    write_result_set, TableWriter,
};
use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use webfindit_base::sync::RwLock;
use webfindit_codb::{CoDatabase, LinkEnd, ServiceLink};
use webfindit_connect::{
    CompensatingConnection, ConnectError, Connection, DriverManager, QueryOutput,
};
use webfindit_oostore::OValue;
use webfindit_orb::servant::{InvokeResult, Servant, ServantError};
use webfindit_relstore::{Datum, RowSink};
use webfindit_wire::{ByteOrder, CdrReader, CdrWriter, Value};

/// Interface id of co-database servants.
pub const CODB_INTERFACE_ID: &str = "IDL:webfindit/CoDatabase:1.0";
/// Interface id of information-source-interface servants.
pub const ISI_INTERFACE_ID: &str = "IDL:webfindit/InformationSource:1.0";

fn arg_str(args: &[Value], i: usize, what: &str) -> Result<String, ServantError> {
    args.get(i)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ServantError::BadArguments(format!("argument {i} must be {what}")))
}

fn opt_arg_str(args: &[Value], i: usize) -> Option<String> {
    args.get(i).and_then(Value::as_str).map(str::to_owned)
}

/// Encode a service link as a wire struct.
pub fn link_to_value(l: &ServiceLink) -> Value {
    let end = |e: &LinkEnd| match e {
        LinkEnd::Coalition(n) => ("coalition", n.clone()),
        LinkEnd::Database(n) => ("database", n.clone()),
    };
    let (fk, fname) = end(&l.from);
    let (tk, tname) = end(&l.to);
    Value::record([
        ("from_kind", Value::string(fk)),
        ("from", Value::Str(fname)),
        ("to_kind", Value::string(tk)),
        ("to", Value::Str(tname)),
        ("description", Value::string(l.description.clone())),
    ])
}

/// Decode a service link from a wire struct.
pub fn value_to_link(v: &Value) -> Result<ServiceLink, ServantError> {
    let get = |name: &str| -> Result<String, ServantError> {
        v.field(name)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ServantError::BadArguments(format!("link missing {name}")))
    };
    let end = |kind: &str, name: String| -> Result<LinkEnd, ServantError> {
        match kind {
            "coalition" => Ok(LinkEnd::Coalition(name)),
            "database" => Ok(LinkEnd::Database(name)),
            other => Err(ServantError::BadArguments(format!(
                "unknown link end kind {other}"
            ))),
        }
    };
    Ok(ServiceLink {
        from: end(&get("from_kind")?, get("from")?)?,
        to: end(&get("to_kind")?, get("to")?)?,
        description: get("description")?,
    })
}

/// A shared stall gate: while set, the owning servant holds every
/// request for the configured number of milliseconds before serving it.
///
/// This is the chaos hook for "stall a servant" — the handle lives in
/// the deployment's [`SiteHandle`](crate::federation::SiteHandle), so a
/// chaos plan can slow a live site without restarting anything. Cloning
/// shares the gate.
#[derive(Debug, Clone, Default)]
pub struct StallGate(Arc<std::sync::atomic::AtomicU64>);

impl StallGate {
    /// A gate that starts open (no stall).
    pub fn new() -> StallGate {
        StallGate::default()
    }

    /// Hold each subsequent request for `millis` before serving it.
    pub fn stall(&self, millis: u64) {
        self.0.store(millis, std::sync::atomic::Ordering::Relaxed);
    }

    /// Lift the stall.
    pub fn clear(&self) {
        self.stall(0);
    }

    /// The currently configured hold, in milliseconds (0 = none).
    pub fn millis(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Serve-side: wait out the configured hold, if any.
    fn wait(&self) {
        let ms = self.millis();
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}

/// The co-database server object.
pub struct CoDatabaseServant {
    codb: Arc<RwLock<CoDatabase>>,
    stall: StallGate,
}

impl CoDatabaseServant {
    /// Wrap a shared co-database.
    pub fn new(codb: Arc<RwLock<CoDatabase>>) -> CoDatabaseServant {
        Self::with_gate(codb, StallGate::new())
    }

    /// Wrap a shared co-database around an externally held stall gate.
    pub fn with_gate(codb: Arc<RwLock<CoDatabase>>, stall: StallGate) -> CoDatabaseServant {
        CoDatabaseServant { codb, stall }
    }
}

fn codb_err(e: webfindit_codb::CodbError) -> ServantError {
    ServantError::Application(e.to_string())
}

impl Servant for CoDatabaseServant {
    fn interface_id(&self) -> &str {
        CODB_INTERFACE_ID
    }

    fn invoke(&self, operation: &str, args: &[Value]) -> InvokeResult {
        self.stall.wait();
        match operation {
            "owner" => Ok(Value::string(self.codb.read().owner().to_owned())),
            "version" => Ok(Value::LongLong(self.codb.read().version() as i64)),
            // One discovery visit: see `crate::discovery::probe_reply`.
            "probe" => {
                let topic = arg_str(args, 0, "an information type")?;
                let known = args.get(1).and_then(Value::as_i64);
                Ok(probe_reply(&self.codb.read(), &topic, known))
            }
            "find_coalitions" => {
                let topic = arg_str(args, 0, "an information type")?;
                Ok(strings_to_value(self.codb.read().find_coalitions(&topic)))
            }
            "find_links" => {
                let topic = arg_str(args, 0, "an information type")?;
                let codb = self.codb.read();
                Ok(Value::Sequence(
                    codb.find_links(&topic)
                        .into_iter()
                        .map(link_to_value)
                        .collect(),
                ))
            }
            "subclasses" => {
                let class = arg_str(args, 0, "a class name")?;
                self.codb
                    .read()
                    .subclasses(&class)
                    .map(strings_to_value)
                    .map_err(codb_err)
            }
            "coalition_documentation" => {
                let class = arg_str(args, 0, "a class name")?;
                self.codb
                    .read()
                    .coalition_documentation(&class)
                    .map(Value::Str)
                    .map_err(codb_err)
            }
            "members" => {
                let coalition = arg_str(args, 0, "a coalition name")?;
                self.codb
                    .read()
                    .members(&coalition)
                    .map(strings_to_value)
                    .map_err(codb_err)
            }
            "memberships" => {
                let source = arg_str(args, 0, "a source name")?;
                Ok(strings_to_value(self.codb.read().memberships(&source)))
            }
            "sources" => Ok(strings_to_value(self.codb.read().sources())),
            "descriptor" => {
                let source = arg_str(args, 0, "a source name")?;
                self.codb
                    .read()
                    .descriptor(&source)
                    .map(descriptor_to_value)
                    .map_err(codb_err)
            }
            "service_links" => Ok(Value::Sequence(
                self.codb
                    .read()
                    .service_links()
                    .iter()
                    .map(link_to_value)
                    .collect(),
            )),
            // ---- management (WebTassili maintenance constructs) ----
            "create_coalition" => {
                let name = arg_str(args, 0, "a coalition name")?;
                let parent = opt_arg_str(args, 1);
                let documentation = opt_arg_str(args, 2).unwrap_or_default();
                self.codb
                    .write()
                    .create_coalition(&name, parent.as_deref(), &documentation)
                    .map(|_| Value::Void)
                    .map_err(codb_err)
            }
            "dissolve_coalition" => {
                let name = arg_str(args, 0, "a coalition name")?;
                self.codb
                    .write()
                    .dissolve_coalition(&name)
                    .map(|report| {
                        Value::record([
                            (
                                "removed_coalitions",
                                strings_to_value(report.removed_coalitions),
                            ),
                            (
                                "displaced_sources",
                                strings_to_value(report.displaced_sources),
                            ),
                            ("severed_links", Value::ULong(report.severed_links as u32)),
                        ])
                    })
                    .map_err(codb_err)
            }
            "advertise" => {
                let coalition = arg_str(args, 0, "a coalition name")?;
                let descriptor = args
                    .get(1)
                    .ok_or_else(|| ServantError::BadArguments("missing descriptor".into()))?;
                let source = value_to_descriptor(descriptor)
                    .map_err(|e| ServantError::BadArguments(e.to_string()))?;
                self.codb
                    .write()
                    .advertise(&coalition, source)
                    .map(|_| Value::Void)
                    .map_err(codb_err)
            }
            "withdraw" => {
                let coalition = arg_str(args, 0, "a coalition name")?;
                let source = arg_str(args, 1, "a source name")?;
                self.codb
                    .write()
                    .withdraw(&coalition, &source)
                    .map(|_| Value::Void)
                    .map_err(codb_err)
            }
            "add_link" => {
                let link = value_to_link(
                    args.first()
                        .ok_or_else(|| ServantError::BadArguments("missing link".into()))?,
                )?;
                self.codb
                    .write()
                    .add_service_link(link)
                    .map(|_| Value::Void)
                    .map_err(codb_err)
            }
            other => Err(ServantError::UnknownOperation(other.to_owned())),
        }
    }

    fn operations(&self) -> Vec<String> {
        [
            "owner",
            "version",
            "probe",
            "find_coalitions",
            "find_links",
            "subclasses",
            "coalition_documentation",
            "members",
            "memberships",
            "sources",
            "descriptor",
            "service_links",
            "create_coalition",
            "dissolve_coalition",
            "advertise",
            "withdraw",
            "add_link",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

webfindit_base::counter_set! {
    /// Data-layer work one [`IsiServant`] did on behalf of its callers,
    /// in the paradigm-neutral vocabulary the connect layer reports
    /// per statement ([`webfindit_connect::DataMetrics`]).
    pub struct IsiMetrics => IsiSnapshot {
        /// Rows (or objects) read from storage.
        counter rows_scanned "rows scanned",
        /// Approximate bytes of those rows.
        counter bytes_scanned "bytes scanned",
        /// Index entries hit (point lookups, range scans, index join
        /// probes).
        counter index_hits "index hits",
        /// Rows materialized by blocking operators (sorts, aggregation).
        counter rows_spilled "rows spilled",
        /// Write-ahead-log records appended by a durable store.
        counter wal_appends "wal appends",
        /// Snapshot/checkpoint pages written back by a durable store.
        counter pages_flushed "pages flushed",
        /// WAL records replayed (REDO) during crash recovery.
        counter recovery_redo "redo",
        /// Loser-transaction records rolled back (UNDO) during crash
        /// recovery.
        counter recovery_undo "undo",
    }
}

/// The Information Source Interface servant — the paper's wrapper.
///
/// Each invocation opens a connection through the driver manager (the
/// deployment decides the URL and hence the bridge), wrapped in the
/// compensating gateway so vendor feature gaps are absorbed here, at
/// the ISI, exactly where the paper places the wrapper.
pub struct IsiServant {
    manager: Arc<DriverManager>,
    url: String,
    metrics: IsiMetrics,
    stall: StallGate,
}

impl IsiServant {
    /// Create an ISI for the data source at `url`.
    pub fn new(manager: Arc<DriverManager>, url: impl Into<String>) -> IsiServant {
        IsiServant {
            manager,
            url: url.into(),
            metrics: IsiMetrics::default(),
            stall: StallGate::new(),
        }
    }

    /// The data-layer work this wrapper's queries have done so far.
    pub fn metrics(&self) -> &IsiMetrics {
        &self.metrics
    }

    /// Attach a shared stall gate (chaos hook / WAN-latency shaping in
    /// tests), mirroring the co-database servant's gate.
    pub fn with_gate(mut self, stall: StallGate) -> IsiServant {
        self.stall = stall;
        self
    }

    fn open(&self) -> Result<CompensatingConnection, ServantError> {
        let inner = self
            .manager
            .get_connection(&self.url)
            .map_err(|e| ServantError::Resource(e.to_string()))?;
        Ok(CompensatingConnection::new(inner))
    }

    fn report_data_metrics(&self, conn: &CompensatingConnection) {
        let Some(m) = conn.last_data_metrics() else {
            return;
        };
        let total = &self.metrics;
        for (counter, n) in [
            (&total.rows_scanned, m.rows_scanned),
            (&total.bytes_scanned, m.bytes_scanned),
            (&total.index_hits, m.index_hits),
            (&total.rows_spilled, m.rows_spilled),
            (&total.wal_appends, m.wal_appends),
            (&total.pages_flushed, m.pages_flushed),
            (&total.recovery_redo, m.recovery_redo),
            (&total.recovery_undo, m.recovery_undo),
        ] {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Run one of the transaction-control verbs over a fresh
    /// connection. Transaction state lives in the underlying database
    /// instance, so the paper's stateless per-invocation connection
    /// still brackets a multi-invocation transaction correctly.
    fn tx_control(
        &self,
        f: impl FnOnce(&mut CompensatingConnection) -> webfindit_connect::ConnectResult<QueryOutput>,
        out: &mut CdrWriter,
    ) -> Result<(), ServantError> {
        let mut conn = self.open()?;
        let done = f(&mut conn).map_err(|e| ServantError::Application(e.to_string()))?;
        self.report_data_metrics(&conn);
        write_output(done, out)
    }
}

fn marshal(e: webfindit_wire::WireError) -> ServantError {
    ServantError::Marshal(e.to_string())
}

/// The ISI's row sink: each row the executor hands over is written into
/// the reply at once.
impl RowSink<ConnectError> for TableWriter<'_> {
    fn columns(&mut self, columns: &[String]) -> Result<(), ConnectError> {
        self.head(columns).map_err(refused)
    }

    fn row(&mut self, row: &mut [Cow<'_, Datum>]) -> Result<(), ConnectError> {
        TableWriter::row(self, row).map_err(refused)
    }
}

fn refused(e: webfindit_wire::WireError) -> ConnectError {
    ConnectError::Sink(e.to_string())
}

/// Write a data-layer answer into a reply: a table, relational or
/// object, through the typed table codec, anything else as its
/// [`Value`].
fn write_output(out: QueryOutput, w: &mut CdrWriter) -> Result<(), ServantError> {
    let value = match out {
        QueryOutput::Rows(rs) => return write_result_set(&rs, w).map_err(marshal),
        QueryOutput::Objects { columns, rows } => {
            return write_object_rows(&columns, &rows, w).map_err(marshal)
        }
        QueryOutput::Count(n) => Value::record([("count", Value::ULong(n as u32))]),
        QueryOutput::Done => Value::Void,
        QueryOutput::Value(v) => return write_ovalue(w, &v).map_err(marshal),
    };
    value.encode(w).map_err(marshal)
}

fn value_to_ovalue(v: &Value) -> Result<OValue, ServantError> {
    Ok(match v {
        Value::Null | Value::Void => OValue::Null,
        Value::LongLong(i) => OValue::Int(*i),
        Value::Long(i) => OValue::Int(*i as i64),
        Value::Double(d) => OValue::Double(*d),
        Value::Float(d) => OValue::Double(*d as f64),
        Value::Str(s) => OValue::Text(s.clone()),
        Value::Bool(b) => OValue::Bool(*b),
        Value::Sequence(items) => OValue::List(
            items
                .iter()
                .map(value_to_ovalue)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        other => {
            return Err(ServantError::BadArguments(format!(
                "cannot convert {other} to an object value"
            )))
        }
    })
}

impl Servant for IsiServant {
    fn interface_id(&self) -> &str {
        ISI_INTERFACE_ID
    }

    /// [`IsiServant::invoke_into`], read back: the ISI has one encoder.
    fn invoke(&self, operation: &str, args: &[Value]) -> InvokeResult {
        let order = ByteOrder::BigEndian;
        let mut w = CdrWriter::new(order);
        self.invoke_into(operation, args, &mut w)?;
        let bytes = w.into_bytes();
        Value::decode(&mut CdrReader::new(&bytes, order)).map_err(marshal)
    }

    fn invoke_into(
        &self,
        operation: &str,
        args: &[Value],
        out: &mut CdrWriter,
    ) -> Result<(), ServantError> {
        self.stall.wait();
        let value = match operation {
            "execute" => {
                let text = arg_str(args, 0, "a query string")?;
                // Optional second argument: a server-side row cap. The
                // federated executor pushes LIMIT down this way because
                // not every vendor dialect can fold a row limit into
                // the shipped text (mSQL has none) — truncating at the
                // ISI keeps the cap effective without widening the wire.
                let max_rows = match args.get(1) {
                    None | Some(Value::Null) => None,
                    Some(Value::ULong(n)) => Some(*n as usize),
                    Some(other) => {
                        return Err(ServantError::BadArguments(format!(
                            "max_rows must be an unsigned long, got {other}"
                        )))
                    }
                };
                // A SELECT's rows go from the executor straight into
                // the reply; past `max_rows` they are drained unwritten,
                // so the data-layer counters are those of the whole
                // statement.
                let mut conn = self.open()?;
                let mut table = TableWriter::new(out, max_rows);
                let done = conn.execute_into(&text, &mut table).map_err(|e| match e {
                    ConnectError::Sink(msg) => ServantError::Marshal(msg),
                    e => ServantError::Application(e.to_string()),
                })?;
                self.report_data_metrics(&conn);
                let Some(mut done) = done else {
                    table.finish();
                    return Ok(());
                };
                if let Some(n) = max_rows {
                    done.truncate(n);
                }
                return write_output(done, out);
            }
            "invoke_function" => {
                let method = arg_str(args, 0, "a Class.method name")?;
                let mut ovals = Vec::new();
                for a in &args[1..] {
                    ovals.push(value_to_ovalue(a)?);
                }
                let mut conn = self.open()?;
                let done = conn
                    .invoke(&method, &ovals)
                    .map_err(|e| ServantError::Application(e.to_string()))?;
                return write_output(done, out);
            }
            "interface_of" => {
                let conn = self.open()?;
                let md = conn
                    .metadata()
                    .map_err(|e| ServantError::Resource(e.to_string()))?;
                Value::record([
                    ("product", Value::Str(md.product)),
                    ("instance", Value::Str(md.instance)),
                    (
                        "tables",
                        Value::Sequence(
                            md.tables
                                .iter()
                                .map(|t| Value::string(t.to_create_sql()))
                                .collect(),
                        ),
                    ),
                    (
                        "classes",
                        Value::Sequence(md.classes.into_iter().map(Value::Str).collect()),
                    ),
                ])
            }
            "bridge" => {
                let conn = self.open()?;
                Value::string(conn.bridge().to_string())
            }
            "begin" => return self.tx_control(|c| c.begin(), out),
            "commit" => return self.tx_control(|c| c.commit(), out),
            "rollback" => return self.tx_control(|c| c.rollback(), out),
            other => return Err(ServantError::UnknownOperation(other.to_owned())),
        };
        value.encode(out).map_err(marshal)
    }

    fn operations(&self) -> Vec<String> {
        [
            "execute",
            "invoke_function",
            "interface_of",
            "bridge",
            "begin",
            "commit",
            "rollback",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webfindit_codb::InformationSource;
    use webfindit_connect::manager::standard_manager;
    use webfindit_connect::DataSourceRegistry;
    use webfindit_relstore::{Database, Dialect};

    fn codb_servant() -> CoDatabaseServant {
        let mut codb = CoDatabase::new("RBH");
        codb.create_coalition("Research", None, "medical research")
            .unwrap();
        codb.advertise(
            "Research",
            InformationSource {
                name: "Royal Brisbane Hospital".into(),
                information_type: "Research and Medical".into(),
                documentation_url: "http://docs/RBH".into(),
                location: "dba.icis.qut.edu.au".into(),
                wrapper: "jdbc:oracle://dba.icis.qut.edu.au/RBH".into(),
                interface: Vec::new(),
            },
        )
        .unwrap();
        CoDatabaseServant::new(Arc::new(RwLock::new(codb)))
    }

    #[test]
    fn every_isi_counter_is_listed_and_rendered_once() {
        let m = IsiMetrics::default();
        let table = [
            (&m.rows_scanned, "rows scanned"),
            (&m.bytes_scanned, "bytes scanned"),
            (&m.index_hits, "index hits"),
            (&m.rows_spilled, "rows spilled"),
            (&m.wal_appends, "wal appends"),
            (&m.pages_flushed, "pages flushed"),
            (&m.recovery_redo, "redo"),
            (&m.recovery_undo, "undo"),
        ];
        crate::trace::assert_listed_and_rendered_once(&table, || m.snapshot().iter());
    }

    #[test]
    fn metadata_operations() {
        let s = codb_servant();
        let coalitions = s
            .invoke("find_coalitions", &[Value::string("medical research")])
            .unwrap();
        assert_eq!(coalitions, Value::Sequence(vec![Value::string("Research")]));
        let members = s.invoke("members", &[Value::string("Research")]).unwrap();
        assert_eq!(
            members,
            Value::Sequence(vec![Value::string("Royal Brisbane Hospital")])
        );
        let d = s
            .invoke("descriptor", &[Value::string("Royal Brisbane Hospital")])
            .unwrap();
        assert_eq!(
            d.field("location").and_then(Value::as_str),
            Some("dba.icis.qut.edu.au")
        );
        assert!(s.invoke("members", &[Value::string("Ghost")]).is_err());
        assert!(s.invoke("members", &[]).is_err());
        assert!(s.invoke("nonsense", &[]).is_err());
    }

    #[test]
    fn a_probe_answers_whole_unless_the_caller_holds_the_current_stamp() {
        let s = codb_servant();
        let topic = Value::string("medical research");
        let full = s.invoke("probe", &[topic.clone(), Value::Null]).unwrap();
        let version = full.field("version").cloned().expect("stamped");
        assert_eq!(
            full.field("coalitions"),
            Some(&Value::Sequence(vec![Value::string("Research")]))
        );
        assert_eq!(full.field("links"), Some(&Value::Sequence(vec![])));
        assert_eq!(full.field("expansion"), Some(&Value::Sequence(vec![])));

        // The caller's stamp is current: the stamp alone comes back.
        let confirmed = s
            .invoke("probe", &[topic.clone(), version.clone()])
            .unwrap();
        assert_eq!(confirmed, Value::record([("version", version.clone())]));

        // A registration bumps the stamp: the same probe is answered in
        // full again, under the new stamp.
        s.invoke(
            "create_coalition",
            &[
                Value::string("Grants"),
                Value::Null,
                Value::string("medical research grants"),
            ],
        )
        .unwrap();
        let bumped = s.invoke("probe", &[topic, version.clone()]).unwrap();
        assert_ne!(bumped.field("version"), Some(&version));
        assert_eq!(
            bumped.field("coalitions"),
            Some(&Value::Sequence(vec![
                Value::string("Grants"),
                Value::string("Research")
            ]))
        );
        assert!(s.invoke("probe", &[]).is_err());
    }

    #[test]
    fn descriptive_operations() {
        let s = codb_servant();
        let owner = s.invoke("owner", &[]).unwrap();
        assert_eq!(owner.as_str(), Some("RBH"));
        let doc = s
            .invoke("coalition_documentation", &[Value::string("Research")])
            .unwrap();
        assert_eq!(doc.as_str(), Some("medical research"));
        let memberships = s
            .invoke("memberships", &[Value::string("Royal Brisbane Hospital")])
            .unwrap();
        assert_eq!(
            memberships,
            Value::Sequence(vec![Value::string("Research")])
        );
        let sources = s.invoke("sources", &[]).unwrap();
        assert_eq!(
            sources,
            Value::Sequence(vec![Value::string("Royal Brisbane Hospital")])
        );
    }

    #[test]
    fn isi_invokes_object_methods_through_the_bridge() {
        use webfindit_oostore::method::MethodTable;
        use webfindit_oostore::model::{ClassDef, OType, OValue};
        use webfindit_oostore::ObjectStore;

        let registry = DataSourceRegistry::new();
        let mut store = ObjectStore::new("PrinceCharles");
        store
            .define_class(ClassDef::root("Treatment").attr("name", OType::Text))
            .unwrap();
        store
            .create(
                "Treatment",
                [("name".to_string(), OValue::from("dialysis"))],
            )
            .unwrap();
        let mut mt = MethodTable::new();
        mt.register("Treatment", "count_all", |s, _r, _a| {
            Ok(OValue::Int(
                s.instances_of("Treatment", true).unwrap().len() as i64,
            ))
        });
        registry.register_object("ontos", "PrinceCharles", store, mt);
        let manager = Arc::new(standard_manager(registry));

        let isi = IsiServant::new(manager, "jni:ontos://dba.icis.qut.edu.au/PrinceCharles");
        let out = isi
            .invoke("invoke_function", &[Value::string("Treatment.count_all")])
            .unwrap();
        assert_eq!(out, Value::LongLong(1));

        // A bogus Class.method surfaces as an application exception.
        assert!(isi
            .invoke("invoke_function", &[Value::string("Treatment.nope")])
            .is_err());
    }

    #[test]
    fn management_operations() {
        let s = codb_servant();
        s.invoke(
            "create_coalition",
            &[
                Value::string("MedicalResearch"),
                Value::string("Research"),
                Value::string("medical research sub-area"),
            ],
        )
        .unwrap();
        let subs = s
            .invoke("subclasses", &[Value::string("Research")])
            .unwrap();
        assert_eq!(
            subs,
            Value::Sequence(vec![Value::string("MedicalResearch")])
        );
        let link = ServiceLink {
            from: LinkEnd::Coalition("Research".into()),
            to: LinkEnd::Database("ATO".into()),
            description: "tax data for research grants".into(),
        };
        s.invoke("add_link", &[link_to_value(&link)]).unwrap();
        let links = s.invoke("service_links", &[]).unwrap();
        assert_eq!(links.as_sequence().unwrap().len(), 1);
        let back = value_to_link(&links.as_sequence().unwrap()[0]).unwrap();
        assert_eq!(back, link);

        let report = s
            .invoke("dissolve_coalition", &[Value::string("MedicalResearch")])
            .unwrap();
        assert_eq!(report.field("severed_links"), Some(&Value::ULong(0)));
    }

    #[test]
    fn isi_executes_sql_through_the_bridge() {
        let registry = DataSourceRegistry::new();
        let mut db = Database::new("RBH", Dialect::Oracle);
        db.execute("CREATE TABLE medical_students (student_id INT PRIMARY KEY, name TEXT)")
            .unwrap();
        db.execute("INSERT INTO medical_students VALUES (1, 'J. Chen'), (2, 'A. Patel')")
            .unwrap();
        registry.register_relational("oracle", "RBH", db);
        let manager = Arc::new(standard_manager(registry));

        let isi = IsiServant::new(manager, "jdbc:oracle://dba.icis.qut.edu.au/RBH");
        let out = isi
            .invoke(
                "execute",
                &[Value::string("select * from medical_students")],
            )
            .unwrap();
        let rows = out.field("rows").and_then(Value::as_sequence).unwrap();
        assert_eq!(rows.len(), 2);

        let bridge = isi.invoke("bridge", &[]).unwrap();
        assert_eq!(bridge.as_str(), Some("JDBC"));

        let iface = isi.invoke("interface_of", &[]).unwrap();
        assert_eq!(
            iface.field("product").and_then(Value::as_str),
            Some("Oracle")
        );

        // Errors surface as application exceptions, not panics.
        assert!(isi
            .invoke("execute", &[Value::string("garbage !")])
            .is_err());
    }

    #[test]
    fn isi_brackets_transactions_on_a_durable_source() {
        use std::sync::Arc;
        use webfindit_relstore::file_mgr::{SimVfs, Vfs};

        let registry = DataSourceRegistry::new();
        let vfs = SimVfs::new();
        let db =
            Database::open_vfs(Arc::clone(&vfs) as Arc<dyn Vfs>, "RBH", Dialect::Oracle).unwrap();
        registry.register_relational("oracle", "RBH", db);
        let manager = Arc::new(standard_manager(Arc::clone(&registry)));
        let isi = IsiServant::new(manager, "jdbc:oracle://dba.icis.qut.edu.au/RBH");
        assert!(isi.operations().contains(&"commit".to_string()));

        isi.invoke(
            "execute",
            &[Value::string(
                "CREATE TABLE beds (bed_id INT PRIMARY KEY, location TEXT)",
            )],
        )
        .unwrap();
        // Committed over ISI: survives the site crash.
        isi.invoke("begin", &[]).unwrap();
        isi.invoke(
            "execute",
            &[Value::string("INSERT INTO beds VALUES (1, 'ward A')")],
        )
        .unwrap();
        isi.invoke("commit", &[]).unwrap();
        // Rolled back over ISI: never visible.
        isi.invoke("begin", &[]).unwrap();
        isi.invoke(
            "execute",
            &[Value::string("INSERT INTO beds VALUES (2, 'ward B')")],
        )
        .unwrap();
        isi.invoke("rollback", &[]).unwrap();
        assert!(
            isi.metrics().snapshot().wal_appends > 0,
            "durability work must reach the wrapper's counters"
        );

        assert!(registry.crash_relational("oracle", "RBH"));
        vfs.power_loss(3);
        registry.restart_relational("oracle", "RBH").unwrap();
        let out = isi
            .invoke("execute", &[Value::string("SELECT bed_id FROM beds")])
            .unwrap();
        let rows = out.field("rows").and_then(Value::as_sequence).unwrap();
        assert_eq!(rows.len(), 1, "only the committed insert survives");
    }
}
