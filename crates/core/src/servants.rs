//! CORBA servants for the metadata and data layers.
//!
//! The paper encapsulates *every* database and co-database in a CORBA
//! server object. [`CoDatabaseServant`] exports a co-database's metadata
//! operations; [`IsiServant`] is the Information Source Interface — the
//! wrapper through which actual data queries reach a database over its
//! JDBC/JNI/native bridge. Each interface is declared once, below: the
//! declaration generates the servant's skeleton and the client types
//! ([`codb`], [`isi`]) that callers send.

use crate::discovery::ProbeReply;
use crate::value_map::{write_result_set, TableWriter};
use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use webfindit_base::sync::RwLock;
use webfindit_codb::evolution::DissolutionReport;
use webfindit_codb::{CoDatabase, InformationSource, ServiceLink};
use webfindit_connect::{
    CompensatingConnection, ConnectError, Connection, DriverManager, QueryOutput,
};
use webfindit_oostore::OValue;
use webfindit_orb::interface::{self, arg};
use webfindit_orb::servant::ServantError;
use webfindit_orb::Operation;
use webfindit_relstore::{Datum, RowSink};
use webfindit_wire::marshal::{read_field, read_record_of, write_field, write_record};
use webfindit_wire::{CdrReader, CdrWriter, Marshal, Rest, Trailing, Value, WireResult};

webfindit_orb::interface! {
    /// The co-database server object's operations: metadata lookups,
    /// one discovery visit (`probe`), and the WebTassili maintenance
    /// constructs.
    pub trait CoDatabaseOperations for CoDatabaseServant as codb = "IDL:webfindit/CoDatabase:1.0" {
        /// The owning site's name.
        Owner: fn owner() -> String;
        /// The version stamp, bumped by every registration.
        Version: fn version() -> i64;
        /// One discovery visit: the stamp alone when `known` is current,
        /// else the stamp and the answer for `topic`.
        Probe: fn probe(topic: String, known: Option<i64>) -> ProbeReply;
        /// Coalitions advertising `topic`.
        FindCoalitions: fn find_coalitions(topic: String) -> Vec<String>;
        /// Service links whose description matches `topic`.
        FindLinks: fn find_links(topic: String) -> Vec<ServiceLink>;
        /// Direct subclasses of a coalition.
        Subclasses: fn subclasses(class: String) -> Vec<String>;
        /// A coalition's documentation.
        CoalitionDocumentation: fn coalition_documentation(class: String) -> String;
        /// A coalition's member databases.
        Members: fn members(coalition: String) -> Vec<String>;
        /// The coalitions a database belongs to.
        Memberships: fn memberships(source: String) -> Vec<String>;
        /// Every database this co-database describes.
        Sources: fn sources() -> Vec<String>;
        /// A database's advertisement.
        Descriptor: fn descriptor(source: String) -> InformationSource;
        /// Every service link recorded here.
        ServiceLinks: fn service_links() -> Vec<ServiceLink>;
        /// Create a coalition, under `parent` or the lattice root.
        CreateCoalition: fn create_coalition(name: String, parent: Option<String>, documentation: String) -> ();
        /// Dissolve a coalition and its sub-coalitions.
        DissolveCoalition: fn dissolve_coalition(name: String) -> DissolutionReport;
        /// Record `descriptor` as a member of `coalition`.
        Advertise: fn advertise(coalition: String, descriptor: InformationSource) -> ();
        /// End `source`'s membership of `coalition`.
        Withdraw: fn withdraw(coalition: String, source: String) -> ();
        /// Record a service link.
        AddLink: fn add_link(link: ServiceLink) -> ();
    }
}

webfindit_orb::interface! {
    /// The Information Source Interface's operations. A data-layer answer
    /// (a table, a count, a value) is written by the servant, and its
    /// caller supplies the decoder.
    pub trait InformationSourceOperations for IsiServant as isi = "IDL:webfindit/InformationSource:1.0" {
        /// The source's product, instance, tables and classes.
        InterfaceOf: fn interface_of() -> SourceInterface;
        /// The bridge the wrapper reaches the source through.
        Bridge: fn bridge() -> String;
    }
    writes {
        /// Run a native query, returning at most `max_rows` rows. The
        /// federated executor pushes LIMIT down this way because not
        /// every vendor dialect can fold a row limit into the shipped
        /// text (mSQL has none).
        Execute: fn execute(text: String, max_rows: Trailing<u32>);
        /// Invoke a `Class.method` of an object source.
        InvokeFunction: fn invoke_function(method: String, arguments: Rest<OValue>);
        /// Begin a transaction.
        Begin: fn begin();
        /// Commit the open transaction.
        Commit: fn commit();
        /// Roll the open transaction back.
        Rollback: fn rollback();
    }
}

/// What `interface_of` answers: the record `{product, instance, tables:
/// [CREATE TABLE …], classes: [name]}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceInterface {
    /// Product name (`"Oracle"`, `"ObjectStore"`, …).
    pub product: String,
    /// Instance name.
    pub instance: String,
    /// Each relational table as its `CREATE TABLE` statement.
    pub tables: Vec<String>,
    /// Object-store class names.
    pub classes: Vec<String>,
}

impl Marshal for SourceInterface {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        write_record(w, 4);
        write_field(w, "product", &self.product)?;
        write_field(w, "instance", &self.instance)?;
        write_field(w, "tables", &self.tables)?;
        write_field(w, "classes", &self.classes)
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<SourceInterface> {
        read_record_of(r, 4, "source interface")?;
        Ok(SourceInterface {
            product: read_field(r, "product")?,
            instance: read_field(r, "instance")?,
            tables: read_field(r, "tables")?,
            classes: read_field(r, "classes")?,
        })
    }
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

/// A coalition's members, as `members` answers them.
fn members_of(codb: &CoDatabase, coalition: &str) -> Result<Vec<String>, ServantError> {
    codb.members(coalition).map_err(codb_err)
}

impl CoDatabaseOperations for CoDatabaseServant {
    fn admit(&self) {
        self.stall.wait();
    }

    /// A `probe` or `members`, when no stall is set and the
    /// co-database's shared guard is free ([`RwLock::try_read`]): the
    /// body the pool runs, with its reply. Anything else, writes
    /// included, is left to the dispatch pool.
    fn invoke_now(
        &self,
        operation: &str,
        args: &[Value],
        out: &mut CdrWriter,
    ) -> Option<Result<(), ServantError>> {
        if self.stall.millis() > 0 {
            return None;
        }
        let mut at = 0;
        if operation == codb::Probe::NAME {
            let topic: String = arg(args, &mut at, operation, "topic").ok()?;
            let known: Option<i64> = arg(args, &mut at, operation, "known").ok()?;
            let codb = self.codb.try_read()?;
            Some(interface::write_reply(
                &ProbeReply::of(&codb, &topic, known),
                out,
            ))
        } else if operation == codb::Members::NAME {
            let coalition: String = arg(args, &mut at, operation, "coalition").ok()?;
            let codb = self.codb.try_read()?;
            Some(members_of(&codb, &coalition).and_then(|m| interface::write_reply(&m, out)))
        } else {
            None
        }
    }

    fn owner(&self) -> Result<String, ServantError> {
        Ok(self.codb.read().owner().to_owned())
    }

    fn version(&self) -> Result<i64, ServantError> {
        Ok(self.codb.read().version() as i64)
    }

    fn probe(&self, topic: String, known: Option<i64>) -> Result<ProbeReply, ServantError> {
        Ok(ProbeReply::of(&self.codb.read(), &topic, known))
    }

    fn find_coalitions(&self, topic: String) -> Result<Vec<String>, ServantError> {
        Ok(self.codb.read().find_coalitions(&topic))
    }

    fn find_links(&self, topic: String) -> Result<Vec<ServiceLink>, ServantError> {
        let codb = self.codb.read();
        Ok(codb.find_links(&topic).into_iter().cloned().collect())
    }

    fn subclasses(&self, class: String) -> Result<Vec<String>, ServantError> {
        self.codb.read().subclasses(&class).map_err(codb_err)
    }

    fn coalition_documentation(&self, class: String) -> Result<String, ServantError> {
        let codb = self.codb.read();
        codb.coalition_documentation(&class).map_err(codb_err)
    }

    fn members(&self, coalition: String) -> Result<Vec<String>, ServantError> {
        members_of(&self.codb.read(), &coalition)
    }

    fn memberships(&self, source: String) -> Result<Vec<String>, ServantError> {
        Ok(self.codb.read().memberships(&source))
    }

    fn sources(&self) -> Result<Vec<String>, ServantError> {
        Ok(self.codb.read().sources())
    }

    fn descriptor(&self, source: String) -> Result<InformationSource, ServantError> {
        let codb = self.codb.read();
        codb.descriptor(&source).cloned().map_err(codb_err)
    }

    fn service_links(&self) -> Result<Vec<ServiceLink>, ServantError> {
        Ok(self.codb.read().service_links().to_vec())
    }

    fn create_coalition(
        &self,
        name: String,
        parent: Option<String>,
        documentation: String,
    ) -> Result<(), ServantError> {
        let mut codb = self.codb.write();
        codb.create_coalition(&name, parent.as_deref(), &documentation)
            .map(drop)
            .map_err(codb_err)
    }

    fn dissolve_coalition(&self, name: String) -> Result<DissolutionReport, ServantError> {
        self.codb
            .write()
            .dissolve_coalition(&name)
            .map_err(codb_err)
    }

    fn advertise(
        &self,
        coalition: String,
        descriptor: InformationSource,
    ) -> Result<(), ServantError> {
        let mut codb = self.codb.write();
        codb.advertise(&coalition, descriptor).map_err(codb_err)
    }

    fn withdraw(&self, coalition: String, source: String) -> Result<(), ServantError> {
        self.codb
            .write()
            .withdraw(&coalition, &source)
            .map_err(codb_err)
    }

    fn add_link(&self, link: ServiceLink) -> Result<(), ServantError> {
        self.codb.write().add_service_link(link).map_err(codb_err)
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

/// Write a data-layer answer into a reply: a table through the typed
/// table codec; a count as the record `{count: ULong}`; a value as its
/// `Value`.
fn write_output(out: QueryOutput, w: &mut CdrWriter) -> Result<(), ServantError> {
    match out {
        QueryOutput::Rows(rs) => write_result_set(&rs, w),
        QueryOutput::Count(n) => {
            write_record(w, 1);
            write_field(w, "count", &(n as u32))
        }
        QueryOutput::Done => ().write(w),
        QueryOutput::Value(v) => v.write(w),
    }
    .map_err(marshal)
}

/// How a failed `execute` reaches its caller.
fn execute_error(e: ConnectError) -> ServantError {
    match e {
        ConnectError::Sink(msg) => ServantError::Marshal(msg),
        e => ServantError::Application(e.to_string()),
    }
}

/// A reply decoder type, to name the `isi::Execute` operation.
type Unread = fn(&mut CdrReader<'_>) -> Result<(), webfindit_orb::OrbError>;

impl InformationSourceOperations for IsiServant {
    fn admit(&self) {
        self.stall.wait();
    }

    /// An `execute` whose statement is a primary-key point probe, when
    /// no stall is set and the source answers it without waiting
    /// ([`Connection::execute_now`]): `execute`'s path, with its reply.
    /// Anything else is left to the dispatch pool.
    fn invoke_now(
        &self,
        operation: &str,
        args: &[Value],
        out: &mut CdrWriter,
    ) -> Option<Result<(), ServantError>> {
        if operation != <isi::Execute<Unread>>::NAME || self.stall.millis() > 0 {
            return None;
        }
        let mut at = 0;
        let text: String = arg(args, &mut at, operation, "text").ok()?;
        let max_rows: Trailing<u32> = arg(args, &mut at, operation, "max_rows").ok()?;
        let mut conn = self.open().ok()?;
        let mut table = TableWriter::new(out, max_rows.0.map(|n| n as usize));
        let answer = conn.execute_now(&text, &mut table)?;
        if answer.is_ok() {
            self.report_data_metrics(&conn);
            table.finish();
        }
        Some(answer.map_err(execute_error))
    }

    fn interface_of(&self) -> Result<SourceInterface, ServantError> {
        let md = self
            .open()?
            .metadata()
            .map_err(|e| ServantError::Resource(e.to_string()))?;
        Ok(SourceInterface {
            product: md.product,
            instance: md.instance,
            tables: md.tables.iter().map(|t| t.to_create_sql()).collect(),
            classes: md.classes,
        })
    }

    fn bridge(&self) -> Result<String, ServantError> {
        Ok(self.open()?.bridge().to_string())
    }

    fn execute(
        &self,
        text: String,
        max_rows: Trailing<u32>,
        out: &mut CdrWriter,
    ) -> Result<(), ServantError> {
        let max_rows = max_rows.0.map(|n| n as usize);
        // A table's rows (a SELECT's or an OQL query's) go from the
        // connection straight into the reply; past `max_rows` they are
        // drained unwritten, so the data-layer counters are those of the
        // whole statement.
        let mut conn = self.open()?;
        let mut table = TableWriter::new(out, max_rows);
        let done = conn
            .execute_into(&text, &mut table)
            .map_err(execute_error)?;
        self.report_data_metrics(&conn);
        let Some(mut done) = done else {
            table.finish();
            return Ok(());
        };
        if let Some(n) = max_rows {
            done.truncate(n);
        }
        write_output(done, out)
    }

    fn invoke_function(
        &self,
        method: String,
        arguments: Rest<OValue>,
        out: &mut CdrWriter,
    ) -> Result<(), ServantError> {
        let done = self
            .open()?
            .invoke(&method, &arguments.0)
            .map_err(|e| ServantError::Application(e.to_string()))?;
        write_output(done, out)
    }

    fn begin(&self, out: &mut CdrWriter) -> Result<(), ServantError> {
        self.tx_control(|c| c.begin(), out)
    }

    fn commit(&self, out: &mut CdrWriter) -> Result<(), ServantError> {
        self.tx_control(|c| c.commit(), out)
    }

    fn rollback(&self, out: &mut CdrWriter) -> Result<(), ServantError> {
        self.tx_control(|c| c.rollback(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webfindit_codb::LinkEnd;
    use webfindit_connect::manager::standard_manager;
    use webfindit_connect::DataSourceRegistry;
    use webfindit_orb::{Operation, Servant};
    use webfindit_relstore::{Database, Dialect};
    use webfindit_wire::Value;

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
        let coalitions = s.find_coalitions("medical research".into()).unwrap();
        assert_eq!(coalitions, ["Research"]);
        let members = s.members("Research".into()).unwrap();
        assert_eq!(members, ["Royal Brisbane Hospital"]);
        let d = s.descriptor("Royal Brisbane Hospital".into()).unwrap();
        assert_eq!(d.location, "dba.icis.qut.edu.au");
        assert!(s.members("Ghost".into()).is_err());
        // By name, through the skeleton: a missing argument and an
        // unknown operation are refused.
        assert!(s.invoke(codb::Members::NAME, &[]).is_err());
        assert!(s.invoke("nonsense", &[]).is_err());
    }

    #[test]
    fn a_probe_answers_whole_unless_the_caller_holds_the_current_stamp() {
        let s = codb_servant();
        let topic = || "medical research".to_string();
        let full = s.probe(topic(), None).unwrap();
        let version = full.version as i64;
        let answer = full.answer.expect("answered in full");
        assert_eq!(answer.coalitions, ["Research"]);
        assert!(answer.links.is_empty());
        assert!(answer.expansion.is_empty());

        // The caller's stamp is current: the stamp alone comes back.
        let confirmed = s.probe(topic(), Some(version)).unwrap();
        assert_eq!(confirmed.answer, None);
        assert_eq!(confirmed.version, full.version);

        // A registration bumps the stamp: the same probe is answered in
        // full again, under the new stamp.
        let grants = "medical research grants".to_string();
        s.create_coalition("Grants".into(), None, grants).unwrap();
        let bumped = s.probe(topic(), Some(version)).unwrap();
        assert_ne!(bumped.version, full.version);
        let answer = bumped.answer.expect("answered in full");
        assert_eq!(answer.coalitions, ["Grants", "Research"]);
        assert!(s.invoke(codb::Probe::NAME, &[]).is_err());
    }

    #[test]
    fn descriptive_operations() {
        let s = codb_servant();
        assert_eq!(s.owner().unwrap(), "RBH");
        let doc = s.coalition_documentation("Research".into()).unwrap();
        assert_eq!(doc, "medical research");
        let memberships = s.memberships("Royal Brisbane Hospital".into()).unwrap();
        assert_eq!(memberships, ["Research"]);
        assert_eq!(s.sources().unwrap(), ["Royal Brisbane Hospital"]);
    }

    /// A written reply, read back as the `Value` a dynamic caller sees.
    fn written(
        f: impl FnOnce(&mut CdrWriter) -> Result<(), ServantError>,
    ) -> Result<Value, ServantError> {
        let order = webfindit_wire::ByteOrder::BigEndian;
        let mut w = CdrWriter::new(order);
        f(&mut w)?;
        let bytes = w.into_bytes();
        Ok(Value::decode(&mut CdrReader::new(&bytes, order)).unwrap())
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
        let call = |method: &str| written(|w| isi.invoke_function(method.into(), Rest(vec![]), w));
        assert_eq!(call("Treatment.count_all").unwrap(), Value::LongLong(1));

        // A bogus Class.method surfaces as an application exception.
        assert!(call("Treatment.nope").is_err());
    }

    #[test]
    fn management_operations() {
        let s = codb_servant();
        let doc = "medical research sub-area".to_string();
        s.create_coalition("MedicalResearch".into(), Some("Research".into()), doc)
            .unwrap();
        assert_eq!(
            s.subclasses("Research".into()).unwrap(),
            ["MedicalResearch"]
        );
        let link = ServiceLink {
            from: LinkEnd::Coalition("Research".into()),
            to: LinkEnd::Database("ATO".into()),
            description: "tax data for research grants".into(),
        };
        s.add_link(link.clone()).unwrap();
        assert_eq!(s.service_links().unwrap(), [link]);

        let report = s.dissolve_coalition("MedicalResearch".into()).unwrap();
        assert_eq!(report.severed_links, 0);
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
        let execute = |sql: &str| written(|w| isi.execute(sql.into(), Trailing(None), w));
        let out = execute("select * from medical_students").unwrap();
        let rows = out.field("rows").and_then(Value::as_sequence).unwrap();
        assert_eq!(rows.len(), 2);

        assert_eq!(isi.bridge().unwrap(), "JDBC");
        assert_eq!(isi.interface_of().unwrap().product, "Oracle");

        // Errors surface as application exceptions, not panics.
        assert!(execute("garbage !").is_err());
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
        let execute = |sql: &str| written(|w| isi.execute(sql.into(), Trailing(None), w));

        execute("CREATE TABLE beds (bed_id INT PRIMARY KEY, location TEXT)").unwrap();
        // Committed over ISI: survives the site crash.
        written(|w| isi.begin(w)).unwrap();
        execute("INSERT INTO beds VALUES (1, 'ward A')").unwrap();
        written(|w| isi.commit(w)).unwrap();
        // Rolled back over ISI: never visible.
        written(|w| isi.begin(w)).unwrap();
        execute("INSERT INTO beds VALUES (2, 'ward B')").unwrap();
        written(|w| isi.rollback(w)).unwrap();
        assert!(
            isi.metrics().snapshot().wal_appends > 0,
            "durability work must reach the wrapper's counters"
        );

        assert!(registry.crash_relational("oracle", "RBH"));
        vfs.power_loss(3);
        registry.restart_relational("oracle", "RBH").unwrap();
        let out = execute("SELECT bed_id FROM beds").unwrap();
        let rows = out.field("rows").and_then(Value::as_sequence).unwrap();
        assert_eq!(rows.len(), 1, "only the committed insert survives");
    }
}
