//! Concrete drivers: four relational vendors plus the two OO bridges.

use crate::api::{
    parse_url, BridgeKind, Connection, DataMetrics, Driver, QueryOutput, SourceMetadata,
};
use crate::registry::{DataSourceRegistry, Instance, OoInstance};
use crate::{ConnectError, ConnectResult};
use std::sync::Arc;
use webfindit_oostore::{OValue, OqlQuery};
use webfindit_relstore::engine::ExecOutcome;
use webfindit_relstore::exec::ResultSet;
use webfindit_relstore::sql::ast::Statement;
use webfindit_relstore::sql::parse_statement;
use webfindit_relstore::{Database, Dialect, ExecMetrics, RowSink};

// ---- relational (JDBC) --------------------------------------------------

/// A JDBC-style driver for one relational vendor.
pub struct RelationalDriver {
    vendor: &'static str,
    dialect: Dialect,
    registry: Arc<DataSourceRegistry>,
}

impl RelationalDriver {
    /// Create a driver for `dialect`, resolving against `registry`.
    pub fn new(dialect: Dialect, registry: Arc<DataSourceRegistry>) -> RelationalDriver {
        let vendor = match dialect {
            Dialect::Oracle => "oracle",
            Dialect::MSql => "msql",
            Dialect::Db2 => "db2",
            Dialect::Sybase => "sybase",
            Dialect::Canonical => "canonical",
        };
        RelationalDriver {
            vendor,
            dialect,
            registry,
        }
    }
}

impl Driver for RelationalDriver {
    fn name(&self) -> &str {
        self.vendor
    }

    fn accepts(&self, url: &str) -> bool {
        parse_url(url)
            .map(|p| p.scheme == "jdbc" && p.vendor == self.vendor)
            .unwrap_or(false)
    }

    fn connect(&self, url: &str) -> ConnectResult<Box<dyn Connection>> {
        let parts = parse_url(url).ok_or_else(|| ConnectError::BadUrl(url.to_owned()))?;
        let db = self.registry.relational(parts.vendor, parts.instance)?;
        // The registered instance must actually speak this dialect —
        // catching mis-deployments early.
        {
            let guard = db.read();
            if guard.dialect() != self.dialect {
                return Err(ConnectError::WrongParadigm(format!(
                    "instance {} speaks {}, driver is {}",
                    guard.name(),
                    guard.dialect(),
                    self.dialect
                )));
            }
        }
        Ok(Box::new(RelationalConnection {
            db: Some(db),
            last_metrics: None,
        }))
    }
}

/// A live JDBC-style connection.
pub struct RelationalConnection {
    db: Option<Arc<Instance<Database>>>,
    last_metrics: Option<DataMetrics>,
}

impl RelationalConnection {
    fn live(&self) -> ConnectResult<&Arc<Instance<Database>>> {
        self.db.as_ref().ok_or(ConnectError::Closed)
    }
}

fn query_metrics(m: &ExecMetrics) -> DataMetrics {
    DataMetrics {
        rows_scanned: m.rows_scanned,
        bytes_scanned: m.bytes_scanned,
        index_hits: m.index_hits,
        rows_spilled: m.rows_spilled,
        ..DataMetrics::default()
    }
}

impl Connection for RelationalConnection {
    fn execute(&mut self, text: &str) -> ConnectResult<QueryOutput> {
        let mut rs = ResultSet::default();
        let out = self.execute_into(text, &mut rs)?;
        Ok(out.unwrap_or(QueryOutput::Rows(rs)))
    }

    /// A SELECT runs under the instance's shared guard, beside other
    /// readers, and streams its rows into `sink`; every other
    /// statement, and a SELECT that owes the instance a checkpoint,
    /// runs under the exclusive guard and returns its output.
    fn execute_into(
        &mut self,
        text: &str,
        sink: &mut dyn RowSink<ConnectError>,
    ) -> ConnectResult<Option<QueryOutput>> {
        let db = self.live()?;
        let stmt = parse_statement(text)?;
        if let Statement::Select(_) = stmt {
            let guard = db.read();
            if !guard.owes_checkpoint() {
                let m = guard.select_into(&stmt, sink)?;
                drop(guard);
                self.last_metrics = Some(query_metrics(&m));
                return Ok(None);
            }
        }
        let (outcome, metrics) = {
            let mut guard = db.lock();
            // Durability work (WAL appends, checkpoint flushes,
            // recovery replay) is cumulative per database, so this
            // statement's share is the before/after delta — captured
            // under the same lock so a concurrent statement on a
            // sibling connection can't interleave.
            let before = guard.storage_stats();
            let outcome = guard.execute_stmt(&stmt)?;
            // `last_exec_metrics` is only refreshed by SELECTs; for
            // DML/DDL outcomes it still describes an older query and
            // must not be attributed to this statement.
            let mut metrics = match &outcome {
                ExecOutcome::Rows(_) => guard
                    .last_exec_metrics()
                    .map(query_metrics)
                    .unwrap_or_default(),
                _ => DataMetrics::default(),
            };
            if let (Some(b), Some(a)) = (before, guard.storage_stats()) {
                metrics.wal_appends = a.wal_appends - b.wal_appends;
                metrics.pages_flushed = a.pages_flushed - b.pages_flushed;
                metrics.recovery_redo = a.recovery_redo - b.recovery_redo;
                metrics.recovery_undo = a.recovery_undo - b.recovery_undo;
            }
            (outcome, metrics)
        };
        self.last_metrics = Some(metrics);
        Ok(Some(match outcome {
            ExecOutcome::Rows(rs) => QueryOutput::Rows(rs),
            ExecOutcome::Count(n) => QueryOutput::Count(n),
            ExecOutcome::Done => QueryOutput::Done,
        }))
    }

    fn begin(&mut self) -> ConnectResult<QueryOutput> {
        self.execute("BEGIN")
    }

    fn commit(&mut self) -> ConnectResult<QueryOutput> {
        self.execute("COMMIT")
    }

    fn rollback(&mut self) -> ConnectResult<QueryOutput> {
        self.execute("ROLLBACK")
    }

    fn last_data_metrics(&self) -> Option<DataMetrics> {
        self.last_metrics
    }

    fn metadata(&self) -> ConnectResult<SourceMetadata> {
        let db = self.live()?;
        let guard = db.read();
        let tables = guard
            .table_names()
            .into_iter()
            .filter_map(|t| guard.table(&t).map(|tab| tab.schema.clone()))
            .collect();
        Ok(SourceMetadata {
            product: guard.dialect().name().to_owned(),
            instance: guard.name().to_owned(),
            tables,
            classes: Vec::new(),
        })
    }

    fn bridge(&self) -> BridgeKind {
        BridgeKind::Jdbc
    }

    fn close(&mut self) {
        self.db = None;
    }
}

// ---- object-oriented bridges (JNI / native C++) -------------------------

/// A bridge driver for one object-database vendor.
///
/// `ontos` connects via the `jni:` scheme (the paper reaches Ontos from
/// OrbixWeb Java servers over JNI); `objectstore` connects via
/// `native:` (C++ method invocation from Orbix C++ servers).
pub struct ObjectDriver {
    vendor: &'static str,
    scheme: &'static str,
    bridge: BridgeKind,
    registry: Arc<DataSourceRegistry>,
}

impl ObjectDriver {
    /// The Ontos-over-JNI driver.
    pub fn ontos(registry: Arc<DataSourceRegistry>) -> ObjectDriver {
        ObjectDriver {
            vendor: "ontos",
            scheme: "jni",
            bridge: BridgeKind::Jni,
            registry,
        }
    }

    /// The ObjectStore-over-C++ driver.
    pub fn objectstore(registry: Arc<DataSourceRegistry>) -> ObjectDriver {
        ObjectDriver {
            vendor: "objectstore",
            scheme: "native",
            bridge: BridgeKind::NativeCpp,
            registry,
        }
    }
}

impl Driver for ObjectDriver {
    fn name(&self) -> &str {
        self.vendor
    }

    fn accepts(&self, url: &str) -> bool {
        parse_url(url)
            .map(|p| p.scheme == self.scheme && p.vendor == self.vendor)
            .unwrap_or(false)
    }

    fn connect(&self, url: &str) -> ConnectResult<Box<dyn Connection>> {
        let parts = parse_url(url).ok_or_else(|| ConnectError::BadUrl(url.to_owned()))?;
        let inst = self.registry.object(parts.vendor, parts.instance)?;
        Ok(Box::new(ObjectConnection {
            inst: Some(inst),
            bridge: self.bridge,
            vendor: self.vendor,
            last_metrics: None,
        }))
    }
}

/// A live object-database connection.
pub struct ObjectConnection {
    inst: Option<Arc<Instance<OoInstance>>>,
    bridge: BridgeKind,
    vendor: &'static str,
    last_metrics: Option<DataMetrics>,
}

impl ObjectConnection {
    fn live(&self) -> ConnectResult<&Arc<Instance<OoInstance>>> {
        self.inst.as_ref().ok_or(ConnectError::Closed)
    }
}

impl Connection for ObjectConnection {
    fn execute(&mut self, text: &str) -> ConnectResult<QueryOutput> {
        let inst = self.live()?;
        let query = OqlQuery::parse(text)?;
        let (result, m) = query.execute_with_metrics(&inst.read().store)?;
        self.last_metrics = Some(DataMetrics {
            rows_scanned: m.objects_scanned,
            index_hits: m.index_hits,
            rows_spilled: m.rows_spilled,
            ..DataMetrics::default()
        });
        Ok(QueryOutput::Objects {
            columns: result.columns,
            rows: result.rows,
        })
    }

    fn last_data_metrics(&self) -> Option<DataMetrics> {
        self.last_metrics
    }

    fn invoke(&mut self, method: &str, args: &[OValue]) -> ConnectResult<QueryOutput> {
        let inst = self.live()?;
        // Method invocations are addressed `Class.method` or
        // `Class.method@oid`.
        let (class, rest) = method.split_once('.').ok_or_else(|| {
            ConnectError::WrongParadigm(format!("method {method} needs Class.name form"))
        })?;
        let (name, receiver) = match rest.split_once('@') {
            Some((n, oid)) => {
                let id: u64 = oid.parse().map_err(|_| {
                    ConnectError::WrongParadigm(format!("bad receiver oid in {method}"))
                })?;
                (n, Some(webfindit_oostore::Oid(id)))
            }
            None => (rest, None),
        };
        let guard = inst.read();
        let out = guard
            .methods
            .invoke_on_class(&guard.store, class, receiver, name, args)?;
        Ok(QueryOutput::Value(out))
    }

    fn metadata(&self) -> ConnectResult<SourceMetadata> {
        let inst = self.live()?;
        let guard = inst.read();
        Ok(SourceMetadata {
            product: match self.vendor {
                "ontos" => "Ontos".to_owned(),
                _ => "ObjectStore".to_owned(),
            },
            instance: guard.store.name().to_owned(),
            tables: Vec::new(),
            classes: guard.store.class_names(),
        })
    }

    fn bridge(&self) -> BridgeKind {
        self.bridge
    }

    fn close(&mut self) {
        self.inst = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webfindit_oostore::method::MethodTable;
    use webfindit_oostore::model::{ClassDef, OType};
    use webfindit_oostore::ObjectStore;

    fn registry() -> Arc<DataSourceRegistry> {
        let reg = DataSourceRegistry::new();
        let mut db = Database::new("RBH", Dialect::Oracle);
        db.execute("CREATE TABLE beds (bed_id INT PRIMARY KEY, location TEXT)")
            .unwrap();
        db.execute("INSERT INTO beds VALUES (1, 'ward A'), (2, 'ward B')")
            .unwrap();
        reg.register_relational("oracle", "RBH", db);

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
        reg.register_object("ontos", "PrinceCharles", store, mt);
        reg
    }

    #[test]
    fn jdbc_query_roundtrip() {
        let reg = registry();
        let driver = RelationalDriver::new(Dialect::Oracle, Arc::clone(&reg));
        assert!(driver.accepts("jdbc:oracle://h/RBH"));
        assert!(!driver.accepts("jdbc:msql://h/RBH"));
        assert!(!driver.accepts("jni:oracle://h/RBH"));
        let mut conn = driver.connect("jdbc:oracle://h/RBH").unwrap();
        let out = conn
            .execute("SELECT location FROM beds ORDER BY bed_id")
            .unwrap();
        assert_eq!(out.row_count(), 2);
        assert_eq!(conn.bridge(), BridgeKind::Jdbc);

        let md = conn.metadata().unwrap();
        assert_eq!(md.product, "Oracle");
        assert_eq!(md.tables.len(), 1);

        conn.close();
        assert!(matches!(
            conn.execute("SELECT * FROM beds"),
            Err(ConnectError::Closed)
        ));
    }

    #[test]
    fn dialect_mismatch_rejected() {
        let reg = registry();
        // Register the same instance name under msql to create a clash.
        let db = Database::new("RBH", Dialect::Oracle);
        reg.register_relational("msql", "RBH", db);
        let driver = RelationalDriver::new(Dialect::MSql, Arc::clone(&reg));
        assert!(matches!(
            driver.connect("jdbc:msql://h/RBH"),
            Err(ConnectError::WrongParadigm(_))
        ));
    }

    #[test]
    fn jni_bridge_oql_and_methods() {
        let reg = registry();
        let driver = ObjectDriver::ontos(Arc::clone(&reg));
        assert!(driver.accepts("jni:ontos://h/PrinceCharles"));
        assert!(!driver.accepts("native:ontos://h/PrinceCharles"));
        let mut conn = driver.connect("jni:ontos://h/PrinceCharles").unwrap();
        assert_eq!(conn.bridge(), BridgeKind::Jni);

        let out = conn.execute("select name from Treatment").unwrap();
        assert_eq!(out.row_count(), 1);

        let v = conn.invoke("Treatment.count_all", &[]).unwrap();
        assert_eq!(v, QueryOutput::Value(OValue::Int(1)));

        assert!(conn.invoke("count_all", &[]).is_err()); // missing class
    }

    #[test]
    fn relational_connection_rejects_invoke() {
        let reg = registry();
        let driver = RelationalDriver::new(Dialect::Oracle, Arc::clone(&reg));
        let mut conn = driver.connect("jdbc:oracle://h/RBH").unwrap();
        assert!(matches!(
            conn.invoke("X.y", &[]),
            Err(ConnectError::WrongParadigm(_))
        ));
    }

    #[test]
    fn durable_transactions_and_crash_restart() {
        use std::sync::Arc as StdArc;
        use webfindit_relstore::file_mgr::{SimVfs, Vfs};

        let reg = DataSourceRegistry::new();
        let vfs = SimVfs::new();
        let db = Database::open_vfs(
            StdArc::clone(&vfs) as StdArc<dyn Vfs>,
            "RBH",
            Dialect::Oracle,
        )
        .unwrap();
        reg.register_relational("oracle", "RBH", db);
        let driver = RelationalDriver::new(Dialect::Oracle, StdArc::clone(&reg));
        let mut conn = driver.connect("jdbc:oracle://h/RBH").unwrap();

        conn.execute("CREATE TABLE beds (bed_id INT PRIMARY KEY, location TEXT)")
            .unwrap();
        conn.begin().unwrap();
        conn.execute("INSERT INTO beds VALUES (1, 'ward A')")
            .unwrap();
        conn.commit().unwrap();
        let m = conn.last_data_metrics().unwrap();
        assert!(m.wal_appends > 0, "commit must report WAL traffic");

        // In-flight work at the moment of the crash must not survive.
        conn.begin().unwrap();
        conn.execute("INSERT INTO beds VALUES (2, 'ward B')")
            .unwrap();
        assert!(reg.crash_relational("oracle", "RBH"));
        vfs.power_loss(7);
        assert!(matches!(
            conn.execute("SELECT * FROM beds"),
            Err(ConnectError::Rel(
                webfindit_relstore::RelError::Unavailable(_)
            ))
        ));

        reg.restart_relational("oracle", "RBH").unwrap();
        let out = conn
            .execute("SELECT bed_id FROM beds ORDER BY bed_id")
            .unwrap();
        let m = conn.last_data_metrics().unwrap();
        assert_eq!(out.row_count(), 1, "committed row survives, loser is gone");
        assert_eq!(
            m.recovery_redo + m.recovery_undo,
            0,
            "recovery already done"
        );

        // Crashing an in-memory instance is meaningless and says so.
        reg.register_relational("msql", "Mem", Database::new("Mem", Dialect::MSql));
        assert!(!reg.crash_relational("msql", "Mem"));
        assert!(!reg.crash_relational("msql", "Ghost"));
    }

    #[test]
    fn unknown_instance() {
        let reg = registry();
        let driver = RelationalDriver::new(Dialect::Oracle, reg);
        assert!(matches!(
            driver.connect("jdbc:oracle://h/Ghost"),
            Err(ConnectError::UnknownDataSource(_))
        ));
    }
}
