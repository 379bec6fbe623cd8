//! Gateway-side compensation for vendor feature gaps.
//!
//! When WebFINDIT's wrapper sends a query the vendor cannot execute —
//! the canonical case being aggregates or GROUP BY against mSQL, which
//! never had them — a 1999 gateway had exactly one honest move: fetch
//! the base tables with queries the vendor *does* support, and finish
//! the computation at the gateway. [`CompensatingConnection`] implements
//! that move:
//!
//! 1. Forward the statement unchanged; if the vendor accepts it, done.
//! 2. On an `Unsupported` rejection, pull `SELECT * FROM t` for every
//!    table the statement references (always within mSQL's powers),
//!    stage them in an embedded canonical engine, and run the original
//!    statement there.
//!
//! The staged path is counted by [`CompensatingConnection::compensations`],
//! which the `exp3_bridges` bin (experiment E3) prints.

use crate::api::{BridgeKind, Connection, DataMetrics, QueryOutput, SourceMetadata};
use crate::{ConnectError, ConnectResult};
use webfindit_relstore::sql::ast::Statement;
use webfindit_relstore::sql::parse_statement;
use webfindit_relstore::{Database, Dialect, RelError, RowSink};

/// A connection wrapper that absorbs `Unsupported` vendor errors by
/// staging and re-executing locally.
pub struct CompensatingConnection {
    inner: Box<dyn Connection>,
    compensations: u64,
}

impl CompensatingConnection {
    /// Wrap an inner connection.
    pub fn new(inner: Box<dyn Connection>) -> CompensatingConnection {
        CompensatingConnection {
            inner,
            compensations: 0,
        }
    }

    /// How many statements required the staged fallback.
    pub fn compensations(&self) -> u64 {
        self.compensations
    }

    fn compensate_select(&mut self, stmt: &Statement) -> ConnectResult<QueryOutput> {
        let select = match stmt {
            Statement::Select(s) => s,
            _ => {
                return Err(ConnectError::WrongParadigm(
                    "compensation only applies to SELECT".into(),
                ))
            }
        };
        // Which base tables does the statement touch?
        let mut tables: Vec<String> = vec![select.from.name.clone()];
        for j in &select.joins {
            tables.push(j.table.name.clone());
        }
        tables.sort();
        tables.dedup();

        // Stage each base table via vendor-supported full scans.
        let metadata = self.inner.metadata()?;
        let mut staging = Database::new("gateway-staging", Dialect::Canonical);
        for t in &tables {
            let schema = metadata
                .tables
                .iter()
                .find(|s| s.name == t.to_ascii_lowercase())
                .cloned()
                .ok_or_else(|| ConnectError::Rel(RelError::NoSuchTable(t.clone())))?;
            let out = self.inner.execute(&format!("SELECT * FROM {t}"))?;
            let rs = out.result_set().ok_or_else(|| {
                ConnectError::WrongParadigm("staging fetch produced no rows".into())
            })?;
            staging
                .import_table(schema, rs.rows.clone())
                .map_err(ConnectError::Rel)?;
        }

        // Finish the original statement at the gateway.
        let outcome = staging.execute_stmt(stmt).map_err(ConnectError::Rel)?;
        self.compensations += 1;
        Ok(match outcome {
            webfindit_relstore::engine::ExecOutcome::Rows(rs) => QueryOutput::Rows(rs),
            webfindit_relstore::engine::ExecOutcome::Count(n) => QueryOutput::Count(n),
            webfindit_relstore::engine::ExecOutcome::Done => QueryOutput::Done,
        })
    }
}

impl Connection for CompensatingConnection {
    /// Forwards to the inner connection. relstore raises `Unsupported`
    /// from the dialect check or the planner, before the sink sees a
    /// column, so the staged fallback returns its output whole.
    fn execute_into(
        &mut self,
        text: &str,
        sink: &mut dyn RowSink<ConnectError>,
    ) -> ConnectResult<Option<QueryOutput>> {
        match self.inner.execute_into(text, sink) {
            Err(ConnectError::Rel(RelError::Unsupported(_))) => {
                let stmt = parse_statement(text).map_err(ConnectError::Rel)?;
                self.compensate_select(&stmt).map(Some)
            }
            other => other,
        }
    }

    /// Forwards to the inner connection; a probe the dialect refuses is
    /// left to `execute_into`, which compensates.
    fn execute_now(
        &mut self,
        text: &str,
        sink: &mut dyn RowSink<ConnectError>,
    ) -> Option<ConnectResult<()>> {
        match self.inner.execute_now(text, sink)? {
            Err(ConnectError::Rel(RelError::Unsupported(_))) => None,
            answer => Some(answer),
        }
    }

    fn invoke(
        &mut self,
        method: &str,
        args: &[webfindit_oostore::OValue],
    ) -> ConnectResult<QueryOutput> {
        self.inner.invoke(method, args)
    }

    fn begin(&mut self) -> ConnectResult<QueryOutput> {
        self.inner.begin()
    }

    fn commit(&mut self) -> ConnectResult<QueryOutput> {
        self.inner.commit()
    }

    fn rollback(&mut self) -> ConnectResult<QueryOutput> {
        self.inner.rollback()
    }

    fn last_data_metrics(&self) -> Option<DataMetrics> {
        self.inner.last_data_metrics()
    }

    fn metadata(&self) -> ConnectResult<SourceMetadata> {
        self.inner.metadata()
    }

    fn bridge(&self) -> BridgeKind {
        self.inner.bridge()
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Driver;
    use crate::drivers::RelationalDriver;
    use crate::registry::DataSourceRegistry;
    use webfindit_relstore::Datum;

    fn msql_connection() -> CompensatingConnection {
        let reg = DataSourceRegistry::new();
        let mut db = Database::new("CentreLink", Dialect::MSql);
        db.execute("CREATE TABLE payments (client_id INT, amount DOUBLE)")
            .unwrap();
        db.execute("INSERT INTO payments VALUES (1, 100.0), (1, 250.0), (2, 80.0), (3, 40.0)")
            .unwrap();
        reg.register_relational("msql", "CentreLink", db);
        let driver = RelationalDriver::new(Dialect::MSql, reg);
        CompensatingConnection::new(driver.connect("jdbc:msql://h/CentreLink").unwrap())
    }

    #[test]
    fn supported_statements_pass_through() {
        let mut conn = msql_connection();
        let out = conn
            .execute("SELECT amount FROM payments WHERE client_id = 1")
            .unwrap();
        assert_eq!(out.row_count(), 2);
        assert_eq!(conn.compensations(), 0);
    }

    #[test]
    fn aggregates_are_compensated_on_msql() {
        let mut conn = msql_connection();
        let out = conn
            .execute("SELECT client_id, SUM(amount) s FROM payments GROUP BY client_id ORDER BY client_id")
            .unwrap();
        let rs = out.result_set().unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0], vec![Datum::Int(1), Datum::Double(350.0)]);
        assert_eq!(conn.compensations(), 1);
    }

    #[test]
    fn outer_join_compensated_on_msql() {
        let mut conn = msql_connection();
        // Self left-join — mSQL rejects it; the gateway stages and runs it.
        let out = conn
            .execute(
                "SELECT a.client_id FROM payments a LEFT JOIN payments b \
                 ON a.client_id = b.client_id AND a.amount < b.amount \
                 WHERE b.client_id IS NULL ORDER BY a.client_id",
            )
            .unwrap();
        // Rows with no strictly-larger same-client payment: the max per client.
        assert_eq!(out.row_count(), 3);
        assert_eq!(conn.compensations(), 1);
    }

    /// Counts what a sink was handed.
    #[derive(Default)]
    struct Seen(usize);

    impl RowSink<ConnectError> for Seen {
        fn columns(&mut self, _: &[String]) -> ConnectResult<()> {
            self.0 += 1;
            Ok(())
        }

        fn row(&mut self, _: &mut [std::borrow::Cow<'_, Datum>]) -> ConnectResult<()> {
            self.0 += 1;
            Ok(())
        }
    }

    #[test]
    fn an_unsupported_select_fails_before_its_sink_sees_a_column() {
        let sql = "SELECT client_id, SUM(amount) s FROM payments GROUP BY client_id";
        let mut seen = Seen::default();
        let mut conn = msql_connection();
        assert!(matches!(
            conn.inner.execute_into(sql, &mut seen),
            Err(ConnectError::Rel(RelError::Unsupported(_)))
        ));
        assert_eq!(seen.0, 0, "the vendor refused after handing rows over");

        // So the staged answer comes back whole.
        let out = conn.execute_into(sql, &mut seen).unwrap();
        assert_eq!(out.map(|o| o.row_count()), Some(3));
        assert_eq!((seen.0, conn.compensations()), (0, 1));

        // A SELECT the vendor runs streams into the sink: the column
        // names, then four rows.
        let out = conn.execute_into("SELECT amount FROM payments", &mut seen);
        assert!(out.unwrap().is_none());
        assert_eq!((seen.0, conn.compensations()), (5, 1));
    }

    #[test]
    fn genuinely_bad_sql_still_fails() {
        let mut conn = msql_connection();
        assert!(conn.execute("SELECT COUNT(*) FROM ghosts").is_err());
        assert!(conn.execute("THIS IS NOT SQL").is_err());
    }
}
