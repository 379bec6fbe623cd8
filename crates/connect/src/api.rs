//! The driver/connection API (the JDBC analog).

use crate::ConnectResult;
use std::fmt;
use webfindit_oostore::{OValue, Oid};
use webfindit_relstore::exec::ResultSet;
use webfindit_relstore::{RowSink, TableSchema};

/// Which physical bridge a connection uses — the three arrows of the
/// paper's Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BridgeKind {
    /// JDBC: Java CORBA server → relational database.
    Jdbc,
    /// JNI: Java CORBA server → C++-interfaced object database (Ontos).
    Jni,
    /// Direct C++ method invocation: C++ CORBA server → ObjectStore.
    NativeCpp,
}

impl fmt::Display for BridgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BridgeKind::Jdbc => "JDBC",
            BridgeKind::Jni => "JNI",
            BridgeKind::NativeCpp => "C++ method invocation",
        };
        f.write_str(s)
    }
}

/// The result of executing a statement through a connection.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// A relational result set.
    Rows(ResultSet),
    /// DML affected-row count.
    Count(usize),
    /// DDL / control statement completed.
    Done,
    /// OQL result from an object store: `(oid, projected values)` rows.
    Objects {
        /// Projected attribute names.
        columns: Vec<String>,
        /// Matching objects.
        rows: Vec<(Oid, Vec<OValue>)>,
    },
    /// A method invocation result from an object store.
    Value(OValue),
}

impl QueryOutput {
    /// The relational rows, if any.
    pub fn result_set(&self) -> Option<&ResultSet> {
        match self {
            QueryOutput::Rows(rs) => Some(rs),
            _ => None,
        }
    }

    /// Number of data rows in this output (0 for counts/Done/Value).
    pub fn row_count(&self) -> usize {
        match self {
            QueryOutput::Rows(rs) => rs.rows.len(),
            QueryOutput::Objects { rows, .. } => rows.len(),
            _ => 0,
        }
    }

    /// Keep at most `max_rows` data rows, dropping the tail. The
    /// federated executor applies this server-side when the target
    /// dialect cannot fold a row limit into the shipped query (mSQL has
    /// no LIMIT at all), so a pushed-down limit never widens the wire.
    pub fn truncate(&mut self, max_rows: usize) {
        match self {
            QueryOutput::Rows(rs) => rs.rows.truncate(max_rows),
            QueryOutput::Objects { rows, .. } => rows.truncate(max_rows),
            _ => {}
        }
    }
}

/// Data-layer execution metrics from the most recent query on a
/// connection, in a paradigm-neutral vocabulary: relational connections
/// report `ExecMetrics` and object connections report `OoExecMetrics`,
/// both mapped onto these four counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataMetrics {
    /// Rows/objects read from storage.
    pub rows_scanned: u64,
    /// Approximate bytes of those rows (0 for object stores).
    pub bytes_scanned: u64,
    /// Index entries hit (for object stores, the candidates an
    /// attribute index returned).
    pub index_hits: u64,
    /// Rows materialized by blocking operators (sort, aggregation).
    pub rows_spilled: u64,
    /// WAL records appended by this statement (0 for in-memory and
    /// object stores).
    pub wal_appends: u64,
    /// Snapshot/checkpoint pages written back around this statement.
    pub pages_flushed: u64,
    /// WAL records replayed if the statement triggered recovery (in
    /// practice nonzero only on the first statement after a reopen).
    pub recovery_redo: u64,
    /// Loser records rolled back during such a recovery.
    pub recovery_undo: u64,
}

/// Static description of a connected data source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceMetadata {
    /// Product name (`"Oracle"`, `"mSQL"`, `"ObjectStore"`, …).
    pub product: String,
    /// Instance name (`"Royal Brisbane Hospital"`).
    pub instance: String,
    /// Relational table schemas, if relational.
    pub tables: Vec<TableSchema>,
    /// Object-store class names, if object-oriented.
    pub classes: Vec<String>,
}

/// A live connection to one data source.
pub trait Connection: Send {
    /// Execute a statement in the source's native language (SQL for
    /// relational sources, OQL for object stores).
    fn execute(&mut self, text: &str) -> ConnectResult<QueryOutput>;

    /// Execute a statement, handing a relational answer's column names
    /// and rows to `sink` as the engine produces them. `None` means the
    /// rows went to the sink; otherwise the output is what
    /// [`Connection::execute`] returns, and the sink saw nothing. The
    /// default runs `execute`.
    fn execute_into(
        &mut self,
        text: &str,
        _sink: &mut dyn RowSink<crate::ConnectError>,
    ) -> ConnectResult<Option<QueryOutput>> {
        self.execute(text).map(Some)
    }

    /// Invoke a named access routine (object stores only; relational
    /// connections reject this).
    fn invoke(&mut self, _method: &str, _args: &[OValue]) -> ConnectResult<QueryOutput> {
        Err(crate::ConnectError::WrongParadigm(
            "method invocation on a relational connection".into(),
        ))
    }

    /// Open an explicit transaction (relational sources only).
    fn begin(&mut self) -> ConnectResult<QueryOutput> {
        Err(crate::ConnectError::WrongParadigm(
            "transactions on a non-transactional connection".into(),
        ))
    }

    /// Commit the open transaction. On durable sources an `Ok` return
    /// means the commit record reached stable storage.
    fn commit(&mut self) -> ConnectResult<QueryOutput> {
        Err(crate::ConnectError::WrongParadigm(
            "transactions on a non-transactional connection".into(),
        ))
    }

    /// Roll back the open transaction.
    fn rollback(&mut self) -> ConnectResult<QueryOutput> {
        Err(crate::ConnectError::WrongParadigm(
            "transactions on a non-transactional connection".into(),
        ))
    }

    /// Data-layer metrics from the most recent `execute`, when the
    /// source's engine reports them.
    fn last_data_metrics(&self) -> Option<DataMetrics> {
        None
    }

    /// Metadata about the source.
    fn metadata(&self) -> ConnectResult<SourceMetadata>;

    /// Which bridge kind carries this connection.
    fn bridge(&self) -> BridgeKind;

    /// Close the connection; further calls fail with `Closed`.
    fn close(&mut self);
}

/// A connectivity driver (the JDBC `Driver` analog).
pub trait Driver: Send + Sync {
    /// A short name for diagnostics (`"oracle"`, `"ontos"`, …).
    fn name(&self) -> &str;

    /// Whether this driver understands `url`.
    fn accepts(&self, url: &str) -> bool;

    /// Open a connection.
    fn connect(&self, url: &str) -> ConnectResult<Box<dyn Connection>>;
}

/// Parse `scheme:vendor://host/instance` into its components.
///
/// Examples: `jdbc:oracle://dba.icis.qut.edu.au/RBH`,
/// `jni:ontos://cairns.jcu.edu.au/PrinceCharles`.
pub fn parse_url(url: &str) -> Option<UrlParts<'_>> {
    let (scheme, rest) = url.split_once(':')?;
    let (vendor, rest) = rest.split_once("://")?;
    let (host, instance) = rest.split_once('/')?;
    if scheme.is_empty() || vendor.is_empty() || host.is_empty() || instance.is_empty() {
        return None;
    }
    Some(UrlParts {
        scheme,
        vendor,
        host,
        instance,
    })
}

/// The components of a connection URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UrlParts<'a> {
    /// Bridge scheme: `jdbc`, `jni`, or `native`.
    pub scheme: &'a str,
    /// Vendor: `oracle`, `msql`, `db2`, `sybase`, `ontos`, `objectstore`.
    pub vendor: &'a str,
    /// Host name (informational; resolution happens in the registry).
    pub host: &'a str,
    /// Instance (database) name.
    pub instance: &'a str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing() {
        let p = parse_url("jdbc:oracle://dba.icis.qut.edu.au/RBH").unwrap();
        assert_eq!(p.scheme, "jdbc");
        assert_eq!(p.vendor, "oracle");
        assert_eq!(p.host, "dba.icis.qut.edu.au");
        assert_eq!(p.instance, "RBH");
    }

    #[test]
    fn bad_urls_rejected() {
        for bad in [
            "",
            "jdbc",
            "jdbc:oracle",
            "jdbc:oracle://hostonly",
            "jdbc:oracle:///noinstance",
            ":oracle://h/i",
            "jdbc:://h/i",
        ] {
            assert!(parse_url(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn bridge_display() {
        assert_eq!(BridgeKind::Jdbc.to_string(), "JDBC");
        assert_eq!(BridgeKind::NativeCpp.to_string(), "C++ method invocation");
    }
}
