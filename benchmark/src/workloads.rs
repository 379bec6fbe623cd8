//! The six workloads: seeded op generators, the statements they submit,
//! and the oracle that checks every reply against the generator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use webfindit::{DiscoveryEngine, Federation, Lead, Response, WfResult};
use webfindit_base::rng::StdRng;
use webfindit_relstore::Datum;

use crate::deploy::{
    account, history, patient, visit, ACCOUNT_ROWS, CLINIC, HISTORY_ROWS, LEDGER, NORTH,
    PATIENT_ROWS, RECORDS_MEMBERS, SOUTH, VISIT_ROWS,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    BulkRead,
    JoinAgg,
    DiscoverChurn,
    FedUnion,
    TxnMixed,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PointRead,
        Workload::BulkRead,
        Workload::JoinAgg,
        Workload::DiscoverChurn,
        Workload::FedUnion,
        Workload::TxnMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::BulkRead => "bulk_read",
            Workload::JoinAgg => "join_agg",
            Workload::DiscoverChurn => "discover_churn",
            Workload::FedUnion => "fed_union",
            Workload::TxnMixed => "txn_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The bench site whose ISI serves this workload's native
    /// statements (none for the metadata and federated workloads).
    pub fn sql_site(self) -> Option<&'static str> {
        match self {
            Workload::PointRead | Workload::BulkRead | Workload::JoinAgg => Some(CLINIC),
            Workload::TxnMixed => Some(LEDGER),
            Workload::DiscoverChurn | Workload::FedUnion => None,
        }
    }
}

/// Rows one `bulk_read` returns: a reply well above the 64 KiB GIOP
/// fragment size.
pub const BULK_ROWS: i64 = 4_000;
/// Rows each Bench Records member returns to one `fed_union`.
pub const FED_SPAN: i64 = 1_500;
/// One `discover_churn` statement in this many is a `Join` or `Leave`.
pub const CHURN_EVERY: u64 = 50;
/// Share of `txn_mixed` statements that insert.
pub const INSERT_SHARE: f64 = 0.2;
/// The user's home site for workloads that do not vary it.
pub const HOME_SITE: &str = "QUT Research";

/// Per client: the bench site that churns and the coalition it joins.
pub const CHURN: [(&str, &str); 2] = [(NORTH, "Medical"), (SOUTH, "Research")];

const JOIN_AGG_SQL: &str = "SELECT p.gender, COUNT(*) n, AVG(h.cost) avg_cost \
    FROM history h JOIN patient p ON h.patient_id = p.patient_id \
    GROUP BY p.gender ORDER BY p.gender";

#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    PointRead {
        k: i64,
    },
    BulkRead {
        k: i64,
    },
    JoinAgg,
    /// `slot` picks a pair from the oracle's list (modulo its length).
    Find {
        slot: u32,
    },
    Churn {
        join: bool,
    },
    FedUnion {
        lo: i64,
    },
    LedgerRead {
        id: i64,
    },
    LedgerInsert {
        id: i64,
    },
}

/// Seeded op stream of one client. `pass` only offsets the keys
/// `txn_mixed` inserts, so the traced run can replay the same stream at
/// each depth without colliding with itself.
pub struct OpGen {
    workload: Workload,
    rng: StdRng,
    client: usize,
    pass: u64,
    issued: u64,
    inserts: i64,
    joined: bool,
}

impl OpGen {
    pub fn new(workload: Workload, seed: u64, client: usize, pass: u64) -> OpGen {
        OpGen {
            workload,
            rng: StdRng::seed_from_u64(seed ^ ((client as u64 + 1) << 32)),
            client,
            pass,
            issued: 0,
            inserts: 0,
            joined: false,
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        match self.workload {
            Workload::PointRead => Op::PointRead {
                k: self.rng.gen_range(0..PATIENT_ROWS),
            },
            Workload::BulkRead => Op::BulkRead {
                k: self.rng.gen_range(0..PATIENT_ROWS - BULK_ROWS + 1),
            },
            Workload::JoinAgg => Op::JoinAgg,
            Workload::DiscoverChurn => {
                if self.issued.is_multiple_of(CHURN_EVERY) {
                    self.joined = !self.joined;
                    Op::Churn { join: self.joined }
                } else {
                    Op::Find {
                        slot: self.rng.next_u64() as u32,
                    }
                }
            }
            Workload::FedUnion => Op::FedUnion {
                lo: self.rng.gen_range(0..VISIT_ROWS - FED_SPAN + 1),
            },
            Workload::TxnMixed => {
                if self.rng.gen_bool(INSERT_SHARE) {
                    self.inserts += 1;
                    let base = 1_000_000_000 * (self.client as i64 + 1);
                    Op::LedgerInsert {
                        id: base + 10_000_000 * self.pass as i64 + self.inserts,
                    }
                } else {
                    Op::LedgerRead {
                        id: self.rng.gen_range(0..ACCOUNT_ROWS),
                    }
                }
            }
        }
    }

    /// True when this stream has left its churn site joined.
    pub fn joined(&self) -> bool {
        self.joined
    }
}

/// FNV-1a over the ops' debug rendering: the generator's fingerprint.
pub fn op_digest(workload: Workload, seed: u64, n: usize) -> u64 {
    let mut gen = OpGen::new(workload, seed, 0, 0);
    let mut h = Fnv::new();
    for _ in 0..n {
        h.write(format!("{:?}", gen.next_op()).as_bytes());
    }
    h.0
}

pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The native query an op sends to its site's ISI, if it is one.
pub fn native(op: &Op) -> Option<String> {
    Some(match op {
        Op::PointRead { k } => format!("SELECT name, age FROM patient WHERE patient_id = {k}"),
        Op::BulkRead { k } => format!(
            "SELECT patient_id, name, age FROM patient WHERE patient_id BETWEEN {k} AND {}",
            k + BULK_ROWS - 1
        ),
        Op::JoinAgg => JOIN_AGG_SQL.to_string(),
        Op::LedgerRead { id } => {
            format!("SELECT owner, balance FROM accounts WHERE acct_id = {id}")
        }
        Op::LedgerInsert { id } => format!(
            "INSERT INTO accounts VALUES ({id}, 'inserted-{id}', {})",
            (id % 1000) as f64 + 0.5
        ),
        Op::Find { .. } | Op::Churn { .. } | Op::FedUnion { .. } => return None,
    })
}

fn submit_native(sql: &str, site: &str) -> String {
    format!(
        "Submit Native '{}' To Instance {site};",
        sql.replace('\'', "''")
    )
}

/// An `Invoke` with the same key as a native read: what the stand-alone
/// translation span translates (native statements skip translation).
pub fn equivalent_invoke(op: &Op) -> Option<String> {
    Some(match op {
        Op::PointRead { k } | Op::BulkRead { k } => {
            format!("Invoke Patient.Name((Patient.Patient_id = {k})) On Instance {CLINIC};")
        }
        Op::JoinAgg => format!("Invoke History.Cost((History.Cost > 0)) On Instance {CLINIC};"),
        Op::LedgerRead { id } | Op::LedgerInsert { id } => {
            format!("Invoke Accounts.Balance((Accounts.Acct_id = {id})) On Instance {LEDGER};")
        }
        Op::FedUnion { lo } => format!(
            "Invoke Visits.Cost((Visits.Seq >= {lo} And Visits.Seq < {})) On Instance {NORTH};",
            lo + FED_SPAN
        ),
        Op::Find { .. } | Op::Churn { .. } => return None,
    })
}

/// Membership of the two churning sites and the churns in flight.
#[derive(Default)]
struct World {
    /// Bit `c` set: client `c`'s site is joined.
    flags: AtomicU64,
    churn_starts: AtomicU64,
    churn_ends: AtomicU64,
}

/// What a client saw of the world before it submitted an op.
pub struct Before {
    flags: u64,
    starts: u64,
    quiet: bool,
}

/// Reference answers, computed at set-up from the generator.
pub struct Oracle {
    seed: u64,
    /// `join_agg`: `(gender, count, avg cost)` in gender order.
    join_groups: Vec<(String, i64, f64)>,
    /// `fed_union`: cost of every visit, per member in merge order.
    fed_costs: Vec<Vec<f64>>,
    /// `discover_churn`: the `(origin, topic)` pairs ops draw from.
    pub pairs: Vec<(String, String)>,
    /// `discover_churn`: expected leads, `[membership flags][pair]`.
    leads: Vec<Vec<Vec<Lead>>>,
    world: World,
    pub acked_inserts: AtomicU64,
    /// Finds that overlapped a churn and were checked against the set
    /// of membership states instead of one.
    pub raced_finds: AtomicU64,
}

impl Oracle {
    pub fn build(workload: Workload, seed: u64, fed: &Arc<Federation>) -> Result<Oracle, String> {
        let mut oracle = Oracle {
            seed,
            join_groups: Vec::new(),
            fed_costs: Vec::new(),
            pairs: Vec::new(),
            leads: Vec::new(),
            world: World::default(),
            acked_inserts: AtomicU64::new(0),
            raced_finds: AtomicU64::new(0),
        };
        match workload {
            Workload::JoinAgg => oracle.join_groups = join_groups(seed),
            Workload::FedUnion => {
                oracle.fed_costs = (0..RECORDS_MEMBERS.len())
                    .map(|m| (0..VISIT_ROWS).map(|seq| visit(seed, m, seq).1).collect())
                    .collect();
            }
            Workload::DiscoverChurn => discover_oracle(&mut oracle, fed)?,
            Workload::PointRead | Workload::BulkRead | Workload::TxnMixed => {}
        }
        Ok(oracle)
    }

    pub fn pair(&self, slot: u32) -> &(String, String) {
        &self.pairs[slot as usize % self.pairs.len()]
    }

    /// The WebTassili statement a client types for `op`.
    pub fn statement(&self, op: &Op, client: usize) -> String {
        match op {
            Op::PointRead { .. } | Op::BulkRead { .. } | Op::JoinAgg => {
                submit_native(&native(op).expect("native op"), CLINIC)
            }
            Op::LedgerRead { .. } | Op::LedgerInsert { .. } => {
                submit_native(&native(op).expect("native op"), LEDGER)
            }
            Op::Find { slot } => {
                format!("Find Coalitions With Information {};", self.pair(*slot).1)
            }
            Op::Churn { join } => {
                let (site, coalition) = CHURN[client];
                if *join {
                    format!("Join Instance {site} To Coalition {coalition};")
                } else {
                    format!("Leave Instance {site} From Coalition {coalition};")
                }
            }
            Op::FedUnion { lo } => format!(
                "Invoke Visits.Cost((Visits.Seq >= {lo} And Visits.Seq < {})) At Coalition {};",
                lo + FED_SPAN,
                crate::deploy::RECORDS_COALITION
            ),
        }
    }

    /// The site the user of `op` belongs to.
    pub fn origin(&self, op: &Op) -> &str {
        match op {
            Op::Find { slot } => &self.pair(*slot).0,
            _ => HOME_SITE,
        }
    }

    /// Call right before submitting `op`.
    pub fn before(&self, op: &Op) -> Before {
        let w = &self.world;
        if matches!(op, Op::Churn { .. }) {
            w.churn_starts.fetch_add(1, Ordering::SeqCst);
        }
        let starts = w.churn_starts.load(Ordering::SeqCst);
        let ends = w.churn_ends.load(Ordering::SeqCst);
        Before {
            flags: w.flags.load(Ordering::SeqCst),
            starts,
            quiet: starts == ends,
        }
    }

    /// Call right after `op` returned: true when the reply is the
    /// reference answer.
    pub fn verify(
        &self,
        op: &Op,
        client: usize,
        before: &Before,
        reply: &WfResult<Response>,
    ) -> bool {
        if let Op::Churn { join } = op {
            // Publish the new membership before declaring the churn over.
            let bit = 1u64 << client;
            if *join {
                self.world.flags.fetch_or(bit, Ordering::SeqCst);
            } else {
                self.world.flags.fetch_and(!bit, Ordering::SeqCst);
            }
            self.world.churn_ends.fetch_add(1, Ordering::SeqCst);
            return matches!(reply, Ok(Response::Ack { .. }));
        }
        let Ok(reply) = reply else {
            return false;
        };
        match (op, reply) {
            (Op::PointRead { k }, Response::Table(rs)) => {
                let p = patient(self.seed, *k);
                rs.rows == [vec![Datum::Text(p.name), Datum::Int(p.age)]]
            }
            (Op::BulkRead { k }, Response::Table(rs)) => self.bulk_ok(*k, &rs.rows),
            (Op::JoinAgg, Response::Table(rs)) => {
                rs.rows.len() == self.join_groups.len()
                    && rs.rows.iter().zip(&self.join_groups).all(|(row, g)| {
                        matches!(row.as_slice(),
                            [Datum::Text(gender), Datum::Int(n), Datum::Double(avg)]
                            if *gender == g.0 && *n == g.1
                                && (avg - g.2).abs() <= 1e-9 * g.2.abs())
                    })
            }
            (Op::Find { slot }, Response::Leads { leads, .. }) => {
                let pair = *slot as usize % self.pairs.len();
                let unraced =
                    before.quiet && self.world.churn_starts.load(Ordering::SeqCst) == before.starts;
                if unraced {
                    *leads == self.leads[before.flags as usize][pair]
                } else {
                    self.raced_finds.fetch_add(1, Ordering::Relaxed);
                    // Some membership between the four states held
                    // while the find walked: every lead must be known
                    // to one state, and no lead common to all may be
                    // missing.
                    let states = || self.leads.iter().map(|by_pair| &by_pair[pair]);
                    leads.iter().all(|l| states().any(|s| s.contains(l)))
                        && self.leads[0][pair]
                            .iter()
                            .filter(|l| states().all(|s| s.contains(l)))
                            .all(|l| leads.contains(l))
                }
            }
            (Op::FedUnion { lo }, Response::Federated(out)) => {
                let span = FED_SPAN as usize;
                out.degraded.is_empty()
                    && out.rows.len() == span * RECORDS_MEMBERS.len()
                    && out
                        .rows
                        .chunks(span)
                        .zip(RECORDS_MEMBERS)
                        .zip(&self.fed_costs)
                        .all(|((rows, site), costs)| {
                            let expect = &costs[*lo as usize..*lo as usize + span];
                            rows.iter().zip(expect).all(|(row, cost)| {
                                row.len() == 2
                                    && row[0] == site
                                    && row[1].parse::<f64>().ok() == Some(*cost)
                            })
                        })
            }
            (Op::LedgerRead { id }, Response::Table(rs)) => {
                let (owner, balance) = account(self.seed, *id);
                rs.rows == [vec![Datum::Text(owner), Datum::Double(balance)]]
            }
            (Op::LedgerInsert { .. }, Response::Scalar(s)) => {
                let ok = s == "1 row(s) affected";
                if ok {
                    self.acked_inserts.fetch_add(1, Ordering::Relaxed);
                }
                ok
            }
            _ => false,
        }
    }

    fn bulk_ok(&self, k: i64, rows: &[Vec<Datum>]) -> bool {
        if rows.len() != BULK_ROWS as usize {
            return false;
        }
        let (mut got, mut want) = (Fnv::new(), Fnv::new());
        for (i, row) in rows.iter().enumerate() {
            let Some(Datum::Int(id)) = row.first() else {
                return false;
            };
            got.write(&id.to_le_bytes());
            want.write(&(k + i as i64).to_le_bytes());
        }
        let row_ok = |i: usize| {
            let p = patient(self.seed, k + i as i64);
            rows[i][1..] == [Datum::Text(p.name), Datum::Int(p.age)]
        };
        got.0 == want.0 && row_ok(0) && row_ok(rows.len() - 1)
    }

    /// `txn_mixed`: the table holds the preload plus every insert the
    /// system acknowledged.
    pub fn ledger_count_ok(&self, reply: &WfResult<Response>) -> bool {
        let want = ACCOUNT_ROWS + self.acked_inserts.load(Ordering::SeqCst) as i64;
        matches!(reply, Ok(Response::Table(rs)) if rs.rows == [vec![Datum::Int(want)]])
    }
}

pub fn ledger_count_statement() -> String {
    submit_native("SELECT COUNT(*) n FROM accounts", LEDGER)
}

/// `join_agg` computed in plain Rust over the generated rows.
fn join_groups(seed: u64) -> Vec<(String, i64, f64)> {
    let mut groups = [("F", 0i64, 0.0f64), ("M", 0, 0.0)];
    for i in 0..HISTORY_ROWS {
        let (pid, _, cost) = history(seed, i);
        let g = if patient(seed, pid).gender == "F" {
            0
        } else {
            1
        };
        groups[g].1 += 1;
        groups[g].2 += cost;
    }
    groups
        .iter()
        .filter(|g| g.1 > 0)
        .map(|g| (g.0.to_string(), g.1, g.2 / g.1 as f64))
        .collect()
}

/// Reference leads for every pair under each of the four membership
/// states, from a serial engine with a fresh cache per state.
fn discover_oracle(oracle: &mut Oracle, fed: &Arc<Federation>) -> Result<(), String> {
    let serial = || {
        let mut engine = DiscoveryEngine::new(Arc::clone(fed));
        engine.max_workers = 1;
        engine
    };
    let set = |client: usize, join: bool| -> Result<(), String> {
        let (site, coalition) = CHURN[client];
        if join {
            fed.join_coalition(site, coalition, "")
        } else {
            fed.leave_coalition(site, coalition)
        }
        .map(|_| ())
        .map_err(|e| e.to_string())
    };
    // One full cycle first, so "not joined" means "joined and left",
    // the state every later Leave returns to.
    for client in 0..CHURN.len() {
        set(client, true)?;
        set(client, false)?;
    }

    let origins: Vec<String> = webfindit_healthcare::databases()
        .iter()
        .map(|d| d.name.to_string())
        .collect();
    let mut topics: Vec<String> = webfindit_healthcare::databases()
        .iter()
        .map(|d| d.information_type.to_string())
        .chain(
            webfindit_healthcare::coalitions()
                .iter()
                .map(|c| c.0.to_string()),
        )
        .collect();
    topics.sort();
    topics.dedup();

    // Keep the pairs that need the network: resolved, but not locally.
    let engine = serial();
    let mut base = Vec::new();
    for origin in &origins {
        for topic in &topics {
            let out = engine.find(origin, topic).map_err(|e| e.to_string())?;
            if out.stats.found_at_level.is_some_and(|level| level >= 1) {
                oracle.pairs.push((origin.clone(), topic.clone()));
                base.push(out.leads);
            }
        }
    }
    if oracle.pairs.is_empty() {
        return Err("no (origin, topic) pair resolves remotely".into());
    }

    let all = |engine: &DiscoveryEngine| -> Result<Vec<Vec<Lead>>, String> {
        oracle
            .pairs
            .iter()
            .map(|(o, t)| {
                engine
                    .find(o, t)
                    .map(|out| out.leads)
                    .map_err(|e| e.to_string())
            })
            .collect()
    };
    // Gray-code walk over the membership states, back to 0.
    set(0, true)?;
    let s1 = all(&serial())?;
    set(1, true)?;
    let s3 = all(&serial())?;
    set(0, false)?;
    let s2 = all(&serial())?;
    set(1, false)?;
    oracle.leads = vec![base, s1, s2, s3];
    Ok(())
}
