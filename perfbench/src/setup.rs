//! Workload set-up: generate the data sets from the seed, register and
//! encode them, enumerate the timed executions ("units"), and compute one
//! reference result per query.

use crate::stats::SplitMix;
use rpt_common::{Result, ScalarValue};
use rpt_core::{random_bushy, random_left_deep, Database, JoinOrder, Mode, QueryOptions};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every query of the four data sets, optimizer's plan, RPT and Baseline.
    OptimizerPlans,
    /// Acyclic queries with ≥ 2 joins under seeded random join orders (RPT).
    RandomOrders,
    /// Report-style GROUP BY / ORDER BY queries under a tiny memory budget.
    ReportsUnderBudget,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OptimizerPlans,
        Workload::RandomOrders,
        Workload::ReportsUnderBudget,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OptimizerPlans => "optimizer-plans",
            Workload::RandomOrders => "random-orders",
            Workload::ReportsUnderBudget => "reports-under-budget",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scale factor of the generated data at full scale.
    fn sf(self) -> f64 {
        match self {
            // Sizes put a round of all units at 2.5-4 s, so each unit is
            // timed about 8 times or more per 30 s run and each mode's p90
            // tail has 35 or more samples beyond it.
            Workload::OptimizerPlans => 3.0,
            Workload::RandomOrders => 1.5,
            Workload::ReportsUnderBudget => 4.0,
        }
    }

    fn data_sets(self) -> &'static [DataSet] {
        match self {
            Workload::OptimizerPlans => {
                &[DataSet::Tpch, DataSet::Job, DataSet::Tpcds, DataSet::Dsb]
            }
            Workload::RandomOrders => &[DataSet::Tpch, DataSet::Job, DataSet::Tpcds],
            Workload::ReportsUnderBudget => &[DataSet::Tpch, DataSet::Tpcds],
        }
    }
}

/// Memory budget of `reports-under-budget`, far below every query's
/// working set, so the governor evicts transfer and sort buffers to disk.
pub const MEMORY_BUDGET_BYTES: usize = 4096;

/// Random join orders drawn per query on `random-orders`: half left-deep,
/// half bushy (duplicates are dropped).
pub const ORDERS_PER_QUERY: usize = 6;

/// Times the data sets are generated, registered and encoded per run;
/// `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// One generated benchmark data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSet {
    Tpch,
    Job,
    Tpcds,
    Dsb,
}

impl DataSet {
    fn generate(self, sf: f64, seed: u64) -> rpt_workloads::Workload {
        match self {
            DataSet::Tpch => rpt_workloads::tpch(sf, seed),
            DataSet::Job => rpt_workloads::job(sf, seed),
            DataSet::Tpcds => rpt_workloads::tpcds(sf, seed),
            DataSet::Dsb => rpt_workloads::dsb(sf, seed),
        }
    }

    /// A PK–FK join edge of this data set's largest fact table, used by
    /// the kernel measurements: `(build table, build key, probe table,
    /// probe key)`.
    pub fn kernel_edge(self) -> (&'static str, &'static str, &'static str, &'static str) {
        match self {
            DataSet::Tpch => ("orders", "o_orderkey", "lineitem", "l_orderkey"),
            DataSet::Job => ("title", "id", "cast_info", "movie_id"),
            DataSet::Tpcds | DataSet::Dsb => ("item", "i_item_sk", "store_sales", "ss_item_sk"),
        }
    }
}

/// Report-style queries of `reports-under-budget`: `(data set, id, sql)`.
const REPORT_QUERIES: &[(DataSet, &str, &str)] = &[
    (
        DataSet::Tpch,
        "priority_revenue",
        "SELECT o.o_orderpriority, l.l_returnflag, COUNT(*) AS cnt, \
           SUM(l.l_extendedprice) AS revenue \
         FROM orders o, lineitem l \
         WHERE o.o_orderkey = l.l_orderkey AND o.o_orderdate < 1800 \
         GROUP BY o.o_orderpriority, l.l_returnflag ORDER BY 1, 2",
    ),
    (
        DataSet::Tpch,
        "top_customers",
        "SELECT c.c_custkey, COUNT(*) AS cnt, SUM(l.l_extendedprice) AS revenue \
         FROM customer c, orders o, lineitem l \
         WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey \
           AND l.l_shipdate > 1000 \
         GROUP BY c.c_custkey ORDER BY revenue DESC LIMIT 20",
    ),
    (
        DataSet::Tpch,
        "top_orders",
        "SELECT o.o_orderkey, o.o_totalprice, c.c_mktsegment \
         FROM customer c, orders o \
         WHERE c.c_custkey = o.o_custkey AND o.o_orderdate BETWEEN 300 AND 1500 \
         ORDER BY 2 DESC, 1 LIMIT 50",
    ),
    (
        DataSet::Tpch,
        "wide_lineitem_sort",
        "SELECT l.l_orderkey, l.l_partkey, l.l_suppkey, l.l_quantity, \
           l.l_extendedprice, l.l_shipdate, o.o_orderdate \
         FROM orders o, lineitem l \
         WHERE o.o_orderkey = l.l_orderkey AND o.o_orderdate < 400 \
         ORDER BY l.l_shipdate, l.l_orderkey, l.l_partkey",
    ),
    (
        // Control: one relation, so no transfer buffer to evict, and
        // aggregate tables never spill.
        DataSet::Tpch,
        "supplier_groupby",
        "SELECT l.l_suppkey, COUNT(*) AS cnt, SUM(l.l_quantity) AS qty \
         FROM lineitem l GROUP BY l.l_suppkey",
    ),
    (
        DataSet::Tpcds,
        "brand_profit",
        "SELECT d.d_year, i.i_brand, COUNT(*) AS cnt, SUM(ss.ss_net_profit) AS profit \
         FROM date_dim d, store_sales ss, item i \
         WHERE ss.ss_sold_date_sk = d.d_date_sk AND ss.ss_item_sk = i.i_item_sk \
           AND d.d_moy = 12 \
         GROUP BY d.d_year, i.i_brand ORDER BY 4 DESC, 2, 1 LIMIT 25",
    ),
    (
        DataSet::Tpcds,
        "state_category",
        "SELECT ca.ca_state, i.i_category, COUNT(*) AS cnt, SUM(ss.ss_sales_price) AS sales \
         FROM store_sales ss, customer_address ca, item i \
         WHERE ss.ss_addr_sk = ca.ca_address_sk AND ss.ss_item_sk = i.i_item_sk \
         GROUP BY ca.ca_state, i.i_category ORDER BY 1, 2",
    ),
    (
        DataSet::Tpcds,
        "ticket_sort",
        "SELECT ss.ss_ticket_number, ss.ss_item_sk, ss.ss_quantity, ss.ss_net_profit \
         FROM store_sales ss, date_dim d \
         WHERE ss.ss_sold_date_sk = d.d_date_sk AND d.d_moy = 1 AND ss.ss_quantity > 50 \
         ORDER BY 1, 2, 3",
    ),
];

/// One registered data set.
pub struct Db {
    pub data_set: DataSet,
    pub name: &'static str,
    pub db: Database,
    pub queries: Vec<rpt_workloads::QueryDef>,
}

/// One query of the workload with its reference result.
pub struct Query {
    pub db: usize,
    /// `<data set>/<query id>`.
    pub id: String,
    pub sql: String,
    /// Compared in output order (ORDER BY) rather than as a multiset.
    pub ordered: bool,
    /// Bytes of the distinct tables the query reads (`Table::size_bytes`).
    pub input_bytes: u64,
    /// Baseline mode, optimizer's plan, no memory budget.
    pub reference: Vec<Vec<ScalarValue>>,
}

/// One timed execution shape: a query under one mode and join order.
pub struct Unit {
    pub query: usize,
    pub mode: Mode,
    /// `None`: the optimizer chooses.
    pub order: Option<JoinOrder>,
    pub opts: QueryOptions,
}

/// Wall times of one set-up repetition, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: f64,
    pub register: f64,
    pub encode: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.register + self.encode
    }
}

pub struct Setup {
    pub workload: Workload,
    pub sf: f64,
    pub dbs: Vec<Db>,
    pub queries: Vec<Query>,
    pub units: Vec<Unit>,
    /// One entry per repetition.
    pub times: Vec<SetupTimes>,
    /// Seconds spent computing the reference results (not in `setup_s`).
    pub reference_s: f64,
}

/// Seeds derived from `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub data: u64,
    pub orders: u64,
    /// Shuffles the order in which each round visits the units.
    pub visits: u64,
}

impl Seeds {
    pub fn from_seed(seed: u64) -> Seeds {
        let mut rng = SplitMix::new(seed);
        Seeds {
            data: seed,
            orders: rng.next_u64(),
            visits: rng.next_u64(),
        }
    }
}

/// Generate, register and encode every data set of `workload` once.
fn load(workload: Workload, sf: f64, seed: u64) -> (Vec<Db>, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut dbs = Vec::new();
    for &data_set in workload.data_sets() {
        let t = Instant::now();
        let generated = data_set.generate(sf, seed);
        times.generate += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut db = Database::new();
        for table in generated.tables {
            db.register_table(table);
        }
        times.register += t.elapsed().as_secs_f64();

        // Build every table's lazily cached block encoding now, so the
        // first timed query to scan a table is not charged for it.
        let t = Instant::now();
        for name in db.catalog().table_names() {
            let entry = db.catalog().get(name).expect("listed table is registered");
            std::hint::black_box(entry.table.encoded());
        }
        times.encode += t.elapsed().as_secs_f64();

        dbs.push(Db {
            data_set,
            name: generated.name,
            db,
            queries: generated.queries,
        });
    }
    (dbs, times)
}

/// `(data set index, id, sql)` of every query the workload runs.
fn query_texts(workload: Workload, dbs: &[Db]) -> Vec<(usize, String, String)> {
    let mut out = Vec::new();
    for (i, d) in dbs.iter().enumerate() {
        if workload == Workload::ReportsUnderBudget {
            for (set, id, sql) in REPORT_QUERIES {
                if *set == d.data_set {
                    out.push((i, id.to_string(), sql.to_string()));
                }
            }
            continue;
        }
        for q in &d.queries {
            if workload == Workload::RandomOrders && (q.cyclic || q.num_joins < 2) {
                continue;
            }
            out.push((i, q.id.clone(), q.sql.clone()));
        }
    }
    out
}

/// Canonical form of a result for comparison: output order when the
/// query orders its rows, otherwise sorted.
pub fn canonical(rows: Vec<Vec<ScalarValue>>, ordered: bool) -> Vec<Vec<ScalarValue>> {
    let mut rows = rows;
    if !ordered {
        rows.sort_by(|a, b| crate::check::cmp_rows(a, b));
    }
    rows
}

/// Set up `workload` at `scale` × its full scale factor.
pub fn setup(workload: Workload, seeds: Seeds, scale: f64) -> Result<Setup> {
    let sf = workload.sf() * scale;
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut dbs = Vec::new();
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition first so peak memory holds one copy.
        drop(std::mem::take(&mut dbs));
        let (loaded, t) = load(workload, sf, seeds.data);
        dbs = loaded;
        times.push(t);
    }

    let t = Instant::now();
    let mut queries = Vec::new();
    let mut units = Vec::new();
    let mut order_rng = SplitMix::new(seeds.orders);
    for (db_idx, id, sql) in query_texts(workload, &dbs) {
        let db = &dbs[db_idx].db;
        let bound = db.bind_sql(&sql)?;
        let mut tables: Vec<_> = bound.relations.iter().map(|r| r.table.clone()).collect();
        tables.sort_by(|a, b| a.name.cmp(&b.name));
        tables.dedup_by(|a, b| a.name == b.name);
        let input_bytes = tables.iter().map(|t| t.size_bytes() as u64).sum();
        let ordered = !bound.order_by.is_empty();
        let reference = db.execute(&bound, &QueryOptions::new(Mode::Baseline))?;
        let q = queries.len();
        queries.push(Query {
            db: db_idx,
            id: format!("{}/{}", dbs[db_idx].name, id),
            sql,
            ordered,
            input_bytes,
            reference: canonical(reference.rows, ordered),
        });

        let budget = (workload == Workload::ReportsUnderBudget).then_some(MEMORY_BUDGET_BYTES);
        let opts = |mode| QueryOptions::new(mode).with_memory_budget(budget);
        units.push(Unit {
            query: q,
            mode: Mode::Baseline,
            order: None,
            opts: opts(Mode::Baseline),
        });
        if workload != Workload::RandomOrders {
            units.push(Unit {
                query: q,
                mode: Mode::RobustPredicateTransfer,
                order: None,
                opts: opts(Mode::RobustPredicateTransfer),
            });
            continue;
        }
        let graph = bound.graph();
        let mut orders: Vec<JoinOrder> = Vec::new();
        for k in 0..ORDERS_PER_QUERY {
            let s = order_rng.next_u64();
            let order = if k % 2 == 0 {
                JoinOrder::LeftDeep(random_left_deep(&graph, s))
            } else {
                JoinOrder::Bushy(random_bushy(&graph, s))
            };
            if !orders.contains(&order) {
                orders.push(order);
            }
        }
        for order in orders {
            units.push(Unit {
                query: q,
                mode: Mode::RobustPredicateTransfer,
                opts: opts(Mode::RobustPredicateTransfer).with_order(order.clone()),
                order: Some(order),
            });
        }
    }
    Ok(Setup {
        workload,
        sf,
        dbs,
        queries,
        units,
        times,
        reference_s: t.elapsed().as_secs_f64(),
    })
}
