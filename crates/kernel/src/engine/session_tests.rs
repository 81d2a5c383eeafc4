//! Statement-level behaviour of sessions: CRUD, joins and join
//! strategies, DISTINCT, EXPLAIN [ANALYZE], scripts, durable reopen and
//! index rebuild, and per-session variables.

use super::*;

/// A fresh in-memory session with `script` already run.
fn db_with(script: &str) -> Session {
    let mut db = Engine::in_memory().connect();
    db.execute_script(script).unwrap();
    db
}

/// One `INSERT INTO table VALUES row(0), …, row(n - 1)` statement.
fn insert_rows(db: &mut Session, table: &str, n: usize, row: impl Fn(usize) -> String) {
    let values: Vec<String> = (0..n).map(row).collect();
    let sql = format!("INSERT INTO {table} VALUES {}", values.join(", "));
    db.execute(&sql).unwrap();
}

/// How many rows `sql` returns.
fn len(db: &mut Session, sql: &str) -> usize {
    db.query(sql).unwrap().len()
}

/// The first column of the first row, as an integer.
fn int(db: &mut Session, sql: &str) -> Option<i64> {
    db.query(sql).unwrap()[0][0].as_int()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mlql-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn create_insert_select_roundtrip() {
    let mut db = db_with(
        "CREATE TABLE t (id INT, name TEXT, price FLOAT);
         INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5)",
    );
    let r = db.execute("SELECT name FROM t WHERE id = 2").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0].as_text(), Some("two"));
}

#[test]
fn count_star_and_where() {
    let mut db = db_with("CREATE TABLE t (id INT)");
    insert_rows(&mut db, "t", 25, |i| format!("({i})"));
    let q = "SELECT count(*) FROM t WHERE id >= 20";
    assert_eq!(int(&mut db, q), Some(5));
}

#[test]
fn join_query() {
    let mut db = db_with(
        "CREATE TABLE a (id INT, x TEXT); CREATE TABLE b (id INT, y TEXT);
         INSERT INTO a VALUES (1, 'a1'), (2, 'a2'); INSERT INTO b VALUES (2, 'b2'), (3, 'b3')",
    );
    let q = "SELECT a.x, b.y FROM a, b WHERE a.id = b.id";
    let r = db.query(q).unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0].as_text(), Some("a2"));
    assert_eq!(r[0][1].as_text(), Some("b2"));
}

#[test]
fn explicit_join_syntax() {
    let mut db = db_with(
        "CREATE TABLE a (id INT); CREATE TABLE b (id INT);
         INSERT INTO a VALUES (1), (2), (3); INSERT INTO b VALUES (2), (3), (4)",
    );
    let q = "SELECT count(*) FROM a JOIN b ON a.id = b.id";
    assert_eq!(int(&mut db, q), Some(2));
}

#[test]
fn group_by_and_order_by() {
    let mut db = db_with(
        "CREATE TABLE t (k TEXT, v INT); INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 5)",
    );
    let q = "SELECT k, count(*), sum(v) FROM t GROUP BY k";
    assert_eq!(db.query(q).unwrap().len(), 2);
    let top = db.query("SELECT v FROM t ORDER BY v DESC LIMIT 2").unwrap();
    assert_eq!(top[0][0].as_int(), Some(5));
    assert_eq!(top.len(), 2);
}

#[test]
fn delete_and_recount() {
    let mut db = db_with("CREATE TABLE t (id INT); INSERT INTO t VALUES (1), (2), (3)");
    let r = db.execute("DELETE FROM t WHERE id < 3").unwrap();
    assert_eq!(r.affected, 2);
    assert_eq!(int(&mut db, "SELECT count(*) FROM t"), Some(1));
}

#[test]
fn btree_index_used_for_point_query() {
    let mut db = db_with("CREATE TABLE t (id INT, v TEXT)");
    insert_rows(&mut db, "t", 2000, |i| format!("({i}, 'v{i}')"));
    db.execute_script("CREATE INDEX t_id ON t (id) USING btree; ANALYZE t")
        .unwrap();
    let r = db.execute("EXPLAIN SELECT v FROM t WHERE id = 77").unwrap();
    let text = r.explain.unwrap();
    assert!(text.contains("Index Scan"), "plan was:\n{text}");
    let r = db.query("SELECT v FROM t WHERE id = 77").unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0].as_text(), Some("v77"));
}

#[test]
fn set_and_show() {
    let mut db = db_with("SET lexequal.threshold = 3");
    let r = db.execute("SHOW lexequal.threshold").unwrap();
    assert_eq!(r.rows[0][0].as_text(), Some("3"));
}

#[test]
fn analyze_populates_stats() {
    let mut db = db_with("CREATE TABLE t (id INT)");
    insert_rows(&mut db, "t", 500, |i| format!("({})", i % 50));
    db.execute("ANALYZE t").unwrap();
    let meta = db.engine().catalog().table("t").unwrap();
    let stats = meta.stats.lock().clone();
    assert_eq!(stats.rows, 500);
    assert!(stats.pages >= 1);
    let col = stats.column(0).unwrap();
    assert!((col.n_distinct - 50.0).abs() < 1e-9);
}

#[test]
fn explain_returns_plan_text() {
    let mut db = db_with("CREATE TABLE t (id INT)");
    let q = "EXPLAIN SELECT count(*) FROM t WHERE id = 1";
    let text = db.execute(q).unwrap().explain.unwrap();
    assert!(text.contains("Aggregate"));
    assert!(text.contains("Seq Scan"));
}

#[test]
fn durable_database_recovers() {
    let dir = tmpdir("db");
    Engine::open(&dir, |_| Ok(()))
        .unwrap()
        .connect()
        .execute_script(
            "CREATE TABLE t (id INT, name TEXT); CREATE INDEX t_id ON t (id) USING btree;
             INSERT INTO t VALUES (1, 'one'), (2, 'two'); DELETE FROM t WHERE id = 1",
        )
        .unwrap(); // crash (no clean shutdown needed)
    let mut db = Engine::open(&dir, |_| Ok(())).unwrap().connect();
    let r = db.query("SELECT name FROM t").unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0].as_text(), Some("two"));
    // The index was rebuilt during replay and is usable.
    assert_eq!(len(&mut db, "SELECT name FROM t WHERE id = 2"), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn runtime_stats_reported() {
    let mut db = db_with("CREATE TABLE t (id INT)");
    insert_rows(&mut db, "t", 100, |i| format!("({i})"));
    let r = db.execute("SELECT count(*) FROM t").unwrap();
    assert!(r.stats.io.logical_reads > 0);
    assert!(r.stats.est_cost.unwrap() > 0.0);
}

#[test]
fn insert_type_checks() {
    let mut db = db_with("CREATE TABLE t (id INT, name TEXT)");
    assert!(db.execute("INSERT INTO t VALUES ('oops', 3)").is_err());
    assert!(db.execute("INSERT INTO t VALUES (1)").is_err());
    // Int widens into float columns.
    db.execute_script("CREATE TABLE f (x FLOAT); INSERT INTO f VALUES (3)")
        .unwrap();
}

#[test]
fn index_rebuild_helper() {
    let mut db = db_with(
        "CREATE TABLE t (id INT); CREATE INDEX t_id ON t (id) USING btree;
         INSERT INTO t VALUES (1), (2)",
    );
    db.engine().rebuild_indexes().unwrap();
    assert_eq!(int(&mut db, "SELECT count(*) FROM t WHERE id = 1"), Some(1));
}

#[test]
fn connect_opens_independent_sessions() {
    let mut db = db_with("CREATE TABLE t (id INT); INSERT INTO t VALUES (1), (2)");
    db.engine()
        .catalog_mut()
        .set_session_default("max_rows", Datum::Int(99));
    db.execute("SET max_rows = 7").unwrap();
    let mut other = db.engine().connect();
    // Vars start from the catalog's defaults, not from another session's
    // settings, then diverge.
    assert_eq!(other.vars().get_int("max_rows", 0), 99);
    other.execute("SET max_rows = 1").unwrap();
    assert_eq!(db.vars().get_int("max_rows", 0), 7);
    // Both see the shared data.
    assert_eq!(int(&mut other, "SELECT count(*) FROM t"), Some(2));
}

#[test]
fn update_basic_and_filtered() {
    let mut db =
        db_with("CREATE TABLE t (id INT, v TEXT); INSERT INTO t VALUES (1,'a'), (2,'b'), (3,'c')");
    let r = db.execute("UPDATE t SET v = 'X' WHERE id >= 2").unwrap();
    assert_eq!(r.affected, 2);
    let rows = db.query("SELECT v FROM t ORDER BY id").unwrap();
    let vals: Vec<&str> = rows.iter().map(|r| r[0].as_text().unwrap()).collect();
    assert_eq!(vals, vec!["a", "X", "X"]);
    // Expression referencing the old row value.
    db.execute("UPDATE t SET id = id + 10").unwrap();
    assert_eq!(int(&mut db, "SELECT id FROM t ORDER BY id"), Some(11));
}

#[test]
fn update_maintains_indexes() {
    let mut db = db_with("CREATE TABLE t (id INT); CREATE INDEX t_id ON t (id) USING btree");
    insert_rows(&mut db, "t", 500, |i| format!("({i})"));
    db.execute_script("ANALYZE t; UPDATE t SET id = 9999 WHERE id = 7; SET enable_seqscan = 0")
        .unwrap();
    assert_eq!(int(&mut db, "SELECT count(*) FROM t WHERE id = 7"), Some(0));
    let q = "SELECT count(*) FROM t WHERE id = 9999";
    assert_eq!(int(&mut db, q), Some(1));
}

#[test]
fn update_type_checks() {
    let mut db = db_with("CREATE TABLE t (id INT); INSERT INTO t VALUES (1)");
    assert!(db.execute("UPDATE t SET id = 'nope'").is_err());
    // Row unchanged after the failed update.
    assert_eq!(int(&mut db, "SELECT id FROM t"), Some(1));
}

#[test]
fn insert_select_copies_with_transform() {
    let mut db = db_with(
        "CREATE TABLE src (id INT, v TEXT); CREATE TABLE dst (id INT, v TEXT);
         INSERT INTO src VALUES (1,'a'), (2,'b'), (3,'c')",
    );
    let r = db.execute("INSERT INTO dst SELECT id + 100, v FROM src WHERE id < 3");
    assert_eq!(r.unwrap().affected, 2);
    let rows = db.query("SELECT id FROM dst ORDER BY id").unwrap();
    assert_eq!(rows[0][0].as_int(), Some(101));
    assert_eq!(rows[1][0].as_int(), Some(102));
}

#[test]
fn insert_select_self_referencing_snapshot() {
    // INSERT INTO t SELECT FROM t must read a snapshot, not loop.
    let mut db = db_with("CREATE TABLE t (id INT); INSERT INTO t VALUES (1), (2)");
    let r = db.execute("INSERT INTO t SELECT id + 10 FROM t").unwrap();
    assert_eq!(r.affected, 2);
    assert_eq!(int(&mut db, "SELECT count(*) FROM t"), Some(4));
}

#[test]
fn select_distinct_deduplicates() {
    let mut db = db_with(
        "CREATE TABLE t (v TEXT, n INT); INSERT INTO t VALUES ('a',1), ('a',1), ('a',2), ('b',1)",
    );
    assert_eq!(len(&mut db, "SELECT DISTINCT v FROM t"), 2);
    assert_eq!(len(&mut db, "SELECT DISTINCT v, n FROM t"), 3);
    // Plain select keeps duplicates.
    assert_eq!(len(&mut db, "SELECT v FROM t"), 4);
    // DISTINCT with WHERE composes.
    assert_eq!(len(&mut db, "SELECT DISTINCT v FROM t WHERE n = 1"), 2);
}

#[test]
fn distinct_star_and_limit() {
    let mut db = db_with("CREATE TABLE t (v INT); INSERT INTO t VALUES (1), (1), (2), (2), (3)");
    assert_eq!(len(&mut db, "SELECT DISTINCT * FROM t"), 3);
    assert_eq!(len(&mut db, "SELECT DISTINCT v FROM t LIMIT 2"), 2);
}

#[test]
fn explain_analyze_reports_actuals() {
    let mut db = db_with("CREATE TABLE t (id INT)");
    insert_rows(&mut db, "t", 500, |i| format!("({i})"));
    let r = db.execute("EXPLAIN ANALYZE SELECT count(*) FROM t WHERE id < 100");
    let text = r.unwrap().explain.unwrap();
    assert!(text.contains("Seq Scan"), "{text}");
    assert!(text.contains("Actual: rows=1"), "{text}");
    assert!(text.contains("logical_reads="), "{text}");
}

#[test]
fn execute_script_runs_statements_in_order() {
    let mut db = Engine::in_memory().connect();
    let last = db
        .execute_script(
            "CREATE TABLE t (v TEXT); \
             INSERT INTO t VALUES ('a;b'); -- semicolon inside a string\n \
             INSERT INTO t VALUES ('c'); \
             SELECT count(*) FROM t",
        )
        .unwrap();
    assert_eq!(last.rows[0][0].as_int(), Some(2));
    let v = db.query("SELECT v FROM t ORDER BY v LIMIT 1").unwrap();
    assert_eq!(v[0][0].as_text(), Some("a;b"));
}

/// All join strategies (hash, NL materialized, NL rescanning) must
/// return identical results; force each with the enable flags.
#[test]
fn join_strategies_agree() {
    let mut db = db_with("CREATE TABLE a (id INT, v TEXT); CREATE TABLE b (id INT, w TEXT)");
    insert_rows(&mut db, "a", 200, |i| format!("({}, 'a{i}')", i % 50));
    insert_rows(&mut db, "b", 80, |i| format!("({}, 'b{i}')", i % 50));
    db.execute_script("ANALYZE a; ANALYZE b").unwrap();
    let q = "SELECT count(*) FROM a, b WHERE a.id = b.id";

    let hash = db.query(q).unwrap()[0][0].clone();
    db.execute("SET enable_hashjoin = 0").unwrap();
    let plan = db.plan_select(q).unwrap().explain();
    assert!(plan.contains("Nested Loop"), "{plan}");
    let nl_mat = db.query(q).unwrap()[0][0].clone();
    db.execute("SET enable_material = 0").unwrap();
    let plan = db.plan_select(q).unwrap().explain();
    assert!(!plan.contains("materialized"), "{plan}");
    let nl_rescan = db.query(q).unwrap()[0][0].clone();
    assert!(hash.eq_sql(&nl_mat), "{hash} vs {nl_mat}");
    assert!(hash.eq_sql(&nl_rescan), "{hash} vs {nl_rescan}");
    // Sanity: the count is the expected 200*80/50 ≈ join on mod-50 keys.
    assert!(hash.eq_sql(&Datum::Int(320)));
}

/// Residual predicates on hash joins are re-checked per match.
#[test]
fn hash_join_residual_filter() {
    let mut db = db_with("CREATE TABLE a (id INT, x INT); CREATE TABLE b (id INT, y INT)");
    insert_rows(&mut db, "a", 100, |i| format!("({i}, {})", i * 2));
    insert_rows(&mut db, "b", 100, |i| format!("({i}, {})", i * 3));
    db.execute_script("ANALYZE a; ANALYZE b").unwrap();
    let q = "SELECT count(*) FROM a, b WHERE a.id = b.id AND a.x < b.y";
    let plan = db.plan_select(q).unwrap().explain();
    assert!(plan.contains("Hash Join"), "{plan}");
    // x < y ⇔ 2i < 3i ⇔ i > 0 → 99 matches.
    assert_eq!(int(&mut db, q), Some(99));
}

#[test]
fn comments_with_semicolons_do_not_split() {
    let mut db = Engine::in_memory().connect();
    let last = db
        .execute_script(
            "CREATE TABLE t (v INT); -- not a statement; really not\nINSERT INTO t VALUES (1); SELECT count(*) FROM t",
        )
        .unwrap();
    assert_eq!(last.rows[0][0].as_int(), Some(1));
}

/// Opening an engine leaves no session behind: the first real session's
/// `SHOW ACTIVITY` lists itself only, whether the engine is in memory or
/// recovered (recovery replays through a session that is dropped before
/// `open` returns).
#[test]
fn opening_an_engine_creates_no_hidden_session() {
    let dir = tmpdir("engine-open");
    Engine::open(&dir, |_| Ok(()))
        .unwrap()
        .connect()
        .execute_script("CREATE TABLE t (id INT); INSERT INTO t VALUES (1)")
        .unwrap();
    let recovered = Engine::open(&dir, |_| Ok(())).unwrap();
    for engine in [Engine::in_memory(), recovered] {
        let rows = engine.connect().execute("SHOW ACTIVITY").unwrap().rows;
        assert_eq!(rows.len(), 1, "only the issuing session: {rows:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
