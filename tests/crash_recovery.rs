//! Durability tests: WAL replay recovers heaps; indexes — which, like
//! PostgreSQL-7.4 GiST (paper §4.2.1), are *not* WAL-logged — are rebuilt
//! from the recovered heaps and must serve queries correctly afterwards.

use mlql::kernel::{Engine, Session};
use mlql::mural::install;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mlql-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open_mural(dir: &PathBuf) -> (Session, mlql::mural::Mural) {
    let mut slot = None;
    let db = Engine::open(dir, |e| {
        slot = Some(install(e)?);
        Ok(())
    })
    .unwrap()
    .connect();
    (db, slot.unwrap())
}

#[test]
fn multilingual_data_survives_crash() {
    let dir = tmpdir("crash");
    {
        let (mut db, _mural) = open_mural(&dir);
        db.execute("CREATE TABLE book (author UNITEXT, price FLOAT)")
            .unwrap();
        db.execute("CREATE INDEX book_mt ON book (author) USING mtree")
            .unwrap();
        for (n, l) in [("Nehru", "English"), ("नेहरू", "Hindi"), ("நேரு", "Tamil")]
        {
            db.execute(&format!(
                "INSERT INTO book VALUES (unitext('{n}','{l}'), 10.0)"
            ))
            .unwrap();
        }
        db.execute("DELETE FROM book WHERE price > 100.0").unwrap(); // no-op delete logged
                                                                     // No clean shutdown: drop emulates a crash (the WAL has everything).
    }
    let (mut db, _mural) = open_mural(&dir);
    db.execute("SET lexequal.threshold = 2").unwrap();
    let n = db.query("SELECT count(*) FROM book").unwrap();
    assert_eq!(n[0][0].as_int(), Some(3));
    // The M-Tree was rebuilt during replay (CREATE INDEX re-ran, inserts
    // re-applied); force the index path to prove it serves queries.
    db.execute("SET enable_seqscan = 0").unwrap();
    let r = db
        .execute("SELECT count(*) FROM book WHERE author LEXEQUAL unitext('Nehru','English')")
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(3));
    assert!(r.explain.unwrap().contains("Index Scan"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deletes_replay_correctly() {
    let dir = tmpdir("deletes");
    {
        let mut db = Engine::open(&dir, |_| Ok(())).unwrap().connect();
        db.execute("CREATE TABLE t (id INT, tag TEXT)").unwrap();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'keep')"))
                .unwrap();
        }
        db.execute("DELETE FROM t WHERE id < 5").unwrap();
        db.execute("INSERT INTO t VALUES (100, 'late')").unwrap();
    }
    let mut db = Engine::open(&dir, |_| Ok(())).unwrap().connect();
    let n = db.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(n[0][0].as_int(), Some(16));
    let late = db.query("SELECT count(*) FROM t WHERE id = 100").unwrap();
    assert_eq!(late[0][0].as_int(), Some(1));
    let gone = db.query("SELECT count(*) FROM t WHERE id < 5").unwrap();
    assert_eq!(gone[0][0].as_int(), Some(0));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_reopen_is_idempotent() {
    let dir = tmpdir("reopen");
    {
        let mut db = Engine::open(&dir, |_| Ok(())).unwrap().connect();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    }
    for _ in 0..3 {
        let mut db = Engine::open(&dir, |_| Ok(())).unwrap().connect();
        let n = db.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(n[0][0].as_int(), Some(2), "reopen must not duplicate rows");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manual_index_rebuild_matches_fresh_build() {
    // The recovery path for non-WAL-logged indexes, exercised directly.
    let engine = Engine::in_memory();
    install(&engine).unwrap();
    let mut db = engine.connect();
    db.execute("CREATE TABLE t (v UNITEXT)").unwrap();
    db.execute("CREATE INDEX t_mt ON t (v) USING mtree")
        .unwrap();
    for i in 0..200 {
        db.execute(&format!(
            "INSERT INTO t VALUES (unitext('name{i}','English'))"
        ))
        .unwrap();
    }
    db.execute("SET lexequal.threshold = 1").unwrap();
    db.execute("SET enable_seqscan = 0").unwrap();
    let before = db
        .query("SELECT count(*) FROM t WHERE v LEXEQUAL unitext('name5','English')")
        .unwrap();
    db.engine().rebuild_indexes().unwrap();
    let after = db
        .query("SELECT count(*) FROM t WHERE v LEXEQUAL unitext('name5','English')")
        .unwrap();
    assert!(before[0][0].eq_sql(&after[0][0]));
    assert!(before[0][0].as_int().unwrap() >= 1);
}

/// A crash with one committed and one still-open transaction in the WAL
/// tail: replay must keep every row of the committed transaction, drop
/// every row of the uncommitted one (no orphan versions reachable by any
/// scan, ψ scans included), and rebuild indexes from the surviving heap
/// only.
#[test]
fn committed_txn_survives_crash_uncommitted_is_dropped() {
    let dir = tmpdir("txn-tail");
    {
        let (db, _mural) = open_mural(&dir);
        let mut setup = db.engine().connect();
        setup
            .execute("CREATE TABLE book (author UNITEXT, price FLOAT)")
            .unwrap();
        setup
            .execute("CREATE INDEX book_mt ON book (author) USING mtree")
            .unwrap();
        setup
            .execute("INSERT INTO book VALUES (unitext('Miller','English'), 1.0)")
            .unwrap();

        // Transaction A: three cross-script homophones, committed.
        let mut a = db.engine().connect();
        a.execute("BEGIN").unwrap();
        for (n, l) in [("Nehru", "English"), ("नेहरू", "Hindi"), ("நேரு", "Tamil")]
        {
            a.execute(&format!(
                "INSERT INTO book VALUES (unitext('{n}','{l}'), 10.0)"
            ))
            .unwrap();
        }
        a.execute("COMMIT").unwrap();

        // Transaction B: in flight at the crash — never committed.  The
        // session is leaked so not even an Abort record reaches the log:
        // the WAL tail ends with bare in-flight DML, exactly what a kill
        // mid-transaction leaves behind.
        let mut b = db.engine().connect();
        b.execute("BEGIN").unwrap();
        for i in 0..3 {
            b.execute(&format!(
                "INSERT INTO book VALUES (unitext('Orphan{i}','English'), 66.0)"
            ))
            .unwrap();
        }
        b.execute("DELETE FROM book WHERE price = 1.0").unwrap();
        std::mem::forget(b);
        // No clean shutdown: drop emulates the crash.
    }
    let (mut db, _mural) = open_mural(&dir);
    db.execute("SET lexequal.threshold = 2").unwrap();
    // A's rows survived; B's inserts are gone and B's delete never
    // happened — the pre-crash row is still there.
    assert_eq!(
        db.query("SELECT count(*) FROM book").unwrap()[0][0].as_int(),
        Some(4)
    );
    assert_eq!(
        db.query("SELECT count(*) FROM book WHERE price = 66.0")
            .unwrap()[0][0]
            .as_int(),
        Some(0),
        "uncommitted insert leaked through recovery"
    );
    assert_eq!(
        db.query("SELECT count(*) FROM book WHERE price = 1.0")
            .unwrap()[0][0]
            .as_int(),
        Some(1),
        "uncommitted delete was replayed"
    );
    // ψ through the rebuilt index: exactly the committed homophones.
    db.execute("SET enable_seqscan = 0").unwrap();
    let r = db
        .execute("SELECT count(*) FROM book WHERE author LEXEQUAL unitext('Nehru','English')")
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(3));
    assert!(r.explain.unwrap().contains("Index Scan"));
    // And a second reopen stays put (replay is idempotent on the mix).
    drop(db);
    let (mut db, _mural) = open_mural(&dir);
    assert_eq!(
        db.query("SELECT count(*) FROM book").unwrap()[0][0].as_int(),
        Some(4)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Same shape, but the open transaction's session is dropped normally, so
/// an Abort record *does* reach the WAL: replay must treat "aborted" and
/// "vanished" identically — only Commit records make work durable.
#[test]
fn aborted_txn_in_wal_tail_is_dropped_on_recovery() {
    let dir = tmpdir("txn-abort-tail");
    {
        let mut db = Engine::open(&dir, |_| Ok(())).unwrap().connect();
        db.execute("CREATE TABLE t (id INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let db = db; // sessions below borrow the engine
        let mut a = db.engine().connect();
        a.execute("BEGIN").unwrap();
        a.execute("INSERT INTO t VALUES (2)").unwrap();
        a.execute("COMMIT").unwrap();
        let mut b = db.engine().connect();
        b.execute("BEGIN").unwrap();
        b.execute("INSERT INTO t VALUES (3)").unwrap();
        drop(b); // logs Abort, crash before any checkpoint
    }
    let mut db = Engine::open(&dir, |_| Ok(())).unwrap().connect();
    let mut ids: Vec<i64> = db
        .query("SELECT id FROM t")
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2], "only committed work may survive");
    std::fs::remove_dir_all(&dir).unwrap();
}
