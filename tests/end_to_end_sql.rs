//! End-to-end SQL tests through the umbrella crate: the full pipeline
//! (parse → bind → optimize → execute) over multilingual data.

use mlql::kernel::{Datum, Engine, Session};
use mlql::mural::install;

fn db() -> Session {
    let engine = Engine::in_memory();
    install(&engine).unwrap();
    engine.connect()
}

#[test]
fn full_books_scenario() {
    let mut db = db();
    db.execute("CREATE TABLE book (id INT, author UNITEXT, category UNITEXT, price FLOAT)")
        .unwrap();
    let rows = [
        (1, "Nehru", "English", "History", "English", 15.0),
        (2, "नेहरू", "Hindi", "History", "English", 9.0),
        (3, "நேரு", "Tamil", "சரித்திரம்", "Tamil", 8.0),
        (4, "Gandhi", "English", "Autobiography", "English", 14.0),
        (5, "Tolkien", "English", "Novel", "English", 18.0),
    ];
    for (id, author, alang, cat, clang, price) in rows {
        db.execute(&format!(
            "INSERT INTO book VALUES ({id}, unitext('{author}','{alang}'), unitext('{cat}','{clang}'), {price})"
        ))
        .unwrap();
    }
    db.execute("ANALYZE book").unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();

    // ψ across three scripts.
    let r = db
        .query("SELECT id FROM book WHERE author LEXEQUAL unitext('Nehru','English') ORDER BY id")
        .unwrap();
    let ids: Vec<i64> = r.iter().map(|row| row[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![1, 2, 3]);

    // Ω pulls everything under History, including the Tamil equivalent.
    let r = db
        .query("SELECT count(*) FROM book WHERE category SEMEQUAL unitext('History','English')")
        .unwrap();
    assert_eq!(r[0][0].as_int(), Some(4));

    // ψ + ordinary predicate compose.
    let r = db
        .query(
            "SELECT count(*) FROM book WHERE author LEXEQUAL unitext('Nehru','English') AND price < 10.0",
        )
        .unwrap();
    assert_eq!(r[0][0].as_int(), Some(2));
}

#[test]
fn operator_is_first_class_in_joins() {
    let mut db = db();
    db.execute("CREATE TABLE a (n UNITEXT)").unwrap();
    db.execute("CREATE TABLE b (n UNITEXT)").unwrap();
    db.execute("INSERT INTO a VALUES (unitext('Nehru','English')), (unitext('Patel','English'))")
        .unwrap();
    db.execute("INSERT INTO b VALUES (unitext('நேரு','Tamil')), (unitext('Meyer','German'))")
        .unwrap();
    db.execute("SET lexequal.threshold = 2").unwrap();
    // ψ as a join predicate (Example 3 of the paper).
    let r = db
        .query("SELECT count(*) FROM a, b WHERE a.n LEXEQUAL b.n")
        .unwrap();
    assert_eq!(r[0][0].as_int(), Some(1));
    // Commutativity (Table 1): swapping operand sides gives the same count.
    let r2 = db
        .query("SELECT count(*) FROM a, b WHERE b.n LEXEQUAL a.n")
        .unwrap();
    assert_eq!(r2[0][0].as_int(), Some(1));
}

#[test]
fn threshold_is_session_scoped() {
    let mut db = db();
    db.execute("CREATE TABLE t (n UNITEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (unitext('Miller','English'))")
        .unwrap();
    // d(/miler/, /mila/) = 2: visible at threshold 2, not at 1.
    for (k, expect) in [(1i64, 0i64), (2, 1)] {
        db.execute(&format!("SET lexequal.threshold = {k}"))
            .unwrap();
        let r = db
            .query("SELECT count(*) FROM t WHERE n LEXEQUAL unitext('Mila','English')")
            .unwrap();
        assert_eq!(r[0][0].as_int(), Some(expect), "threshold {k}");
    }
}

#[test]
fn uniteq_identity_vs_text_equality() {
    let mut db = db();
    db.execute("CREATE TABLE t (v UNITEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (unitext('History','English'))")
        .unwrap();
    db.execute("INSERT INTO t VALUES (unitext('History','French'))")
        .unwrap();
    // Text `=` sees only the text component (§3.2.1): both rows.
    let eq = db
        .query("SELECT count(*) FROM t WHERE v = unitext('History','English')")
        .unwrap();
    assert_eq!(eq[0][0].as_int(), Some(2));
    // ≐ compares both components: one row.
    let ident = db
        .query("SELECT count(*) FROM t WHERE v UNITEQ unitext('History','English')")
        .unwrap();
    assert_eq!(ident[0][0].as_int(), Some(1));
}

#[test]
fn nulls_and_errors() {
    let mut db = db();
    db.execute("CREATE TABLE t (v UNITEXT, n INT)").unwrap();
    db.execute("INSERT INTO t VALUES (unitext('x','English'), NULL)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (NULL, 1)").unwrap();
    // NULL never matches ψ.
    let r = db
        .query("SELECT count(*) FROM t WHERE v LEXEQUAL unitext('x','English')")
        .unwrap();
    assert_eq!(r[0][0].as_int(), Some(1));
    let r = db.query("SELECT count(*) FROM t WHERE v IS NULL").unwrap();
    assert_eq!(r[0][0].as_int(), Some(1));
    // Unknown language in the constructor is an execution error.
    assert!(db
        .execute("SELECT count(*) FROM t WHERE v LEXEQUAL unitext('x','Qqq')")
        .is_err());
    // Unknown operator is a binder error.
    assert!(db
        .execute("SELECT * FROM t WHERE v FOO unitext('x','English')")
        .is_err());
}

#[test]
fn explain_shows_extension_operator_and_costs() {
    let mut db = db();
    db.execute("CREATE TABLE t (v UNITEXT)").unwrap();
    for i in 0..100 {
        db.execute(&format!(
            "INSERT INTO t VALUES (unitext('name{i}','English'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE t").unwrap();
    let r = db
        .execute("EXPLAIN SELECT count(*) FROM t WHERE v LEXEQUAL unitext('name1','English') IN (English)")
        .unwrap();
    let text = r.explain.unwrap();
    assert!(text.contains("LEXEQUAL"), "{text}");
    assert!(text.contains("IN (English)"), "{text}");
    assert!(text.contains("cost="), "{text}");
}

#[test]
fn aggregates_group_by_language() {
    let mut db = db();
    db.execute("CREATE TABLE t (v UNITEXT)").unwrap();
    for (name, lang, copies) in [("a", "English", 3), ("b", "Tamil", 2), ("c", "Hindi", 1)] {
        for _ in 0..copies {
            db.execute(&format!(
                "INSERT INTO t VALUES (unitext('{name}','{lang}'))"
            ))
            .unwrap();
        }
    }
    let r = db
        .query("SELECT lang_of(v), count(*) FROM t GROUP BY lang_of(v) ORDER BY count(*) DESC")
        .unwrap();
    assert_eq!(r.len(), 3);
    assert_eq!(r[0][1].as_int(), Some(3));
    assert_eq!(r[0][0].as_text(), Some("English"));
}

#[test]
fn delete_respects_psi_predicate() {
    let mut db = db();
    db.execute("CREATE TABLE t (v UNITEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (unitext('Nehru','English'))")
        .unwrap();
    db.execute("INSERT INTO t VALUES (unitext('Gandhi','English'))")
        .unwrap();
    db.execute("SET lexequal.threshold = 1").unwrap();
    let r = db
        .execute("DELETE FROM t WHERE v LEXEQUAL unitext('Neru','English')")
        .unwrap();
    assert_eq!(r.affected, 1);
    let left = db.query("SELECT text_of(v) FROM t").unwrap();
    assert_eq!(left[0][0].as_text(), Some("Gandhi"));
}

#[test]
fn multi_statement_session_flow() {
    let mut db = db();
    db.execute("CREATE TABLE t (v UNITEXT, k INT)").unwrap();
    // Large enough that a point probe beats the sequential scan.
    for i in 0..2000 {
        db.execute(&format!(
            "INSERT INTO t VALUES (unitext('w{i}','English'), {i})"
        ))
        .unwrap();
    }
    db.execute("CREATE INDEX t_k ON t (k) USING btree").unwrap();
    db.execute("ANALYZE t").unwrap();
    // B-Tree point query on the int column coexists with the extension.
    let r = db.execute("SELECT text_of(v) FROM t WHERE k = 33").unwrap();
    assert_eq!(r.rows[0][0].as_text(), Some("w33"));
    assert!(r.explain.unwrap().contains("Index Scan"));
    // SHOW reflects SET.
    db.execute("SET lexequal.threshold = 7").unwrap();
    let shown = db.query("SHOW lexequal.threshold").unwrap();
    assert_eq!(shown[0][0].as_text(), Some("7"));
}

#[test]
fn limit_and_order_interact() {
    let mut db = db();
    db.execute("CREATE TABLE t (v UNITEXT, p FLOAT)").unwrap();
    for (i, name) in ["zeta", "alpha", "mid"].iter().enumerate() {
        db.execute(&format!(
            "INSERT INTO t VALUES (unitext('{name}','English'), {i}.5)"
        ))
        .unwrap();
    }
    let r = db
        .query("SELECT text_of(v) FROM t ORDER BY v LIMIT 2")
        .unwrap();
    assert_eq!(r.len(), 2);
    assert_eq!(r[0][0].as_text(), Some("alpha"));
    assert_eq!(r[1][0].as_text(), Some("mid"));
}

#[test]
fn insert_rejects_wrong_types() {
    let mut db = db();
    db.execute("CREATE TABLE t (v UNITEXT)").unwrap();
    assert!(db.execute("INSERT INTO t VALUES (42)").is_err());
    assert!(
        db.execute("INSERT INTO t VALUES ('bare text')").is_err(),
        "text is not unitext"
    );
    // And the right way works.
    db.execute("INSERT INTO t VALUES (unitext('ok','English'))")
        .unwrap();
    let n = db.query("SELECT count(*) FROM t").unwrap();
    assert!(n[0][0].eq_sql(&Datum::Int(1)));
}

#[test]
fn unitext_equality_consistent_across_join_strategies_and_indexes() {
    // Regression: `=` on UniText is text-only (§3.2.1).  A hash join or a
    // raw-byte B-Tree probe must never produce different answers than the
    // type-aware comparison.
    let mut db = db();
    db.execute("CREATE TABLE a (u UNITEXT, pad INT)").unwrap();
    db.execute("CREATE TABLE b (u UNITEXT, pad INT)").unwrap();
    for i in 0..300 {
        db.execute(&format!(
            "INSERT INTO a VALUES (unitext('w{i}','English'), {i})"
        ))
        .unwrap();
        db.execute(&format!(
            "INSERT INTO b VALUES (unitext('w{i}','French'), {i})"
        ))
        .unwrap();
    }
    db.execute("ANALYZE a").unwrap();
    db.execute("ANALYZE b").unwrap();
    // Same texts, different language tags: all 300 must join.
    let n = db
        .query("SELECT count(*) FROM a, b WHERE a.u = b.u")
        .unwrap();
    assert_eq!(n[0][0].as_int(), Some(300));
    // A B-Tree on the UniText column must not hijack the probe (raw-byte
    // order disagrees with text-only equality) — even when the seq scan is
    // penalized off.
    db.execute("CREATE INDEX a_u ON a (u) USING btree").unwrap();
    db.execute("SET enable_seqscan = 0").unwrap();
    let r = db
        .execute("SELECT count(*) FROM a WHERE u = unitext('w5','Tamil')")
        .unwrap();
    assert_eq!(r.rows[0][0].as_int(), Some(1), "{}", r.explain.unwrap());
    db.execute("SET enable_seqscan = 1").unwrap();
}

#[test]
fn unitext_compares_with_text_literals() {
    // Regression: the binder admits `unitext_col <op> 'literal'`; the
    // evaluator must route it through the type's text comparator instead
    // of falling back to cross-type discriminant ordering.
    let mut db = db();
    db.execute("CREATE TABLE t (u UNITEXT)").unwrap();
    for (w, l) in [
        ("apple", "English"),
        ("banana", "Tamil"),
        ("cherry", "French"),
    ] {
        db.execute(&format!("INSERT INTO t VALUES (unitext('{w}','{l}'))"))
            .unwrap();
    }
    let eq = db
        .query("SELECT count(*) FROM t WHERE u = 'banana'")
        .unwrap();
    assert_eq!(eq[0][0].as_int(), Some(1));
    let lt = db.query("SELECT count(*) FROM t WHERE u < 'b'").unwrap();
    assert_eq!(lt[0][0].as_int(), Some(1)); // apple
    let ge = db
        .query("SELECT count(*) FROM t WHERE 'banana' <= u")
        .unwrap();
    assert_eq!(ge[0][0].as_int(), Some(2)); // banana, cherry
}
