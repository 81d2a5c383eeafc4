//! Ω containment strategies head-to-head: the interval-labeled index
//! (`enable_omega_intervals = 1`, the default) vs. the cold-cache
//! memoized closure walk (`enable_omega_intervals = 0` with the shared
//! closure cache invalidated before every query).
//!
//! The workload is a Figure-8-style generated taxonomy (tree-shaped, so
//! every probe is interval-decidable) and a docs table scanned with
//! `category SEMEQUAL <root>` for roots of growing closure size.  The
//! closure path must materialize the root's closure on every cold query
//! — O(closure) hash-set construction — while the interval path answers
//! each probe with one range comparison, so the gap widens with closure
//! size.
//!
//! Two invariants are asserted in-bin:
//!  * both strategies return identical counts, and
//!  * on this tree-shaped taxonomy the interval path never falls back to
//!    the closure cache (`mlql_omega_interval_fallbacks_total` stays 0 —
//!    zero closure materializations after index build).
//!
//! Run: `cargo run --release -p mlql-bench --bin omega_intervals`
//! (`MLQL_SCALE` grows the taxonomy and table; pin output with
//! `MLQL_BENCH_DIR`.)

use mlql_bench::report::{obj, Report, Value};
use mlql_bench::{scale, timed};
use mlql_kernel::obs;
use mlql_mural::types::unitext_datum;
use mlql_taxonomy::{generate, synsets_near_closure_sizes, GeneratorConfig};
use mlql_unitext::UniText;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Measurement repetitions; the minimum is reported.  The closure arm
/// invalidates the shared cache before every rep, so each rep is a
/// genuinely cold walk.
const REPS: usize = 3;

fn main() {
    // The closure arm's cold cost is O(closure size) per query while the
    // interval arm is O(scanned rows); a WordNet-scale taxonomy with
    // closures far larger than the scanned table is exactly the regime
    // the index targets (and the Figure 8 x-axis goes to 10⁴ closures).
    let synsets = 50_000 * scale();
    let n_docs = 500 * scale();
    let targets = [1000usize, 3000, 10_000, 30_000];
    println!("# Ω containment: interval index vs cold-cache closure walk");
    println!("# taxonomy: {synsets} synsets (tree-shaped); docs: {n_docs} rows");

    let engine = mlql_kernel::Engine::in_memory();
    let langs = mlql_unitext::LanguageRegistry::new();
    let en = langs.id_of("English");
    let taxonomy = generate(
        en,
        &GeneratorConfig {
            synsets,
            ..GeneratorConfig::default()
        },
    );
    let picks = synsets_near_closure_sizes(&taxonomy, &targets);
    let mural = mlql_mural::install_with_taxonomy(&engine, taxonomy).unwrap();
    let mut db = engine.connect();
    let taxonomy = mural.sem.taxonomy();

    db.execute("CREATE TABLE docs (category UNITEXT)").unwrap();
    let mut rng = StdRng::seed_from_u64(0xa11);
    for _ in 0..n_docs {
        let sid = mlql_taxonomy::SynsetId(rng.gen_range(0..synsets as u32));
        let word = taxonomy.words(sid)[0].clone();
        db.insert_row(
            "docs",
            vec![unitext_datum(
                mural.unitext_type,
                &UniText::compose(word, en),
            )],
        )
        .unwrap();
    }
    db.execute("ANALYZE docs").unwrap();

    println!();
    println!(
        "{:>8} {:>8} | {:>16} {:>14} {:>9}",
        "target", "closure", "closure_cold_ms", "intervals_ms", "speedup"
    );

    let m = obs::metrics();
    let mut points = Vec::new();
    let mut closure_total = 0.0f64;
    let mut interval_total = 0.0f64;
    for &(target, synset, actual) in &picks {
        let word = taxonomy.words(synset)[0].clone();
        let sql = format!(
            "SELECT count(*) FROM docs WHERE category SEMEQUAL unitext('{word}','English')"
        );

        // Cold closure walk: invalidate the shared cache before every rep
        // so each query re-materializes the closure from scratch.
        db.execute("SET enable_omega_intervals = 0").unwrap();
        let mut t_closure = f64::INFINITY;
        let mut n_closure = 0i64;
        for _ in 0..REPS {
            mural.sem.cache.invalidate();
            let (rows, secs) = timed(|| db.query(&sql).unwrap());
            n_closure = rows[0][0].as_int().unwrap();
            t_closure = t_closure.min(secs);
        }

        // Interval path: one range comparison per probe, no cache at all.
        db.execute("SET enable_omega_intervals = 1").unwrap();
        let fallbacks_before = m.omega_interval_fallbacks_total.get();
        let misses_before = m.taxonomy_closure_cache_misses_total.get();
        let mut t_interval = f64::INFINITY;
        let mut n_interval = 0i64;
        for _ in 0..REPS {
            let (rows, secs) = timed(|| db.query(&sql).unwrap());
            n_interval = rows[0][0].as_int().unwrap();
            t_interval = t_interval.min(secs);
        }
        assert_eq!(
            n_closure, n_interval,
            "strategies disagree on root {word} (closure {actual})"
        );
        assert_eq!(
            m.omega_interval_fallbacks_total.get(),
            fallbacks_before,
            "tree-shaped taxonomy must never defer to the closure walk"
        );
        assert_eq!(
            m.taxonomy_closure_cache_misses_total.get(),
            misses_before,
            "interval scans must not materialize closures"
        );

        let speedup = t_closure / t_interval;
        closure_total += t_closure;
        interval_total += t_interval;
        println!(
            "{:>8} {:>8} | {:>14.3}   {:>12.3}   {:>8.1}x",
            target,
            actual,
            t_closure * 1000.0,
            t_interval * 1000.0,
            speedup
        );
        points.push(obj(vec![
            ("target", Value::Int(target as i64)),
            ("closure_size", Value::Int(actual as i64)),
            ("matches", Value::Int(n_interval)),
            ("closure_cold_ms", Value::Num(t_closure * 1000.0)),
            ("intervals_ms", Value::Num(t_interval * 1000.0)),
            ("speedup", Value::Num(speedup)),
        ]));
    }

    let speedup = closure_total / interval_total;
    println!();
    println!("# aggregate cold-closure/intervals speedup: {speedup:.1}x");
    assert!(
        speedup > 1.0,
        "interval index must beat the cold closure walk ({speedup:.2}x)"
    );

    let mut rep = Report::new("omega_intervals");
    rep.int("synsets", synsets as i64)
        .int("docs_rows", n_docs as i64)
        .num("speedup", speedup)
        .int(
            "interval_fallbacks",
            m.omega_interval_fallbacks_total.get() as i64,
        )
        .set("points", Value::Arr(points));
    rep.write_and_note();
}
