//! Batch-execution A/B: one-row batches vs batch vs batch+Myers on the
//! Figure 6 ψ seq-scan workload, plus the Ω closure scan.
//!
//! Three arms over the identical single-worker scan (the regime where
//! per-tuple dispatch dominates and vectorization pays):
//!   A `SET batch_size = 1`                  — one-row batches (row-at-a-time)
//!   B batch with `SET lexequal.myers = 0`   — vectorized spine, banded DP
//!   C batch defaults                        — vectorized spine + Myers
//! Arms run interleaved, min-of-N, so drift hits all three equally.  The
//! headline number is C-vs-A (`psi_batch_myers_speedup`); B isolates how
//! much comes from the spine (memoized conversions, amortized dispatch)
//! versus the bit-parallel kernel.
//!
//! Run: `cargo run --release -p mlql-bench --bin batch_exec`
//! Scale with `MLQL_SCALE`; pin output with `MLQL_BENCH_DIR`.

use mlql_bench::report::Report;
use mlql_bench::{load_names_table, mural_db, scale, timed};
use mlql_kernel::exec::default_batch_size;
use mlql_kernel::Session;

/// Interleaved rounds; each arm keeps its per-round minimum.
const ROUNDS: usize = 5;

/// ψ probes per timed round (the Table 4 scan measurement set).
const PROBES: &[(&str, &str)] = &[
    ("Nehru", "English"),
    ("Gandhi", "English"),
    ("Miller", "English"),
    ("Krishnan", "English"),
];

fn psi_scan_secs(db: &mut Session) -> f64 {
    let (_, secs) = timed(|| {
        for (name, lang) in PROBES {
            db.execute(&format!(
                "SELECT count(*) FROM names WHERE name LEXEQUAL unitext('{name}','{lang}')"
            ))
            .unwrap();
        }
    });
    secs / PROBES.len() as f64
}

fn omega_scan_secs(db: &mut Session) -> f64 {
    let (_, secs) = timed(|| {
        db.execute(
            "SELECT count(*) FROM docs WHERE category SEMEQUAL unitext('History','English')",
        )
        .unwrap();
    });
    secs
}

/// Put the session into one of the three arms.
fn arm(db: &mut Session, batch: bool, myers: bool) {
    db.execute(&format!(
        "SET batch_size = {}",
        if batch { default_batch_size() } else { 1 }
    ))
    .unwrap();
    db.execute(&format!(
        "SET lexequal.myers = {}",
        if myers { 1 } else { 0 }
    ))
    .unwrap();
}

fn main() {
    let n_names = 2000 * scale();
    println!("# Batch execution A/B: one-row batches vs batch vs batch+Myers (ψ seq scan)");
    println!(
        "# names table: {n_names} rows; ψ threshold 3; scale {}",
        scale()
    );

    let (mut db, mural) = mural_db();
    db.execute("SET lexequal.threshold = 3").unwrap();
    // Single worker: isolate per-tuple dispatch + kernel cost from
    // scheduling; the morsel path reuses the same batch kernels anyway.
    db.execute("SET parallel_workers = 1").unwrap();
    load_names_table(&mut db, &mural, "names", n_names, 1).unwrap();

    // Ω workload: repeated category values, the closure-memoization case.
    db.execute("CREATE TABLE docs (category UNITEXT)").unwrap();
    let cats = ["History", "Biography", "Fiction", "Novel", "Science"];
    for i in 0..n_names {
        let w = cats[i % cats.len()];
        db.execute(&format!(
            "INSERT INTO docs VALUES (unitext('{w}','English'))"
        ))
        .unwrap();
    }
    db.execute("ANALYZE docs").unwrap();

    // Warm every arm (plan cache, buffer pool, phoneme + closure caches).
    for (b, m) in [(false, true), (true, false), (true, true)] {
        arm(&mut db, b, m);
        psi_scan_secs(&mut db);
        omega_scan_secs(&mut db);
    }

    let mut row = f64::INFINITY;
    let mut batch = f64::INFINITY;
    let mut batch_myers = f64::INFINITY;
    let mut omega_row = f64::INFINITY;
    let mut omega_batch = f64::INFINITY;
    for _ in 0..ROUNDS {
        arm(&mut db, false, true);
        row = row.min(psi_scan_secs(&mut db));
        omega_row = omega_row.min(omega_scan_secs(&mut db));
        arm(&mut db, true, false);
        batch = batch.min(psi_scan_secs(&mut db));
        arm(&mut db, true, true);
        batch_myers = batch_myers.min(psi_scan_secs(&mut db));
        omega_batch = omega_batch.min(omega_scan_secs(&mut db));
    }
    arm(&mut db, true, true);

    let batch_speedup = row / batch.max(1e-9);
    let batch_myers_speedup = row / batch_myers.max(1e-9);
    let omega_speedup = omega_row / omega_batch.max(1e-9);
    let target_met = batch_myers_speedup >= 1.5;

    println!();
    println!("| arm                    | ψ scan (ms) | speedup |");
    println!("|------------------------|-------------|---------|");
    println!("| A batch_size = 1       | {:>11.3} |    1.00 |", row * 1e3);
    println!(
        "| B batch (banded DP)    | {:>11.3} | {batch_speedup:>7.2} |",
        batch * 1e3
    );
    println!(
        "| C batch + Myers        | {:>11.3} | {batch_myers_speedup:>7.2} |",
        batch_myers * 1e3
    );
    println!();
    println!(
        "Ω scan: one-row {:.3} ms, batch {:.3} ms ({omega_speedup:.2}x, per-batch closure memo)",
        omega_row * 1e3,
        omega_batch * 1e3
    );
    println!(
        "acceptance target (batch+Myers ≥ 1.5x one-row batches): {}",
        if target_met { "MET" } else { "NOT MET" }
    );

    let mut rep = Report::new("batch");
    rep.int("names_rows", n_names as i64)
        .num("psi_row_ms", row * 1e3)
        .num("psi_batch_ms", batch * 1e3)
        .num("psi_batch_myers_ms", batch_myers * 1e3)
        .num("psi_batch_speedup", batch_speedup)
        .num("psi_batch_myers_speedup", batch_myers_speedup)
        .num("omega_row_ms", omega_row * 1e3)
        .num("omega_batch_ms", omega_batch * 1e3)
        .num("omega_batch_speedup", omega_speedup)
        .flag("speedup_target_met", target_met);
    rep.write_and_note();
}
