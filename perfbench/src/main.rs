//! The repository benchmark.  From the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <psi_select|omega_select|psi_join|lexicon_edit> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```
//!
//! With `--trace 0` it sets the workload up several times (the median is
//! `setup_s`), runs the workload's closed loop untraced for `--seconds`,
//! checks the outputs and prints the end-to-end metrics.  With
//! `--trace 1` it runs the traced replay of `layers` instead and prints
//! the per-layer metrics.  The last stdout line is the JSON result; the
//! line before it stamps the configuration.  `--smoke` shrinks every size
//! to a few thousand rows for the benchmark's own tests.

mod layers;
mod setup;
mod util;
mod workload;

use mlql::kernel::exec::{effective_batch_size, effective_workers};
use setup::{Fixture, Sizes};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use util::{json_num, json_str, median, sliced_quantile};
use workload::{fatal, Kind};

/// End-to-end metrics (printed with `--trace 0`), with units.  On a shared
/// 2-vCPU host the run-to-run spread of the p99 latencies, and of the
/// write p50 (it falls between contended adds and full-scan corrections
/// on lexicon_edit), can exceed the largest regression bound a gated
/// metric may have; `read_p99_ms`, `write_p50_ms` and `write_p99_ms` are
/// printed in the stamp line instead, and writes are gated on their p90.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("read_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Latency percentiles are the median of this many consecutive slices'
/// percentiles, so one slow stretch of a shared host cannot carry them.
const SLICES: usize = 5;

/// Per-layer metrics (printed with `--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("opt.plan_us", "us"),
    ("opt.qerror_p50", "ratio"),
    ("opt.index_plan_share", "fraction"),
    ("opt.misplan_share", "fraction"),
    ("engine.plan_cache_hit_share", "fraction"),
    ("engine.insert_us", "us"),
    ("engine.update_us", "us"),
    ("engine.pages_read_per_update", "pages"),
    ("exec.run_us_per_row", "us/row"),
    ("exec.dispatch_us_per_row", "us/row"),
    ("exec.count_us_per_row", "us/row"),
    ("exec.gather_wait_share", "fraction"),
    ("exec.worker_busy_share", "fraction"),
    ("exec.join_us_per_pair", "us/pair"),
    ("storage.fetch_us_per_row", "us/row"),
    ("storage.decode_us_per_row", "us/row"),
    ("storage.pool_hit_share", "fraction"),
    ("storage.physical_reads_per_op", "pages/op"),
    ("storage.commit_us", "us"),
    ("storage.wal_bytes_per_txn", "bytes/txn"),
    ("storage.fsyncs_per_txn", "fsyncs/txn"),
    ("storage.recovery_s", "s"),
    ("txn.visibility_us_per_row", "us/row"),
    ("txn.dead_version_share", "fraction"),
    ("txn.begin_us", "us"),
    ("txn.conflict_share", "fraction"),
    ("mtree.search_us", "us"),
    ("mtree.distance_calls_per_search", "count"),
    ("mtree.useful_share", "fraction"),
    ("index.btree_lookup_us", "us"),
    ("mural.psi_batch_us_per_row", "us/row"),
    ("mural.psi_pair_us", "us"),
    ("mural.omega_batch_us_per_row", "us/row"),
    ("mural.synset_resolve_us_per_row", "us/row"),
    ("mural.phoneme_slice_ns_per_row", "ns/row"),
    ("phonetics.g2p_us_per_probe", "us"),
    ("phonetics.kernel_us_per_pair", "us/pair"),
    ("phonetics.match_share", "fraction"),
    ("taxonomy.contains_ns", "ns"),
    ("taxonomy.fallback_share", "fraction"),
    ("taxonomy.closure_us", "us"),
    ("trace.unaccounted_share", "fraction"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <psi_select|omega_select|psi_join|lexicon_edit> \
         --seed <n> --seconds <s> --trace <0|1> [--smoke]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage("missing value"))
        };
        match argv[i].as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value()).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => trace = value() == "1",
            "--smoke" => {
                smoke = true;
                i += 1;
                continue;
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Args {
        kind: kind.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
        smoke,
    }
}

/// Set up `kind` from an empty engine to ready.
fn set_up(kind: Kind, sizes: &Sizes, attempt: usize) -> Fixture {
    let res = match kind {
        Kind::PsiSelect => setup::setup_names(sizes, false),
        Kind::PsiJoin => setup::setup_names(sizes, true),
        Kind::OmegaSelect => setup::setup_omega(sizes),
        Kind::LexiconEdit => setup::setup_lexicon(
            sizes,
            PathBuf::from(format!(
                ".bench_tmp/lexicon-{}-{attempt}",
                std::process::id()
            )),
        ),
    };
    res.unwrap_or_else(|e| fatal("set-up failed", e))
}

/// The configuration every result is stamped with.
fn stamp(fx: &Fixture, args: &Args, sizes: &Sizes, extra: &[(&str, String)]) -> String {
    let engine = &fx.engine;
    let s = fx.connect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tables = Vec::new();
    for meta in engine.catalog().tables() {
        let pages = meta.heap.pages(engine.pool()).unwrap_or(0);
        let rows = meta.heap.count(engine.pool()).unwrap_or(0);
        tables.push(format!(
            "{}: {{\"pages\": {pages}, \"rows\": {rows}}}",
            json_str(&meta.name)
        ));
    }
    let mut fields = vec![
        ("workload", json_str(args.kind.name())),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("smoke", args.smoke.to_string()),
        ("nproc", nproc.to_string()),
        ("sessions", args.kind.sessions().to_string()),
        ("parallel_workers", effective_workers(s.vars()).to_string()),
        ("batch_size", effective_batch_size(s.vars()).to_string()),
        (
            "wal_sync_mode",
            json_str(
                &engine
                    .wal_sync_mode()
                    .map_or("none (in-memory)".into(), |m| format!("{m:?}")),
            ),
        ),
        // Engine::with_backend's buffer pool.
        ("pool_frames", "1024".into()),
        ("tables", format!("{{{}}}", tables.join(", "))),
        ("names", fx.names.len().to_string()),
        ("docs", fx.docs.len().to_string()),
        (
            "synsets",
            fx.taxonomy.as_ref().map_or(0, |t| t.len()).to_string(),
        ),
        ("extra_parents", fx.extra_parents.to_string()),
        ("omega_roots", fx.roots.len().to_string()),
        ("probe_rows", fx.probes.len().to_string()),
        ("setups", sizes.setups.to_string()),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"config\": {{{}}}}}", body.join(", "))
}

/// Print the result line, asserting every named metric is present.
fn emit(attempted: u64, failed: u64, values: &BTreeMap<&str, f64>, names: &[(&str, &str)]) {
    let mut parts = Vec::new();
    for (name, unit) in names {
        let v = values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        parts.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*v),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        parts.join(", ")
    );
}

fn main() {
    let args = parse_args();
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let kind = args.kind;
    let secs = args.seconds.max(0.05);

    if args.trace {
        let fx = set_up(kind, &sizes, 0);
        let (ledger, gens) = layers::traced_run(&fx, kind, args.seed, &sizes, secs)
            .unwrap_or_else(|e| fatal("traced run failed", e));
        let mut metrics = ledger.metrics;
        let (mut attempted, mut failed) = (ledger.attempted, ledger.failed);
        let mut recovery_s = 0.0;
        let config = stamp(&fx, &args, &sizes, &[("spans", ledger.spans.to_string())]);
        if kind == Kind::LexiconEdit {
            let (f, took) = recover(fx, &gens);
            attempted += 1;
            failed += f;
            recovery_s = took;
        }
        metrics.insert("storage.recovery_s", recovery_s);
        println!("{config}");
        emit(attempted, failed, &metrics, &PER_LAYER);
        return;
    }

    let mut setup_times = Vec::new();
    let mut fx = None;
    for attempt in 0..sizes.setups {
        drop(fx.take());
        let start = Instant::now();
        fx = Some(set_up(kind, &sizes, attempt));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let fx = fx.expect("at least one set-up");
    let warm = if args.smoke { 0.05 } else { 1.0 };
    let edits = if kind == Kind::LexiconEdit {
        0
    } else {
        sizes.edits
    };
    let (mut st, gens) = workload::warm_up(&fx, kind)
        .and_then(|()| workload::closed_loop(&fx, kind, args.seed, warm, secs, edits))
        .unwrap_or_else(|e| fatal("workload failed", e));
    st.attempted += st.samples.len() as u64;
    st.failed +=
        workload::check_samples(&fx, &st).unwrap_or_else(|e| fatal("output check failed", e));
    // Latencies printed with their sample counts, not gated (see
    // END_TO_END).
    let latency = |v: &[f64], q: f64| {
        format!(
            "{{\"value\": {}, \"unit\": \"ms\", \"samples\": {}}}",
            json_num(sliced_quantile(v, q, SLICES)),
            v.len()
        )
    };
    let config = stamp(
        &fx,
        &args,
        &sizes,
        &[
            ("reads", st.read_ms.len().to_string()),
            ("writes", st.write_ms.len().to_string()),
            ("read_p99_ms", latency(&st.read_ms, 0.99)),
            ("write_p50_ms", latency(&st.write_ms, 0.5)),
            ("write_p99_ms", latency(&st.write_ms, 0.99)),
            ("checked_samples", st.samples.len().to_string()),
            ("setup_runs_s", format!("{setup_times:?}")),
        ],
    );
    if kind == Kind::LexiconEdit {
        let (f, _) = recover(fx, &gens);
        st.attempted += 1;
        st.failed += f;
    } else {
        drop(fx);
    }
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&setup_times));
    m.insert("ops_per_s", st.ops as f64 / st.wall.as_secs_f64().max(1e-9));
    m.insert("read_p50_ms", sliced_quantile(&st.read_ms, 0.5, SLICES));
    m.insert("write_p90_ms", sliced_quantile(&st.write_ms, 0.9, SLICES));
    m.insert("peak_rss_mb", util::peak_rss_mb());
    eprintln!(
        "perfbench: {} ops, {} reads, {} writes, {} failed of {} attempted",
        st.ops,
        st.read_ms.len(),
        st.write_ms.len(),
        st.failed,
        st.attempted
    );
    println!("{config}");
    emit(st.attempted, st.failed, &m, &END_TO_END);
}

/// Close the durable lexicon, reopen it through recovery and check every
/// acknowledged edit.  Returns (failures, reopen seconds).
fn recover(mut fx: Fixture, gens: &[workload::OpGen]) -> (u64, f64) {
    let dir = fx.dir.take().expect("lexicon is durable");
    drop(fx);
    let model: Vec<(i64, u32)> = gens.iter().flat_map(|g| g.model()).collect();
    let out =
        workload::check_recovery(&dir, &model).unwrap_or_else(|e| fatal("recovery failed", e));
    let _ = std::fs::remove_dir_all(&dir);
    (out.0, out.1.as_secs_f64())
}
