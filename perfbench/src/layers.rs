//! The traced run: per-layer numbers, kept apart from the timed runs.
//!
//! Spans are recorded only here, around calls the benchmark makes into
//! each layer's public functions; nothing inside the engine is
//! instrumented.  The run has two phases:
//!
//! * **counters**: the workload's own closed loop, untraced, bracketed by
//!   deltas of `obs::metrics()` counters and buffer-pool `IoStats`;
//! * **spans**: a seeded sample of the workload's statements replayed one
//!   at a time.  A SELECT runs as `sql::parse` → `sql::bind` → `opt::plan`
//!   → `exec::run_to_vec`, next to the same statement through
//!   `Session::execute`, which reconciles the two.  Sampled scans are then
//!   decomposed by replaying their storage, txn and mural parts one layer
//!   at a time on the same table.

use crate::setup::{quote, Fixture, Sizes, LANGS};
use crate::util::{median, ratio, us};
use crate::workload::{self, Check, Kind, Op, OpGen, Read};
use mlql::kernel::catalog::SessionVars;
use mlql::kernel::exec::{effective_batch_size, effective_workers, run_to_vec, ExecCtx, ExecStats};
use mlql::kernel::obs;
use mlql::kernel::plan::{PhysNode, PhysOp};
use mlql::kernel::schema::Row;
use mlql::kernel::sql::{self, Statement};
use mlql::kernel::storage::{decode_row, split_version, HeapFile};
use mlql::kernel::{opt, Datum, Error, Result, Session};
use mlql::mural::lexequal::{psi_matches, psi_matches_batch};
use mlql::mural::types::{phoneme_slice, unitext_of_datum};
use mlql::phonetics::distance::{DistanceBuffer, MyersMatcher};
use mlql::taxonomy::closure::compute_closure;
use mlql::unitext::UniText;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span.  `units` is the work it covered (rows, pairs,
/// calls), so per-row figures divide by it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
    pub units: u64,
}

/// In-memory span recorder; written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Start a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            op: self.op,
            units: 1,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize, units: u64) {
        let now = self.epoch.elapsed();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must nest");
        self.spans[id].end = now;
        self.spans[id].units = units;
    }

    /// Run `f` inside a span of `units` work.
    pub fn span<T>(&mut self, name: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id, units);
        out
    }

    fn duration(&self, i: usize) -> Duration {
        self.spans[i].end - self.spans[i].start
    }

    /// A span's duration minus the time its child spans cover.
    pub fn self_time(&self, i: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(i))
            .map(|(c, _)| self.duration(c))
            .sum();
        self.duration(i).saturating_sub(children)
    }

    /// Median over `name`'s spans of (duration in µs ÷ units).
    pub fn per_unit_us(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.units > 0)
            .map(|(i, s)| us(self.duration(i)) / s.units as f64)
            .collect();
        median(&v)
    }

    /// Write every span as TSV: op, id, parent, name, start_ns, end_ns,
    /// self_ns, units.
    pub fn write_out(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\tunits")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{}\t{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                s.parent.map_or(-1, |p| p as i64),
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                self.self_time(i).as_nanos(),
                s.units
            )?;
        }
        w.flush()
    }
}

/// Engine counters read around the counters phase.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    plan_hits: u64,
    plan_misses: u64,
    gather_ns: u64,
    busy_ns: u64,
    wal_bytes: u64,
    fsyncs: u64,
    begins: u64,
    conflicts: u64,
    logical: u64,
    physical: u64,
}

impl Counters {
    fn read(fx: &Fixture) -> Counters {
        let m = obs::metrics();
        let io = fx.engine.pool().stats();
        Counters {
            plan_hits: m.plan_cache_hits_total.get(),
            plan_misses: m.plan_cache_misses_total.get(),
            gather_ns: m.parallel_gather_wait_ns_total.get(),
            busy_ns: m.parallel_worker_busy_ns_total.get(),
            wal_bytes: m.wal_bytes_total.get(),
            fsyncs: m.wal_fsyncs_total.get(),
            begins: m.txn_begins_total.get(),
            conflicts: m.txn_conflicts_total.get(),
            logical: io.logical_reads,
            physical: io.physical_reads,
        }
    }

    fn since(self, e: Counters) -> Counters {
        Counters {
            plan_hits: self.plan_hits - e.plan_hits,
            plan_misses: self.plan_misses - e.plan_misses,
            gather_ns: self.gather_ns - e.gather_ns,
            busy_ns: self.busy_ns - e.busy_ns,
            wal_bytes: self.wal_bytes - e.wal_bytes,
            fsyncs: self.fsyncs - e.fsyncs,
            begins: self.begins - e.begins,
            conflicts: self.conflicts - e.conflicts,
            logical: self.logical - e.logical,
            physical: self.physical - e.physical,
        }
    }
}

/// Per-layer results of one traced run.
pub struct Ledger {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: usize,
}

/// Accumulators the span phase fills.
#[derive(Default)]
struct Acc {
    qerrors: Vec<f64>,
    psi_selections: u64,
    index_plans: u64,
    misplan_samples: u64,
    misplans: u64,
    mtree_dist: Vec<f64>,
    mtree_matches: u64,
    mtree_comparisons: u64,
    kernel_calls: u64,
    kernel_matches: u64,
    contains_probes: u64,
    contains_fallbacks: u64,
    scanned_versions: u64,
    dead_versions: u64,
    update_pages: Vec<f64>,
    /// Σ layer self times and Σ `Session::execute` latency of the same
    /// replayed statements, and Σ traced replay time.
    layer_self: Duration,
    session_exec: Duration,
    replay_total: Duration,
    /// `(serial run, fetch + visibility + decode + operator batch, rows)`.
    dispatch: Vec<(Duration, Duration, u64)>,
    join_pairs: Vec<f64>,
    failed: u64,
    attempted: u64,
}

/// Parse, bind and plan `sql` under `vars`, each in its own span.
fn plan_traced(
    t: &mut Tracer,
    fx: &Fixture,
    sql_text: &str,
    vars: &SessionVars,
) -> Result<PhysNode> {
    let stmt = t.span("sql.parse", 1, || sql::parse(sql_text))?;
    let sel = match stmt {
        Statement::Select(s) => s,
        _ => return Err(Error::Binder("traced replay expects SELECT".into())),
    };
    let engine = &fx.engine;
    let catalog = engine.catalog();
    let logical = t.span("sql.bind", 1, || sql::bind(&sel, &catalog))?;
    t.span("opt.plan", 1, || {
        opt::plan(&logical, &catalog, engine.pool(), vars)
    })
}

/// Plan `sql_text` under `vars` without spans.
fn plan_plain(fx: &Fixture, sql_text: &str, vars: &SessionVars) -> Result<PhysNode> {
    let Statement::Select(sel) = sql::parse(sql_text)? else {
        return Err(Error::Binder("expected SELECT".into()));
    };
    let engine = &fx.engine;
    let catalog = engine.catalog();
    let logical = sql::bind(&sel, &catalog)?;
    opt::plan(&logical, &catalog, engine.pool(), vars)
}

/// `exec::run_to_vec` under a fresh snapshot; returns rows and the
/// extension-operator calls it made.
fn run_plan(fx: &Fixture, phys: &PhysNode, vars: &SessionVars) -> Result<(Vec<Row>, u64)> {
    let engine = &fx.engine;
    let catalog = engine.catalog();
    let stats = ExecStats::default();
    let ctx = ExecCtx {
        catalog: &catalog,
        pool: engine.pool(),
        session: vars,
        stats: &stats,
        exec_pool: Some(engine.exec_pool()),
        vis: engine.fresh_visibility(),
    };
    let rows = run_to_vec(phys, &ctx)?;
    Ok((rows, stats.ext_op_calls.get()))
}

/// The shape of a plan, to tell two plans apart.
fn shape(p: &PhysNode) -> String {
    p.preorder()
        .iter()
        .map(|n| n.op_name())
        .collect::<Vec<_>>()
        .join(" / ")
}

fn uses_mtree(p: &PhysNode) -> bool {
    p.preorder()
        .iter()
        .any(|n| matches!(&n.op, PhysOp::IndexScan { strategy, .. } if strategy == "within"))
}

fn min_run(fx: &Fixture, phys: &PhysNode, vars: &SessionVars, reps: usize) -> Result<Duration> {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(run_plan(fx, phys, vars)?);
        best = best.min(start.elapsed());
    }
    Ok(best)
}

/// Does a plan the optimizer rejected (forced by turning one access path
/// off) run faster than the one it chose?
fn misplanned(fx: &Fixture, sql_text: &str, vars: &SessionVars, chosen: &PhysNode) -> Result<bool> {
    const REPS: usize = 3;
    let chosen_time = min_run(fx, chosen, vars, REPS)?;
    for flag in ["enable_indexscan", "enable_seqscan", "enable_parallel"] {
        let mut forced = vars.clone();
        forced.set(flag, Datum::Int(0));
        let alt = plan_plain(fx, sql_text, &forced)?;
        if shape(&alt) == shape(chosen) {
            continue;
        }
        // 5% margin, so timer noise does not count as a misplan.
        if min_run(fx, &alt, &forced, REPS)?.as_secs_f64() < chosen_time.as_secs_f64() * 0.95 {
            return Ok(true);
        }
    }
    Ok(false)
}

/// A ψ / Ω selection on the workload's main table (column 1, the
/// operator's left side) with its probe datum, as its own statement.
struct ScanTarget {
    sql: String,
    probe: Datum,
    k: usize,
    omega: bool,
}

impl ScanTarget {
    fn new(fx: &Fixture, probe: Datum, k: usize, omega: bool) -> Result<ScanTarget> {
        let v = unitext_of_datum(&probe)?;
        let lang = LANGS
            .iter()
            .find(|l| fx.mural.langs.id_of(l) == v.lang())
            .unwrap_or(&"English");
        let op = if omega { "SEMEQUAL" } else { "LEXEQUAL" };
        let sql = format!(
            "SELECT id FROM {} WHERE {} {op} unitext('{}','{lang}')",
            fx.table,
            if omega { "category" } else { "name" },
            quote(v.text())
        );
        Ok(ScanTarget {
            sql,
            probe,
            k,
            omega,
        })
    }
}

/// Replay a serial seq-scan of `target` one layer at a time.
fn decompose(
    t: &mut Tracer,
    fx: &Fixture,
    acc: &mut Acc,
    target: &ScanTarget,
    vars: &SessionVars,
) -> Result<()> {
    let engine = &fx.engine;
    let pool = engine.pool();
    let meta = engine.catalog().table(fx.table)?;
    let arity = meta.schema.len();
    let batch = effective_batch_size(vars);

    // The same statement as a serial sequential scan.
    let mut serial = vars.clone();
    serial.set("enable_indexscan", Datum::Int(0));
    serial.set("enable_parallel", Datum::Int(0));
    let phys = plan_plain(fx, &target.sql, &serial)?;
    let id = t.begin("exec.run_serial");
    let (_, _) = run_plan(fx, &phys, &serial)?;
    t.end(id, 1);
    let run_serial = t.spans[id].end - t.spans[id].start;

    // Page fetch: walk every page and its tuples.
    let mut tuples = 0u64;
    let fetch = t.begin("storage.fetch");
    meta.heap.scan_pages(pool, |_, buf| {
        for (_, tup) in HeapFile::page_tuples(buf) {
            tuples += 1;
            black_box(tup.len());
        }
        true
    })?;
    t.end(fetch, tuples.max(1));
    let mut raw: Vec<Vec<u8>> = Vec::with_capacity(tuples as usize);
    meta.heap.scan_pages(pool, |_, buf| {
        raw.extend(HeapFile::page_tuples(buf).map(|(_, tup)| tup.to_vec()));
        true
    })?;

    // MVCC visibility.
    let vis = engine.fresh_visibility();
    let vis_id = t.begin("txn.visibility");
    let mut visible: Vec<&[u8]> = Vec::with_capacity(raw.len());
    for tup in &raw {
        let (xmin, xmax, rest) = split_version(tup)?;
        if vis.sees(xmin, xmax) {
            visible.push(rest);
        }
    }
    t.end(vis_id, raw.len().max(1) as u64);
    acc.scanned_versions += raw.len() as u64;
    acc.dead_versions += (raw.len() - visible.len()) as u64;

    // Tuple decode.
    let dec_id = t.begin("storage.decode");
    let mut rows = Vec::with_capacity(visible.len());
    for rest in &visible {
        rows.push(decode_row(rest, arity)?);
    }
    t.end(dec_id, rows.len().max(1) as u64);
    let n = rows.len().max(1) as u64;
    let lefts: Vec<&Datum> = rows.iter().map(|r| &r[1]).collect();

    let op_id = if target.omega {
        let sem = &fx.mural.sem;
        let probe = unitext_of_datum(&target.probe)?;
        let roots = sem.synsets_of(&probe);
        let resolved: Vec<_> = t.span("mural.synset_resolve", n, || {
            lefts
                .iter()
                .map(|d| unitext_of_datum(d).map(|v| sem.synsets_of(&v)))
                .collect::<Result<Vec<_>>>()
        })?;
        let idx = sem.intervals();
        let mut probes = 0u64;
        let mut deferred_roots = Vec::new();
        let cid = t.begin("taxonomy.contains");
        for &root in &roots {
            let mut deferred = false;
            for syns in &resolved {
                for &s in syns {
                    probes += 1;
                    if idx.contains(root, s).is_none() {
                        acc.contains_fallbacks += 1;
                        deferred = true;
                    }
                }
            }
            if deferred {
                deferred_roots.push(root);
            }
        }
        t.end(cid, probes.max(1));
        acc.contains_probes += probes;
        let taxonomy = sem.taxonomy();
        for root in deferred_roots {
            t.span("taxonomy.closure", 1, || {
                black_box(compute_closure(&taxonomy, root).len())
            });
        }
        let id = t.begin("mural.omega_batch");
        for chunk in lefts.chunks(batch) {
            black_box(sem.omega_matches_batch(chunk, &target.probe)?);
        }
        t.end(id, n);
        id
    } else {
        let slices: Vec<&[u8]> = t.span("mural.phoneme_slice", n, || {
            lefts
                .iter()
                .map(|d| match d {
                    Datum::Ext { bytes, .. } => phoneme_slice(bytes).unwrap_or(&[]),
                    _ => &[],
                })
                .collect()
        });
        let q: Vec<u8> = match &target.probe {
            Datum::Ext { bytes, .. } => phoneme_slice(bytes).unwrap_or(&[]).to_vec(),
            _ => Vec::new(),
        };
        let matcher = MyersMatcher::new(&q);
        let mut buf = DistanceBuffer::new();
        let mut matches = 0u64;
        let kid = t.begin("phonetics.kernel");
        for lp in &slices {
            let hit = match &matcher {
                Some(m) => m.distance_within(lp, target.k).is_some(),
                None => buf.distance_within(lp, &q, target.k).is_some(),
            };
            matches += hit as u64;
        }
        t.end(kid, n);
        acc.kernel_calls += n;
        acc.kernel_matches += matches;
        let convs = &fx.mural.converters;
        let pairs = lefts.len().min(2000);
        let pid = t.begin("mural.psi_pair");
        for l in &lefts[..pairs] {
            black_box(psi_matches(l, &target.probe, target.k, convs)?);
        }
        t.end(pid, pairs.max(1) as u64);
        let id = t.begin("mural.psi_batch");
        for chunk in lefts.chunks(batch) {
            black_box(psi_matches_batch(
                chunk,
                &target.probe,
                target.k,
                convs,
                true,
            )?);
        }
        t.end(id, n);
        id
    };
    let parts = [fetch, vis_id, dec_id, op_id]
        .iter()
        .map(|&i| t.spans[i].end - t.spans[i].start)
        .sum();
    acc.dispatch.push((run_serial, parts, n));
    Ok(())
}

/// The ψ / Ω selection `r` runs (for a join, its group's first probe
/// against the inner table), if any.
fn scan_target(fx: &Fixture, r: &Read) -> Result<Option<ScanTarget>> {
    let name_probe = |name: usize| {
        let n = &fx.names[name];
        fx.mural.unitext(&n.text, LANGS[n.lang])
    };
    Ok(match &r.check {
        Check::Psi { name, k, .. } => {
            Some(ScanTarget::new(fx, name_probe(*name)?, *k as usize, false)?)
        }
        Check::Join { grp, k } => match fx.probes.iter().find(|p| p.1 == *grp) {
            Some(&(_, _, name)) => {
                Some(ScanTarget::new(fx, name_probe(name)?, *k as usize, false)?)
            }
            None => None,
        },
        Check::LexHomophone { id } => {
            let rows = fx
                .connect()
                .query(&format!("SELECT name FROM lexicon WHERE id = {id}"))?;
            match rows.into_iter().next() {
                Some(mut row) => Some(ScanTarget::new(fx, row.swap_remove(0), 1, false)?),
                None => None,
            }
        }
        Check::Omega { root } => {
            let t = fx.taxonomy.as_ref().expect("omega fixture");
            let probe = fx.mural.unitext(&t.words(*root)[0], "English")?;
            Some(ScanTarget::new(fx, probe, 0, true)?)
        }
        _ => None,
    })
}

/// Replay one read: through `Session::execute` (plan cache flushed, so
/// both sides parse, bind and plan) and through the layers, traced.
#[allow(clippy::too_many_arguments)]
fn replay_read(
    t: &mut Tracer,
    fx: &Fixture,
    s: &mut Session,
    k: &mut Option<i64>,
    r: &Read,
    acc: &mut Acc,
    nth: usize,
    kind: Kind,
    table_rows: u64,
) -> Result<()> {
    workload::set_threshold(s, k, r.threshold)?;
    fx.engine.flush_plan_cache();
    let start = Instant::now();
    let reference = s.execute(&r.sql)?.rows;
    acc.session_exec += start.elapsed();

    t.next_op();
    let vars = s.vars().clone();
    let root = t.begin("statement");
    let phys = plan_traced(t, fx, &r.sql, &vars)?;
    // Selections count per table row; other statements per call.
    let (run_name, units) = match &r.check {
        Check::Psi { .. } | Check::Omega { .. } | Check::LexHomophone { .. } => {
            ("exec.run_scan", table_rows.max(1))
        }
        _ => ("exec.run", 1),
    };
    let run_id = t.begin(run_name);
    let (rows, ext_calls) = run_plan(fx, &phys, &vars)?;
    t.end(run_id, units);
    t.end(root, 1);
    acc.replay_total += t.spans[root].end - t.spans[root].start;
    acc.layer_self += [root + 1, root + 2, root + 3, run_id]
        .iter()
        .map(|&i| t.self_time(i))
        .sum::<Duration>();

    acc.attempted += 1;
    let mut a = workload::ids(&rows);
    let mut b = workload::ids(&reference);
    a.sort_unstable();
    b.sort_unstable();
    if a != b {
        acc.failed += 1;
    }
    let act = rows.len().max(1) as f64;
    let est = phys.est_rows.max(1.0);
    acc.qerrors.push(est.max(act) / est.min(act));

    if kind == Kind::PsiJoin {
        acc.join_pairs.push(ratio(
            us(t.spans[run_id].end - t.spans[run_id].start),
            ext_calls as f64,
        ));
    }
    if matches!(r.check, Check::Psi { .. }) {
        acc.psi_selections += 1;
        acc.index_plans += uses_mtree(&phys) as u64;
    }
    let sampled = nth.is_multiple_of(3);
    if sampled && matches!(r.check, Check::Psi { .. } | Check::Join { .. }) {
        acc.misplan_samples += 1;
        acc.misplans += misplanned(fx, &r.sql, &vars, &phys)? as u64;
    }
    let target = if sampled { scan_target(fx, r)? } else { None };
    if let Some(target) = target {
        decompose(t, fx, acc, &target, &vars)?;
        if !target.omega {
            probe_mtree(t, fx, acc, &target)?;
            probe_g2p(t, fx, &target)?;
        }
    }
    if let Check::LexRow { id, .. } = r.check {
        probe_btree(t, fx, "lexicon_id", id)?;
    }
    if let Check::Join { grp, .. } = r.check {
        probe_btree(t, fx, "probes_grp", grp)?;
    }
    Ok(())
}

/// The M-tree's own `search("within", …)`, as `Mural::nearest` reaches
/// the index instance.
fn probe_mtree(t: &mut Tracer, fx: &Fixture, acc: &mut Acc, target: &ScanTarget) -> Result<()> {
    let engine = &fx.engine;
    let catalog = engine.catalog();
    let meta = catalog.table(fx.table)?;
    for idx in catalog.indexes_of(meta.id) {
        if idx.am == "mtree" {
            let inst = idx.instance.read();
            let found = t.span("mtree.search", 1, || {
                inst.search("within", &target.probe, &Datum::Int(target.k as i64))
            })?;
            acc.mtree_dist.push(found.comparisons as f64);
            acc.mtree_comparisons += found.comparisons;
            acc.mtree_matches += found.tids.len() as u64;
        }
    }
    Ok(())
}

fn probe_btree(t: &mut Tracer, fx: &Fixture, index: &str, key: i64) -> Result<()> {
    let engine = &fx.engine;
    let catalog = engine.catalog();
    for meta in catalog.tables() {
        for idx in catalog.indexes_of(meta.id) {
            if idx.name == index {
                let inst = idx.instance.read();
                t.span("index.btree_lookup", 1, || {
                    inst.search("eq", &Datum::Int(key), &Datum::Null)
                })?;
            }
        }
    }
    Ok(())
}

/// Grapheme-to-phoneme conversion of the probe, from an unmaterialized
/// value.
fn probe_g2p(t: &mut Tracer, fx: &Fixture, target: &ScanTarget) -> Result<()> {
    let v = unitext_of_datum(&target.probe)?;
    let fresh = UniText::compose(v.text().to_string(), v.lang());
    t.span("phonetics.g2p", 1, || {
        black_box(fx.mural.converters.phonemes_of(&fresh))
    });
    Ok(())
}

/// Replay an edit transaction statement by statement.
fn replay_edit(
    t: &mut Tracer,
    fx: &Fixture,
    s: &mut Session,
    gen: &mut OpGen,
    e: &workload::Edit,
    acc: &mut Acc,
) -> Result<()> {
    t.next_op();
    acc.attempted += 1;
    let root = t.begin("edit");
    t.span("txn.begin", 1, || s.execute("BEGIN"))?;
    for stmt in &e.stmts {
        let update = stmt.starts_with("UPDATE");
        let before = fx.engine.pool().stats();
        let name = if update {
            "engine.update"
        } else {
            "engine.insert"
        };
        let res = t.span(name, 1, || s.execute(stmt));
        if res.is_err() {
            let _ = s.execute("ROLLBACK");
            t.end(root, 1);
            acc.failed += 1;
            return Ok(());
        }
        if update {
            let io = fx.engine.pool().stats().since(&before);
            acc.update_pages.push(io.logical_reads as f64);
        }
    }
    t.span("storage.commit", 1, || s.execute("COMMIT"))?;
    t.end(root, 1);
    gen.acknowledge(&e.ack);
    Ok(())
}

/// The whole traced run of `kind` on a set-up fixture.  `secs` bounds
/// each phase.
pub fn traced_run(
    fx: &Fixture,
    kind: Kind,
    seed: u64,
    sizes: &Sizes,
    secs: f64,
) -> Result<(Ledger, Vec<OpGen>)> {
    let mut t = Tracer::new();
    let mut acc = Acc::default();
    let workers = effective_workers(fx.connect().vars()) as f64;

    // Counters phase: the workload's own closed loop, untraced, counted
    // from after the warm-up (which the loop's timings leave out too).
    workload::warm_up(fx, kind)?;
    let before = Counters::read(fx);
    let edits = if kind == Kind::LexiconEdit {
        0
    } else {
        sizes.edits / 2
    };
    let (mut st, mut gens) = workload::closed_loop(fx, kind, seed, 0.0, secs * 0.4, edits)?;
    let c = Counters::read(fx).since(before);
    st.attempted += st.samples.len() as u64;
    st.failed += workload::check_samples(fx, &st)?;
    let read_busy_ns: f64 = st.read_ms.iter().sum::<f64>() * 1e6;
    let txns = st.write_ms.len() as f64;

    // Span phase: replay the continuation of session 0's stream.
    let table_rows = fx
        .engine
        .catalog()
        .table(fx.table)?
        .heap
        .count(fx.engine.pool())?;
    let mut s = fx.connect();
    let mut k = None;
    let deadline = Instant::now() + Duration::from_secs_f64(secs * 0.6);
    let mut nth = 0;
    let mut reads = 0;
    while Instant::now() < deadline && reads < sizes.replays {
        match gens[0].next() {
            Op::Read(r) => {
                let r = workload::resolve(fx, r);
                replay_read(
                    &mut t, fx, &mut s, &mut k, &r, &mut acc, nth, kind, table_rows,
                )?;
                reads += 1;
                nth += 1;
            }
            Op::Edit(e) => replay_edit(&mut t, fx, &mut s, &mut gens[0], &e, &mut acc)?,
        }
    }
    // Read-only workloads: a few of their insert edits, so the write-side
    // layers have figures on every workload.
    if kind != Kind::LexiconEdit {
        let mut inserts = OpGen::new(fx, kind, seed ^ 0x7ace, 0);
        for i in 0..20 {
            let e = inserts.insert_edit(fx.table, 2 * workload::EDIT_ID_BASE + i);
            replay_edit(&mut t, fx, &mut s, &mut inserts, &e, &mut acc)?;
        }
    }
    // count(*) with no predicate.
    for _ in 0..5 {
        t.next_op();
        let vars = s.vars().clone();
        let phys = plan_plain(fx, &format!("SELECT count(*) FROM {}", fx.table), &vars)?;
        t.span("exec.count", table_rows.max(1), || {
            run_plan(fx, &phys, &vars)
        })?;
    }
    st.attempted += acc.attempted;
    st.failed += acc.failed;

    let m = |name: &str| t.per_unit_us(name);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    out.insert("sql.parse_us", m("sql.parse"));
    out.insert("sql.bind_us", m("sql.bind"));
    out.insert("opt.plan_us", m("opt.plan"));
    out.insert("opt.qerror_p50", median(&acc.qerrors));
    out.insert(
        "opt.index_plan_share",
        ratio(acc.index_plans as f64, acc.psi_selections as f64),
    );
    out.insert(
        "opt.misplan_share",
        ratio(acc.misplans as f64, acc.misplan_samples as f64),
    );
    out.insert(
        "engine.plan_cache_hit_share",
        ratio(c.plan_hits as f64, (c.plan_hits + c.plan_misses) as f64),
    );
    out.insert("engine.insert_us", m("engine.insert"));
    out.insert("engine.update_us", m("engine.update"));
    out.insert("engine.pages_read_per_update", median(&acc.update_pages));
    out.insert("exec.run_us_per_row", m("exec.run_scan"));
    let dispatch: Vec<f64> = acc
        .dispatch
        .iter()
        .map(|(run, parts, n)| us(run.saturating_sub(*parts)) / *n as f64)
        .collect();
    out.insert("exec.dispatch_us_per_row", median(&dispatch));
    out.insert("exec.count_us_per_row", m("exec.count"));
    out.insert(
        "exec.gather_wait_share",
        ratio(c.gather_ns as f64, read_busy_ns * workers),
    );
    out.insert(
        "exec.worker_busy_share",
        ratio(c.busy_ns as f64, read_busy_ns * workers),
    );
    out.insert("exec.join_us_per_pair", median(&acc.join_pairs));
    out.insert("storage.fetch_us_per_row", m("storage.fetch"));
    out.insert("storage.decode_us_per_row", m("storage.decode"));
    out.insert(
        "storage.pool_hit_share",
        1.0 - ratio(c.physical as f64, c.logical as f64),
    );
    out.insert(
        "storage.physical_reads_per_op",
        ratio(c.physical as f64, st.ops as f64),
    );
    out.insert("storage.commit_us", m("storage.commit"));
    out.insert("storage.wal_bytes_per_txn", ratio(c.wal_bytes as f64, txns));
    out.insert("storage.fsyncs_per_txn", ratio(c.fsyncs as f64, txns));
    out.insert("txn.visibility_us_per_row", m("txn.visibility"));
    out.insert(
        "txn.dead_version_share",
        ratio(acc.dead_versions as f64, acc.scanned_versions as f64),
    );
    out.insert("txn.begin_us", m("txn.begin"));
    out.insert(
        "txn.conflict_share",
        ratio(c.conflicts as f64, c.begins as f64),
    );
    out.insert("mtree.search_us", m("mtree.search"));
    out.insert("mtree.distance_calls_per_search", median(&acc.mtree_dist));
    out.insert(
        "mtree.useful_share",
        ratio(acc.mtree_matches as f64, acc.mtree_comparisons as f64),
    );
    out.insert("index.btree_lookup_us", m("index.btree_lookup"));
    out.insert("mural.psi_batch_us_per_row", m("mural.psi_batch"));
    out.insert("mural.psi_pair_us", m("mural.psi_pair"));
    out.insert("mural.omega_batch_us_per_row", m("mural.omega_batch"));
    out.insert("mural.synset_resolve_us_per_row", m("mural.synset_resolve"));
    out.insert(
        "mural.phoneme_slice_ns_per_row",
        m("mural.phoneme_slice") * 1e3,
    );
    out.insert("phonetics.g2p_us_per_probe", m("phonetics.g2p"));
    out.insert("phonetics.kernel_us_per_pair", m("phonetics.kernel"));
    out.insert(
        "phonetics.match_share",
        ratio(acc.kernel_matches as f64, acc.kernel_calls as f64),
    );
    out.insert("taxonomy.contains_ns", m("taxonomy.contains") * 1e3);
    out.insert(
        "taxonomy.fallback_share",
        ratio(acc.contains_fallbacks as f64, acc.contains_probes as f64),
    );
    out.insert("taxonomy.closure_us", m("taxonomy.closure"));
    let exec_ns = acc.session_exec.as_secs_f64();
    out.insert(
        "trace.unaccounted_share",
        1.0 - ratio(acc.layer_self.as_secs_f64(), exec_ns),
    );
    out.insert(
        "trace.overhead_ratio",
        ratio(acc.replay_total.as_secs_f64(), exec_ns),
    );

    let path = std::path::PathBuf::from(format!(".bench_tmp/spans-{}-{seed}.tsv", kind.name()));
    if let Err(e) = t.write_out(&path) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
    Ok((
        Ledger {
            metrics: out,
            attempted: st.attempted,
            failed: st.failed,
            spans: t.spans.len(),
        },
        gens,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("root");
        t.span("child", 1, || std::thread::sleep(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(5));
        t.end(root, 1);
        let total = t.duration(root);
        let own = t.self_time(root);
        assert!(own >= Duration::from_millis(5) && own < total);
        assert_eq!(own + t.duration(root + 1), total);
        assert_eq!(t.spans[root + 1].parent, Some(root));
        assert!(t.per_unit_us("child") >= 20_000.0);
    }
}
