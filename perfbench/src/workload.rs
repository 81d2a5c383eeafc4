//! The four workloads: seeded operation streams, the closed loops that
//! drive them through `Session::execute`, and the output checks.

use crate::setup::{fresh_name, gloss, quote, Fixture, Name, LANGS};
use crate::util::{ms, permutation, Zipf};
use mlql::kernel::schema::Row;
use mlql::kernel::{Datum, Error, Result, Session};
use mlql::mural::types::{phoneme_slice, unitext_of_datum};
use mlql::phonetics::distance::edit_distance;
use mlql::taxonomy::closure::compute_closure;
use mlql::taxonomy::SynsetId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PsiSelect,
    OmegaSelect,
    PsiJoin,
    LexiconEdit,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PsiSelect,
        Kind::OmegaSelect,
        Kind::PsiJoin,
        Kind::LexiconEdit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PsiSelect => "psi_select",
            Kind::OmegaSelect => "omega_select",
            Kind::PsiJoin => "psi_join",
            Kind::LexiconEdit => "lexicon_edit",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Concurrent sessions (all from one process; never more than 2).
    pub fn sessions(self) -> usize {
        match self {
            Kind::LexiconEdit => 2,
            _ => 1,
        }
    }
}

/// What a read's output must satisfy.
#[derive(Debug, Clone)]
pub enum Check {
    /// ψ selection of `names[name]` at threshold `k`, optionally limited
    /// to the listed scripts: the ids a full-DP scan finds.
    Psi {
        name: usize,
        k: i64,
        langs: Option<Vec<usize>>,
    },
    /// ψ join of probe group `grp` at threshold `k`: `(probe id, name id)`.
    Join { grp: i64, k: i64 },
    /// Ω selection under `root`: the docs whose synset is in its closure.
    Omega { root: SynsetId },
    /// Lexicon read by id: one row whose gloss is at `version`.
    LexRow { id: i64, version: u32 },
    /// Lexicon homophone check of entry `id`'s name: contains `id`.
    LexHomophone { id: i64 },
}

/// One read statement, preceded by `SET lexequal.threshold` when the
/// session's threshold differs.
#[derive(Debug, Clone)]
pub struct Read {
    pub threshold: Option<i64>,
    pub sql: String,
    pub check: Check,
}

/// What a committed edit transaction makes durable.
#[derive(Debug, Clone)]
pub enum Ack {
    /// New lexicon entries.
    Add(Vec<(i64, Name)>),
    /// Entry `id`'s gloss is now at `version`.
    Correct { id: i64, version: u32 },
    /// One row added to a read-only workload's table.
    Insert,
}

/// One edit transaction: `BEGIN`, `stmts`, `COMMIT`.
#[derive(Debug, Clone)]
pub struct Edit {
    pub stmts: Vec<String>,
    pub ack: Ack,
}

#[derive(Debug, Clone)]
pub enum Op {
    Read(Read),
    Edit(Edit),
}

/// A seeded operation stream for one session.
pub struct OpGen {
    kind: Kind,
    rng: StdRng,
    zipf: Zipf,
    order: Vec<usize>,
    groups: i64,
    roots: Vec<SynsetId>,
    names: Vec<Name>,
    /// Lexicon: this session's entries (acknowledged) and their versions.
    own: Vec<i64>,
    lex_names: HashMap<i64, Name>,
    versions: HashMap<i64, u32>,
    next_id: i64,
    fresh: usize,
    insert_words: Vec<String>,
    /// Operations drawn so far.  The mix (thresholds, language filters,
    /// operation types) follows it in a fixed cycle, so every run has the
    /// same proportions and only the drawn names, roots and ids vary.
    n: u64,
}

impl OpGen {
    pub fn new(fx: &Fixture, kind: Kind, seed: u64, session: usize) -> OpGen {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x5eed_0000 + session as u64 * 7919));
        let order = permutation(fx.names.len(), &mut rng);
        let mut own = Vec::new();
        let mut lex_names = HashMap::new();
        if kind == Kind::LexiconEdit {
            let per = fx.names.len() / kind.sessions();
            for id in session * per..(session + 1) * per {
                own.push(id as i64);
                lex_names.insert(id as i64, fx.names[id].clone());
            }
        }
        let insert_words = fx.taxonomy.as_ref().map_or_else(Vec::new, |t| {
            (0..64)
                .map(|_| t.words(SynsetId(rng.gen_range(0..t.len() as u32)))[0].clone())
                .collect()
        });
        OpGen {
            kind,
            zipf: Zipf::new(fx.names.len().max(1)),
            order,
            groups: fx.probes.last().map_or(0, |p| p.1 + 1),
            roots: fx.roots.clone(),
            names: fx.names.clone(),
            own,
            lex_names,
            versions: HashMap::new(),
            next_id: 10_000_000 * (session as i64 + 1),
            fresh: session * 1_000_000,
            insert_words,
            rng,
            n: 0,
        }
    }

    /// A corpus name drawn Zipf-skewed, so popular names repeat.
    fn popular_name(&mut self) -> usize {
        self.order[self.zipf.sample(&mut self.rng)]
    }

    pub fn next(&mut self) -> Op {
        self.n += 1;
        // Thresholds 1, 2, 3 in turn.
        let k = 1 + (self.n % 3) as i64;
        match self.kind {
            Kind::PsiSelect => {
                let name = self.popular_name();
                // Three in ten selections name their scripts.
                let langs = ((self.n / 3) % 10 < 3).then(|| {
                    let a = self.rng.gen_range(0..LANGS.len());
                    let b = self.rng.gen_range(0..LANGS.len());
                    let mut l = vec![a, b];
                    l.sort();
                    l.dedup();
                    l
                });
                let filter = langs.as_ref().map_or(String::new(), |l| {
                    let list: Vec<&str> = l.iter().map(|&i| LANGS[i]).collect();
                    format!(" IN ({})", list.join(", "))
                });
                Op::Read(Read {
                    threshold: Some(k),
                    sql: format!(
                        "SELECT id, name FROM names WHERE name LEXEQUAL {}{filter}",
                        self.names[name].sql()
                    ),
                    check: Check::Psi { name, k, langs },
                })
            }
            Kind::PsiJoin => {
                let grp = self.rng.gen_range(0..self.groups.max(1));
                Op::Read(Read {
                    threshold: Some(k),
                    sql: format!(
                        "SELECT q.id, n.id FROM probes q, names n \
                         WHERE q.grp = {grp} AND q.p LEXEQUAL n.name"
                    ),
                    check: Check::Join { grp, k },
                })
            }
            Kind::OmegaSelect => {
                let root = self.roots[self.rng.gen_range(0..self.roots.len())];
                Op::Read(Read {
                    threshold: None,
                    sql: String::new(),
                    check: Check::Omega { root },
                })
            }
            Kind::LexiconEdit => self.next_lexicon(),
        }
    }

    fn next_lexicon(&mut self) -> Op {
        // Per ten operations: five reads by id, two homophone checks, two
        // add-entry and one correction transactions.
        const MIX: [u8; 10] = [0, 1, 2, 0, 0, 3, 0, 1, 2, 0];
        let op = MIX[(self.n % MIX.len() as u64) as usize];
        let id = self.own[self.rng.gen_range(0..self.own.len())];
        if op == 0 {
            Op::Read(Read {
                threshold: Some(1),
                sql: format!("SELECT id, name, gloss FROM lexicon WHERE id = {id}"),
                check: Check::LexRow {
                    id,
                    version: self.versions.get(&id).copied().unwrap_or(0),
                },
            })
        } else if op == 1 {
            Op::Read(Read {
                threshold: Some(1),
                sql: format!(
                    "SELECT id FROM lexicon WHERE name LEXEQUAL {}",
                    self.lex_names[&id].sql()
                ),
                check: Check::LexHomophone { id },
            })
        } else if op == 2 {
            let (en, hi) = fresh_name(self.fresh);
            self.fresh += 1;
            let (a, b) = (self.next_id, self.next_id + 1);
            self.next_id += 2;
            Op::Edit(Edit {
                stmts: vec![
                    format!(
                        "INSERT INTO lexicon VALUES {}",
                        crate::setup::lexicon_row(a, &en)
                    ),
                    format!(
                        "INSERT INTO lexicon VALUES {}",
                        crate::setup::lexicon_row(b, &hi)
                    ),
                ],
                ack: Ack::Add(vec![(a, en), (b, hi)]),
            })
        } else {
            let version = self.versions.get(&id).copied().unwrap_or(0) + 1;
            Op::Edit(Edit {
                stmts: vec![format!(
                    "UPDATE lexicon SET gloss = '{}' WHERE id = {id}",
                    gloss(id, version)
                )],
                ack: Ack::Correct { id, version },
            })
        }
    }

    /// A read-only workload's edit: one new row with id `id`.
    pub fn insert_edit(&mut self, table: &str, id: i64) -> Edit {
        let value = match self.kind {
            Kind::OmegaSelect => {
                let w = &self.insert_words[self.rng.gen_range(0..self.insert_words.len())];
                format!("unitext('{}','English')", quote(w))
            }
            _ => {
                let (en, _) = fresh_name(self.fresh);
                self.fresh += 1;
                en.sql()
            }
        };
        Edit {
            stmts: vec![format!("INSERT INTO {table} VALUES ({id}, {value})")],
            ack: Ack::Insert,
        }
    }

    /// Record a committed edit in this session's model.
    pub fn acknowledge(&mut self, ack: &Ack) {
        match ack {
            Ack::Add(rows) => {
                for (id, name) in rows {
                    self.own.push(*id);
                    self.lex_names.insert(*id, name.clone());
                }
            }
            Ack::Correct { id, version } => {
                self.versions.insert(*id, *version);
            }
            Ack::Insert => {}
        }
    }

    /// This session's acknowledged entries with their gloss versions.
    pub fn model(&self) -> Vec<(i64, u32)> {
        self.own
            .iter()
            .map(|id| (*id, self.versions.get(id).copied().unwrap_or(0)))
            .collect()
    }
}

/// The Ω statement for `root` (needs the fixture's taxonomy for the word).
pub fn omega_sql(fx: &Fixture, root: SynsetId) -> String {
    let t = fx.taxonomy.as_ref().expect("omega fixture");
    format!(
        "SELECT id FROM docs WHERE category SEMEQUAL unitext('{}','English')",
        quote(&t.words(root)[0])
    )
}

/// A read with its SQL filled in.
pub fn resolve(fx: &Fixture, mut r: Read) -> Read {
    if let Check::Omega { root } = r.check {
        r.sql = omega_sql(fx, root);
    }
    r
}

/// `SET lexequal.threshold` when `want` differs from the session's
/// `current` threshold.
pub fn set_threshold(s: &mut Session, current: &mut Option<i64>, want: Option<i64>) -> Result<()> {
    if let Some(k) = want {
        if *current != want {
            s.execute(&format!("SET lexequal.threshold = {k}"))?;
            *current = want;
        }
    }
    Ok(())
}

/// Run a read on `s`: set the threshold if needed (untimed), then time the
/// statement.
pub fn run_read(
    s: &mut Session,
    current_k: &mut Option<i64>,
    r: &Read,
) -> Result<(Duration, Vec<Row>)> {
    set_threshold(s, current_k, r.threshold)?;
    let start = Instant::now();
    let rows = s.execute(&r.sql)?.rows;
    Ok((start.elapsed(), rows))
}

/// The integer columns the checks compare: the first, and the second for
/// joins (-1 where a column is absent or not an integer).
pub fn ids(rows: &[Row]) -> Vec<(i64, i64)> {
    rows.iter()
        .map(|row| {
            let a = row.first().and_then(Datum::as_int).unwrap_or(-1);
            let b = row.get(1).and_then(Datum::as_int).unwrap_or(-1);
            (a, b)
        })
        .collect()
}

/// Run an edit transaction from `BEGIN` sent to `COMMIT` returned.  A
/// failed statement rolls the transaction back and is returned as `Err`.
pub fn run_edit(s: &mut Session, e: &Edit) -> Result<Duration> {
    let start = Instant::now();
    s.execute("BEGIN")?;
    for stmt in &e.stmts {
        if let Err(err) = s.execute(stmt) {
            let _ = s.execute("ROLLBACK");
            return Err(err);
        }
    }
    s.execute("COMMIT")?;
    Ok(start.elapsed())
}

/// The truth the sampled reads are checked against, built from the
/// table's decoded rows with the full-DP edit distance and
/// `compute_closure`, never from the engine's own operators.
pub struct Oracle {
    /// Decoded `(id, language index, phonemes)` of the names table.
    rows: Vec<(i64, usize, Vec<u8>)>,
    /// Probe phonemes by name index.
    probe_ph: HashMap<usize, Vec<u8>>,
}

impl Oracle {
    pub fn new(fx: &Fixture) -> Result<Oracle> {
        let mut rows = Vec::new();
        if fx.table == "names" {
            let langs: Vec<_> = LANGS.iter().map(|l| fx.mural.langs.id_of(l)).collect();
            let mut s = fx.connect();
            for row in s.query(&format!(
                "SELECT id, name FROM names WHERE id < {EDIT_ID_BASE}"
            ))? {
                let id = row[0].as_int().unwrap_or(-1);
                let v = unitext_of_datum(&row[1])?;
                let lang = langs.iter().position(|&l| l == v.lang()).unwrap_or(0);
                let ph = match &row[1] {
                    Datum::Ext { bytes, .. } => phoneme_slice(bytes).unwrap_or(&[]).to_vec(),
                    _ => Vec::new(),
                };
                rows.push((id, lang, ph));
            }
        }
        Ok(Oracle {
            rows,
            probe_ph: HashMap::new(),
        })
    }

    fn probe(&mut self, fx: &Fixture, name: usize) -> Result<Vec<u8>> {
        if let Some(p) = self.probe_ph.get(&name) {
            return Ok(p.clone());
        }
        let n = &fx.names[name];
        let d = fx.mural.unitext(&n.text, LANGS[n.lang])?;
        let ph = match &d {
            Datum::Ext { bytes, .. } => phoneme_slice(bytes).unwrap_or(&[]).to_vec(),
            _ => Vec::new(),
        };
        self.probe_ph.insert(name, ph.clone());
        Ok(ph)
    }

    fn psi_ids(
        &mut self,
        fx: &Fixture,
        name: usize,
        k: i64,
        langs: Option<&[usize]>,
    ) -> Result<Vec<i64>> {
        let q = self.probe(fx, name)?;
        Ok(self
            .rows
            .iter()
            .filter(|(_, l, _)| langs.is_none_or(|ls| ls.contains(l)))
            .filter(|(_, _, ph)| edit_distance(ph, &q) <= k as usize)
            .map(|(id, _, _)| *id)
            .collect())
    }

    /// Does `got` (sorted or not) equal the truth for `check`?
    pub fn verify(&mut self, fx: &Fixture, check: &Check, got: &[(i64, i64)]) -> Result<bool> {
        let row_id = |g: &(i64, i64)| {
            if matches!(check, Check::Join { .. }) {
                g.1
            } else {
                g.0
            }
        };
        let mut got: Vec<(i64, i64)> = got
            .iter()
            .filter(|g| row_id(g) < EDIT_ID_BASE)
            .copied()
            .collect();
        got.sort_unstable();
        let want: Vec<(i64, i64)> = match check {
            Check::Psi { name, k, langs } => self
                .psi_ids(fx, *name, *k, langs.as_deref())?
                .into_iter()
                .map(|id| (id, -1))
                .collect(),
            Check::Join { grp, k } => {
                let mut pairs = Vec::new();
                for &(pid, g, name) in &fx.probes {
                    if g == *grp {
                        for id in self.psi_ids(fx, name, *k, None)? {
                            pairs.push((pid, id));
                        }
                    }
                }
                pairs
            }
            Check::Omega { root } => {
                let t = fx.taxonomy.as_ref().expect("omega fixture");
                let closure = compute_closure(t, *root);
                fx.docs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| closure.contains(s))
                    .map(|(i, _)| (i as i64, -1))
                    .collect()
            }
            // Checked inline by the session that issued them.
            Check::LexRow { .. } | Check::LexHomophone { .. } => return Ok(true),
        };
        let mut want = want;
        want.sort_unstable();
        if matches!(check, Check::Psi { .. } | Check::Omega { .. }) {
            // The name / category column is not an integer.
            for g in &mut got {
                g.1 = -1;
            }
        }
        if got != want {
            eprintln!(
                "perfbench: output check failed for {check:?}: {} rows, expected {}",
                got.len(),
                want.len()
            );
        }
        Ok(got == want)
    }
}

/// Cheap checks a lexicon session makes on its own reads, against the
/// model only it writes.
fn lexicon_read_ok(check: &Check, rows: &[Row]) -> bool {
    match check {
        Check::LexRow { id, version } => {
            rows.len() == 1
                && rows[0][0].as_int() == Some(*id)
                && rows[0][2].as_text() == Some(gloss(*id, *version).as_str())
        }
        Check::LexHomophone { id } => rows.iter().any(|r| r[0].as_int() == Some(*id)),
        _ => true,
    }
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
    /// Committed one-row inserts of a read-only workload.
    pub edits: u64,
    /// Sampled reads awaiting the oracle: `(check, result)`.
    pub samples: Vec<(Check, Vec<(i64, i64)>)>,
}

impl LoopStats {
    fn absorb(&mut self, o: LoopStats) {
        self.read_ms.extend(o.read_ms);
        self.write_ms.extend(o.write_ms);
        self.ops += o.ops;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wall = self.wall.max(o.wall);
        self.edits += o.edits;
        self.samples.extend(o.samples);
    }
}

/// Every how many reads one is kept for the oracle, and at most how many.
fn sampling(kind: Kind) -> (u64, usize) {
    match kind {
        Kind::PsiJoin => (16, 12),
        _ => (16, 40),
    }
}

/// Rows the read-only workloads insert while they run have ids from here
/// on; the sampled read checks leave them out.
pub const EDIT_ID_BASE: i64 = 100_000_000;

/// One session's closed loop until `deadline`.  Operations finished
/// before `measure_from` warm caches up: they are checked but not timed.
/// `edits` one-row insert transactions are spread evenly over the
/// measured time (the read-only workloads' write side).
fn session_loop(
    fx: &Fixture,
    kind: Kind,
    s: &mut Session,
    gen: &mut OpGen,
    measure_from: Instant,
    deadline: Instant,
    edits: usize,
) -> LoopStats {
    let mut st = LoopStats::default();
    let (every, cap) = sampling(kind);
    let span = deadline
        .saturating_duration_since(measure_from)
        .as_secs_f64();
    let mut k = None;
    let mut edits_done = 0;
    while Instant::now() < deadline {
        let timed = Instant::now() >= measure_from;
        st.attempted += 1;
        match gen.next() {
            Op::Read(r) => {
                let r = resolve(fx, r);
                match run_read(s, &mut k, &r) {
                    Ok((took, rows)) => {
                        if timed {
                            st.read_ms.push(ms(took));
                            st.ops += 1;
                        }
                        if kind == Kind::LexiconEdit {
                            if !lexicon_read_ok(&r.check, &rows) {
                                st.failed += 1;
                            }
                        } else if st.attempted % every == 1 && st.samples.len() < cap {
                            st.samples.push((r.check, ids(&rows)));
                        }
                    }
                    Err(_) => st.failed += 1,
                }
            }
            Op::Edit(e) => match run_edit(s, &e) {
                Ok(took) => {
                    if timed {
                        st.write_ms.push(ms(took));
                        st.ops += 1;
                    }
                    gen.acknowledge(&e.ack);
                }
                Err(_) => st.failed += 1,
            },
        }
        if !timed {
            continue;
        }
        let due = (edits as f64 * measure_from.elapsed().as_secs_f64() / span).ceil() as usize;
        while edits_done < due.min(edits) {
            st.attempted += 1;
            let e = gen.insert_edit(fx.table, EDIT_ID_BASE + edits_done as i64);
            edits_done += 1;
            match run_edit(s, &e) {
                Ok(took) => {
                    st.write_ms.push(ms(took));
                    st.edits += 1;
                }
                Err(_) => st.failed += 1,
            }
        }
    }
    st.wall = Instant::now().saturating_duration_since(measure_from);
    st
}

/// Ω: one pass over the probe roots, so the closures the shared cache
/// keeps are built before timing, as they are for users who ask about the
/// same categories again and again.  Other workloads warm up by time.
pub fn warm_up(fx: &Fixture, kind: Kind) -> Result<()> {
    if kind == Kind::OmegaSelect {
        let mut s = fx.connect();
        for &root in &fx.roots {
            s.execute(&omega_sql(fx, root))?;
        }
    }
    Ok(())
}

/// The closed loop of `kind` on all its sessions (after [`warm_up`]):
/// `warm` seconds of warm-up, then `secs` seconds measured, with `edits` insert
/// transactions spread over them (read-only workloads; the table's row
/// count must grow by exactly the committed ones).  Returns the
/// generators, whose models hold every acknowledged lexicon edit.
pub fn closed_loop(
    fx: &Fixture,
    kind: Kind,
    seed: u64,
    warm: f64,
    secs: f64,
    edits: usize,
) -> Result<(LoopStats, Vec<OpGen>)> {
    let count = || -> Result<i64> {
        Ok(fx
            .connect()
            .query(&format!("SELECT count(*) FROM {}", fx.table))?[0][0]
            .as_int()
            .unwrap_or(-1))
    };
    let before = count()?;
    let measure_from = Instant::now() + Duration::from_secs_f64(warm);
    let deadline = measure_from + Duration::from_secs_f64(secs);
    let mut gens: Vec<OpGen> = (0..kind.sessions())
        .map(|i| OpGen::new(fx, kind, seed, i))
        .collect();
    let mut total = LoopStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .map(|gen| {
                let mut s = fx.connect();
                scope.spawn(move || {
                    session_loop(fx, kind, &mut s, gen, measure_from, deadline, edits)
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("session thread panicked"));
        }
    });
    if kind != Kind::LexiconEdit {
        total.attempted += 1;
        if count()? != before + total.edits as i64 {
            total.failed += 1;
        }
    }
    Ok((total, gens))
}

/// Check the sampled reads against the oracle; returns failures.
pub fn check_samples(fx: &Fixture, st: &LoopStats) -> Result<u64> {
    let mut oracle = Oracle::new(fx)?;
    let mut failed = 0;
    for (check, got) in &st.samples {
        if !oracle.verify(fx, check, got)? {
            failed += 1;
        }
    }
    Ok(failed)
}

/// Reopen the lexicon directory through recovery and check that every
/// acknowledged add and correction is there.  Returns (failures, the
/// reopen time).
pub fn check_recovery(dir: &std::path::Path, model: &[(i64, u32)]) -> Result<(u64, Duration)> {
    let start = Instant::now();
    let (db, _mural) = crate::setup::reopen(dir)?;
    let took = start.elapsed();
    let mut s = db.connect();
    let mut found: BTreeMap<i64, String> = BTreeMap::new();
    for row in s.query("SELECT id, gloss FROM lexicon")? {
        if let (Some(id), Some(g)) = (row[0].as_int(), row[1].as_text()) {
            found.insert(id, g.to_string());
        }
    }
    let mut failed = 0;
    for &(id, version) in model {
        if found.get(&id).map(String::as_str) != Some(gloss(id, version).as_str()) {
            failed += 1;
        }
    }
    if found.len() != model.len() {
        failed += 1;
    }
    Ok((failed, took))
}

/// Treat an engine error on set-up paths as fatal with context.
pub fn fatal(what: &str, e: Error) -> ! {
    eprintln!("perfbench: {what}: {e}");
    std::process::exit(2)
}
