//! Data generation and engine set-up for the four workloads.
//!
//! The benchmark makes every row itself; the engine only ever receives
//! SQL text.  The data sets are the paper-scale defaults and the same on
//! every run, so runs with different `--seed`s differ only in the
//! operation streams the seed draws (probes, thresholds, edits) and their
//! figures stay comparable.  `Database` is used for exactly two
//! things, opening the engine and installing the Mural extension; every
//! statement runs through a `Session` from `Database::connect`.

use crate::util::permutation;
use mlql::datagen::{names_dataset, NamesConfig};
use mlql::kernel::{Database, Engine, Result, Session};
use mlql::mural::{install, install_with_taxonomy, Mural};
use mlql::phonetics::indic::IndicScript;
use mlql::phonetics::translit::to_indic;
use mlql::taxonomy::{generate, GeneratorConfig, SynsetId, Taxonomy};
use mlql::unitext::LanguageRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

/// The four scripts of the names corpus, as `unitext()` language names.
pub const LANGS: [&str; 4] = ["English", "Hindi", "Tamil", "Kannada"];

/// Rows per multi-row `INSERT` while loading.
const LOAD_CHUNK: usize = 500;

/// Seed of the generated data sets (names corpus, taxonomy additions,
/// docs, join probes).
const DATA_SEED: u64 = 0x0da7a;

/// Share of synsets that get a second parent (WordNet's multiple
/// inheritance), so some Ω probes leave the interval fast path.
const EXTRA_PARENT_SHARE: f64 = 0.02;

/// Data sizes.  `full` is the paper's scale; `smoke` is a handful of rows
/// for the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub names: usize,
    pub synsets: usize,
    pub docs: usize,
    pub lexicon: usize,
    pub join_groups: usize,
    pub probes_per_group: usize,
    /// Insert transactions spread over a read-only workload's run.
    pub edits: usize,
    /// Ω probe roots drawn per closure-size decade.
    pub roots_per_decade: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Reads the traced run replays through the layers, at most.
    pub replays: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            names: 50_000,
            synsets: 115_000,
            docs: 50_000,
            lexicon: 50_000,
            join_groups: 200,
            probes_per_group: 2,
            edits: 1000,
            roots_per_decade: 8,
            setups: 3,
            replays: 60,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            names: 2_000,
            synsets: 5_000,
            docs: 2_000,
            lexicon: 3_000,
            join_groups: 8,
            probes_per_group: 3,
            edits: 20,
            roots_per_decade: 4,
            setups: 1,
            replays: 6,
        }
    }
}

/// One generated name: its text and its script (index into [`LANGS`]).
#[derive(Debug, Clone)]
pub struct Name {
    pub text: String,
    pub lang: usize,
}

impl Name {
    /// The SQL constructor for this name.
    pub fn sql(&self) -> String {
        format!("unitext('{}','{}')", quote(&self.text), LANGS[self.lang])
    }
}

/// Escape a string for a single-quoted SQL literal.
pub fn quote(s: &str) -> String {
    s.replace('\'', "''")
}

/// The generated names corpus: `n` names over the four scripts.
pub fn gen_names(n: usize) -> Vec<Name> {
    let langs = LanguageRegistry::new();
    let ids = LANGS.map(|l| langs.id_of(l));
    names_dataset(
        &langs,
        &NamesConfig {
            records: n,
            ..NamesConfig::default()
        },
    )
    .into_iter()
    .map(|r| Name {
        text: r.name.text().to_string(),
        lang: ids.iter().position(|&l| l == r.name.lang()).unwrap_or(0),
    })
    .collect()
}

/// A fresh name not drawn from the corpus (edit transactions add these):
/// an English spelling and its Devanagari rendering.
pub fn fresh_name(ordinal: usize) -> (Name, Name) {
    let stem = mlql::datagen::names::stem(10_000 + ordinal);
    let mut english = stem.clone();
    if let Some(first) = english.get_mut(0..1) {
        first.make_ascii_uppercase();
    }
    (
        Name {
            text: english,
            lang: 0,
        },
        Name {
            text: to_indic(IndicScript::Devanagari, &stem),
            lang: 1,
        },
    )
}

/// Load `rows` (each a parenthesized VALUES tuple) with multi-row INSERTs.
pub fn load(s: &mut Session, table: &str, rows: impl Iterator<Item = String>) -> Result<()> {
    let mut chunk = Vec::with_capacity(LOAD_CHUNK);
    let flush = |chunk: &mut Vec<String>, s: &mut Session| -> Result<()> {
        if !chunk.is_empty() {
            s.execute(&format!("INSERT INTO {table} VALUES {}", chunk.join(", ")))?;
            chunk.clear();
        }
        Ok(())
    };
    for row in rows {
        chunk.push(row);
        if chunk.len() == LOAD_CHUNK {
            flush(&mut chunk, s)?;
        }
    }
    flush(&mut chunk, s)
}

/// Everything a workload needs after set-up: the engine, the extension
/// handle, and the generated data the output checks compare against.
pub struct Fixture {
    /// Opens sessions; nothing else touches the `Database` shim.
    db: Database,
    pub engine: Arc<Engine>,
    pub mural: Mural,
    /// Durable database directory (lexicon_edit only).
    pub dir: Option<PathBuf>,
    /// The table the workload's statements mostly read.
    pub table: &'static str,
    /// Names of the main table, `id` = index (names / lexicon).
    pub names: Vec<Name>,
    /// ψ-join probe rows: `(id, grp, index into names)`.
    pub probes: Vec<(i64, i64, usize)>,
    /// Ω: the synset each doc names, `id` = index.
    pub docs: Vec<SynsetId>,
    /// Ω probe roots, spread over closure sizes 1..10⁴.
    pub roots: Vec<SynsetId>,
    pub taxonomy: Option<Arc<Taxonomy>>,
    /// Extra parents added to the generated taxonomy.
    pub extra_parents: usize,
}

impl Fixture {
    fn new(db: Database, mural: Mural, table: &'static str) -> Fixture {
        Fixture {
            engine: Arc::clone(db.engine()),
            db,
            mural,
            dir: None,
            table,
            names: Vec::new(),
            probes: Vec::new(),
            docs: Vec::new(),
            roots: Vec::new(),
            taxonomy: None,
            extra_parents: 0,
        }
    }

    /// A new session against this fixture's engine.
    pub fn connect(&self) -> Session {
        self.db.connect()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `names(id INT, name UNITEXT)` with an M-tree on `name`; `with_probes`
/// adds the ψ-join outer table `probes(id, grp, p)` with a B-tree on `grp`.
pub fn setup_names(sizes: &Sizes, with_probes: bool) -> Result<Fixture> {
    let names = gen_names(sizes.names);
    let mut db = Database::new_in_memory();
    let mural = install(&mut db)?;
    let mut fx = Fixture::new(db, mural, "names");
    let mut s = fx.connect();
    s.execute("CREATE TABLE names (id INT, name UNITEXT)")?;
    load(
        &mut s,
        "names",
        names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("({i}, {})", n.sql())),
    )?;
    s.execute("CREATE INDEX names_mt ON names (name) USING mtree")?;
    s.execute("ANALYZE names")?;
    if with_probes {
        let mut rng = StdRng::seed_from_u64(DATA_SEED);
        let zipf = crate::util::Zipf::new(names.len());
        let order = permutation(names.len(), &mut rng);
        let mut id = 0i64;
        for g in 0..sizes.join_groups {
            for _ in 0..sizes.probes_per_group {
                fx.probes.push((id, g as i64, order[zipf.sample(&mut rng)]));
                id += 1;
            }
        }
        s.execute("CREATE TABLE probes (id INT, grp INT, p UNITEXT)")?;
        load(
            &mut s,
            "probes",
            fx.probes
                .iter()
                .map(|&(id, g, n)| format!("({id}, {g}, {})", names[n].sql())),
        )?;
        s.execute("CREATE INDEX probes_grp ON probes (grp) USING btree")?;
        s.execute("ANALYZE probes")?;
    }
    fx.names = names;
    Ok(fx)
}

/// Subtree sizes along the generated tree (primary parents only; the
/// generator creates parents before children).
fn subtree_sizes(t: &Taxonomy) -> Vec<usize> {
    let n = t.len();
    let mut size = vec![1usize; n];
    for i in (0..n).rev() {
        for &c in t.children(SynsetId(i as u32)) {
            if c.0 as usize > i {
                size[i] += size[c.0 as usize];
            }
        }
    }
    size
}

/// The 115k-synset generated taxonomy with ≈2% extra parents, and
/// `docs(id INT, category UNITEXT)` naming uniformly drawn synsets.
pub fn setup_omega(sizes: &Sizes) -> Result<Fixture> {
    let langs = LanguageRegistry::new();
    let en = langs.id_of("English");
    let mut taxonomy = generate(
        en,
        &GeneratorConfig {
            synsets: sizes.synsets,
            ..GeneratorConfig::default()
        },
    );
    let n = taxonomy.len();
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    // Probe roots by closure-size decade, chosen on the generated tree.
    let size = subtree_sizes(&taxonomy);
    let mut roots = Vec::new();
    for decade in 0..5u32 {
        let (lo, hi) = (10usize.pow(decade), 10usize.pow(decade + 1));
        let bucket: Vec<usize> = (0..n).filter(|&i| size[i] >= lo && size[i] < hi).collect();
        for _ in 0..sizes.roots_per_decade.min(bucket.len()) {
            roots.push(SynsetId(bucket[rng.gen_range(0..bucket.len())] as u32));
        }
    }
    // A second parent for ≈2% of synsets; parents precede children, so
    // the hierarchy stays acyclic.
    let mut extra = 0;
    for _ in 0..(n as f64 * EXTRA_PARENT_SHARE) as usize {
        let child = rng.gen_range(2..n as u32);
        let parent = SynsetId(rng.gen_range(0..child));
        let child = SynsetId(child);
        if !taxonomy.parents(child).contains(&parent) {
            taxonomy.add_hyponym(parent, child);
            extra += 1;
        }
    }
    let docs: Vec<SynsetId> = (0..sizes.docs)
        .map(|_| SynsetId(rng.gen_range(0..n as u32)))
        .collect();
    let mut db = Database::new_in_memory();
    let mural = install_with_taxonomy(&mut db, taxonomy)?;
    let taxonomy = mural.sem.taxonomy();
    let mut fx = Fixture::new(db, mural, "docs");
    let mut s = fx.connect();
    s.execute("CREATE TABLE docs (id INT, category UNITEXT)")?;
    load(
        &mut s,
        "docs",
        docs.iter().enumerate().map(|(i, &sid)| {
            format!(
                "({i}, unitext('{}','English'))",
                quote(&taxonomy.words(sid)[0])
            )
        }),
    )?;
    s.execute("ANALYZE docs")?;
    fx.docs = docs;
    fx.roots = roots;
    fx.taxonomy = Some(taxonomy);
    fx.extra_parents = extra;
    Ok(fx)
}

/// Categories of lexicon entries.
const CATEGORIES: [&str; 8] = [
    "history",
    "fiction",
    "science",
    "poetry",
    "travel",
    "biography",
    "music",
    "art",
];

/// The gloss of entry `id` after `version` corrections: ≈200 bytes, so the
/// 50k-entry heap outgrows the buffer pool.
pub fn gloss(id: i64, version: u32) -> String {
    let mut g = format!("entry {id} revision {version}: ");
    while g.len() < 200 {
        g.push_str("a multilingual lexicon gloss with usage notes; ");
    }
    g.truncate(200);
    g
}

/// One lexicon row as a VALUES tuple.
pub fn lexicon_row(id: i64, name: &Name) -> String {
    format!(
        "({id}, {}, '{}', unitext('{}','English'))",
        name.sql(),
        gloss(id, 0),
        CATEGORIES[id as usize % CATEGORIES.len()]
    )
}

/// Durable `lexicon(id, name, gloss, category)` under `dir`, with a
/// B-tree on `id` and an M-tree on `name`, checkpointed.
pub fn setup_lexicon(sizes: &Sizes, dir: PathBuf) -> Result<Fixture> {
    let names = gen_names(sizes.lexicon);
    let _ = std::fs::remove_dir_all(&dir);
    let mut mural = None;
    let db = Database::open_with_extensions(&dir, |db| {
        mural = Some(install(db)?);
        Ok(())
    })?;
    let mut fx = Fixture::new(db, mural.expect("installed"), "lexicon");
    fx.dir = Some(dir);
    let mut s = fx.connect();
    s.execute("CREATE TABLE lexicon (id INT, name UNITEXT, gloss TEXT, category UNITEXT)")?;
    s.execute("BEGIN")?;
    load(
        &mut s,
        "lexicon",
        names
            .iter()
            .enumerate()
            .map(|(i, n)| lexicon_row(i as i64, n)),
    )?;
    s.execute("COMMIT")?;
    s.execute("CREATE INDEX lexicon_id ON lexicon (id) USING btree")?;
    s.execute("CREATE INDEX lexicon_mt ON lexicon (name) USING mtree")?;
    s.execute("ANALYZE lexicon")?;
    s.engine().checkpoint()?;
    fx.names = names;
    Ok(fx)
}

/// Reopen a durable directory through recovery (`Database` opens the
/// engine; statements still go through sessions).
pub fn reopen(dir: &std::path::Path) -> Result<(Database, Mural)> {
    let mut mural = None;
    let db = Database::open_with_extensions(dir, |db| {
        mural = Some(install(db)?);
        Ok(())
    })?;
    Ok((db, mural.expect("installed")))
}
