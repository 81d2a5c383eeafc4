//! `Database`: the engine opener the repo benchmark (`perfbench/`) still
//! imports.  It exists only for that harness and goes once perfbench
//! opens engines with [`Engine::in_memory`] / [`Engine::open`] itself;
//! everything else uses [`Engine`] and [`Session`](crate::Session)
//! directly.

use crate::engine::Engine;
use crate::error::Result;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// An opened [`Engine`].  Derefs to `Arc<Engine>`, so `connect` and
/// extension installs (`install(&mut db)`) go straight to the engine.
pub struct Database(Arc<Engine>);

impl Database {
    /// A fresh in-memory engine.
    pub fn new_in_memory() -> Database {
        Database(Engine::in_memory())
    }

    /// [`Engine::open`] under `dir`.
    pub fn open_with_extensions(
        dir: impl AsRef<Path>,
        install: impl FnOnce(&Engine) -> Result<()>,
    ) -> Result<Database> {
        Engine::open(dir, install).map(Database)
    }

    /// The engine behind this handle.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.0
    }
}

impl Deref for Database {
    type Target = Arc<Engine>;

    fn deref(&self) -> &Arc<Engine> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Session;
    use crate::value::Datum;

    /// The session state an extension install leaves behind (Mural
    /// registers `lexequal.threshold = 2`).
    fn install_threshold(engine: &Engine) -> Result<()> {
        engine
            .catalog_mut()
            .set_session_default("lexequal.threshold", Datum::Int(2));
        Ok(())
    }

    fn threshold(s: &mut Session) -> Option<String> {
        let r = s.execute("SHOW lexequal.threshold").unwrap();
        r.rows[0][0].as_text().map(str::to_string)
    }

    #[test]
    fn opener_and_engine_sessions_share_extension_defaults() {
        let db = Database::new_in_memory();
        install_threshold(&db).unwrap();
        let mut via_db = db.connect();
        let mut via_engine = db.engine().connect();
        assert_eq!(threshold(&mut via_db).as_deref(), Some("2"));
        assert_eq!(threshold(&mut via_engine).as_deref(), Some("2"));
        via_db.execute("SET lexequal.threshold = 5").unwrap();
        assert_eq!(threshold(&mut via_db).as_deref(), Some("5"));
        assert_eq!(threshold(&mut via_engine).as_deref(), Some("2"));
    }

    #[test]
    fn opening_creates_no_hidden_session() {
        let dir = std::env::temp_dir().join(format!("mlql-db-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = Database::open_with_extensions(&dir, install_threshold).unwrap();
        for db in [Database::new_in_memory(), durable] {
            let mut s = db.connect();
            let rows = s.execute("SHOW ACTIVITY").unwrap().rows;
            assert_eq!(rows.len(), 1, "only the issuing session: {rows:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
