//! Checkpoint and recovery: the two halves of durability.
//!
//! [`Engine::checkpoint`] freezes the heaps into a snapshot and truncates
//! the WAL; [`Engine::open`] reverses it — restore the snapshot, replay the
//! WAL tail, rebuild the indexes, and attach the WAL for logging.

use super::{Engine, Session};
use crate::catalog::{Catalog, TableId};
use crate::error::{Error, Result};
use crate::obs;
use crate::snapshot::{self, Snapshot};
use crate::storage::{
    decode_row, encode_version, split_version, BufferPool, FileBackend, FileId, HeapFile,
    SharedWal, StorageBackend, SyncMode, TupleId, Wal, WalReader, WalRecord, FROZEN_TXN_ID,
};
use crate::txn::INVALID_TXN_ID;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

impl Engine {
    /// Checkpoint: vacuum-freeze the heaps, flush dirty pages, persist a
    /// catalog snapshot plus copies of the heap files under the database
    /// root, then truncate the WAL.  Recovery restores from the snapshot
    /// and replays only the WAL tail, so reopen cost is bounded by
    /// post-checkpoint activity.
    ///
    /// The vacuum physically deletes versions dead to a fresh snapshot
    /// (aborted inserts, committed deletes) and freezes every survivor to
    /// `xmin = FROZEN_TXN_ID, xmax = 0` — the snapshot's heap copies must
    /// not reference transaction ids, because recovery starts a fresh
    /// [`TransactionManager`](crate::txn::TransactionManager) whose id
    /// space restarts at 2.  That is only sound when no transaction is in
    /// flight, so a checkpoint with open transactions fails up front.
    ///
    /// In-memory engines (and WAL-only setups without a root) just flush.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(d) = self.durability.get() else {
            self.pool.flush_all()?;
            return Ok(());
        };
        let Some(root) = &d.root else {
            self.pool.flush_all()?;
            return Ok(());
        };
        if self.txns.has_active() {
            return Err(Error::Execution(
                "checkpoint requires no open transactions (vacuum would remove \
                 versions their snapshots still see)"
                    .into(),
            ));
        }
        // Quiesce writers: DML lock first, then the catalog guard — the
        // same order every DML statement uses.  The *write* guard (unlike
        // the read guard the pre-MVCC checkpoint took) also drains running
        // readers, so the vacuum below cannot rewrite version headers
        // under a scan that has already captured its snapshot.  DDL
        // (which takes the catalog write lock without the DML lock)
        // blocks here too, so nothing can append to the WAL between the
        // `sync_now` that fixes the snapshot LSN and the truncation.
        let _writer = self.dml_lock.lock();
        let catalog = self.catalog.write();
        self.vacuum_in(&catalog)?;
        self.txns.clear_aborted();
        let flushed = self.pool.flush_all()?;
        let lsn = d.wal.sync_now()?;
        let snap = Snapshot::capture(&catalog, lsn)?;
        snapshot::write_checkpoint(root, &snap)?;
        // The pointer is durable: every record ≤ lsn is covered by the
        // snapshot and the log can be emptied.  (A crash right here leaves
        // the old log in place; recovery skips records ≤ the snapshot LSN.)
        d.wal.truncate()?;
        let m = obs::metrics();
        m.checkpoints_total.inc();
        m.checkpoint_pages_flushed_total.add(flushed);
        Ok(())
    }

    /// Checkpoint vacuum: physically delete heap versions invisible to a
    /// fresh snapshot and freeze the survivors.  Caller holds the DML
    /// lock and the catalog write guard, and has verified no transaction
    /// is in flight.  Index entries for deleted versions are left behind
    /// on purpose — heap slots are never reused, so a stale entry just
    /// resolves to a missing tuple and is skipped by the scan.
    fn vacuum_in(&self, catalog: &Catalog) -> Result<()> {
        let vis = self.fresh_visibility();
        let frozen_header = encode_version(FROZEN_TXN_ID, INVALID_TXN_ID, &[]);
        for meta in catalog.tables() {
            let mut dead = Vec::new();
            let mut freeze = Vec::new();
            try_scan(&meta.heap, &self.pool, |tid, bytes| {
                let (xmin, xmax, _) = split_version(bytes)?;
                if !vis.sees(xmin, xmax) {
                    dead.push(tid);
                } else if xmin != FROZEN_TXN_ID || xmax != INVALID_TXN_ID {
                    freeze.push(tid);
                }
                Ok(())
            })?;
            for tid in freeze {
                meta.heap.patch(&self.pool, tid, 0, &frozen_header)?;
            }
            for tid in dead {
                meta.heap.delete(&self.pool, tid)?;
            }
        }
        Ok(())
    }

    /// Open (or create) a durable engine under `dir`, replaying the WAL.
    ///
    /// `install` registers extensions on the fresh engine *before* replay.
    /// Extension registration (types, operators, access methods) lives in
    /// code, not the WAL; logged DDL that references extension types
    /// (`CREATE TABLE ... UNITEXT`) needs the extension present when it
    /// replays — the PostgreSQL analogue is that `CREATE EXTENSION`
    /// contents are part of the durable catalog.  Pass `|_| Ok(())` for a
    /// plain engine.
    ///
    /// Heap contents are recovered from the log; **indexes are rebuilt**
    /// from the recovered heaps because — like PostgreSQL 7.4's GiST — our
    /// extensible index layer is not WAL-logged (§4.2.1 of the paper).
    pub fn open(
        dir: impl AsRef<Path>,
        install: impl FnOnce(&Engine) -> Result<()>,
    ) -> Result<Arc<Engine>> {
        Engine::open_with_backend(dir, install, |b| b)
    }

    /// Like [`Engine::open`], with a hook that may wrap the storage
    /// backend (the fault-injection harness interposes a `FaultyBackend`
    /// here).
    ///
    /// Recovery sequence:
    /// 1. If a `CHECKPOINT` pointer exists, verify and load its snapshot,
    ///    and replace the data directory with the checkpoint's heap copies
    ///    (the live heaps may contain post-snapshot effects — the buffer
    ///    pool steals — so they are never trusted).  Otherwise clear the
    ///    heaps: full replay starts from empty.
    /// 2. Install extensions, then restore the catalog from the snapshot
    ///    (all table slots in id order, dead ones included, so replayed
    ///    DDL re-assigns identical table ids).
    /// 3. Stream the WAL tail, applying records with LSN beyond the
    ///    snapshot.  A torn tail ends replay silently; mid-log corruption
    ///    or a record that fails to apply aborts with the LSN/offset.
    /// 4. Rebuild indexes from the heaps (not WAL-logged — §4.2.1).
    /// 5. Attach the WAL for logging (group-commit `fsync` mode).
    pub fn open_with_backend(
        dir: impl AsRef<Path>,
        install: impl FnOnce(&Engine) -> Result<()>,
        wrap: impl FnOnce(Box<dyn StorageBackend>) -> Box<dyn StorageBackend>,
    ) -> Result<Arc<Engine>> {
        let root = dir.as_ref();
        std::fs::create_dir_all(root)?;
        let wal_path = snapshot::wal_path(root);
        let data = snapshot::data_dir(root);
        let checkpoint = snapshot::read_pointer(root)?;
        let snap = match &checkpoint {
            Some(chk) => {
                let s = snapshot::load_snapshot(chk)?;
                snapshot::restore_data_dir(root, chk)?;
                obs::metrics().recovery_snapshot_restores_total.inc();
                Some(s)
            }
            None => {
                snapshot::clear_data_dir(&data)?;
                None
            }
        };
        let base_lsn = snap.as_ref().map_or(0, |s| s.lsn);
        // The engine starts WAL-less, so nothing below re-logs; the WAL is
        // attached once replay completes.
        let backend = wrap(Box::new(FileBackend::open(&data)?));
        let engine = Engine::with_backend(backend);
        install(&engine)?;
        if let Some(s) = &snap {
            let mut catalog = engine.catalog_mut();
            for t in &s.tables {
                let schema = Snapshot::resolve_schema(&catalog, &t.columns)?;
                let heap = HeapFile::attach(FileId(t.heap_file));
                catalog.restore_table(&t.name, schema, heap, t.live)?;
            }
            for i in &s.indexes {
                let table_name = catalog.table_by_id(TableId(i.table_id))?.name.clone();
                catalog.create_index(&table_name, &i.name, i.column as usize, &i.am)?;
            }
        }
        // Replay the tail in two passes.  Pass 1 collects the ids of
        // transactions whose Commit record made it to disk — a DML record
        // in the tail is only as durable as its transaction's Commit, so
        // work from transactions still open at the crash (or whose Commit
        // was torn off the end) must be dropped, not applied.
        let mut committed = HashSet::new();
        if let Some(mut reader) = WalReader::open(&wal_path)? {
            while let Some((lsn, rec)) = reader.next_record()? {
                if lsn <= base_lsn {
                    continue;
                }
                if let WalRecord::Commit { txn } = rec {
                    committed.insert(txn);
                }
            }
        }
        // Pass 2: DDL records carry the original SQL; DML records carry
        // tuple bytes addressed by table id (creation order = id order,
        // which the snapshot's dead slots preserve).  `txn == 0` marks a
        // record committed at append time (pre-MVCC logs and synthetic
        // test records); anything else needs its Commit from pass 1.
        // Records apply through a replay session that is dropped before
        // the engine is handed out.
        if let Some(mut reader) = WalReader::open(&wal_path)? {
            let mut session = engine.connect();
            loop {
                let offset = reader.offset();
                let Some((lsn, rec)) = reader.next_record()? else {
                    break;
                };
                if lsn <= base_lsn {
                    // Already covered by the snapshot (a crash between
                    // checkpoint-pointer commit and WAL truncation leaves
                    // these behind).
                    continue;
                }
                let skip = match &rec {
                    WalRecord::Commit { .. } | WalRecord::Abort { .. } => true,
                    WalRecord::Insert { txn, .. } | WalRecord::Delete { txn, .. } => {
                        *txn != 0 && !committed.contains(txn)
                    }
                    WalRecord::Ddl { .. } => false,
                };
                if skip {
                    continue;
                }
                apply_record(&mut session, rec).map_err(|e| Error::Replay {
                    lsn,
                    offset,
                    source: Box::new(e),
                })?;
                obs::metrics().recovery_replayed_records_total.inc();
            }
        }
        if snap.is_some() {
            // Snapshot restore registered the index *definitions* only;
            // build the structures from the recovered heaps.  (The full-
            // replay path rebuilt them naturally by re-running DDL + DML.)
            engine.rebuild_indexes()?;
        }
        let wal = Wal::open(&wal_path, base_lsn)?;
        engine.attach_durability(
            Arc::new(SharedWal::new(wal, SyncMode::Fsync)),
            Some(root.to_path_buf()),
        );
        Ok(engine)
    }

    /// Rebuild all indexes from their heaps (crash-recovery path for the
    /// non-WAL-logged index layer; also used by tests to verify index
    /// consistency).
    pub fn rebuild_indexes(&self) -> Result<()> {
        let catalog = self.catalog();
        for meta in catalog.tables() {
            let arity = meta.schema.len();
            for idx in catalog.indexes_of(meta.id) {
                let am = catalog
                    .access_method(&idx.am)
                    .ok_or_else(|| Error::Catalog(format!("no access method {:?}", idx.am)))?;
                let mut fresh = am.create()?;
                // Index every version regardless of visibility (same policy
                // as CREATE INDEX back-fill): scans filter through their
                // snapshot, and a version invisible now may be the one a
                // later snapshot needs to reach.
                try_scan(&meta.heap, &self.pool, |tid, bytes| {
                    let (_, _, rest) = split_version(bytes)?;
                    fresh.insert(&decode_row(rest, arity)?[idx.column], tid)
                })?;
                *idx.instance.write() = fresh;
            }
        }
        Ok(())
    }
}

/// Visit every tuple of `heap`, stopping at the first error `visit`
/// returns.
fn try_scan(
    heap: &HeapFile,
    pool: &BufferPool,
    mut visit: impl FnMut(TupleId, &[u8]) -> Result<()>,
) -> Result<()> {
    let mut err = None;
    heap.scan(pool, |tid, bytes| match visit(tid, bytes) {
        Ok(()) => true,
        Err(e) => {
            err = Some(e);
            false
        }
    })?;
    err.map_or(Ok(()), Err)
}

/// Apply one WAL record during replay.
fn apply_record(session: &mut Session, rec: WalRecord) -> Result<()> {
    let (table_id, tuple, insert) = match rec {
        WalRecord::Ddl { sql } => return session.execute(&sql).map(drop),
        WalRecord::Insert {
            table_id, tuple, ..
        } => (table_id, tuple, true),
        WalRecord::Delete {
            table_id, tuple, ..
        } => (table_id, tuple, false),
        // Pass 2 filters these out before `apply_record`; they carry
        // no heap effects of their own.
        WalRecord::Commit { .. } | WalRecord::Abort { .. } => return Ok(()),
    };
    let meta = session.engine().catalog().table_by_id(TableId(table_id))?;
    if insert {
        session.insert_row(&meta.name, decode_row(&tuple, meta.schema.len())?)
    } else {
        session.delete_matching_tuple(&meta.name, &tuple)
    }
}
