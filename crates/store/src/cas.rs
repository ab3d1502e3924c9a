//! On-disk content-addressed store.
//!
//! Layout is git-style sharding: entry for key `abcdef…` lives at
//! `<root>/ab/cdef…` (first two hex chars name the shard directory, the
//! remaining 30 the file). Each entry is a self-describing JSON document:
//!
//! ```text
//! {
//!   "store_version": 1,
//!   "key": "<32 hex>",
//!   "check": "<16 hex fnv1a-64 of canonical payload>",
//!   "payload": { ... }
//! }
//! ```
//!
//! Writes go through a temp file in the shard directory followed by
//! `rename`, so readers never observe a torn entry and concurrent writers
//! of the same key converge on identical bytes (payloads are pure
//! functions of the key). Reads re-verify both the recorded key and the
//! payload check hash, so a corrupted or truncated entry surfaces as
//! [`StoreError::Corrupt`] rather than as silently wrong results.

use crate::key::payload_check;
use lvp_json::Json;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// On-disk entry format version, recorded in every entry.
pub const STORE_VERSION: u64 = 1;

/// Per-process sequence number for temp-file names, so concurrent writers
/// of one key in one process never share a temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Store failures carry the path that failed so CLI diagnostics are
/// actionable.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io { path: PathBuf, source: io::Error },
    /// An entry exists but fails its self-check (bad JSON, wrong version,
    /// mismatched key or payload hash).
    Corrupt { path: PathBuf, reason: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O error at {}: {source}", path.display())
            }
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt store entry {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, source: io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn corrupt(path: &Path, reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

/// Aggregate numbers for `store stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub entries: u64,
    pub bytes: u64,
    pub shards: u64,
}

/// Result of a full-store integrity walk.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    pub ok: u64,
    /// `(key, reason)` for every entry that failed its self-check.
    pub corrupt: Vec<(String, String)>,
}

/// Result of a garbage-collection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    pub kept: u64,
    pub evicted: u64,
    pub removed_corrupt: u64,
}

/// A sharded content-addressed store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

fn valid_key(key: &str) -> bool {
    key.len() == 32
        && key
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err(&root, e))?;
        Ok(Store { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(&key[..2]).join(&key[2..])
    }

    /// Fetches the payload stored under `key`. `Ok(None)` when absent;
    /// [`StoreError::Corrupt`] when present but failing its self-check.
    pub fn get(&self, key: &str) -> Result<Option<Json>, StoreError> {
        if !valid_key(key) {
            return Ok(None);
        }
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        let payload = parse_entry(&path, key, &text)?;
        Ok(Some(payload))
    }

    /// Stores `payload` under `key`. Returns `false` (without writing) if
    /// an entry already exists — first write wins, which is sound because
    /// payloads are pure functions of the key.
    pub fn put(&self, key: &str, payload: &Json) -> Result<bool, StoreError> {
        if !valid_key(key) {
            return Err(corrupt(&self.root, format!("invalid key '{key}'")));
        }
        let path = self.entry_path(key);
        if path.exists() {
            return Ok(false);
        }
        let shard = self.root.join(&key[..2]);
        fs::create_dir_all(&shard).map_err(|e| io_err(&shard, e))?;
        let doc = Json::obj([
            ("store_version", Json::U64(STORE_VERSION)),
            ("key", Json::Str(key.to_string())),
            ("check", Json::Str(payload_check(payload))),
            ("payload", payload.clone()),
        ]);
        let tmp = shard.join(format!(
            ".tmp-{}-{}-{}",
            &key[2..],
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, doc.pretty()).map_err(|e| io_err(&tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        Ok(true)
    }

    /// Every key currently stored, sorted, skipping temp files and
    /// non-entry debris.
    pub fn keys(&self) -> Result<Vec<String>, StoreError> {
        let mut keys = Vec::new();
        for shard in read_dir_sorted(&self.root)? {
            let shard_name = match shard.file_name().and_then(|n| n.to_str()) {
                Some(n) if n.len() == 2 && shard.is_dir() => n.to_string(),
                _ => continue,
            };
            for entry in read_dir_sorted(&shard)? {
                let name = match entry.file_name().and_then(|n| n.to_str()) {
                    Some(n) => n.to_string(),
                    None => continue,
                };
                let key = format!("{shard_name}{name}");
                if valid_key(&key) {
                    keys.push(key);
                }
            }
        }
        keys.sort();
        Ok(keys)
    }

    /// Entry/byte/shard counts.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let mut stats = StoreStats::default();
        let mut shards = std::collections::BTreeSet::new();
        for key in self.keys()? {
            let path = self.entry_path(&key);
            let meta = fs::metadata(&path).map_err(|e| io_err(&path, e))?;
            stats.entries += 1;
            stats.bytes += meta.len();
            shards.insert(key[..2].to_string());
        }
        stats.shards = shards.len() as u64;
        Ok(stats)
    }

    /// Walks every entry and re-runs its self-check.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        for key in self.keys()? {
            match self.get(&key) {
                Ok(Some(_)) => report.ok += 1,
                Ok(None) => {}
                Err(StoreError::Corrupt { reason, .. }) => report.corrupt.push((key, reason)),
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Removes corrupt entries, then — if `max_entries` is given — evicts
    /// oldest-first (modification time, key as deterministic tie-break)
    /// until at most `max_entries` remain.
    pub fn gc(&self, max_entries: Option<u64>) -> Result<GcReport, StoreError> {
        let mut report = GcReport::default();
        let mut live: Vec<(SystemTime, String)> = Vec::new();
        for key in self.keys()? {
            let path = self.entry_path(&key);
            match self.get(&key) {
                Ok(Some(_)) => {
                    let meta = fs::metadata(&path).map_err(|e| io_err(&path, e))?;
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    live.push((mtime, key));
                }
                Ok(None) => {}
                Err(StoreError::Corrupt { .. }) => {
                    fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
                    report.removed_corrupt += 1;
                }
                Err(e) => return Err(e),
            }
        }
        live.sort();
        let evict = max_entries
            .map(|max| live.len().saturating_sub(max as usize))
            .unwrap_or(0);
        for (_, key) in live.iter().take(evict) {
            let path = self.entry_path(key);
            fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            report.evicted += 1;
        }
        report.kept = (live.len() - evict) as u64;
        Ok(report)
    }
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn parse_entry(path: &Path, key: &str, text: &str) -> Result<Json, StoreError> {
    let doc = Json::parse(text).map_err(|e| corrupt(path, format!("unparsable JSON: {e}")))?;
    match doc.get("store_version") {
        Some(&Json::U64(STORE_VERSION)) => {}
        other => {
            return Err(corrupt(
                path,
                format!("unsupported store_version {other:?} (expected {STORE_VERSION})"),
            ))
        }
    }
    match doc.get("key").and_then(Json::as_str) {
        Some(recorded) if recorded == key => {}
        other => return Err(corrupt(path, format!("key mismatch: recorded {other:?}"))),
    }
    let payload = doc
        .get("payload")
        .ok_or_else(|| corrupt(path, "missing payload"))?;
    let expect = payload_check(payload);
    match doc.get("check").and_then(Json::as_str) {
        Some(recorded) if recorded == expect => {}
        other => {
            return Err(corrupt(
                path,
                format!("payload check mismatch: recorded {other:?}, computed {expect}"),
            ))
        }
    }
    Ok(payload.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::request_key;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("lvp-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn put_get_roundtrip_and_shard_layout() {
        let store = temp_store("roundtrip");
        let payload = Json::obj([("cycles", Json::U64(42))]);
        let key = request_key(&Json::obj([("w", Json::Str("x".into()))]));
        assert_eq!(store.get(&key).unwrap(), None);
        assert!(store.put(&key, &payload).unwrap());
        // Second put of the same key is a no-op.
        assert!(!store.put(&key, &payload).unwrap());
        assert_eq!(store.get(&key).unwrap(), Some(payload));
        let path = store.root().join(&key[..2]).join(&key[2..]);
        assert!(path.is_file());
        let stats = store.stats().unwrap();
        assert_eq!((stats.entries, stats.shards), (1, 1));
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn corrupt_entry_is_detected_and_gced() {
        let store = temp_store("corrupt");
        let key_ok = request_key(&Json::U64(1));
        let key_bad = request_key(&Json::U64(2));
        store.put(&key_ok, &Json::U64(10)).unwrap();
        store.put(&key_bad, &Json::U64(20)).unwrap();
        let path = store.root().join(&key_bad[..2]).join(&key_bad[2..]);
        fs::write(&path, "{\"store_version\": 1, \"key\": \"x\"}").unwrap();
        assert!(matches!(
            store.get(&key_bad),
            Err(StoreError::Corrupt { .. })
        ));
        let report = store.verify().unwrap();
        assert_eq!(report.ok, 1);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].0, key_bad);
        let gc = store.gc(None).unwrap();
        assert_eq!((gc.kept, gc.evicted, gc.removed_corrupt), (1, 0, 1));
        assert_eq!(store.verify().unwrap().corrupt.len(), 0);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn gc_evicts_down_to_max_entries() {
        let store = temp_store("gc");
        for i in 0..5u64 {
            store
                .put(&request_key(&Json::U64(i)), &Json::U64(i))
                .unwrap();
        }
        let gc = store.gc(Some(2)).unwrap();
        assert_eq!((gc.kept, gc.evicted), (2, 3));
        assert_eq!(store.keys().unwrap().len(), 2);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn concurrent_same_key_puts_all_succeed_and_leave_no_temp_files() {
        let store = temp_store("race");
        // Each round releases eight writers of one fresh key at once, so
        // their temp writes and renames overlap.
        for round in 0..400u64 {
            let key = request_key(&Json::U64(round));
            let payload = Json::obj([("cycles", Json::U64(round))]);
            let start = std::sync::Barrier::new(8);
            let results: Vec<Result<bool, StoreError>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            store.put(&key, &payload)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("writer thread"))
                    .collect()
            });
            for r in &results {
                assert!(r.is_ok(), "round {round}: concurrent put failed: {r:?}");
            }
            assert_eq!(store.get(&key).unwrap(), Some(payload));
        }
        let report = store.verify().unwrap();
        assert_eq!((report.ok, report.corrupt.len()), (400, 0));
        for shard in read_dir_sorted(store.root()).unwrap() {
            for entry in read_dir_sorted(&shard).unwrap() {
                let name = entry.file_name().unwrap().to_string_lossy().into_owned();
                assert!(!name.starts_with(".tmp-"), "temp file left behind: {name}");
            }
        }
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn temp_files_are_ignored_by_walks() {
        let store = temp_store("tmpfiles");
        let key = request_key(&Json::U64(7));
        store.put(&key, &Json::U64(7)).unwrap();
        fs::write(store.root().join(&key[..2]).join(".tmp-junk-1"), "junk").unwrap();
        assert_eq!(store.keys().unwrap(), vec![key]);
        fs::remove_dir_all(store.root()).unwrap();
    }
}
