//! The memoizing service layer between request data models and execution.
//!
//! [`SimService`] is deliberately generic: it memoizes *JSON payloads*
//! keyed by canonical request hashes, so any consumer that can express a
//! sim as `(request document) -> (payload document)` plugs in without this
//! crate knowing about traces, schemes or configs. Three modes:
//!
//! * **disabled** — pure pass-through; every lookup misses without
//!   counting, [`SimService::cached`] always executes and builds no key.
//!   Runs with the store off take exactly the code path they took before
//!   this layer existed.
//! * **in-memory** — process-local memo only. Used by the fuzz oracle to
//!   dedup the identical scheme runs it previously rebuilt per seed.
//! * **on-disk** — memo in front of a [`Store`]; hits persist across
//!   processes, which is what makes warm `figs --all` re-runs execute
//!   zero sim jobs.
//!
//! A corrupt on-disk entry is treated as a miss (the result is recomputed
//! and the entry rewritten on the next gc), never as an error that fails a
//! run — `store verify` exists to surface corruption loudly.

use crate::cas::{Store, StoreError};
use crate::key::request_key;
use lvp_json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Snapshot of the service's counters, reported into telemetry manifests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups answered from the memo or the on-disk store.
    pub hits: u64,
    /// Lookups that had to execute the sim.
    pub misses: u64,
    /// New entries persisted to disk.
    pub writes: u64,
    /// Identical requests coalesced before lookup (in-flight dedup).
    pub deduped: u64,
}

lvp_json::json_struct!(StoreCounters {
    hits,
    misses,
    writes,
    deduped,
});

/// A memoizing, optionally persistent result service.
pub struct SimService {
    store: Option<Store>,
    memo: Option<Mutex<HashMap<String, Json>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    deduped: AtomicU64,
}

impl SimService {
    fn new(store: Option<Store>, memo: bool) -> SimService {
        SimService {
            store,
            memo: memo.then(|| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
        }
    }

    /// A pass-through service: no memo, no store, no counters.
    pub fn disabled() -> SimService {
        SimService::new(None, false)
    }

    /// A process-local memo with no persistence.
    pub fn in_memory() -> SimService {
        SimService::new(None, true)
    }

    /// A memo backed by an on-disk store rooted at `dir`.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<SimService, StoreError> {
        Ok(SimService::new(Some(Store::open(dir)?), true))
    }

    /// Builds a service from an optional `--store DIR` flag value.
    pub fn from_flag(dir: Option<&str>) -> Result<SimService, StoreError> {
        match dir {
            Some(dir) => SimService::open(dir),
            None => Ok(SimService::disabled()),
        }
    }

    /// Whether lookups can ever hit (memo or store present).
    pub fn enabled(&self) -> bool {
        self.memo.is_some()
    }

    /// The canonical key for a request document.
    pub fn key(&self, request: &Json) -> String {
        request_key(request)
    }

    /// Looks `key` up in the memo, then the store. Counts a hit or a miss;
    /// a corrupt store entry counts as a miss.
    pub fn lookup(&self, key: &str) -> Option<Json> {
        let memo = self.memo.as_ref()?;
        if let Ok(memo) = memo.lock() {
            if let Some(payload) = memo.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(payload.clone());
            }
        }
        if let Some(store) = &self.store {
            if let Ok(Some(payload)) = store.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Ok(mut memo) = memo.lock() {
                    memo.insert(key.to_string(), payload.clone());
                }
                return Some(payload);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Records a freshly computed payload under `key`. A disk write
    /// failure degrades to memo-only operation rather than failing the
    /// run; the error is reported for callers that want to warn.
    pub fn record(&self, key: &str, payload: &Json) -> Result<(), StoreError> {
        let Some(memo) = self.memo.as_ref() else {
            return Ok(());
        };
        if let Ok(mut memo) = memo.lock() {
            memo.insert(key.to_string(), payload.clone());
        }
        if let Some(store) = &self.store {
            if store.put(key, payload)? {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Memoized execution of one request: looks up, else computes and
    /// records. Returns the value and whether it came from the store.
    ///
    /// `request` is only built when the service is enabled, so a disabled
    /// service computes no key (nor whatever the request document needs,
    /// such as a trace fingerprint). A payload that `decode` rejects is
    /// recomputed, exactly like an absent entry. Batch simulations go through
    /// `lvp_bench::simulate_cached`, which shards the misses of many
    /// requests across a worker pool.
    pub fn cached<T>(
        &self,
        request: impl FnOnce() -> Json,
        decode: impl FnOnce(&Json) -> Option<T>,
        encode: impl FnOnce(&T) -> Json,
        compute: impl FnOnce() -> T,
    ) -> (T, bool) {
        if !self.enabled() {
            return (compute(), false);
        }
        let key = self.key(&request());
        if let Some(value) = self.lookup(&key).and_then(|p| decode(&p)) {
            return (value, true);
        }
        let value = compute();
        // The computed value is correct either way; a failed cache write
        // only costs a recomputation next time.
        if let Err(e) = self.record(&key, &encode(&value)) {
            eprintln!("warning: result store write failed: {e}");
        }
        (value, false)
    }

    /// Notes `n` identical requests coalesced before execution.
    pub fn note_deduped(&self, n: u64) {
        if self.enabled() {
            self.deduped.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Snapshot of the hit/miss/write/dedup counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(n: u64) -> Json {
        Json::obj([("n", Json::U64(n))])
    }

    fn cached_u64(svc: &SimService, n: u64, calls: &mut u32, value: u64) -> (u64, bool) {
        svc.cached(
            || req(n),
            |p| match p {
                Json::U64(v) => Some(*v),
                _ => None,
            },
            |v| Json::U64(*v),
            || {
                *calls += 1;
                value
            },
        )
    }

    #[test]
    fn disabled_service_always_computes() {
        let svc = SimService::disabled();
        let mut calls = 0;
        for _ in 0..3 {
            let v = svc.cached(
                || unreachable!("a disabled service builds no request"),
                |_| None,
                |v: &u64| Json::U64(*v),
                || {
                    calls += 1;
                    9u64
                },
            );
            assert_eq!(v, (9, false));
        }
        assert_eq!(calls, 3);
        assert_eq!(svc.counters(), StoreCounters::default());
    }

    #[test]
    fn in_memory_service_memoizes() {
        let svc = SimService::in_memory();
        let mut calls = 0;
        assert_eq!(cached_u64(&svc, 2, &mut calls, 7), (7, false));
        for _ in 0..2 {
            assert_eq!(cached_u64(&svc, 2, &mut calls, 7), (7, true));
        }
        assert_eq!(calls, 1);
        let c = svc.counters();
        assert_eq!((c.hits, c.misses, c.writes), (2, 1, 0));
    }

    #[test]
    fn undecodable_payload_is_recomputed() {
        let svc = SimService::in_memory();
        let key = svc.key(&req(5));
        svc.record(&key, &Json::Str("not a number".into())).unwrap();
        let mut calls = 0;
        assert_eq!(cached_u64(&svc, 5, &mut calls, 50), (50, false));
        assert_eq!(calls, 1, "a payload that does not decode is a miss");
        assert_eq!(cached_u64(&svc, 5, &mut calls, 50), (50, true));
        assert_eq!(calls, 1);
    }

    #[test]
    fn disk_service_hits_across_instances() {
        let dir = std::env::temp_dir().join(format!("lvp-svc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut calls = 0;
        let cold = SimService::open(&dir).unwrap();
        assert_eq!(cached_u64(&cold, 3, &mut calls, 30), (30, false));
        let c = cold.counters();
        assert_eq!((c.hits, c.misses, c.writes), (0, 1, 1));

        let warm = SimService::open(&dir).unwrap();
        assert_eq!(cached_u64(&warm, 3, &mut calls, 30), (30, true));
        assert_eq!(calls, 1, "warm lookup must hit");
        let c = warm.counters();
        assert_eq!((c.hits, c.misses, c.writes), (1, 0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
