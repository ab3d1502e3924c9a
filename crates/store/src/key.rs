//! Canonical request hashing.
//!
//! A store key is the FNV-1a-128 hash of the *canonical* serialization of
//! the request document, wrapped in a schema-version envelope:
//!
//! ```text
//! key = fnv1a_128( canonical( {"key_schema": KEY_SCHEMA_VERSION, "request": <request>} ) )
//! ```
//!
//! Canonical form (see [`lvp_json::Json::canonical`]) sorts object keys
//! recursively and prints floats with the shortest-roundtrip formatter, so
//! structurally equal requests hash identically no matter how their JSON
//! was assembled, and any numeric field survives a parse/serialize cycle
//! with the same bytes. Bumping [`KEY_SCHEMA_VERSION`] changes every key,
//! which is the designed invalidation lever when cached payload layouts
//! change incompatibly.

use lvp_json::Json;

/// Version stamp mixed into every key. Bump when the meaning of cached
/// payloads changes so stale entries become unreachable instead of being
/// misinterpreted. Version 2: each key kind stores exactly one payload
/// shape; version 1 let one `sim` key hold either a bare outcome or a
/// tagged envelope, whichever tool wrote first.
pub const KEY_SCHEMA_VERSION: u64 = 2;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, 128-bit variant. 32 hex chars of output keeps the
/// birthday bound far below any realistic request population.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// FNV-1a over `bytes`, 64-bit variant — used for the per-entry payload
/// integrity check (the same hash family the rest of the workspace uses
/// for seeds and config hashes).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// The content-addressed key for a request document: 32 lowercase hex
/// characters.
pub fn request_key(request: &Json) -> String {
    request_key_versioned(request, KEY_SCHEMA_VERSION)
}

/// [`request_key`] with an explicit schema version — exposed so tests can
/// prove a version bump invalidates existing keys.
pub fn request_key_versioned(request: &Json, version: u64) -> String {
    let envelope = Json::obj([
        ("key_schema", Json::U64(version)),
        ("request", request.clone()),
    ]);
    format!("{:032x}", fnv1a_128(envelope.canonical().as_bytes()))
}

/// Hex form of the 64-bit payload check hash.
pub fn payload_check(payload: &Json) -> String {
    format!("{:016x}", fnv1a_64(payload.canonical().as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_invariant_to_object_key_order() {
        let a = Json::obj([("b", Json::U64(1)), ("a", Json::U64(2))]);
        let b = Json::obj([("a", Json::U64(2)), ("b", Json::U64(1))]);
        assert_eq!(request_key(&a), request_key(&b));
    }

    #[test]
    fn key_is_32_hex_chars() {
        let k = request_key(&Json::Null);
        assert_eq!(k.len(), 32);
        assert!(k.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn distinct_requests_get_distinct_keys() {
        let a = Json::obj([("budget", Json::U64(10_000))]);
        let b = Json::obj([("budget", Json::U64(10_001))]);
        assert_ne!(request_key(&a), request_key(&b));
    }

    #[test]
    fn schema_version_bump_invalidates() {
        let req = Json::obj([("workload", Json::Str("aifirf".into()))]);
        assert_ne!(
            request_key_versioned(&req, KEY_SCHEMA_VERSION),
            request_key_versioned(&req, KEY_SCHEMA_VERSION + 1)
        );
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_128(b""), FNV128_OFFSET);
    }
}
