//! JSON codecs of the hierarchy's statistics and configuration — every
//! counter the experiment runner persists into `results/matrix.json` and
//! the result store decodes back.

use crate::cache::{CacheConfig, CacheStats};
use crate::hierarchy::{HierarchyConfig, HierarchyStats};
use crate::prefetch::{StrideConfig, StrideStats};
use crate::tlb::{TlbConfig, TlbStats};
use lvp_json::json_struct;

json_struct!(CacheStats {
    accesses,
    hits,
    misses,
    probes,
    probe_hits,
    prefetch_fills,
});
json_struct!(TlbStats { accesses, misses });
json_struct!(StrideStats { trains, prefetches });
json_struct!(HierarchyStats {
    l1i,
    l1d,
    l2,
    l3,
    tlb,
    prefetch,
    dlvp_prefetches,
});

json_struct!(CacheConfig {
    size_bytes,
    ways,
    block_bytes,
    hit_latency,
});
json_struct!(TlbConfig {
    entries,
    ways,
    page_bytes,
    miss_penalty,
});
json_struct!(StrideConfig {
    entries,
    threshold,
    distance,
});
json_struct!(HierarchyConfig {
    l1i,
    l1d,
    l2,
    l3,
    memory_latency,
    tlb,
    prefetch,
    prefetch_enabled,
});

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_json::{FromJson, Json, ToJson};

    #[test]
    fn stats_serialize_every_counter() {
        let s = HierarchyStats::default();
        let j = s.to_json();
        for level in ["l1i", "l1d", "l2", "l3"] {
            assert_eq!(
                j.get(level).and_then(|c| c.get("accesses")),
                Some(&Json::U64(0))
            );
        }
        assert!(j.get("tlb").is_some() && j.get("prefetch").is_some());
    }

    #[test]
    fn config_roundtrips_through_text() {
        let j = HierarchyConfig::default().to_json();
        let text = j.pretty();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn stats_roundtrip_losslessly() {
        let mut s = HierarchyStats::default();
        s.l1d.accesses = 101;
        s.l1d.probe_hits = 7;
        s.l3.misses = u64::MAX - 1;
        s.tlb.misses = 3;
        s.prefetch.trains = 9;
        s.dlvp_prefetches = 12;
        let parsed = Json::parse(&s.to_json().pretty()).unwrap();
        assert_eq!(HierarchyStats::from_json(&parsed).unwrap(), s);
    }

    #[test]
    fn stats_parse_rejects_missing_and_mistyped_fields() {
        let mut j = HierarchyStats::default().to_json();
        assert!(HierarchyStats::from_json(&Json::Null).is_err());
        if let Json::Object(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "l2");
        }
        assert!(HierarchyStats::from_json(&j).is_err());
        let bad = Json::obj([("accesses", Json::Str("ten".into()))]);
        assert!(CacheStats::from_json(&bad).is_err());
    }
}
