//! JSON serialization of the hierarchy's statistics and configuration —
//! every counter the experiment runner persists into `results/matrix.json`.

use crate::cache::{CacheConfig, CacheStats};
use crate::hierarchy::{HierarchyConfig, HierarchyStats};
use crate::prefetch::{StrideConfig, StrideStats};
use crate::tlb::{TlbConfig, TlbStats};
use lvp_json::{Json, ToJson};

/// JSON that does not describe the stats structure it was parsed as.
///
/// Produced by the `from_json` constructors the content-addressed result
/// store uses to rebuild typed counters from cached payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsParseError {
    pub detail: String,
}

impl std::fmt::Display for StatsParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed stats JSON: {}", self.detail)
    }
}

impl std::error::Error for StatsParseError {}

/// Builds a [`StatsParseError`] from a detail message.
pub fn stats_parse_error(detail: impl Into<String>) -> StatsParseError {
    StatsParseError {
        detail: detail.into(),
    }
}

/// Reads a required unsigned-integer field — the workhorse for parsing
/// all-`u64` stats blocks back out of store payloads.
pub fn stats_u64(j: &Json, key: &str) -> Result<u64, StatsParseError> {
    let v = j
        .get(key)
        .ok_or_else(|| stats_parse_error(format!("missing key '{key}'")))?;
    v.as_u64()
        .ok_or_else(|| stats_parse_error(format!("'{key}' must be an unsigned integer, got {v:?}")))
}

fn stats_field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, StatsParseError> {
    j.get(key)
        .ok_or_else(|| stats_parse_error(format!("missing key '{key}'")))
}

impl CacheStats {
    /// Inverse of [`ToJson::to_json`]; exact because every field is `u64`.
    pub fn from_json(j: &Json) -> Result<CacheStats, StatsParseError> {
        Ok(CacheStats {
            accesses: stats_u64(j, "accesses")?,
            hits: stats_u64(j, "hits")?,
            misses: stats_u64(j, "misses")?,
            probes: stats_u64(j, "probes")?,
            probe_hits: stats_u64(j, "probe_hits")?,
            prefetch_fills: stats_u64(j, "prefetch_fills")?,
        })
    }
}

impl TlbStats {
    /// Inverse of [`ToJson::to_json`].
    pub fn from_json(j: &Json) -> Result<TlbStats, StatsParseError> {
        Ok(TlbStats {
            accesses: stats_u64(j, "accesses")?,
            misses: stats_u64(j, "misses")?,
        })
    }
}

impl StrideStats {
    /// Inverse of [`ToJson::to_json`].
    pub fn from_json(j: &Json) -> Result<StrideStats, StatsParseError> {
        Ok(StrideStats {
            trains: stats_u64(j, "trains")?,
            prefetches: stats_u64(j, "prefetches")?,
        })
    }
}

impl HierarchyStats {
    /// Inverse of [`ToJson::to_json`].
    pub fn from_json(j: &Json) -> Result<HierarchyStats, StatsParseError> {
        Ok(HierarchyStats {
            l1i: CacheStats::from_json(stats_field(j, "l1i")?)?,
            l1d: CacheStats::from_json(stats_field(j, "l1d")?)?,
            l2: CacheStats::from_json(stats_field(j, "l2")?)?,
            l3: CacheStats::from_json(stats_field(j, "l3")?)?,
            tlb: TlbStats::from_json(stats_field(j, "tlb")?)?,
            prefetch: StrideStats::from_json(stats_field(j, "prefetch")?)?,
            dlvp_prefetches: stats_u64(j, "dlvp_prefetches")?,
        })
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("accesses", self.accesses.to_json()),
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
            ("probes", self.probes.to_json()),
            ("probe_hits", self.probe_hits.to_json()),
            ("prefetch_fills", self.prefetch_fills.to_json()),
        ])
    }
}

impl ToJson for TlbStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("accesses", self.accesses.to_json()),
            ("misses", self.misses.to_json()),
        ])
    }
}

impl ToJson for StrideStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("trains", self.trains.to_json()),
            ("prefetches", self.prefetches.to_json()),
        ])
    }
}

impl ToJson for HierarchyStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("l1i", self.l1i.to_json()),
            ("l1d", self.l1d.to_json()),
            ("l2", self.l2.to_json()),
            ("l3", self.l3.to_json()),
            ("tlb", self.tlb.to_json()),
            ("prefetch", self.prefetch.to_json()),
            ("dlvp_prefetches", self.dlvp_prefetches.to_json()),
        ])
    }
}

impl ToJson for CacheConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("size_bytes", self.size_bytes.to_json()),
            ("ways", self.ways.to_json()),
            ("block_bytes", self.block_bytes.to_json()),
            ("hit_latency", self.hit_latency.to_json()),
        ])
    }
}

impl ToJson for TlbConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("entries", self.entries.to_json()),
            ("ways", self.ways.to_json()),
            ("page_bytes", self.page_bytes.to_json()),
            ("miss_penalty", self.miss_penalty.to_json()),
        ])
    }
}

impl ToJson for StrideConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("entries", self.entries.to_json()),
            ("threshold", self.threshold.to_json()),
            ("distance", self.distance.to_json()),
        ])
    }
}

impl ToJson for HierarchyConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("l1i", self.l1i.to_json()),
            ("l1d", self.l1d.to_json()),
            ("l2", self.l2.to_json()),
            ("l3", self.l3.to_json()),
            ("memory_latency", self.memory_latency.to_json()),
            ("tlb", self.tlb.to_json()),
            ("prefetch", self.prefetch.to_json()),
            ("prefetch_enabled", self.prefetch_enabled.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
