//! In-memory equivalents of the two stores in the architecture diagram
//! (Fig. 2): Kusto (telemetry) and Cosmos DB (recommendation files).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Append-only telemetry store keyed by metric name — a miniature Kusto.
///
/// Each point is `(timestamp_secs, value)`; queries return points in a time
/// range or aggregate them into fixed intervals (which is exactly how the
/// paper's pipeline consolidates request telemetry into 30-second buckets).
///
/// The simulator writes request telemetry already consolidated: one
/// `requests` point per interval, and one `pool_hit` / `pool_miss` point
/// per interval carrying that interval's count (omitted when zero), plus
/// one point per borrow or fallback resolution in a borrowing fleet. The
/// store therefore grows with intervals, not with requests.
#[derive(Debug, Default, Clone)]
pub struct KustoLite {
    series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl KustoLite {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point. Timestamps are expected to be non-decreasing per
    /// metric (the simulator emits them in event order); out-of-order points
    /// are accepted but kept in arrival order.
    pub fn append(&mut self, metric: &str, timestamp_secs: u64, value: f64) {
        let point = (timestamp_secs, value);
        match self.series.get_mut(metric) {
            Some(points) => points.push(point),
            None => {
                self.series.insert(metric.to_string(), vec![point]);
            }
        }
    }

    /// All points of a metric within `[from, to)`.
    pub fn query_range(&self, metric: &str, from: u64, to: u64) -> Vec<(u64, f64)> {
        self.series
            .get(metric)
            .map(|pts| {
                pts.iter()
                    .filter(|(t, _)| *t >= from && *t < to)
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Sums a metric into fixed buckets of `interval_secs` covering
    /// `[0, until)` — the request-rate series the ML predictor consumes.
    pub fn bucketed_sum(&self, metric: &str, interval_secs: u64, until: u64) -> Vec<f64> {
        let n = (until / interval_secs) as usize;
        let mut out = vec![0.0; n];
        if let Some(pts) = self.series.get(metric) {
            for &(t, v) in pts {
                if t < until {
                    out[(t / interval_secs) as usize] += v;
                }
            }
        }
        out
    }

    /// Total of a metric across all time.
    pub fn total(&self, metric: &str) -> f64 {
        self.series
            .get(metric)
            .map(|p| p.iter().map(|(_, v)| v).sum())
            .unwrap_or(0.0)
    }

    /// Names of metrics seen so far.
    pub fn metrics(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }
}

/// A versioned pool-size recommendation, as persisted by the Intelligent
/// Pooling Worker ("persisting the recommendation files in Cosmos DB").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendationFile {
    /// Second at which the recommendation was generated.
    pub generated_at: u64,
    /// Interval width the targets apply to.
    pub interval_secs: u64,
    /// Target pool size per interval, starting at `generated_at`.
    pub targets: Vec<u32>,
}

impl RecommendationFile {
    /// Target pool size at an absolute time, or `None` when the file no
    /// longer covers it (stale — the §7.6 trigger for default fallback).
    pub fn target_at(&self, now_secs: u64) -> Option<u32> {
        if now_secs < self.generated_at {
            return None;
        }
        let idx = ((now_secs - self.generated_at) / self.interval_secs) as usize;
        self.targets.get(idx).copied()
    }
}

/// Versioned key-value config store — a miniature Cosmos DB container.
#[derive(Debug, Default, Clone)]
pub struct CosmosLite {
    versions: BTreeMap<String, Vec<(u64, String)>>,
}

impl CosmosLite {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a new version of a document; returns the version number.
    pub fn put<T: Serialize>(&mut self, key: &str, value: &T) -> u64 {
        let json = serde_json::to_string(value).expect("serializable document");
        let versions = self.versions.entry(key.to_string()).or_default();
        let v = versions.len() as u64 + 1;
        versions.push((v, json));
        v
    }

    /// Reads the latest version of a document.
    pub fn get_latest<T: for<'de> Deserialize<'de>>(&self, key: &str) -> Option<T> {
        let (_, json) = self.versions.get(key)?.last()?;
        serde_json::from_str(json).ok()
    }

    /// Number of versions stored for a key.
    pub fn version_count(&self, key: &str) -> u64 {
        self.versions.get(key).map(|v| v.len() as u64).unwrap_or(0)
    }

    /// All versions of a document in version order — the full
    /// recommendation history, as compared against the oracle in the
    /// daemon's bit-identity tests. Versions that no longer deserialize as
    /// `T` are skipped.
    pub fn get_all<T: for<'de> Deserialize<'de>>(&self, key: &str) -> Vec<T> {
        self.versions
            .get(key)
            .map(|versions| {
                versions
                    .iter()
                    .filter_map(|(_, json)| serde_json::from_str(json).ok())
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kusto_append_and_query() {
        let mut k = KustoLite::new();
        k.append("requests", 10, 2.0);
        k.append("requests", 40, 1.0);
        k.append("requests", 70, 3.0);
        assert_eq!(k.query_range("requests", 0, 50), vec![(10, 2.0), (40, 1.0)]);
        assert_eq!(k.total("requests"), 6.0);
        assert!(k.query_range("missing", 0, 100).is_empty());
    }

    #[test]
    fn kusto_bucketing() {
        let mut k = KustoLite::new();
        k.append("requests", 5, 1.0);
        k.append("requests", 25, 2.0);
        k.append("requests", 35, 4.0);
        let buckets = k.bucketed_sum("requests", 30, 90);
        assert_eq!(buckets, vec![3.0, 4.0, 0.0]);
    }

    #[test]
    fn cosmos_versioning() {
        let mut c = CosmosLite::new();
        let rec1 = RecommendationFile {
            generated_at: 0,
            interval_secs: 30,
            targets: vec![1, 2],
        };
        let rec2 = RecommendationFile {
            generated_at: 60,
            interval_secs: 30,
            targets: vec![3],
        };
        assert_eq!(c.put("pool", &rec1), 1);
        assert_eq!(c.put("pool", &rec2), 2);
        let latest: RecommendationFile = c.get_latest("pool").unwrap();
        assert_eq!(latest, rec2);
        assert_eq!(c.version_count("pool"), 2);
        assert!(c.get_latest::<RecommendationFile>("nope").is_none());
        assert_eq!(c.get_all::<RecommendationFile>("pool"), vec![rec1, rec2]);
        assert!(c.get_all::<RecommendationFile>("nope").is_empty());
    }

    #[test]
    fn recommendation_target_lookup() {
        let rec = RecommendationFile {
            generated_at: 100,
            interval_secs: 30,
            targets: vec![5, 7, 9],
        };
        assert_eq!(rec.target_at(99), None); // before generation
        assert_eq!(rec.target_at(100), Some(5));
        assert_eq!(rec.target_at(129), Some(5));
        assert_eq!(rec.target_at(130), Some(7));
        assert_eq!(rec.target_at(189), Some(9));
        assert_eq!(rec.target_at(190), None); // stale
    }
}
