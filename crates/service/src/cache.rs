//! Result cache: bounded LRU of per-source distance arrays plus memoized
//! whole-graph labelings.
//!
//! Keys embed the catalog **generation** of the graph they were computed
//! against, so a re-registered graph can never serve stale answers — old
//! entries simply become unreachable and are purged eagerly on
//! re-registration (and lazily by LRU eviction otherwise).
//!
//! Distance arrays (one per `(graph, source)` pair) can be numerous and
//! large, so they live in a bounded LRU. Whole-graph labelings (SCC, CC,
//! coreness) are at most three per registration, so they are memoized
//! without a bound and only dropped on invalidation.

use pasgal_core::multi::DistanceOracle;
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of a shareable computation. Everything a worker computes is
/// keyed by the graph *generation* (not name), plus the source vertex for
/// per-source results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeKey {
    /// BFS hop distances from `src`.
    HopDists { generation: u64, src: u32 },
    /// Weighted SSSP distances from `src` (also serves PTP queries).
    Dists { generation: u64, src: u32 },
    /// SCC labeling of the whole graph.
    SccLabels { generation: u64 },
    /// Connected-component labeling of the whole graph.
    CcLabels { generation: u64 },
    /// Coreness of every vertex.
    Coreness { generation: u64 },
    /// One column of a multi-source BFS flight: hop distances from `src`,
    /// held as a shared [`DistanceOracle`] so every source of the flight
    /// aliases the same column block.
    OracleColumn { generation: u64, src: u32 },
    /// Resident all-pairs distance oracle for a small graph (every vertex
    /// is a source). One entry answers every PTP/SSSP-unit-weight query
    /// on the graph by lookup.
    OracleAllPairs { generation: u64 },
}

impl ComputeKey {
    /// The graph generation this key was computed against.
    pub fn generation(&self) -> u64 {
        match *self {
            ComputeKey::HopDists { generation, .. }
            | ComputeKey::Dists { generation, .. }
            | ComputeKey::SccLabels { generation }
            | ComputeKey::CcLabels { generation }
            | ComputeKey::Coreness { generation }
            | ComputeKey::OracleColumn { generation, .. }
            | ComputeKey::OracleAllPairs { generation } => generation,
        }
    }

    /// Whether this is a distance result (LRU-bounded) as opposed to a
    /// whole-graph labeling (memoized). Oracles count as distances: an
    /// all-pairs oracle is promoted into the same LRU, occupying one slot,
    /// so a cold graph's oracle ages out like any other distance array.
    pub fn is_distance(&self) -> bool {
        matches!(
            self,
            ComputeKey::HopDists { .. }
                | ComputeKey::Dists { .. }
                | ComputeKey::OracleColumn { .. }
                | ComputeKey::OracleAllPairs { .. }
        )
    }

    /// Stable human-readable identity, used by the `health` query to name
    /// breakers: `op@generation[:src]`.
    pub fn describe(&self) -> String {
        match *self {
            ComputeKey::HopDists { generation, src } => format!("bfs@{generation}:{src}"),
            ComputeKey::Dists { generation, src } => format!("sssp@{generation}:{src}"),
            ComputeKey::SccLabels { generation } => format!("scc@{generation}"),
            ComputeKey::CcLabels { generation } => format!("cc@{generation}"),
            ComputeKey::Coreness { generation } => format!("kcore@{generation}"),
            ComputeKey::OracleColumn { generation, src } => format!("oracle@{generation}:{src}"),
            ComputeKey::OracleAllPairs { generation } => format!("oracle@{generation}:*"),
        }
    }
}

/// A shareable computation result. `Arc`-wrapped so cache hits and
/// batched waiters alias one allocation. Every variant carries the round
/// count of the run that produced it (`AlgoStats.rounds`), so queries
/// served from cache still report the rounds the answer originally cost.
#[derive(Debug, Clone)]
pub enum ComputeValue {
    /// BFS hop distances (`u32::MAX` = unreached).
    HopDists { dist: Arc<Vec<u32>>, rounds: u64 },
    /// SSSP distances (`u64::MAX` = unreached).
    Dists { dist: Arc<Vec<u64>>, rounds: u64 },
    /// Component labels plus component count (SCC or CC).
    Labels {
        labels: Arc<Vec<u32>>,
        count: usize,
        rounds: u64,
    },
    /// Per-vertex coreness plus the graph degeneracy.
    Coreness {
        coreness: Arc<Vec<u32>>,
        degeneracy: u32,
        rounds: u64,
    },
    /// Distance oracle from one multi-source flight. Stored under every
    /// `OracleColumn` key of the flight (and under `OracleAllPairs` for
    /// resident small graphs), so all sources alias one column block.
    Oracle {
        oracle: Arc<DistanceOracle>,
        rounds: u64,
    },
}

impl ComputeValue {
    /// Synchronization rounds of the run that produced this value.
    pub fn rounds(&self) -> u64 {
        match *self {
            ComputeValue::HopDists { rounds, .. }
            | ComputeValue::Dists { rounds, .. }
            | ComputeValue::Labels { rounds, .. }
            | ComputeValue::Coreness { rounds, .. }
            | ComputeValue::Oracle { rounds, .. } => rounds,
        }
    }
}

struct Slot {
    value: ComputeValue,
    last_used: u64,
}

/// Single-threaded cache; the service wraps it in a `Mutex`.
pub struct ResultCache {
    capacity: usize,
    tick: u64,
    dists: HashMap<ComputeKey, Slot>,
    labelings: HashMap<ComputeKey, ComputeValue>,
}

impl ResultCache {
    /// `capacity` bounds the number of cached *distance arrays*; labelings
    /// are memoized separately (≤ 3 per live registration).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            dists: HashMap::new(),
            labelings: HashMap::new(),
        }
    }

    /// Look up a result, bumping its recency on hit.
    pub fn get(&mut self, key: &ComputeKey) -> Option<ComputeValue> {
        if key.is_distance() {
            self.tick += 1;
            let tick = self.tick;
            self.dists.get_mut(key).map(|slot| {
                slot.last_used = tick;
                slot.value.clone()
            })
        } else {
            self.labelings.get(key).cloned()
        }
    }

    /// Insert a freshly computed result, evicting the least recently used
    /// distance array if over capacity.
    pub fn insert(&mut self, key: ComputeKey, value: ComputeValue) {
        if key.is_distance() {
            self.tick += 1;
            self.dists.insert(
                key,
                Slot {
                    value,
                    last_used: self.tick,
                },
            );
            while self.dists.len() > self.capacity {
                let oldest = self
                    .dists
                    .iter()
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(k, _)| *k)
                    .expect("non-empty map has a minimum");
                self.dists.remove(&oldest);
            }
        } else {
            self.labelings.insert(key, value);
        }
    }

    /// Drop every entry computed against `generation` (called when a graph
    /// name is re-registered or unregistered).
    pub fn invalidate_generation(&mut self, generation: u64) {
        self.dists.retain(|k, _| k.generation() != generation);
        self.labelings.retain(|k, _| k.generation() != generation);
    }

    /// Remove and return every entry computed against `generation` — the
    /// incremental-invalidation path: the mutation applier takes the
    /// entries out, revalidates or repairs each against the applied edge
    /// delta, and re-inserts the survivors. Taking (rather than peeking)
    /// keeps the cache consistent even if revalidation panics mid-way:
    /// entries are simply gone, never stale.
    pub fn take_generation(&mut self, generation: u64) -> Vec<(ComputeKey, ComputeValue)> {
        let mut out = Vec::new();
        let dist_keys: Vec<ComputeKey> = self
            .dists
            .keys()
            .filter(|k| k.generation() == generation)
            .copied()
            .collect();
        for k in dist_keys {
            let slot = self.dists.remove(&k).expect("key just listed");
            out.push((k, slot.value));
        }
        let label_keys: Vec<ComputeKey> = self
            .labelings
            .keys()
            .filter(|k| k.generation() == generation)
            .copied()
            .collect();
        for k in label_keys {
            let v = self.labelings.remove(&k).expect("key just listed");
            out.push((k, v));
        }
        out
    }

    /// Number of live entries (distance arrays + labelings).
    pub fn len(&self) -> usize {
        self.dists.len() + self.labelings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist_val(n: usize) -> ComputeValue {
        ComputeValue::Dists {
            dist: Arc::new(vec![0; n]),
            rounds: 1,
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = ResultCache::new(2);
        let k = |src| ComputeKey::Dists { generation: 0, src };
        c.insert(k(0), dist_val(1));
        c.insert(k(1), dist_val(1));
        assert!(c.get(&k(0)).is_some()); // bump 0 so 1 is the LRU
        c.insert(k(2), dist_val(1));
        assert!(c.get(&k(0)).is_some());
        assert!(c.get(&k(1)).is_none());
        assert!(c.get(&k(2)).is_some());
    }

    #[test]
    fn labelings_not_bounded_by_distance_capacity() {
        let mut c = ResultCache::new(1);
        c.insert(
            ComputeKey::SccLabels { generation: 0 },
            ComputeValue::Labels {
                labels: Arc::new(vec![0]),
                count: 1,
                rounds: 1,
            },
        );
        c.insert(
            ComputeKey::CcLabels { generation: 0 },
            ComputeValue::Labels {
                labels: Arc::new(vec![0]),
                count: 1,
                rounds: 1,
            },
        );
        c.insert(
            ComputeKey::Dists {
                generation: 0,
                src: 0,
            },
            dist_val(1),
        );
        assert_eq!(c.len(), 3);
        assert!(c.get(&ComputeKey::SccLabels { generation: 0 }).is_some());
    }

    #[test]
    fn oracle_keys_share_the_distance_lru_and_generation_purge() {
        let oracle_val = || ComputeValue::Oracle {
            oracle: Arc::new(DistanceOracle::from_columns(
                2,
                vec![0],
                Arc::new(vec![0, 1]),
            )),
            rounds: 1,
        };
        let mut c = ResultCache::new(2);
        let col = |src| ComputeKey::OracleColumn { generation: 3, src };
        let all = ComputeKey::OracleAllPairs { generation: 3 };
        assert!(col(0).is_distance() && all.is_distance());
        assert_eq!(col(7).describe(), "oracle@3:7");
        assert_eq!(all.describe(), "oracle@3:*");
        c.insert(col(0), oracle_val());
        c.insert(all, oracle_val());
        assert!(c.get(&all).is_some()); // bump so col(0) is the LRU
        c.insert(col(1), oracle_val());
        assert!(c.get(&col(0)).is_none()); // evicted by capacity 2
        assert!(c.get(&all).is_some());
        c.invalidate_generation(3);
        assert!(c.get(&all).is_none());
        assert!(c.get(&col(1)).is_none());
    }

    #[test]
    fn invalidation_is_per_generation() {
        let mut c = ResultCache::new(8);
        c.insert(
            ComputeKey::Dists {
                generation: 1,
                src: 0,
            },
            dist_val(1),
        );
        c.insert(
            ComputeKey::Dists {
                generation: 2,
                src: 0,
            },
            dist_val(1),
        );
        c.insert(
            ComputeKey::Coreness { generation: 1 },
            ComputeValue::Coreness {
                coreness: Arc::new(vec![0]),
                degeneracy: 0,
                rounds: 1,
            },
        );
        c.invalidate_generation(1);
        assert!(c
            .get(&ComputeKey::Dists {
                generation: 1,
                src: 0
            })
            .is_none());
        assert!(c.get(&ComputeKey::Coreness { generation: 1 }).is_none());
        assert!(c
            .get(&ComputeKey::Dists {
                generation: 2,
                src: 0
            })
            .is_some());
    }
}
