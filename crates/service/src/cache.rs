//! Result cache: bounded LRU of per-source distance arrays plus memoized
//! whole-graph labelings.
//!
//! Keys embed the catalog **generation** of the graph they were computed
//! against, and each slot carries the **epoch** it answers for: a lookup
//! at any other epoch is a miss, so a hit is always at its query's pinned
//! snapshot. A mutation batch restamps the slots it revalidated in the
//! critical section that publishes it; re-registration drops the old
//! generation.
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
    /// The epoch this value answers for.
    epoch: u64,
    last_used: u64,
}

/// Single-threaded cache; the service wraps it in a `Mutex`.
pub struct ResultCache {
    capacity: usize,
    tick: u64,
    dists: HashMap<ComputeKey, Slot>,
    labelings: HashMap<ComputeKey, Slot>,
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

    fn map(&mut self, key: &ComputeKey) -> &mut HashMap<ComputeKey, Slot> {
        if key.is_distance() {
            &mut self.dists
        } else {
            &mut self.labelings
        }
    }

    /// Look up the result for `key` at `epoch`, bumping its recency on a
    /// hit. A slot stamped with any other epoch is a miss.
    pub fn get(&mut self, key: &ComputeKey, epoch: u64) -> Option<ComputeValue> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.map(key).get_mut(key).filter(|s| s.epoch == epoch)?;
        slot.last_used = tick;
        Some(slot.value.clone())
    }

    /// Insert a result computed at `epoch`, evicting the least recently
    /// used distance array if over capacity.
    pub fn insert(&mut self, key: ComputeKey, epoch: u64, value: ComputeValue) {
        self.tick += 1;
        let last_used = self.tick;
        self.map(&key).insert(
            key,
            Slot {
                value,
                epoch,
                last_used,
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
    }

    /// Clone out every slot of `generation` (cheap: values are `Arc`s),
    /// for revalidation outside the lock.
    pub fn generation_slots(&self, generation: u64) -> Vec<(ComputeKey, ComputeValue)> {
        self.dists
            .iter()
            .chain(&self.labelings)
            .filter(|(k, _)| k.generation() == generation)
            .map(|(k, s)| (*k, s.value.clone()))
            .collect()
    }

    /// Drop every slot of `generation` except `survivors` (keys of that
    /// generation), which take their revalidated value stamped `epoch`
    /// and keep their recency. With no survivors this is the purge of a
    /// re-registered name.
    pub fn restamp_generation(
        &mut self,
        generation: u64,
        epoch: u64,
        mut survivors: HashMap<ComputeKey, ComputeValue>,
    ) {
        let mut restamp = |key: &ComputeKey, slot: &mut Slot| match survivors.remove(key) {
            Some(value) => {
                slot.value = value;
                slot.epoch = epoch;
                true
            }
            None => key.generation() != generation,
        };
        self.dists.retain(|k, s| restamp(k, s));
        self.labelings.retain(|k, s| restamp(k, s));
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
        c.insert(k(0), 0, dist_val(1));
        c.insert(k(1), 0, dist_val(1));
        assert!(c.get(&k(0), 0).is_some()); // bump 0 so 1 is the LRU
        c.insert(k(2), 0, dist_val(1));
        assert!(c.get(&k(0), 0).is_some());
        assert!(c.get(&k(1), 0).is_none());
        assert!(c.get(&k(2), 0).is_some());
    }

    #[test]
    fn a_slot_answers_only_at_its_epoch() {
        let mut c = ResultCache::new(4);
        let dist = ComputeKey::Dists {
            generation: 0,
            src: 0,
        };
        let cc = ComputeKey::CcLabels { generation: 0 };
        c.insert(dist, 5, dist_val(1));
        c.insert(
            cc,
            5,
            ComputeValue::Labels {
                labels: Arc::new(vec![0]),
                count: 1,
                rounds: 1,
            },
        );
        for key in [dist, cc] {
            assert!(c.get(&key, 4).is_none(), "{key:?} hit one epoch early");
            assert!(c.get(&key, 6).is_none(), "{key:?} hit one epoch late");
            assert!(c.get(&key, 5).is_some());
        }
    }

    #[test]
    fn labelings_not_bounded_by_distance_capacity() {
        let mut c = ResultCache::new(1);
        c.insert(
            ComputeKey::SccLabels { generation: 0 },
            0,
            ComputeValue::Labels {
                labels: Arc::new(vec![0]),
                count: 1,
                rounds: 1,
            },
        );
        c.insert(
            ComputeKey::CcLabels { generation: 0 },
            0,
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
            0,
            dist_val(1),
        );
        assert_eq!(c.len(), 3);
        assert!(c.get(&ComputeKey::SccLabels { generation: 0 }, 0).is_some());
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
        c.insert(col(0), 0, oracle_val());
        c.insert(all, 0, oracle_val());
        assert!(c.get(&all, 0).is_some()); // bump so col(0) is the LRU
        c.insert(col(1), 0, oracle_val());
        assert!(c.get(&col(0), 0).is_none()); // evicted by capacity 2
                                              // an all-pairs oracle cached at epoch 0 answers no epoch-1 query
                                              // (so it keeps no such query on the all-pairs key) until a batch
                                              // restamps it
        assert!(c.get(&all, 1).is_none());
        c.restamp_generation(3, 1, HashMap::from([(all, oracle_val())]));
        assert!(c.get(&all, 1).is_some());
        assert!(c.get(&all, 0).is_none());
        assert!(c.get(&col(1), 1).is_none()); // not a survivor: dropped
        c.restamp_generation(3, 0, HashMap::new());
        assert!(c.get(&all, 1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn invalidation_is_per_generation() {
        let mut c = ResultCache::new(8);
        let d = |generation, src| ComputeKey::Dists { generation, src };
        let core = |generation| ComputeKey::Coreness { generation };
        let coreness = || ComputeValue::Coreness {
            coreness: Arc::new(vec![0]),
            degeneracy: 0,
            rounds: 1,
        };
        c.insert(d(1, 0), 4, dist_val(1));
        c.insert(d(1, 1), 4, dist_val(1));
        c.insert(d(2, 0), 9, dist_val(1));
        c.insert(core(1), 4, coreness());
        c.insert(core(2), 9, coreness());
        let mut slots = c.generation_slots(1);
        slots.sort_by_key(|(k, _)| format!("{k:?}"));
        let keys: Vec<ComputeKey> = slots.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![core(1), d(1, 0), d(1, 1)]);
        // the survivor takes its revalidated value, stamped at the new epoch
        c.restamp_generation(1, 5, HashMap::from([(d(1, 1), dist_val(2))]));
        match c.get(&d(1, 1), 5) {
            Some(ComputeValue::Dists { dist, .. }) => assert_eq!(dist.len(), 2),
            other => panic!("survivor missing: {other:?}"),
        }
        assert!(c.get(&d(1, 1), 4).is_none());
        assert!(c.get(&d(1, 0), 4).is_none() && c.get(&d(1, 0), 5).is_none());
        assert!(c.get(&core(1), 4).is_none() && c.get(&core(1), 5).is_none());
        // the other generation is untouched, stamp and all
        assert!(c.get(&d(2, 0), 9).is_some());
        assert!(c.get(&core(2), 9).is_some());
        assert_eq!(c.len(), 3);
        c.restamp_generation(1, 0, HashMap::new());
        assert!(c.get(&d(1, 1), 5).is_none());
        assert!(c.get(&d(2, 0), 9).is_some());
        assert_eq!(c.len(), 2);
    }
}
