//! Seeded input generation. Everything a workload feeds the program —
//! graphs, sources, query streams, mutation batches — derives from the
//! `--seed` argument through this module; the program under test never
//! sees the seed, only the generated operations.

use pasgal_core::scc::tarjan::scc_tarjan;
use pasgal_graph::storage::GraphStorage;

/// SplitMix64: small, fast, and good enough to pick sources.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `lane` (a connection, a graph, a phase).
    pub fn fork(&self, lane: u64) -> Rng {
        let mut r = Rng(self.0 ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Picks traversal sources the way GAPBS's `SourcePicker` does — uniformly
/// from the vertices worth starting from — with one tightening: GAPBS
/// accepts any vertex with an out-edge, which on a directed graph admits
/// sources that reach three vertices and would make the traversal classes
/// bimodal. Here a source must lie in the largest strongly connected
/// component, so every traversal of a class covers the same vertex set.
pub struct SourcePicker {
    members: Vec<u32>,
}

impl SourcePicker {
    pub fn new<S: GraphStorage>(g: &S) -> SourcePicker {
        let labels = scc_tarjan(g).labels;
        let mut size = std::collections::HashMap::<u32, u32>::new();
        for &l in &labels {
            *size.entry(l).or_default() += 1;
        }
        // Ties broken by label so the choice does not depend on hash order.
        let biggest = size
            .iter()
            .max_by_key(|(&l, &s)| (s, std::cmp::Reverse(l)))
            .map_or(0, |(&l, _)| l);
        let members = (0..labels.len() as u32)
            .filter(|&v| labels[v as usize] == biggest)
            .collect();
        SourcePicker { members }
    }

    /// Every eligible vertex, ascending.
    pub fn into_members(self) -> Vec<u32> {
        self.members
    }

    pub fn pick(&self, rng: &mut Rng) -> u32 {
        self.members[rng.below(self.members.len() as u64) as usize]
    }

    /// `k` distinct sources (or every member when there are fewer).
    pub fn pick_distinct(&self, rng: &mut Rng, k: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k.min(self.members.len()) {
            let v = self.pick(rng);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cumulative = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("Zipf over an empty set");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// FNV-1a over the generated operations; printed as `ops_fingerprint` so
/// two runs can be shown to have fed the program the same inputs.
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn u32s(&mut self, xs: &[u32]) {
        for &x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// FNV-1a over whole words: the digest a distance array is compared by
/// (a million-entry result is checked without being kept).
pub fn digest<T: Copy + Into<u64>>(xs: &[T]) -> u64 {
    xs.iter().fold(Fingerprint::default().0, |h, &x| {
        (h ^ x.into()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasgal_graph::builder::from_edges;

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed).fork(3);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|&x| x < 1000));
    }

    #[test]
    fn picker_stays_inside_the_largest_scc() {
        // 0→1→2→0 is the big component; 3→0 only leads into it; 4 is isolated.
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 0)]);
        let picker = SourcePicker::new(&g);
        let mut rng = Rng::new(1);
        for _ in 0..64 {
            assert!(picker.pick(&mut rng) < 3);
        }
        let mut all = picker.pick_distinct(&mut rng, 10);
        all.sort_unstable();
        assert_eq!(all, [0, 1, 2]);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(16, 1.0);
        let mut rng = Rng::new(5);
        let mut hist = [0u32; 16];
        for _ in 0..20_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        assert!(hist[0] > hist[3] && hist[3] > hist[15] && hist[15] > 0);
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let fp = |xs: &[u32]| {
            let mut f = Fingerprint::default();
            f.u32s(xs);
            f.value()
        };
        assert_eq!(fp(&[1, 2, 3]), fp(&[1, 2, 3]));
        assert_ne!(fp(&[1, 2, 3]), fp(&[1, 3, 2]));
    }
}
