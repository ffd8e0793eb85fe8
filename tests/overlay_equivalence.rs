//! Property test for the mutation overlay: a random mutation sequence
//! pushed through [`DeltaOverlay`] and then compacted must be
//! **bit-identical** — offsets, targets, weights, symmetric flag — to a
//! CSR rebuilt from scratch out of a sequential adjacency model, for
//! every suite generator and all three immutable storage backends
//! (plain, compressed, mmap).

use pasgal_graph::compressed::CompressedGraph;
use pasgal_graph::csr::Graph;
use pasgal_graph::disk::{pack, MmapGraph};
use pasgal_graph::gen::suite::{SuiteScale, SUITE};
use pasgal_graph::overlay::{DeltaOverlay, Mutation};
use pasgal_graph::storage::{GraphStorage, GraphStore};
use pasgal_graph::{VertexId, Weight};
use std::collections::BTreeMap;
use std::sync::Arc;

/// splitmix64: the op sequence is a pure function of the entry name.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn name_seed(name: &str) -> u64 {
    name.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| mix(h ^ b as u64))
}

/// Sequential reference: per-vertex sorted target→weight maps with the
/// exact upsert/delete/mirror semantics documented on [`DeltaOverlay`].
struct Model {
    adj: Vec<BTreeMap<VertexId, Weight>>,
    weighted: bool,
    symmetric: bool,
}

impl Model {
    fn of(g: &Graph) -> Self {
        let adj = (0..g.num_vertices() as VertexId)
            .map(|v| GraphStorage::weighted_neighbors(g, v).collect())
            .collect();
        Model {
            adj,
            weighted: g.is_weighted(),
            symmetric: g.is_symmetric(),
        }
    }

    fn apply(&mut self, ops: &[Mutation]) {
        for op in ops {
            match *op {
                Mutation::InsertEdge { u, v, w } => {
                    let w = if self.weighted { w } else { 1 };
                    self.adj[u as usize].insert(v, w);
                    if self.symmetric && u != v {
                        self.adj[v as usize].insert(u, w);
                    }
                }
                Mutation::DeleteEdge { u, v } => {
                    self.adj[u as usize].remove(&v);
                    if self.symmetric && u != v {
                        self.adj[v as usize].remove(&u);
                    }
                }
                Mutation::AddVertex => self.adj.push(BTreeMap::new()),
                Mutation::RemoveVertex { v } => {
                    self.adj[v as usize].clear();
                    for nbrs in &mut self.adj {
                        nbrs.remove(&v);
                    }
                }
            }
        }
    }

    /// Rebuild a fresh CSR from the model state (the "from scratch"
    /// side of the equivalence).
    fn rebuild(&self) -> Graph {
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut targets = Vec::new();
        let mut weights = self.weighted.then(Vec::new);
        offsets.push(0usize);
        for nbrs in &self.adj {
            for (&t, &w) in nbrs {
                targets.push(t);
                if let Some(ws) = weights.as_mut() {
                    ws.push(w);
                }
            }
            offsets.push(targets.len());
        }
        Graph::from_csr(offsets, targets, weights, self.symmetric)
    }
}

/// A 96-op sequence mixing inserts, deletes of live and absent edges,
/// re-weights, vertex appends, and vertex isolation — generated against
/// the evolving model so deletions actually hit existing edges.
fn op_sequence(seed: u64, model: &mut Model) -> Vec<Mutation> {
    let mut ops = Vec::with_capacity(96);
    for i in 0..96u64 {
        let h = mix(seed ^ (i << 8));
        let n = model.adj.len() as u64;
        let u = (mix(h ^ 1) % n) as VertexId;
        let v = (mix(h ^ 2) % n) as VertexId;
        let w = (mix(h ^ 3) % 100 + 1) as Weight;
        let op = match h % 10 {
            0..=3 => Mutation::InsertEdge { u, v, w },
            4 | 5 => {
                // delete a live edge when the picked vertex has one
                let nbrs = &model.adj[u as usize];
                match nbrs.keys().nth(mix(h ^ 4) as usize % nbrs.len().max(1)) {
                    Some(&t) => Mutation::DeleteEdge { u, v: t },
                    None => Mutation::DeleteEdge { u, v },
                }
            }
            6 => Mutation::DeleteEdge { u, v }, // likely absent: a noop
            7 => Mutation::InsertEdge { u, v: u, w }, // self-loop upsert
            8 => Mutation::AddVertex,
            _ => Mutation::RemoveVertex { v: u },
        };
        model.apply(std::slice::from_ref(&op));
        ops.push(op);
    }
    ops
}

fn compact_through(base: GraphStore, ops: &[Mutation]) -> Graph {
    let mut overlay = DeltaOverlay::new(Arc::new(base));
    // apply in batches of 8 (the service path applies batches, not
    // single ops) — same final state either way
    for chunk in ops.chunks(8) {
        overlay
            .apply(chunk)
            .expect("all generated ops are in range");
    }
    overlay.compact()
}

#[test]
fn random_mutations_compact_to_scratch_rebuild_on_every_backend() {
    let tmp = pasgal_graph::io::unique_temp_dir("oveq");
    for entry in SUITE {
        let g = entry.build(SuiteScale::Tiny);
        let mut model = Model::of(&g);
        let ops = op_sequence(name_seed(entry.name), &mut model);
        let expect = model.rebuild();

        let plain = compact_through(GraphStore::Plain(g.clone()), &ops);
        assert_eq!(
            plain, expect,
            "{}: overlay-compact over plain CSR diverges from scratch rebuild",
            entry.name
        );

        let compressed = compact_through(
            GraphStore::Compressed(CompressedGraph::from_storage(&g)),
            &ops,
        );
        assert_eq!(
            compressed, expect,
            "{}: overlay-compact over compressed CSR diverges",
            entry.name
        );

        let path = tmp.join(format!("{}.pasgal", entry.name));
        pack(&g, &path, false).unwrap();
        let mmap = compact_through(GraphStore::Mmap(MmapGraph::load(&path).unwrap()), &ops);
        assert_eq!(
            mmap, expect,
            "{}: overlay-compact over mmap container diverges",
            entry.name
        );
    }
}

/// The overlay must also *answer* like the rebuilt graph, not just fold
/// like it: degrees and neighbor iteration agree vertex by vertex.
#[test]
fn overlay_traversal_view_matches_rebuilt_graph() {
    for entry in SUITE.iter().take(6) {
        let g = entry.build(SuiteScale::Tiny);
        let mut model = Model::of(&g);
        let ops = op_sequence(name_seed(entry.name) ^ 0xDEAD, &mut model);
        let expect = model.rebuild();

        let mut overlay = DeltaOverlay::new(Arc::new(GraphStore::Plain(g)));
        overlay.apply(&ops).unwrap();
        assert_eq!(
            overlay.num_vertices(),
            expect.num_vertices(),
            "{}",
            entry.name
        );
        assert_eq!(overlay.num_edges(), expect.num_edges(), "{}", entry.name);
        for v in 0..expect.num_vertices() as VertexId {
            let got: Vec<(VertexId, Weight)> = overlay.weighted_neighbors(v).collect();
            let want: Vec<(VertexId, Weight)> =
                GraphStorage::weighted_neighbors(&expect, v).collect();
            assert_eq!(got, want, "{}: neighbors of {v} diverge", entry.name);
        }
    }
}
