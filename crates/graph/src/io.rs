//! Graph IO in the two formats the paper's library supports, plus a plain
//! edge-list text format.
//!
//! * **`.adj`** — the PBBS *AdjacencyGraph* text format:
//!   ```text
//!   AdjacencyGraph
//!   <n>
//!   <m>
//!   <offset_0> … <offset_{n-1}>
//!   <target_0> … <target_{m-1}>
//!   ```
//!   (`WeightedAdjacencyGraph` adds `m` weights after the targets.)
//! * **`.bin`** — a GBBS-style binary CSR: little-endian `u64` header
//!   `[n, m, sizes]` followed by `n+1` `u64` offsets and `m` `u32` targets
//!   (+ `m` `u32` weights when the weighted flag is set in `sizes`).
//! * **`.el`** — one `u v [w]` pair per line.
//!
//! ```
//! use pasgal_graph::{builder::from_edges, io};
//!
//! let g = from_edges(3, &[(0, 1), (1, 2)]);
//! let path = std::env::temp_dir().join("pasgal_doc_io.adj");
//! io::write_adj(&g, &path).unwrap();
//! let back = io::read_adj(&path).unwrap();
//! assert_eq!(g.targets(), back.targets());
//! std::fs::remove_file(&path).unwrap();
//! ```

use crate::compressed::CompressedGraph;
use crate::csr::Graph;
use crate::disk::MmapGraph;
use crate::storage::GraphStore;
use crate::{VertexId, Weight};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Little-endian cursor over a byte slice (replaces the `bytes` crate's
/// `Buf` so the binary format needs only std).
struct LeCursor<'a>(&'a [u8]);

impl LeCursor<'_> {
    fn remaining(&self) -> usize {
        self.0.len()
    }
    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        u64::from_le_bytes(head.try_into().unwrap())
    }
    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.0.split_at(4);
        self.0 = rest;
        u32::from_le_bytes(head.try_into().unwrap())
    }
}

/// Errors from graph IO.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not parse as the expected format.
    Format(String),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

fn format_err<T>(msg: impl Into<String>) -> Result<T, IoError> {
    Err(IoError::Format(msg.into()))
}

// ---------------------------------------------------------------- .adj ---

/// Write PBBS AdjacencyGraph text.
pub fn write_adj(g: &Graph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    let weighted = g.is_weighted();
    writeln!(
        w,
        "{}",
        if weighted {
            "WeightedAdjacencyGraph"
        } else {
            "AdjacencyGraph"
        }
    )?;
    writeln!(w, "{}", g.num_vertices())?;
    writeln!(w, "{}", g.num_edges())?;
    for v in 0..g.num_vertices() {
        writeln!(w, "{}", g.offset(v))?;
    }
    for &t in g.targets() {
        writeln!(w, "{t}")?;
    }
    if let Some(ws) = g.weights() {
        for &x in ws {
            writeln!(w, "{x}")?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Read PBBS AdjacencyGraph text. The result is marked non-symmetric;
/// callers that know better can rebuild via `transform::symmetrize`.
pub fn read_adj(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    let mut tokens = Vec::new();
    let mut header = String::new();
    {
        let mut r = BufReader::new(File::open(path)?);
        r.read_line(&mut header)?;
        let mut rest = String::new();
        r.read_to_string(&mut rest)?;
        for tok in rest.split_ascii_whitespace() {
            tokens.push(
                tok.parse::<u64>()
                    .map_err(|_| IoError::Format(format!("non-numeric token {tok:?}")))?,
            );
        }
    }
    let weighted = match header.trim() {
        "AdjacencyGraph" => false,
        "WeightedAdjacencyGraph" => true,
        h => return format_err(format!("bad header {h:?}")),
    };
    let mut it = tokens.into_iter();
    let n = it.next().ok_or(IoError::Format("missing n".into()))? as usize;
    let m = it.next().ok_or(IoError::Format("missing m".into()))? as usize;
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..n {
        offsets.push(
            it.next()
                .ok_or(IoError::Format("truncated offsets".into()))? as usize,
        );
    }
    offsets.push(m);
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return format_err("offsets not monotone");
    }
    let mut targets = Vec::with_capacity(m);
    for _ in 0..m {
        let t = it
            .next()
            .ok_or(IoError::Format("truncated targets".into()))?;
        if t as usize >= n {
            return format_err(format!("target {t} out of range"));
        }
        targets.push(t as VertexId);
    }
    let weights = if weighted {
        let mut ws = Vec::with_capacity(m);
        for _ in 0..m {
            ws.push(
                it.next()
                    .ok_or(IoError::Format("truncated weights".into()))? as Weight,
            );
        }
        Some(ws)
    } else {
        None
    };
    Ok(Graph::from_csr(offsets, targets, weights, false))
}

// ---------------------------------------------------------------- .bin ---

const BIN_MAGIC: u64 = 0x5041_5347_414c_0001; // "PASGAL" + version
const FLAG_WEIGHTED: u64 = 1;
const FLAG_SYMMETRIC: u64 = 2;

/// Write binary CSR.
pub fn write_bin(g: &Graph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let mut buf = Vec::with_capacity(32 + 8 * g.num_vertices() + 4 * g.num_edges());
    buf.extend_from_slice(&BIN_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    buf.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    let mut flags = 0;
    if g.is_weighted() {
        flags |= FLAG_WEIGHTED;
    }
    if g.is_symmetric() {
        flags |= FLAG_SYMMETRIC;
    }
    buf.extend_from_slice(&flags.to_le_bytes());
    for v in 0..=g.num_vertices() {
        buf.extend_from_slice(&(g.offset(v) as u64).to_le_bytes());
    }
    for &t in g.targets() {
        buf.extend_from_slice(&t.to_le_bytes());
    }
    if let Some(ws) = g.weights() {
        for &w in ws {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    let mut f = BufWriter::new(File::create(path)?);
    f.write_all(&buf)?;
    f.flush()?;
    Ok(())
}

/// Read binary CSR.
pub fn read_bin(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut buf = LeCursor(&bytes[..]);
    if buf.remaining() < 32 {
        return format_err("truncated header");
    }
    if buf.get_u64_le() != BIN_MAGIC {
        return format_err("bad magic");
    }
    let n = buf.get_u64_le() as usize;
    let m = buf.get_u64_le() as usize;
    let flags = buf.get_u64_le();
    let need = (n + 1) * 8 + m * 4 + if flags & FLAG_WEIGHTED != 0 { m * 4 } else { 0 };
    if buf.remaining() < need {
        return format_err("truncated body");
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(buf.get_u64_le() as usize);
    }
    if *offsets.last().unwrap() != m || offsets.windows(2).any(|w| w[0] > w[1]) {
        return format_err("inconsistent offsets");
    }
    let mut targets = Vec::with_capacity(m);
    for _ in 0..m {
        let t = buf.get_u32_le();
        if t as usize >= n {
            return format_err("target out of range");
        }
        targets.push(t);
    }
    let weights = if flags & FLAG_WEIGHTED != 0 {
        let mut ws = Vec::with_capacity(m);
        for _ in 0..m {
            ws.push(buf.get_u32_le());
        }
        Some(ws)
    } else {
        None
    };
    Ok(Graph::from_csr(
        offsets,
        targets,
        weights,
        flags & FLAG_SYMMETRIC != 0,
    ))
}

// ----------------------------------------------------------------- .el ---

/// Write an edge-list text file (`u v` or `u v w` per line).
pub fn write_edge_list(g: &Graph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    for u in 0..g.num_vertices() as u32 {
        for (v, wt) in g.weighted_neighbors(u) {
            if g.is_weighted() {
                writeln!(w, "{u} {v} {wt}")?;
            } else {
                writeln!(w, "{u} {v}")?;
            }
        }
    }
    w.flush()?;
    Ok(())
}

/// Read an edge-list text file; `n` is inferred as `max id + 1`.
///
/// The format is deliberately liberal, since real-world edge lists (SNAP,
/// DIMACS exports, Matrix Market headers) vary: blank lines are skipped,
/// `#` starts a comment (whole-line or trailing after an edge), lines
/// starting with `%` are comments, fields are separated by any ASCII
/// whitespace (spaces or tabs), and leading whitespace and CRLF line
/// endings are tolerated. Malformed lines are reported with their line
/// number.
pub fn read_edge_list(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    let r = BufReader::new(File::open(path)?);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut weights: Vec<Weight> = Vec::new();
    let mut any_weight = false;
    for (idx, line) in r.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        // strip a trailing `#` comment (also covers whole-line comments)
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let u: VertexId = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| IoError::Format(format!("line {line_no}: bad edge {line:?}")))?;
        let v: VertexId = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| IoError::Format(format!("line {line_no}: bad edge {line:?}")))?;
        let w: Weight = match parts.next() {
            Some(s) => {
                any_weight = true;
                s.parse().map_err(|_| {
                    IoError::Format(format!("line {line_no}: bad weight in {line:?}"))
                })?
            }
            None => 1,
        };
        if parts.next().is_some() {
            return Err(IoError::Format(format!(
                "line {line_no}: too many fields in {line:?}"
            )));
        }
        edges.push((u, v));
        weights.push(w);
    }
    let n = edges
        .iter()
        .map(|&(u, v)| u.max(v) as usize + 1)
        .max()
        .unwrap_or(0);
    Ok(if any_weight {
        crate::builder::from_weighted_edges(n, &edges, &weights)
    } else {
        crate::builder::from_edges(n, &edges)
    })
}

// ----------------------------------------------------- load by extension ---

/// Load a graph file by extension: `.adj` (PBBS text), `.bin` (binary
/// CSR), `.pasgal` (packed container), anything else as an edge list.
/// Container files decode to a plain in-memory graph here; use
/// [`load_store_by_ext`] to keep them mmap-backed.
pub fn load_graph_by_ext(path: &str) -> Result<Graph, String> {
    let p = Path::new(path);
    let res = match p.extension().and_then(|e| e.to_str()).unwrap_or("") {
        "adj" => read_adj(p),
        "bin" => read_bin(p),
        "pasgal" => {
            return MmapGraph::load(p)
                .map(|g| crate::storage::to_plain(&g))
                .map_err(|e| format!("cannot read {path}: {e}"))
        }
        _ => read_edge_list(p),
    };
    res.map_err(|e| format!("cannot read {path}: {e}"))
}

/// Load a graph into the requested storage backend. `storage` is
/// `plain` / `compressed` / `mmap` (default: `mmap` for `.pasgal`
/// container files, `plain` otherwise). `mmap` requires a container
/// produced by `pasgal pack`.
pub fn load_store_by_ext(path: &str, storage: Option<&str>) -> Result<GraphStore, String> {
    let is_container = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e == "pasgal");
    match storage.unwrap_or(if is_container { "mmap" } else { "plain" }) {
        "mmap" => {
            if !is_container {
                return Err(format!(
                    "storage \"mmap\" needs a .pasgal container (run `pasgal pack`), got {path}"
                ));
            }
            MmapGraph::load(path)
                .map(GraphStore::Mmap)
                .map_err(|e| format!("cannot read {path}: {e}"))
        }
        "compressed" => {
            let g = load_graph_by_ext(path)?;
            Ok(GraphStore::Compressed(CompressedGraph::from_storage(&g)))
        }
        "plain" => Ok(GraphStore::Plain(load_graph_by_ext(path)?)),
        other => Err(format!(
            "unknown storage {other:?} (expected plain, compressed, or mmap)"
        )),
    }
}

// -------------------------------------------------------- scratch files ---

/// A scratch directory no other caller can name, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// The path of `name` inside the directory (not created).
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `<pid>-<n>` with a process-wide counter `n`: a name suffix no other
/// call, in this process or a concurrent one, will produce.
pub(crate) fn unique_suffix() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("{}-{n}", std::process::id())
}

/// Create a fresh scratch directory under the system temp dir, named
/// from `tag` and a `<pid>-<n>` suffix — so concurrent tests in one
/// process and concurrent processes never share a path.
pub fn unique_temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("pasgal-{tag}-{}", unique_suffix()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    TempDir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, from_weighted_edges};
    use crate::gen::basic::grid2d;

    /// `name` inside a scratch directory of the test's own (the guard
    /// removes it when dropped).
    fn tmp(name: impl AsRef<Path>) -> (TempDir, std::path::PathBuf) {
        let dir = unique_temp_dir("io");
        let p = dir.join(name);
        (dir, p)
    }

    #[test]
    fn adj_roundtrip() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let (_dir, p) = tmp("adj");
        write_adj(&g, &p).unwrap();
        let h = read_adj(&p).unwrap();
        assert_eq!(g.offsets(), h.offsets());
        assert_eq!(g.targets(), h.targets());
    }

    #[test]
    fn adj_weighted_roundtrip() {
        let g = from_weighted_edges(3, &[(0, 1), (1, 2)], &[5, 9]);
        let (_dir, p) = tmp("adjw");
        write_adj(&g, &p).unwrap();
        let h = read_adj(&p).unwrap();
        assert_eq!(g.weights(), h.weights());
    }

    #[test]
    fn adj_rejects_garbage() {
        let (_dir, p) = tmp("garbage");
        std::fs::write(&p, "NotAGraph\n1 2 3\n").unwrap();
        let e = read_adj(&p);
        assert!(matches!(e, Err(IoError::Format(_))));
    }

    #[test]
    fn bin_roundtrip_preserves_everything() {
        let g = grid2d(5, 7);
        let (_dir, p) = tmp("bin");
        write_bin(&g, &p).unwrap();
        let h = read_bin(&p).unwrap();
        assert_eq!(g, h);
        assert!(h.is_symmetric());
    }

    #[test]
    fn bin_weighted_roundtrip() {
        let g = from_weighted_edges(3, &[(0, 1), (2, 0)], &[7, 8]);
        let (_dir, p) = tmp("binw");
        write_bin(&g, &p).unwrap();
        let h = read_bin(&p).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn bin_rejects_bad_magic() {
        let (_dir, p) = tmp("badmagic");
        std::fs::write(&p, vec![0u8; 64]).unwrap();
        let e = read_bin(&p);
        assert!(matches!(e, Err(IoError::Format(_))));
    }

    #[test]
    fn bin_rejects_truncation() {
        let g = grid2d(4, 4);
        let (_dir, p) = tmp("trunc");
        write_bin(&g, &p).unwrap();
        let full = std::fs::read(&p).unwrap();
        std::fs::write(&p, &full[..full.len() / 2]).unwrap();
        let e = read_bin(&p);
        assert!(matches!(e, Err(IoError::Format(_))));
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = from_edges(5, &[(0, 1), (1, 2), (4, 0)]);
        let (_dir, p) = tmp("el");
        write_edge_list(&g, &p).unwrap();
        let h = read_edge_list(&p).unwrap();
        assert_eq!(g.targets(), h.targets());
    }

    #[test]
    fn edge_list_with_comments_and_weights() {
        let (_dir, p) = tmp("elw");
        std::fs::write(&p, "# comment\n0 1 9\n% also comment\n1 2 4\n\n").unwrap();
        let g = read_edge_list(&p).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.weighted_neighbors(0).next(), Some((1, 9)));
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn edge_list_tolerates_messy_real_world_files() {
        // SNAP-style header, CRLF endings, tabs, leading whitespace,
        // blank lines, and a trailing inline comment.
        let (_dir, p) = tmp("elmessy");
        std::fs::write(
            &p,
            "# Directed graph (each unordered pair of nodes is saved once)\r\n\
             # Nodes: 4 Edges: 3\r\n\
             \r\n\
             0\t1\r\n\
             \t 1 2\r\n\
             2 3   # trailing comment\r\n",
        )
        .unwrap();
        let g = read_edge_list(&p).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_weighted());
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn edge_list_errors_name_the_line() {
        let (_dir, p) = tmp("elbad");
        std::fs::write(&p, "0 1\nnot an edge\n").unwrap();
        let e = read_edge_list(&p);
        match e {
            Err(IoError::Format(msg)) => assert!(msg.contains("line 2"), "{msg}"),
            other => panic!("expected format error, got {other:?}"),
        }

        let (_dir, p) = tmp("elbadw");
        std::fs::write(&p, "0 1 x\n").unwrap();
        let e = read_edge_list(&p);
        assert!(matches!(e, Err(IoError::Format(_))));

        let (_dir, p) = tmp("elextra");
        std::fs::write(&p, "0 1 2 3\n").unwrap();
        let e = read_edge_list(&p);
        match e {
            Err(IoError::Format(msg)) => assert!(msg.contains("too many fields"), "{msg}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn empty_edge_list() {
        let (_dir, p) = tmp("empty");
        std::fs::write(&p, "# nothing\n").unwrap();
        let g = read_edge_list(&p).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }
}
