//! Mmap-backed on-disk graph container (`pasgal pack` format).
//!
//! Layout — one 4096-byte header page, then page-aligned sections:
//!
//! ```text
//! 0x00  magic        u64   "PASGALPK" (LE bytes)
//! 0x08  version      u32   1
//! 0x0c  endian       u32   0x01020304 sentinel (refuse foreign order)
//! 0x10  flags        u64   1=weighted 2=symmetric 4=compressed 8=offsets_u32
//! 0x18  n            u64
//! 0x20  m            u64
//! 0x28  max_weight   u64
//! 0x30  sample_rate  u64   (compressed payload only)
//! 0x38  sections[4]        { file_offset u64, byte_len u64, fnv1a u64 }
//! 0xx   header_checksum u64  fnv1a of bytes 0..0x98
//! ```
//!
//! Plain payload: section 0 = offsets (`u32` when every offset fits, else
//! `u64`), section 1 = targets (`u32`), section 2 = weights (`u32`, empty
//! when unweighted). Compressed payload: section 0 = sampled offset index
//! (`u64`), section 1 = the [`crate::compressed`] byte stream. Page
//! alignment of sections is what makes the zero-copy `u32`/`u64` slice
//! views legal.
//!
//! [`MmapGraph::load`] maps the file `PROT_READ`/`MAP_PRIVATE` via a
//! direct `mmap(2)` binding (std already links libc; no new crates) and
//! reads sections zero-copy, so cold regions are paged by the OS and a
//! graph larger than RAM can still serve. Checksums of the header and of
//! every section are verified at load (this touches each page once; the
//! OS may evict them again). On non-unix platforms, or if the mapping
//! fails, the loader falls back to reading the file into an owned,
//! 8-byte-aligned buffer with identical semantics.

use crate::compressed::{
    block_start, degree_at, neighbors_at, neighbors_at_pos, next_block, weighted_neighbors_at,
    CompressedNeighbors, CompressedWeightedNeighbors, SAMPLE_RATE,
};
use crate::storage::{GraphStorage, SliceWeightedNeighbors, StorageKind};
use crate::{Dist, VertexId, Weight};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: u64 = u64::from_le_bytes(*b"PASGALPK");
const VERSION: u32 = 2;
const ENDIAN_SENTINEL: u32 = 0x0102_0304;
const PAGE: usize = 4096;
const HEADER_LEN: usize = 0x38 + 4 * 24 + 8; // fixed fields + 4 sections + checksum
const FLAG_WEIGHTED: u64 = 1;
const FLAG_SYMMETRIC: u64 = 2;
const FLAG_COMPRESSED: u64 = 4;
const FLAG_OFFSETS_U32: u64 = 8;

/// Errors from packing or loading a container.
#[derive(Debug)]
pub enum DiskError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file is not a valid container (bad magic/version/checksum/shape).
    Format(String),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Io(e) => write!(f, "io error: {e}"),
            DiskError::Format(m) => write!(f, "bad container: {m}"),
        }
    }
}

impl std::error::Error for DiskError {}

impl From<std::io::Error> for DiskError {
    fn from(e: std::io::Error) -> Self {
        DiskError::Io(e)
    }
}

fn format_err<T>(msg: impl Into<String>) -> Result<T, DiskError> {
    Err(DiskError::Format(msg.into()))
}

/// FNV-1a 64 — the section and header checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn pad_to_page(buf: &mut Vec<u8>) {
    let rem = buf.len() % PAGE;
    if rem != 0 {
        buf.resize(buf.len() + (PAGE - rem), 0);
    }
}

/// Serialize `g` into the container format. `compress` selects the
/// byte-compressed payload; otherwise plain CSR arrays are written.
pub fn pack<S: GraphStorage>(
    g: &S,
    path: impl AsRef<Path>,
    compress: bool,
) -> Result<(), DiskError> {
    let n = g.num_vertices();
    let m = g.num_edges();
    let weighted = g.is_weighted();

    let mut flags = 0u64;
    if weighted {
        flags |= FLAG_WEIGHTED;
    }
    if g.is_symmetric() {
        flags |= FLAG_SYMMETRIC;
    }

    // section payloads (raw little-endian bytes)
    let mut secs: [Vec<u8>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut max_weight: Weight = 0;
    if compress {
        flags |= FLAG_COMPRESSED;
        let (data, index, mw) = crate::compressed::encode(g, SAMPLE_RATE);
        max_weight = mw;
        secs[0] = index.iter().flat_map(|x| x.to_le_bytes()).collect();
        secs[1] = data;
    } else {
        let offsets_u32 = m <= u32::MAX as usize;
        if offsets_u32 {
            flags |= FLAG_OFFSETS_U32;
        }
        let mut off = 0u64;
        for v in 0..=n as u64 {
            if offsets_u32 {
                secs[0].extend_from_slice(&(off as u32).to_le_bytes());
            } else {
                secs[0].extend_from_slice(&off.to_le_bytes());
            }
            if (v as usize) < n {
                off += g.degree(v as VertexId) as u64;
            }
        }
        for v in 0..n as VertexId {
            if weighted {
                for (t, w) in g.weighted_neighbors(v) {
                    secs[1].extend_from_slice(&t.to_le_bytes());
                    secs[2].extend_from_slice(&w.to_le_bytes());
                    max_weight = max_weight.max(w);
                }
            } else {
                for t in g.neighbors(v) {
                    secs[1].extend_from_slice(&t.to_le_bytes());
                }
            }
        }
    }

    // lay out sections after the header page
    let mut body = Vec::new();
    let mut table = [(0u64, 0u64, 0u64); 4];
    for (i, sec) in secs.iter().enumerate() {
        let file_off = (PAGE + body.len()) as u64;
        table[i] = (file_off, sec.len() as u64, fnv1a(sec));
        body.extend_from_slice(sec);
        pad_to_page(&mut body);
    }

    let mut header = Vec::with_capacity(PAGE);
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&ENDIAN_SENTINEL.to_le_bytes());
    header.extend_from_slice(&flags.to_le_bytes());
    header.extend_from_slice(&(n as u64).to_le_bytes());
    header.extend_from_slice(&(m as u64).to_le_bytes());
    header.extend_from_slice(&u64::from(max_weight).to_le_bytes());
    header.extend_from_slice(&(SAMPLE_RATE as u64).to_le_bytes());
    for &(o, l, c) in &table {
        header.extend_from_slice(&o.to_le_bytes());
        header.extend_from_slice(&l.to_le_bytes());
        header.extend_from_slice(&c.to_le_bytes());
    }
    let hsum = fnv1a(&header);
    header.extend_from_slice(&hsum.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);
    header.resize(PAGE, 0);

    // Never truncate `path` in place: a process that has the old file
    // mapped would SIGBUS on its next page fault. Write a sibling, make
    // it durable, then rename — old mappings keep their inode, and a
    // crash mid-write leaves the old container intact.
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", crate::io::unique_suffix()));
    let written = File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(&header)?;
            f.write_all(&body)?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// [`pack`] with an overwrite guard: refuses to clobber an existing file
/// unless `force` is set. The CLI front end goes through this; library
/// callers that manage their own paths may still use [`pack`] directly.
pub fn pack_checked<S: GraphStorage>(
    g: &S,
    path: impl AsRef<Path>,
    compress: bool,
    force: bool,
) -> Result<(), DiskError> {
    let path = path.as_ref();
    if !force && path.exists() {
        return Err(DiskError::Io(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!("{} exists (pass --force to overwrite)", path.display()),
        )));
    }
    pack(g, path, compress)
}

// ------------------------------------------------------------- mapping ---

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
}

/// File bytes: a real mapping on unix, or an owned 8-byte-aligned buffer
/// (fallback / non-unix).
enum Source {
    #[cfg(unix)]
    Mapped {
        ptr: *mut u8,
        len: usize,
    },
    Owned {
        buf: Vec<u64>,
        len: usize,
    },
}

impl Source {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Source::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Source::Owned { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len)
            },
        }
    }
}

impl Drop for Source {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Source::Mapped { ptr, len } = self {
            // SAFETY: ptr/len came from a successful mmap of exactly len.
            unsafe { sys::munmap(ptr.cast(), *len) };
        }
    }
}

// SAFETY: the mapping is PROT_READ and never mutated after load.
unsafe impl Send for Source {}
unsafe impl Sync for Source {}

/// Byte range of one section within the file.
#[derive(Debug, Clone, Copy)]
struct Section {
    off: usize,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
enum Payload {
    Plain {
        offsets_u32: bool,
        offsets: Section,
        targets: Section,
        weights: Option<Section>,
    },
    Compressed {
        index: Section,
        data: Section,
        sample_rate: usize,
    },
}

/// A graph served directly from a packed container file.
pub struct MmapGraph {
    src: Source,
    n: usize,
    m: usize,
    symmetric: bool,
    weighted: bool,
    max_weight: Weight,
    payload: Payload,
}

impl std::fmt::Debug for MmapGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        #[cfg(unix)]
        let mapped = matches!(self.src, Source::Mapped { .. });
        #[cfg(not(unix))]
        let mapped = false;
        f.debug_struct("MmapGraph")
            .field("n", &self.n)
            .field("m", &self.m)
            .field("symmetric", &self.symmetric)
            .field("weighted", &self.weighted)
            .field("mapped", &mapped)
            .finish()
    }
}

fn read_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

fn read_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

const SECTION_COUNT: usize = 4;

/// Decoded, checksum-verified header fields.
struct Header {
    flags: u64,
    n: usize,
    m: usize,
    max_weight: Weight,
    sample_rate: usize,
    sections: [Section; SECTION_COUNT],
    sums: [u64; SECTION_COUNT],
}

/// Validate magic/version/endianness and the header checksum, then
/// decode the fixed fields and section table.
fn parse_header(b: &[u8], file_len: usize) -> Result<Header, DiskError> {
    if b.len() < PAGE {
        return format_err("file shorter than header page");
    }
    if read_u64(b, 0x00) != MAGIC {
        return format_err("bad magic");
    }
    if read_u32(b, 0x08) != VERSION {
        return format_err(format!("unsupported version {}", read_u32(b, 0x08)));
    }
    if read_u32(b, 0x0c) != ENDIAN_SENTINEL {
        return format_err("byte order mismatch");
    }
    let stored_hsum = read_u64(b, HEADER_LEN - 8);
    if fnv1a(&b[..HEADER_LEN - 8]) != stored_hsum {
        return format_err("header checksum mismatch");
    }
    let mut sections = [Section { off: 0, len: 0 }; SECTION_COUNT];
    let mut sums = [0u64; SECTION_COUNT];
    for i in 0..SECTION_COUNT {
        let base = 0x38 + i * 24;
        let off = read_u64(b, base);
        let len = read_u64(b, base + 8);
        if off.checked_add(len).is_none_or(|end| end > file_len as u64) {
            return format_err(format!("section {i} out of bounds"));
        }
        sections[i] = Section {
            off: off as usize,
            len: len as usize,
        };
        sums[i] = read_u64(b, base + 16);
    }
    Ok(Header {
        flags: read_u64(b, 0x10),
        n: read_u64(b, 0x18) as usize,
        m: read_u64(b, 0x20) as usize,
        max_weight: read_u64(b, 0x28) as Weight,
        sample_rate: read_u64(b, 0x30) as usize,
        sections,
        sums,
    })
}

/// Expected file offset of section `i` given the strict sequential,
/// page-padded layout `pack` writes.
fn expected_offset(h: &Header, i: usize) -> usize {
    let mut off = PAGE;
    for s in &h.sections[..i] {
        off = (off + s.len).div_ceil(PAGE) * PAGE;
    }
    off
}

/// Validate one section: position in the strict layout, checksum, and
/// zero padding up to the next page boundary. Covering the pad bytes is
/// what makes *every* byte of the file either checksummed or
/// zero-checked, so a single flipped byte can never go unnoticed.
fn check_section(b: &[u8], h: &Header, i: usize) -> Result<(), String> {
    let s = h.sections[i];
    let expected = expected_offset(h, i);
    if s.off != expected {
        return Err(format!(
            "section {i} at offset {} (layout expects {expected})",
            s.off
        ));
    }
    if fnv1a(&b[s.off..s.off + s.len]) != h.sums[i] {
        return Err(format!("section {i} checksum mismatch"));
    }
    let padded = (s.off + s.len).div_ceil(PAGE) * PAGE;
    let pad_end = padded.min(b.len());
    if b[s.off + s.len..pad_end].iter().any(|&x| x != 0) {
        return Err(format!("section {i} padding not zero"));
    }
    Ok(())
}

/// The file must end exactly where the last padded section does, and the
/// header page's tail must be zero — trailing garbage or padding writes
/// are corruption, not slack.
fn check_length(b: &[u8], file_len: usize, h: &Header) -> Result<(), String> {
    if b[HEADER_LEN..PAGE].iter().any(|&x| x != 0) {
        return Err("header padding not zero".to_string());
    }
    let expected = expected_offset(h, SECTION_COUNT);
    if file_len != expected {
        return Err(format!(
            "file length {file_len} (layout expects {expected})"
        ));
    }
    Ok(())
}

/// Outcome of one [`verify`] check.
#[derive(Debug)]
pub struct VerifyCheck {
    /// What was checked (`header`, `section N`, `length`, `invariants`).
    pub name: String,
    /// Whether the check passed.
    pub ok: bool,
    /// Human-readable detail (sizes on success, the failure otherwise).
    pub detail: String,
}

/// Per-section report from [`verify`].
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Individual checks in the order they ran.
    pub checks: Vec<VerifyCheck>,
}

impl VerifyReport {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    fn push(&mut self, name: impl Into<String>, result: Result<String, String>) {
        let (ok, detail) = match result {
            Ok(d) => (true, d),
            Err(d) => (false, d),
        };
        self.checks.push(VerifyCheck {
            name: name.into(),
            ok,
            detail,
        });
    }
}

/// Re-check a packed container end to end: header + section checksums,
/// strict layout/padding/length, and the deep offset/bounds invariants
/// of the payload. Unlike [`MmapGraph::load`] this does not stop at the
/// first failure — every section gets its own verdict — and it never
/// panics on corrupt input. I/O errors (missing file) are still `Err`.
pub fn verify(path: impl AsRef<Path>) -> Result<VerifyReport, DiskError> {
    let bytes = std::fs::read(path)?;
    let mut report = VerifyReport::default();
    let h = match parse_header(&bytes, bytes.len()) {
        Ok(h) => {
            report.push(
                "header",
                Ok(format!("n={} m={} flags=0x{:x}", h.n, h.m, h.flags)),
            );
            h
        }
        Err(e) => {
            report.push("header", Err(e.to_string()));
            return Ok(report);
        }
    };
    for i in 0..SECTION_COUNT {
        let s = h.sections[i];
        report.push(
            format!("section {i}"),
            check_section(&bytes, &h, i).map(|()| format!("{} bytes at 0x{:x}", s.len, s.off)),
        );
    }
    report.push(
        "length",
        check_length(&bytes, bytes.len(), &h).map(|()| format!("{} bytes", bytes.len())),
    );
    if report.ok() {
        let deep = match MmapGraph::parse(owned_from_bytes(&bytes)) {
            Ok(g) => g.check_invariants(),
            Err(e) => Err(e.to_string()),
        };
        report.push(
            "invariants",
            deep.map(|()| "offsets/targets in range".into()),
        );
    }
    Ok(report)
}

/// Copy raw bytes into an owned 8-byte-aligned [`Source`].
fn owned_from_bytes(bytes: &[u8]) -> Source {
    let len = bytes.len();
    let mut buf = vec![0u64; len.div_ceil(8)];
    // SAFETY: u64 buffer reinterpreted as bytes; len ≤ capacity bytes.
    let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
    dst.copy_from_slice(bytes);
    Source::Owned { buf, len }
}

impl MmapGraph {
    /// Map `path` and validate header + section checksums. Falls back to
    /// an owned aligned buffer when mapping is unavailable.
    ///
    /// The header is first read with `read(2)` and the length it promises
    /// compared with the file's, so a short file is an error here rather
    /// than a SIGBUS on the first fault past its end. What no check can
    /// cover is a file shrunk *after* it is mapped: replace a container
    /// by rename (as [`pack`] does), never by writing over it in place.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DiskError> {
        let mut file = File::open(&path)?;
        let len = file.metadata()?.len() as usize;
        let mut page = [0u8; PAGE];
        if len < PAGE || file.read_exact(&mut page).is_err() {
            return format_err("file shorter than header page");
        }
        let h = parse_header(&page, len)?;
        check_length(&page, len, &h).map_err(DiskError::Format)?;
        let src = Self::map_or_read(file, len)?;
        Self::parse(src)
    }

    /// Load without mmap: read into an owned aligned buffer. The fallback
    /// path, exposed for tests and non-mmap deployments.
    pub fn load_owned(path: impl AsRef<Path>) -> Result<Self, DiskError> {
        let mut file = File::open(&path)?;
        let len = file.metadata()?.len() as usize;
        let src = Self::read_owned(&mut file, len)?;
        Self::parse(src)
    }

    #[cfg(unix)]
    fn map_or_read(file: File, len: usize) -> Result<Source, DiskError> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return format_err("empty file");
        }
        // SAFETY: fd is open; we request a fresh read-only private mapping.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            let mut file = file;
            return Self::read_owned(&mut file, len);
        }
        Ok(Source::Mapped {
            ptr: ptr.cast(),
            len,
        })
    }

    #[cfg(not(unix))]
    fn map_or_read(mut file: File, len: usize) -> Result<Source, DiskError> {
        Self::read_owned(&mut file, len)
    }

    fn read_owned(file: &mut File, len: usize) -> Result<Source, DiskError> {
        let mut buf = vec![0u64; len.div_ceil(8)];
        // SAFETY: u64 buffer reinterpreted as bytes for reading; len ≤ capacity bytes.
        let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), len) };
        // `load` has already consumed the header page from this handle
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(dst)?;
        Ok(Source::Owned { buf, len })
    }

    fn parse(src: Source) -> Result<Self, DiskError> {
        let b = src.bytes();
        let h = parse_header(b, b.len())?;
        for i in 0..SECTION_COUNT {
            check_section(b, &h, i).map_err(DiskError::Format)?;
        }
        check_length(b, b.len(), &h).map_err(DiskError::Format)?;
        let Header {
            flags,
            n,
            m,
            max_weight,
            sample_rate,
            sections,
            ..
        } = h;

        let weighted = flags & FLAG_WEIGHTED != 0;
        let symmetric = flags & FLAG_SYMMETRIC != 0;
        let payload = if flags & FLAG_COMPRESSED != 0 {
            if sample_rate == 0 {
                return format_err("compressed payload with zero sample rate");
            }
            if sections[0].len != n.div_ceil(sample_rate) * 8 {
                return format_err("index section length mismatch");
            }
            Payload::Compressed {
                index: sections[0],
                data: sections[1],
                sample_rate,
            }
        } else {
            let offsets_u32 = flags & FLAG_OFFSETS_U32 != 0;
            let width = if offsets_u32 { 4 } else { 8 };
            if sections[0].len != (n + 1) * width {
                return format_err("offsets section length mismatch");
            }
            if sections[1].len != m * 4 {
                return format_err("targets section length mismatch");
            }
            let weights = if weighted {
                if sections[2].len != m * 4 {
                    return format_err("weights section length mismatch");
                }
                Some(sections[2])
            } else {
                None
            };
            Payload::Plain {
                offsets_u32,
                offsets: sections[0],
                targets: sections[1],
                weights,
            }
        };

        Ok(Self {
            src,
            n,
            m,
            symmetric,
            weighted,
            max_weight,
            payload,
        })
    }

    /// Whether the payload is the byte-compressed stream.
    pub fn is_compressed(&self) -> bool {
        matches!(self.payload, Payload::Compressed { .. })
    }

    /// Deep structural invariants beyond checksums: offsets monotone,
    /// starting at 0 and ending at `m`; every target in range; each
    /// neighbor list sorted. O(n + m) — run by [`verify`], not by load.
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Payload::Plain { .. } = self.payload {
            if self.offset(0) != 0 {
                return Err("offsets do not start at 0".into());
            }
            for v in 0..self.n {
                if self.offset(v) > self.offset(v + 1) {
                    return Err(format!("offsets decrease at vertex {v}"));
                }
            }
            if self.offset(self.n) != self.m {
                return Err(format!(
                    "final offset {} != edge count {}",
                    self.offset(self.n),
                    self.m
                ));
            }
        }
        let mut total = 0usize;
        for v in 0..self.n as VertexId {
            let mut prev: Option<VertexId> = None;
            for t in GraphStorage::neighbors(self, v) {
                if (t as usize) >= self.n {
                    return Err(format!("target {t} of vertex {v} out of range"));
                }
                if prev.is_some_and(|p| p > t) {
                    return Err(format!("neighbor list of vertex {v} not sorted"));
                }
                prev = Some(t);
                total += 1;
            }
        }
        if total != self.m {
            return Err(format!("edge count {total} != header m {}", self.m));
        }
        Ok(())
    }

    /// Zero-copy typed view of a section. Alignment holds because every
    /// non-empty section starts on a page boundary and both backing
    /// buffers are at least 8-byte aligned.
    #[inline]
    fn typed<T: Copy>(&self, s: Section) -> &[T] {
        let b = &self.src.bytes()[s.off..s.off + s.len];
        let (pre, mid, post) = unsafe { b.align_to::<T>() };
        debug_assert!(pre.is_empty() && post.is_empty());
        mid
    }

    #[inline]
    fn offset(&self, i: usize) -> usize {
        match self.payload {
            Payload::Plain {
                offsets_u32,
                offsets,
                ..
            } => {
                if offsets_u32 {
                    self.typed::<u32>(offsets)[i] as usize
                } else {
                    self.typed::<u64>(offsets)[i] as usize
                }
            }
            Payload::Compressed { .. } => unreachable!("offset() on compressed payload"),
        }
    }
}

/// Neighbor iterator over either payload flavor. The branch is a single
/// enum match per `next()` — no virtual dispatch.
pub enum MmapNeighbors<'a> {
    /// Plain payload: a zero-copy slice walk.
    Plain(std::iter::Copied<std::slice::Iter<'a, VertexId>>),
    /// Compressed payload: streaming varint decode.
    Compressed(CompressedNeighbors<'a>),
}

impl Iterator for MmapNeighbors<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match self {
            MmapNeighbors::Plain(it) => it.next(),
            MmapNeighbors::Compressed(it) => it.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            MmapNeighbors::Plain(it) => it.size_hint(),
            MmapNeighbors::Compressed(it) => it.size_hint(),
        }
    }
}

/// Weighted-neighbor iterator over either payload flavor.
pub enum MmapWeightedNeighbors<'a> {
    /// Plain payload: parallel target/weight slices.
    Plain(SliceWeightedNeighbors<'a>),
    /// Compressed payload: streaming varint decode.
    Compressed(CompressedWeightedNeighbors<'a>),
}

impl Iterator for MmapWeightedNeighbors<'_> {
    type Item = (VertexId, Weight);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, Weight)> {
        match self {
            MmapWeightedNeighbors::Plain(it) => it.next(),
            MmapWeightedNeighbors::Compressed(it) => it.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            MmapWeightedNeighbors::Plain(it) => it.size_hint(),
            MmapWeightedNeighbors::Compressed(it) => it.size_hint(),
        }
    }
}

impl GraphStorage for MmapGraph {
    type Neighbors<'a> = MmapNeighbors<'a>;
    type WeightedNeighbors<'a> = MmapWeightedNeighbors<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.m
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        match self.payload {
            Payload::Plain { .. } => self.offset(v as usize + 1) - self.offset(v as usize),
            Payload::Compressed {
                index,
                data,
                sample_rate,
            } => degree_at(
                self.typed::<u8>(data),
                self.typed::<u64>(index),
                self.weighted,
                sample_rate,
                v,
            ),
        }
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> Self::Neighbors<'_> {
        match self.payload {
            Payload::Plain { targets, .. } => {
                let (lo, hi) = (self.offset(v as usize), self.offset(v as usize + 1));
                MmapNeighbors::Plain(self.typed::<VertexId>(targets)[lo..hi].iter().copied())
            }
            Payload::Compressed {
                index,
                data,
                sample_rate,
            } => MmapNeighbors::Compressed(neighbors_at(
                self.typed::<u8>(data),
                self.typed::<u64>(index),
                self.weighted,
                sample_rate,
                v,
            )),
        }
    }

    #[inline]
    fn weighted_neighbors(&self, v: VertexId) -> Self::WeightedNeighbors<'_> {
        match self.payload {
            Payload::Plain {
                targets, weights, ..
            } => {
                let (lo, hi) = (self.offset(v as usize), self.offset(v as usize + 1));
                MmapWeightedNeighbors::Plain(SliceWeightedNeighbors::new(
                    &self.typed::<VertexId>(targets)[lo..hi],
                    weights.map(|w| &self.typed::<Weight>(w)[lo..hi]),
                ))
            }
            Payload::Compressed {
                index,
                data,
                sample_rate,
            } => MmapWeightedNeighbors::Compressed(weighted_neighbors_at(
                self.typed::<u8>(data),
                self.typed::<u64>(index),
                self.weighted,
                sample_rate,
                v,
            )),
        }
    }

    #[inline]
    fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    #[inline]
    fn is_weighted(&self) -> bool {
        self.weighted
    }

    #[inline]
    fn storage_kind(&self) -> StorageKind {
        StorageKind::Mmap
    }

    fn resident_bytes(&self) -> usize {
        match &self.src {
            #[cfg(unix)]
            Source::Mapped { .. } => std::mem::size_of::<Self>(),
            Source::Owned { len, .. } => std::mem::size_of::<Self>() + *len,
        }
    }

    fn distance_bound(&self) -> Dist {
        (self.n as Dist).saturating_mul(self.max_weight.max(1) as Dist)
    }

    fn scan_range<'s>(
        &'s self,
        lo: VertexId,
        hi: VertexId,
        mut filter: impl FnMut(VertexId) -> bool,
        mut visit: impl FnMut(VertexId, Self::Neighbors<'s>),
    ) {
        match self.payload {
            Payload::Plain { .. } => {
                for v in lo..hi {
                    if filter(v) {
                        visit(v, self.neighbors(v));
                    }
                }
            }
            Payload::Compressed {
                index,
                data,
                sample_rate,
            } => {
                let data = self.typed::<u8>(data);
                let index = self.typed::<u64>(index);
                let mut pos = block_start(data, index, sample_rate, lo);
                for v in lo..hi {
                    if filter(v) {
                        let (it, next) = neighbors_at_pos(data, pos, v, self.weighted);
                        pos = next;
                        visit(v, MmapNeighbors::Compressed(it));
                    } else {
                        pos = next_block(data, pos);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges_symmetric, from_weighted_edges};
    use crate::csr::Graph;
    use crate::gen::basic::{grid2d, random_directed};
    use crate::io::{unique_temp_dir, TempDir};
    use crate::storage::to_plain;

    /// `name` inside a scratch directory of the test's own (the guard
    /// removes it when dropped).
    fn tmp(name: impl AsRef<Path>) -> (TempDir, std::path::PathBuf) {
        let dir = unique_temp_dir("disk");
        let p = dir.join(name);
        (dir, p)
    }

    fn assert_equivalent(g: &Graph, d: &MmapGraph) {
        assert_eq!(GraphStorage::num_vertices(g), d.num_vertices());
        assert_eq!(GraphStorage::num_edges(g), d.num_edges());
        assert_eq!(GraphStorage::is_symmetric(g), d.is_symmetric());
        assert_eq!(GraphStorage::is_weighted(g), d.is_weighted());
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(Graph::degree(g, v), GraphStorage::degree(d, v));
            let a: Vec<u32> = Graph::neighbors(g, v).to_vec();
            let b: Vec<u32> = GraphStorage::neighbors(d, v).collect();
            assert_eq!(a, b, "neighbors of {v}");
            let aw: Vec<(u32, u32)> = Graph::weighted_neighbors(g, v).collect();
            let bw: Vec<(u32, u32)> = GraphStorage::weighted_neighbors(d, v).collect();
            assert_eq!(aw, bw, "weighted neighbors of {v}");
        }
    }

    #[test]
    fn pack_load_roundtrip_plain_and_compressed() {
        for (i, g) in [
            grid2d(8, 8),
            random_directed(200, 1200, 5),
            from_edges_symmetric(5, &[(0, 1), (3, 4)]),
            Graph::empty(3, false),
        ]
        .into_iter()
        .enumerate()
        {
            for compress in [false, true] {
                let (_dir, p) = tmp(format!("rt-{i}-{compress}"));
                pack(&g, &p, compress).unwrap();
                let d = MmapGraph::load(&p).unwrap();
                assert_eq!(d.is_compressed(), compress);
                assert_equivalent(&g, &d);
                assert_eq!(to_plain(&d), g);
                drop(d);
            }
        }
    }

    #[test]
    fn weighted_roundtrip_both_payloads() {
        let g = from_weighted_edges(5, &[(0, 4), (4, 0), (1, 2), (2, 3)], &[7, 1, 90000, 3]);
        for compress in [false, true] {
            let (_dir, p) = tmp(format!("w-{compress}"));
            pack(&g, &p, compress).unwrap();
            let d = MmapGraph::load(&p).unwrap();
            assert_equivalent(&g, &d);
            assert_eq!(d.distance_bound(), Graph::distance_bound(&g));
            drop(d);
        }
    }

    #[test]
    fn owned_fallback_matches_mapped() {
        let g = grid2d(6, 7);
        let (_dir, p) = tmp("owned");
        pack(&g, &p, true).unwrap();
        let d = MmapGraph::load_owned(&p).unwrap();
        assert_equivalent(&g, &d);
        assert!(d.resident_bytes() > std::mem::size_of::<MmapGraph>());
        drop(d);
    }

    #[test]
    fn mapped_resident_bytes_are_metadata_only() {
        let g = grid2d(16, 16);
        let (_dir, p) = tmp("resident");
        pack(&g, &p, false).unwrap();
        let d = MmapGraph::load(&p).unwrap();
        #[cfg(unix)]
        assert_eq!(d.resident_bytes(), std::mem::size_of::<MmapGraph>());
        drop(d);
    }

    #[test]
    fn corruption_is_detected() {
        let g = grid2d(4, 4);
        let (_dir, p) = tmp("corrupt");
        pack(&g, &p, false).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // flip one byte inside the targets section (second page onward)
        let idx = PAGE * 2 + 5;
        bytes[idx] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        let err = MmapGraph::load(&p).unwrap_err();
        assert!(matches!(err, DiskError::Format(_)), "{err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let (_dir, p) = tmp("magic");
        std::fs::write(&p, vec![0u8; PAGE]).unwrap();
        assert!(matches!(
            MmapGraph::load(&p).unwrap_err(),
            DiskError::Format(_)
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        let (_dir, p) = tmp("short");
        std::fs::write(&p, b"PASGALPK").unwrap();
        assert!(matches!(
            MmapGraph::load(&p).unwrap_err(),
            DiskError::Format(_)
        ));
    }
}
