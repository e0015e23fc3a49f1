#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
//! # peanut-store
//!
//! Zero-copy persistence for published serving epochs: one mmap-able
//! file per `(tenant, epoch)` holding everything a tenant needs to serve
//! — the calibrated [`TreeArena`](peanut_junction::TreeArena) slab, the
//! shortcut tables packed back to back (a [`FlatMaterialization`], made
//! only while the file is written), and the structural shortcut
//! descriptions (clique node lists, ratios, benefits) the selection DP
//! produced. Reading a file decodes it straight back into an owned
//! [`Materialization`]. Cold start becomes `open` + a couple of `memcpy`s
//! instead of re-running initialization, two Hugin calibration passes,
//! and the selection DP; the sharded serving layer uses the same files to
//! page cold tenants out of RAM and fault them back in on demand.
//!
//! ## File format (version 1)
//!
//! Everything in the file is an 8-byte word (`u64` or `f64` bits) in
//! host byte order, so every section is naturally aligned once the base
//! is — which lets the read side hand out borrowed slices straight from
//! the mapping ([`bytes::as_u64s`] / [`bytes::as_f64s`]), with `unsafe`
//! confined to the one audited [`bytes`] module.
//!
//! ```text
//! word  0  MAGIC        "PNUTSTOR" as a little-endian u64
//! word  1  VERSION      1
//! word  2  checksum     FNV-1a-64 over every byte after this word
//! word  3  epoch        lifecycle epoch of the artifact
//! word  4  flags        bit 0: overlapping (PEANUT+) selection
//! word  5  arena_len    calibrated tree-arena slab length (f64 count)
//! word  6  n_shortcuts  materialized shortcut count
//! word  7  nodes_len    total clique-node index count
//! word  8  mat_slab_len flat-materialization slab length (f64 count)
//! word  9  reserved     0
//! ---- sections, back to back ----
//! f64[arena_len]       calibrated arena slab
//! u64[n_shortcuts + 1] node_first — CSR index into nodes_flat
//! u64[nodes_len]       nodes_flat — clique ids, shortcut-major
//! f64[n_shortcuts]     ratios   (benefit / size, the selection key)
//! f64[n_shortcuts]     benefits
//! u64[n_shortcuts]     span_off — SYMBOLIC_SPAN marks a table-less slot
//! u64[n_shortcuts]     span_len
//! f64[mat_slab_len]    flat materialization slab
//! ```
//!
//! The header states exactly how long the file must be; `open` rejects
//! any length mismatch, so truncation can never read garbage, and every
//! dense span must lie inside the table slab. The
//! checksum catches bit rot and torn writes (writes go to a temp file
//! that is renamed into place, so a crash mid-write leaves no partial
//! file under the real name). A wrong version is a typed
//! [`PgmError::StoreVersion`], every other validation failure a
//! [`PgmError::CorruptStore`] — loud, never UB, never a silent wrong
//! answer.

#[allow(unsafe_code)]
pub mod bytes;

use peanut_core::{FlatMaterialization, Materialization, MaterializedShortcut, Shortcut};
use peanut_junction::{JunctionTree, NumericState, QueryEngine, RootedTree};
use peanut_pgm::{PgmError, Potential};
use std::fs;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

use bytes::MappedBytes;

/// `"PNUTSTOR"` read as a little-endian word — the first word of every
/// store file.
pub const MAGIC: u64 = u64::from_le_bytes(*b"PNUTSTOR");

/// The one format version this build reads and writes.
pub const VERSION: u64 = 1;

/// Header length in 8-byte words.
const HEADER_WORDS: usize = 10;

/// Span offset marking a symbolic (table-less) shortcut slot. Dense spans
/// always carry an offset inside the table slab, so the all-ones pattern
/// can never collide with one.
const SYMBOLIC_SPAN: u64 = u64::MAX;

/// FNV-1a 64-bit over `bytes` — the store's integrity checksum. Chosen
/// for being dependency-free, endian-agnostic over a byte stream, and
/// plenty for catching torn writes and bit rot (this is not a
/// cryptographic seal).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where a fleet persists epochs: the directory store files live in.
/// Cloned freely (it is a path), carried by engines that persist and
/// shards that page.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Directory holding one `.pnut` file per persisted `(tenant, epoch)`.
    pub dir: PathBuf,
}

impl StoreConfig {
    /// A store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig { dir: dir.into() }
    }

    /// The file path for `(tenant, epoch)`. Epochs are zero-padded so
    /// lexicographic order is numeric order.
    pub fn epoch_path(&self, tenant: u32, epoch: u64) -> PathBuf {
        self.dir
            .join(format!("tenant{tenant}-epoch{epoch:020}.pnut"))
    }

    /// The newest persisted epoch for `tenant`, scanning the store
    /// directory. `None` when the tenant has no persisted epoch (or the
    /// directory does not exist yet).
    pub fn latest_epoch(&self, tenant: u32) -> Option<(u64, PathBuf)> {
        self.epochs(tenant).max_by_key(|&(epoch, _)| epoch)
    }

    /// Deletes `tenant`'s files for every epoch below `epoch` — the files
    /// a newer persisted epoch supersedes. Best-effort: a file that cannot
    /// be removed stays, and fault-in still picks the newest epoch.
    pub fn retire_before(&self, tenant: u32, epoch: u64) {
        let older: Vec<PathBuf> = self
            .epochs(tenant)
            .filter(|&(e, _)| e < epoch)
            .map(|(_, path)| path)
            .collect();
        // The newer file's name must survive a crash before the older
        // copies go, so sync the directory first; keep them if that fails.
        if older.is_empty()
            || fs::File::open(&self.dir)
                .and_then(|d| d.sync_all())
                .is_err()
        {
            return;
        }
        for path in older {
            let _ = fs::remove_file(path);
        }
    }

    /// Every persisted `(epoch, path)` of `tenant`, in directory order;
    /// empty when the store directory does not exist yet.
    fn epochs(&self, tenant: u32) -> impl Iterator<Item = (u64, PathBuf)> {
        let prefix = format!("tenant{tenant}-epoch");
        fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(move |entry| {
                let name = entry.file_name();
                let digits = name
                    .to_str()?
                    .strip_prefix(&prefix)?
                    .strip_suffix(".pnut")?;
                Some((digits.parse().ok()?, entry.path()))
            })
    }

    /// Persists one epoch for `tenant`, creating the store directory on
    /// first use. Returns the file path written.
    pub fn save_epoch(
        &self,
        tenant: u32,
        mat: &Materialization,
        flat: &FlatMaterialization,
        arena_slab: &[f64],
    ) -> Result<PathBuf, PgmError> {
        let path = self.epoch_path(tenant, flat.epoch());
        fs::create_dir_all(&self.dir).map_err(|e| store_io(&self.dir, &e))?;
        save(&path, mat, flat, arena_slab)?;
        Ok(path)
    }
}

fn store_io(path: &Path, e: &std::io::Error) -> PgmError {
    PgmError::StoreIo {
        path: path.display().to_string(),
        msg: e.to_string(),
    }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> PgmError {
    PgmError::CorruptStore {
        path: path.display().to_string(),
        detail: detail.into(),
    }
}

/// Serializes one epoch — the materialization's structure, its flat
/// table pack, and the calibrated arena slab — to `path`, atomically
/// (temp file + rename). The three artifacts must describe the same
/// epoch: `flat` must be the pack of `mat`, `arena_slab` the calibrated
/// slab of the tree `mat` was selected on.
pub fn save(
    path: &Path,
    mat: &Materialization,
    flat: &FlatMaterialization,
    arena_slab: &[f64],
) -> Result<(), PgmError> {
    if flat.len() != mat.shortcuts.len() || flat.epoch() != mat.epoch {
        return Err(corrupt(
            path,
            format!(
                "refusing to persist mismatched artifacts: pack has {} spans at epoch {}, \
                 materialization {} shortcuts at epoch {}",
                flat.len(),
                flat.epoch(),
                mat.shortcuts.len(),
                mat.epoch
            ),
        ));
    }
    let n = mat.shortcuts.len();
    let nodes_len: usize = mat.shortcuts.iter().map(|s| s.shortcut.nodes().len()).sum();
    let total_words = HEADER_WORDS
        + arena_slab.len()
        + (n + 1)
        + nodes_len
        + n // ratios
        + n // benefits
        + n // span_off
        + n // span_len
        + flat.slab().len();
    let mut buf: Vec<u8> = Vec::with_capacity(total_words * 8);
    put_words(
        &mut buf,
        [
            MAGIC,
            VERSION,
            0, // checksum, patched below
            mat.epoch,
            u64::from(mat.overlapping),
            arena_slab.len() as u64,
            n as u64,
            nodes_len as u64,
            flat.slab().len() as u64,
            0, // reserved
        ],
    );
    put_words(&mut buf, arena_slab.iter().map(|v| v.to_bits()));
    // node_first: CSR prefix over the per-shortcut node lists
    let node_first = mat.shortcuts.iter().scan(0u64, |acc, s| {
        *acc += s.shortcut.nodes().len() as u64;
        Some(*acc)
    });
    put_words(&mut buf, std::iter::once(0).chain(node_first));
    let nodes = mat.shortcuts.iter().flat_map(|s| s.shortcut.nodes());
    put_words(&mut buf, nodes.map(|&u| u as u64));
    put_words(&mut buf, mat.shortcuts.iter().map(|s| s.ratio.to_bits()));
    put_words(&mut buf, mat.shortcuts.iter().map(|s| s.benefit.to_bits()));
    let spans = || (0..n).map(|i| flat.span(i));
    put_words(
        &mut buf,
        spans().map(|sp| sp.map_or(SYMBOLIC_SPAN, |(off, _)| off as u64)),
    );
    put_words(
        &mut buf,
        spans().map(|sp| sp.map_or(0, |(_, len)| len as u64)),
    );
    put_words(&mut buf, flat.slab().iter().map(|v| v.to_bits()));
    debug_assert_eq!(buf.len(), total_words * 8);
    let checksum = fnv1a64(&buf[3 * 8..]);
    buf[2 * 8..3 * 8].copy_from_slice(&checksum.to_ne_bytes());

    let file_name = path
        .file_name()
        .ok_or_else(|| corrupt(path, "store path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    let mut f = fs::File::create(&tmp).map_err(|e| store_io(&tmp, &e))?;
    f.write_all(&buf).map_err(|e| store_io(&tmp, &e))?;
    f.sync_all().map_err(|e| store_io(&tmp, &e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| store_io(path, &e))?;
    Ok(())
}

/// Appends `words` to `buf` as 8-byte host-order words.
fn put_words(buf: &mut Vec<u8>, words: impl IntoIterator<Item = u64>) {
    for w in words {
        buf.extend_from_slice(&w.to_ne_bytes());
    }
}

/// One open store file, fully validated at open time: magic, version,
/// exact length against the header, checksum (unless disabled), CSR
/// monotonicity, and every dense span inside the table slab. All
/// accessors after a successful open hand out slices borrowed straight
/// from the backing — zero copies until something is actually rebuilt.
pub struct StoredEpoch {
    bytes: MappedBytes,
    path: PathBuf,
    epoch: u64,
    overlapping: bool,
    n_shortcuts: usize,
    // Section extents, in bytes into the backing. All 8-byte multiples.
    arena: Range<usize>,
    node_first: Range<usize>,
    nodes_flat: Range<usize>,
    ratios: Range<usize>,
    benefits: Range<usize>,
    span_off: Range<usize>,
    span_len: Range<usize>,
    mat_slab: Range<usize>,
}

impl StoredEpoch {
    /// Opens and validates `path`. Zero-copy (mmap) when available,
    /// owned-read otherwise; behavior is identical either way. `verify`
    /// checks the checksum (one pass over the file); the length, CSR and
    /// span checks always run.
    pub fn open(path: &Path, verify: bool) -> Result<StoredEpoch, PgmError> {
        let bytes = MappedBytes::open(path).map_err(|e| store_io(path, &e))?;
        Self::validate(bytes, path.to_path_buf(), verify)
    }

    /// [`open`](Self::open) forced onto the owned (non-mmap) backing.
    pub fn open_owned(path: &Path, verify: bool) -> Result<StoredEpoch, PgmError> {
        let bytes = MappedBytes::read_owned(path).map_err(|e| store_io(path, &e))?;
        Self::validate(bytes, path.to_path_buf(), verify)
    }

    fn validate(bytes: MappedBytes, path: PathBuf, verify: bool) -> Result<StoredEpoch, PgmError> {
        let buf = bytes.as_bytes();
        if buf.len() < HEADER_WORDS * 8 {
            return Err(corrupt(
                &path,
                format!(
                    "{} bytes is shorter than the {}-byte header",
                    buf.len(),
                    HEADER_WORDS * 8
                ),
            ));
        }
        if buf.len() % 8 != 0 {
            return Err(corrupt(
                &path,
                format!("length {} is not a multiple of 8", buf.len()),
            ));
        }
        let header = bytes::as_u64s(&buf[..HEADER_WORDS * 8])
            .ok_or_else(|| corrupt(&path, "misaligned backing"))?;
        if header[0] != MAGIC {
            return Err(corrupt(&path, format!("bad magic {:#018x}", header[0])));
        }
        if header[1] != VERSION {
            return Err(PgmError::StoreVersion {
                found: header[1],
                expected: VERSION,
            });
        }
        let [epoch, flags, arena_len, n_shortcuts, nodes_len, mat_slab_len] = [
            header[3], header[4], header[5], header[6], header[7], header[8],
        ];
        if flags & !1 != 0 {
            return Err(corrupt(&path, format!("unknown flags {flags:#x}")));
        }
        // Exact expected length, in checked u64 arithmetic so corrupt
        // headers cannot overflow their way past the comparison.
        let words = [
            Some(HEADER_WORDS as u64),
            Some(arena_len),
            n_shortcuts.checked_add(1),
            Some(nodes_len),
            n_shortcuts.checked_mul(4), // ratios + benefits + span_off + span_len
            Some(mat_slab_len),
        ]
        .into_iter()
        .try_fold(0u64, |a, w| a.checked_add(w?));
        let expected = words.and_then(|w| w.checked_mul(8));
        if expected != Some(buf.len() as u64) {
            return Err(corrupt(
                &path,
                format!(
                    "file is {} bytes but the header describes {} (truncated or oversized)",
                    buf.len(),
                    expected.map_or_else(|| "an overflowing size".into(), |e| e.to_string()),
                ),
            ));
        }
        if verify {
            let want = header[2];
            let got = fnv1a64(&buf[3 * 8..]);
            if got != want {
                return Err(corrupt(
                    &path,
                    format!("checksum mismatch: stored {want:#018x}, computed {got:#018x}"),
                ));
            }
        }
        // Section extents; every count fits usize on this host because it
        // summed into the (usize) file length above.
        let n = n_shortcuts as usize;
        let mut at = HEADER_WORDS * 8;
        let mut take = |words: usize| {
            let r = at..at + words * 8;
            at += words * 8;
            r
        };
        let arena = take(arena_len as usize);
        let node_first = take(n + 1);
        let nodes_flat = take(nodes_len as usize);
        let ratios = take(n);
        let benefits = take(n);
        let span_off = take(n);
        let span_len = take(n);
        let mat_slab = take(mat_slab_len as usize);
        debug_assert_eq!(at, buf.len());

        let stored = StoredEpoch {
            epoch,
            overlapping: flags & 1 != 0,
            n_shortcuts: n,
            arena,
            node_first,
            nodes_flat,
            ratios,
            benefits,
            span_off,
            span_len,
            mat_slab,
            path,
            bytes,
        };
        // CSR must be monotone and end exactly at nodes_len, or
        // shortcut_nodes would hand out overlapping / out-of-range slices.
        let first = stored.node_first_words();
        if first[0] != 0 || first.windows(2).any(|w| w[0] > w[1]) || first[n] != nodes_len {
            return Err(corrupt(
                &stored.path,
                "shortcut node index (node_first) is not a monotone CSR over nodes_flat",
            ));
        }
        // Every dense span must end inside the table slab, in checked
        // arithmetic so a corrupt offset cannot wrap past the comparison.
        let mut spans = stored
            .u64s(&stored.span_off)
            .iter()
            .zip(stored.u64s(&stored.span_len));
        let outside = |(&off, &len): (&u64, &u64)| {
            off != SYMBOLIC_SPAN && off.checked_add(len).is_none_or(|end| end > mat_slab_len)
        };
        if let Some(i) = spans.position(outside) {
            return Err(corrupt(
                &stored.path,
                format!("shortcut {i} has a dense span outside the table slab"),
            ));
        }
        Ok(stored)
    }

    fn u64s(&self, r: &Range<usize>) -> &[u64] {
        bytes::as_u64s(&self.bytes.as_bytes()[r.clone()]).expect("sections validated at open")
    }

    fn f64s(&self, r: &Range<usize>) -> &[f64] {
        bytes::as_f64s(&self.bytes.as_bytes()[r.clone()]).expect("sections validated at open")
    }

    fn node_first_words(&self) -> &[u64] {
        self.u64s(&self.node_first)
    }

    /// The file this epoch was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lifecycle epoch stamped in the header.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the persisted selection allowed overlapping shortcuts
    /// (PEANUT+).
    pub fn overlapping(&self) -> bool {
        self.overlapping
    }

    /// Number of persisted shortcuts.
    pub fn n_shortcuts(&self) -> usize {
        self.n_shortcuts
    }

    /// Whether the backing is a live mapping (false: owned copy).
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// The calibrated tree-arena slab, borrowed from the backing.
    pub fn arena_slab(&self) -> &[f64] {
        self.f64s(&self.arena)
    }

    /// Clique ids of shortcut `i`'s subtree, borrowed from the backing.
    pub fn shortcut_nodes(&self, i: usize) -> &[u64] {
        let first = self.node_first_words();
        let (a, b) = (first[i] as usize, first[i + 1] as usize);
        &self.u64s(&self.nodes_flat)[a..b]
    }

    /// Selection ratio of shortcut `i`.
    pub fn ratio(&self, i: usize) -> f64 {
        self.f64s(&self.ratios)[i]
    }

    /// Workload benefit of shortcut `i`.
    pub fn benefit(&self, i: usize) -> f64 {
        self.f64s(&self.benefits)[i]
    }

    /// Shortcut `i`'s persisted table values, borrowed from the backing;
    /// `None` for a symbolic slot. Spans were bounds-checked at open.
    fn table(&self, i: usize) -> Option<&[f64]> {
        let off = self.u64s(&self.span_off)[i];
        let len = self.u64s(&self.span_len)[i];
        (off != SYMBOLIC_SPAN)
            .then(|| &self.f64s(&self.mat_slab)[off as usize..(off + len) as usize])
    }

    /// Rebuilds the owned [`Materialization`] this file was saved from:
    /// structural shortcuts re-derived from the persisted node lists
    /// (validated against `tree`), dense tables copied out of the file's
    /// table slab. Everything numeric is bit-identical to what was saved.
    pub fn rebuild_materialization(
        &self,
        tree: &JunctionTree,
        rooted: &RootedTree,
    ) -> Result<Materialization, PgmError> {
        let mut shortcuts = Vec::with_capacity(self.n_shortcuts);
        for i in 0..self.n_shortcuts {
            let mut nodes = Vec::with_capacity(self.shortcut_nodes(i).len());
            for &u in self.shortcut_nodes(i) {
                let u = usize::try_from(u)
                    .ok()
                    .filter(|&u| u < tree.n_cliques())
                    .ok_or_else(|| {
                        corrupt(
                            &self.path,
                            format!(
                                "shortcut {i} references clique {u}, tree has {}",
                                tree.n_cliques()
                            ),
                        )
                    })?;
                nodes.push(u);
            }
            let shortcut = Shortcut::from_nodes(tree, rooted, nodes)?;
            let potential = self
                .table(i)
                .map(|values| {
                    let scope = shortcut.scope().clone();
                    let cards = tree.domain().cards_of(&scope);
                    Potential::new(scope, cards, values.to_vec())
                })
                .transpose()?;
            shortcuts.push(MaterializedShortcut {
                shortcut,
                potential,
                benefit: self.benefit(i),
                ratio: self.ratio(i),
            });
        }
        Ok(Materialization {
            shortcuts,
            overlapping: self.overlapping,
            epoch: self.epoch,
        })
    }
}

/// Rehydrates a full serving artifact from a stored epoch in O(mmap +
/// memcpy): reattach the calibrated arena slab (skipping initialization
/// and both Hugin passes), rebuild the materialization structurally
/// (skipping the selection DP), and return an engine answering
/// bit-identically to the one that was persisted.
pub fn rehydrate_engine<'t>(
    tree: &'t JunctionTree,
    stored: &StoredEpoch,
) -> Result<(QueryEngine<'t>, Materialization), PgmError> {
    let ns = NumericState::from_calibrated_slab(tree, stored.arena_slab())?;
    let engine = QueryEngine::from_calibrated(tree, ns);
    let mat = stored.rebuild_materialization(tree, engine.rooted())?;
    Ok((engine, mat))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_spells_pnutstor() {
        assert_eq!(&MAGIC.to_le_bytes(), b"PNUTSTOR");
    }

    #[test]
    fn fnv_vectors() {
        // standard FNV-1a 64 test vectors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn epoch_paths_sort_numerically() {
        let cfg = StoreConfig::new("/tmp/peanut-store");
        let p9 = cfg.epoch_path(3, 9);
        let p10 = cfg.epoch_path(3, 10);
        assert!(p9 < p10, "zero-padding must keep lexicographic = numeric");
        assert!(p9.to_string_lossy().ends_with(".pnut"));
    }
}
