//! Durable zero-copy optimizer state.
//!
//! Tay's analysis assumes the optimizer *knows* the cardinality function
//! τ; in this system that knowledge — `SchemeIndex` subsets, flat DP memo
//! tables, cached cardinalities, winning `Strategy` plans — is the most
//! expensive artifact any process computes, and before this crate it died
//! with the process. A store file makes it durable: a versioned,
//! endianness-tagged, checksummed flat binary written in a single pass and
//! loaded read-only by `mmap` (buffered read fallback), so a warm process
//! starts from the cold process's answers.
//!
//! ## Format (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "MJNSTORE"
//!      8     4  version (= 1)
//!     12     4  endianness tag (= 0x0102_0304, read little-endian)
//!     16     4  entry count
//!     20     4  reserved (= 0)
//!     24     8  checksum: FNV-1a 64 over bytes[0..24] ++ bytes[32..len]
//!     32     8  file length
//!     40   16k  entry table: k × { offset u64, length u64 }
//!      …        entry blobs, 8-byte aligned
//! ```
//!
//! Each entry blob is one fingerprint-keyed optimization artifact:
//!
//! ```text
//! offset  size  field
//!      0    32  fingerprint (ASCII hex, the canonical 128-bit key)
//!     32     8  `within` RelSet bits
//!     40     8  plan cost (u64::MAX = not costed)
//!     48     4  n_subsets   — SchemeIndex + memo-table length
//!     52     4  n_cards     — 0, or n_subsets
//!     56     4  n_steps     — plan join steps
//!     60     4  response length in bytes
//!     64     —  subsets   n_subsets × u64   (rank order)
//!      …     —  costs     n_subsets × u64   (u64::MAX = unsolved)
//!      …     —  splits    n_subsets × (u32,u32) ((MAX,MAX) = none)
//!      …     —  cards     n_cards × u64     (τ, parallel to subsets)
//!      …     —  steps     n_steps × (u64,u64,u64) (set, left, right)
//!      …     —  response  UTF-8 rendered report text
//! ```
//!
//! Ranks and levels are *derived* state: subsets are stored in rank order,
//! so position is rank and grouping by popcount rebuilds the levels.
//!
//! ## Validation
//!
//! [`LoadedStore::open`] validates structurally before anything else reads
//! a byte: magic, version, endianness tag, recorded-vs-actual length,
//! checksum, entry-table bounds, per-entry section bounds, UTF-8, and
//! internal consistency (split ranks in range, card count matching). A
//! truncated, bit-flipped, or oversized file yields a typed
//! [`MjoinError::CorruptStore`] — never UB, never a panic. All reads go
//! through bounds-checked safe slices; the only `unsafe` in the crate is
//! the `mmap` wrapper in `mmap.rs`, and a buffered read path exists for
//! platforms (or files) it cannot map.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod mmap;

use std::fmt::Write as _;
use std::path::Path;

use mjoin_guard::{failpoints, MjoinError};
use mjoin_obs::{incr, Counter};

/// File magic: 8 bytes at offset 0.
pub const MAGIC: [u8; 8] = *b"MJNSTORE";
/// Current format version.
pub const VERSION: u32 = 1;
/// Endianness tag as written; a byte-swapped file reads it back as
/// 0x0403_0201 and is rejected with a typed error.
pub const ENDIAN_TAG: u32 = 0x0102_0304;
/// Fixed header length (everything before the entry table).
pub const HEADER_LEN: usize = 40;
/// Fixed per-entry header length (everything before its sections).
pub const ENTRY_HEADER_LEN: usize = 64;
/// Length of a fingerprint key, in bytes (128 bits rendered as hex).
pub const FINGERPRINT_LEN: usize = 32;

/// The sentinel split meaning "no split recorded" (leaf or unsolved).
pub const NO_SPLIT: (u32, u32) = (u32::MAX, u32::MAX);

fn corrupt(msg: impl Into<String>) -> MjoinError {
    MjoinError::CorruptStore(msg.into())
}

/// FNV-1a 64's offset basis: where the checksum and the first fingerprint
/// lane start.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The second fingerprint lane's offset basis.
const FNV_OFFSET_B: u64 = 0x9e37_79b9_7f4a_7c15;

/// One FNV-1a step: the update every FNV hash in this crate is made of.
#[inline(always)]
fn fnv1a_step(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// 128 bits of FNV-1a (two independent offset bases) rendered as 32 hex
/// chars — the canonical fingerprint format every store key uses.
/// Collisions are vanishingly unlikely and cost only a wrong warm-start
/// on adversarial input; keys never leave the deployment.
pub fn fingerprint128(s: &str) -> String {
    let mut h = Fingerprint128::new();
    h.write_bytes(s.as_bytes());
    h.finish()
}

/// [`fingerprint128`] as a streaming hasher: text written to it in any
/// number of pieces digests exactly as the concatenated string would, so a
/// key can be computed from text that is never built.
#[derive(Clone, Debug)]
pub struct Fingerprint128 {
    a: u64,
    b: u64,
}

impl Fingerprint128 {
    /// A hasher that has seen no bytes.
    pub fn new() -> Self {
        Fingerprint128 {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
        }
    }

    /// Feeds `bytes` to both lanes in one loop.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let (mut a, mut b) = (self.a, self.b);
        for &byte in bytes {
            a = fnv1a_step(a, byte);
            b = fnv1a_step(b, byte);
        }
        (self.a, self.b) = (a, b);
    }

    /// The 32-hex-char key of everything written so far.
    pub fn finish(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

impl Default for Fingerprint128 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Write for Fingerprint128 {
    #[inline]
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    chunks
        .iter()
        .flat_map(|chunk| chunk.iter())
        .fold(FNV_OFFSET, |h, &b| fnv1a_step(h, b))
}

/// One fingerprint-keyed optimization artifact, owned form. The loaded
/// (zero-copy) form is [`EntryView`]; `load(save(x)).to_entry() == x` is
/// the round-trip contract the test suite holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreEntry {
    /// Canonical 128-bit fingerprint, 32 ASCII hex chars.
    pub fingerprint: String,
    /// The optimized subset's `RelSet` bits.
    pub within: u64,
    /// The winning plan's τ; `u64::MAX` when not costed within budget.
    pub plan_cost: u64,
    /// Connected subsets in rank order (the `SchemeIndex` payload).
    pub subsets: Vec<u64>,
    /// Flat memo cost table, parallel to `subsets` (`u64::MAX` unsolved).
    pub costs: Vec<u64>,
    /// Flat memo choice table, parallel to `subsets` ([`NO_SPLIT`] none).
    pub splits: Vec<(u32, u32)>,
    /// Cached cardinalities τ(subset), parallel to `subsets`; may be empty.
    pub cards: Vec<u64>,
    /// Plan join steps, pre-order: `(set, left, right)` RelSet bits.
    pub steps: Vec<(u64, u64, u64)>,
    /// The rendered report text the cold run printed (warm-start replays
    /// it byte-identically).
    pub response: String,
}

impl StoreEntry {
    /// An entry with empty sections — serve plan-cache snapshots use this
    /// shape (fingerprint, cost and response only).
    pub fn response_only(fingerprint: String, plan_cost: u64, response: String) -> StoreEntry {
        StoreEntry {
            fingerprint,
            within: 0,
            plan_cost,
            subsets: Vec::new(),
            costs: Vec::new(),
            splits: Vec::new(),
            cards: Vec::new(),
            steps: Vec::new(),
            response,
        }
    }

    fn validate_for_save(&self) -> Result<(), MjoinError> {
        let fp_ok = self.fingerprint.len() == FINGERPRINT_LEN
            && self.fingerprint.bytes().all(|b| b.is_ascii_hexdigit());
        if !fp_ok {
            return Err(MjoinError::Internal(format!(
                "store entry fingerprint must be {FINGERPRINT_LEN} hex chars, got {:?}",
                self.fingerprint
            )));
        }
        if self.costs.len() != self.subsets.len() || self.splits.len() != self.subsets.len() {
            return Err(MjoinError::Internal(
                "store entry memo tables must parallel its subsets".into(),
            ));
        }
        if !self.cards.is_empty() && self.cards.len() != self.subsets.len() {
            return Err(MjoinError::Internal(
                "store entry cards must be empty or parallel its subsets".into(),
            ));
        }
        if u32::try_from(self.response.len()).is_err()
            || u32::try_from(self.subsets.len()).is_err()
            || u32::try_from(self.steps.len()).is_err()
        {
            return Err(MjoinError::Internal("store entry section exceeds u32".into()));
        }
        Ok(())
    }

    fn blob_len(&self) -> usize {
        ENTRY_HEADER_LEN
            + self.subsets.len() * 24 // subsets + costs + splits
            + self.cards.len() * 8
            + self.steps.len() * 24
            + self.response.len()
    }

    fn write_blob(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.fingerprint.as_bytes());
        out.extend_from_slice(&self.within.to_le_bytes());
        out.extend_from_slice(&self.plan_cost.to_le_bytes());
        out.extend_from_slice(&(self.subsets.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.cards.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.steps.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.response.len() as u32).to_le_bytes());
        for &s in &self.subsets {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for &c in &self.costs {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for &(a, b) in &self.splits {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        for &c in &self.cards {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for &(s, l, r) in &self.steps {
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&l.to_le_bytes());
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(self.response.as_bytes());
    }
}

/// Serializes `entries` to the flat format. Pure function of its input —
/// the committed golden store is byte-compared against this.
pub fn serialize(entries: &[StoreEntry]) -> Result<Vec<u8>, MjoinError> {
    for e in entries {
        e.validate_for_save()?;
    }
    if u32::try_from(entries.len()).is_err() {
        return Err(MjoinError::Internal("too many store entries".into()));
    }
    let table_len = entries.len() * 16;
    let mut offset = HEADER_LEN + table_len;
    let mut table = Vec::with_capacity(table_len);
    let mut blobs = Vec::new();
    for e in entries {
        // Blobs are 8-byte aligned so every u64 field sits on a natural
        // boundary in the mapped file.
        while !(HEADER_LEN + table_len + blobs.len()).is_multiple_of(8) {
            blobs.push(0u8);
        }
        offset = HEADER_LEN + table_len + blobs.len();
        let len = e.blob_len();
        table.extend_from_slice(&(offset as u64).to_le_bytes());
        table.extend_from_slice(&(len as u64).to_le_bytes());
        e.write_blob(&mut blobs);
    }
    let _ = offset;
    let file_len = (HEADER_LEN + table_len + blobs.len()) as u64;
    let mut head = Vec::with_capacity(HEADER_LEN);
    head.extend_from_slice(&MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
    head.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    head.extend_from_slice(&0u32.to_le_bytes());
    // Covers bytes[0..24] ++ bytes[32..len]: everything except the
    // checksum field itself, file_len included.
    let checksum = fnv1a64(&[&head, &file_len.to_le_bytes(), &table, &blobs]);
    // head currently holds bytes[0..24]; checksum and file_len complete it.
    let mut out = head;
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(&file_len.to_le_bytes());
    out.extend_from_slice(&table);
    out.extend_from_slice(&blobs);
    debug_assert_eq!(out.len() as u64, file_len);
    Ok(out)
}

/// Serializes `entries` and writes them to `path` crash-safely:
/// write-to-temp, fsync the temp file, atomic rename over the target,
/// then fsync the parent directory so the rename itself is durable. A
/// crash (or SIGKILL) at any point leaves either the old store or the new
/// one — never a torn file. Returns the byte length written. Goes through
/// the `store::save` failpoint.
pub fn save(path: &Path, entries: &[StoreEntry]) -> Result<u64, MjoinError> {
    failpoints::hit("store::save")?;
    let bytes = serialize(entries)?;
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| corrupt(format!("writing {}: {e}", path.display()));
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(&bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    std::fs::rename(&tmp, path).map_err(io)?;
    // Durability of the rename needs the directory entry flushed too;
    // platforms where directories can't be fsynced just skip it.
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(bytes.len() as u64)
}

enum StoreBytes {
    Mapped(mmap::Mapped),
    Owned(Vec<u8>),
}

impl StoreBytes {
    fn as_slice(&self) -> &[u8] {
        match self {
            StoreBytes::Mapped(m) => m.as_slice(),
            StoreBytes::Owned(v) => v,
        }
    }
}

/// A validated, read-only store. Holds the raw bytes (mapped or owned);
/// [`EntryView`] accessors decode fields in place, so loading never copies
/// the section payloads.
pub struct LoadedStore {
    bytes: StoreBytes,
    /// `(offset, len)` per entry, validated against the byte bounds.
    table: Vec<(usize, usize)>,
}

impl std::fmt::Debug for LoadedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedStore")
            .field("file_len", &self.file_len())
            .field("entries", &self.len())
            .field("via_mmap", &self.via_mmap())
            .finish()
    }
}

fn u16_slice(b: &[u8], at: usize, len: usize) -> &[u8] {
    &b[at..at + len]
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(u16_slice(b, at, 4).try_into().expect("bounds pre-checked"))
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(u16_slice(b, at, 8).try_into().expect("bounds pre-checked"))
}

impl LoadedStore {
    /// Opens and validates `path`, preferring the zero-copy `mmap` path
    /// and falling back to a buffered read. Goes through the
    /// `store::load` failpoint; counts `store.loads` (and
    /// `store.bytes_mapped` on the mapped path) on success.
    pub fn open(path: &Path) -> Result<LoadedStore, MjoinError> {
        Self::open_inner(path, true)
    }

    /// [`open`](Self::open) forced onto the buffered (read-to-`Vec`)
    /// path — CI cross-checks the golden store through both.
    pub fn open_buffered(path: &Path) -> Result<LoadedStore, MjoinError> {
        Self::open_inner(path, false)
    }

    fn open_inner(path: &Path, try_mmap: bool) -> Result<LoadedStore, MjoinError> {
        failpoints::hit("store::load")?;
        let io = |e: std::io::Error| corrupt(format!("opening {}: {e}", path.display()));
        let file = std::fs::File::open(path).map_err(io)?;
        let len = file.metadata().map_err(io)?.len();
        let len = usize::try_from(len)
            .map_err(|_| corrupt(format!("{}: file too large to map", path.display())))?;
        let (bytes, mapped_len) = match mmap::Mapped::map(&file, len).filter(|_| try_mmap) {
            Some(m) => (StoreBytes::Mapped(m), len as u64),
            None => {
                let buf = std::fs::read(path).map_err(io)?;
                (StoreBytes::Owned(buf), 0)
            }
        };
        let store = Self::from_store_bytes(bytes)?;
        incr(Counter::StoreLoads, 1);
        incr(Counter::StoreBytesMapped, mapped_len);
        Ok(store)
    }

    /// Validates an in-memory image — the corruption-fuzz suite drives
    /// truncations and bitflips through this without touching disk.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<LoadedStore, MjoinError> {
        Self::from_store_bytes(StoreBytes::Owned(bytes))
    }

    fn from_store_bytes(bytes: StoreBytes) -> Result<LoadedStore, MjoinError> {
        let b = bytes.as_slice();
        if b.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "file is {} bytes, smaller than the {HEADER_LEN}-byte header",
                b.len()
            )));
        }
        if b[0..8] != MAGIC {
            return Err(corrupt("bad magic (not a store file)"));
        }
        let version = u32_at(b, 8);
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported store version {version} (this build reads {VERSION})"
            )));
        }
        let endian = u32_at(b, 12);
        if endian != ENDIAN_TAG {
            return Err(corrupt(format!(
                "endianness tag {endian:#010x} does not match {ENDIAN_TAG:#010x}"
            )));
        }
        let entry_count = u32_at(b, 16) as usize;
        if u32_at(b, 20) != 0 {
            return Err(corrupt("reserved header field is nonzero"));
        }
        let checksum = u64_at(b, 24);
        let file_len = u64_at(b, 32);
        if file_len != b.len() as u64 {
            return Err(corrupt(format!(
                "recorded length {file_len} does not match actual length {} \
                 (truncated or oversized file)",
                b.len()
            )));
        }
        let actual = fnv1a64(&[&b[0..24], &b[32..]]);
        if actual != checksum {
            return Err(corrupt(format!(
                "checksum mismatch: recorded {checksum:#018x}, computed {actual:#018x}"
            )));
        }
        let table_end = HEADER_LEN
            .checked_add(entry_count.checked_mul(16).ok_or_else(|| corrupt("entry count overflow"))?)
            .ok_or_else(|| corrupt("entry table overflow"))?;
        if table_end > b.len() {
            return Err(corrupt(format!(
                "entry table for {entry_count} entries exceeds the file"
            )));
        }
        let mut table = Vec::with_capacity(entry_count);
        for i in 0..entry_count {
            let at = HEADER_LEN + i * 16;
            let offset = u64_at(b, at);
            let len = u64_at(b, at + 8);
            let (offset, len) = (
                usize::try_from(offset).map_err(|_| corrupt("entry offset overflow"))?,
                usize::try_from(len).map_err(|_| corrupt("entry length overflow"))?,
            );
            let end = offset
                .checked_add(len)
                .ok_or_else(|| corrupt("entry bounds overflow"))?;
            if offset < table_end || end > b.len() || offset % 8 != 0 {
                return Err(corrupt(format!("entry {i} is out of bounds or misaligned")));
            }
            validate_entry(&b[offset..end], i)?;
            table.push((offset, len));
        }
        Ok(LoadedStore { bytes, table })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Did this store load via `mmap` (false: buffered fallback)?
    pub fn via_mmap(&self) -> bool {
        matches!(self.bytes, StoreBytes::Mapped(_))
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> u64 {
        self.bytes.as_slice().len() as u64
    }

    /// The `i`-th entry.
    pub fn entry_at(&self, i: usize) -> EntryView<'_> {
        let (offset, len) = self.table[i];
        EntryView {
            bytes: &self.bytes.as_slice()[offset..offset + len],
        }
    }

    /// All entries, in file order.
    pub fn entries(&self) -> impl Iterator<Item = EntryView<'_>> {
        (0..self.len()).map(|i| self.entry_at(i))
    }

    /// Looks up an entry by fingerprint; counts `store.hits` on a hit.
    pub fn entry(&self, fingerprint: &str) -> Option<EntryView<'_>> {
        let found = self
            .entries()
            .find(|e| e.fingerprint() == fingerprint);
        if found.is_some() {
            incr(Counter::StoreHits, 1);
        }
        found
    }

    /// A human-readable dump of the header and per-entry sections — the
    /// `store inspect` CLI output.
    pub fn inspect(&self, path_label: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "store: {path_label}");
        let entries = if self.len() == 1 {
            "1 entry".to_string()
        } else {
            format!("{} entries", self.len())
        };
        let _ = writeln!(
            out,
            "format: version {VERSION}, little-endian, {} bytes, {} ({entries})",
            self.file_len(),
            if self.via_mmap() { "mmap" } else { "buffered" },
        );
        for (i, e) in self.entries().enumerate() {
            let solved = (0..e.n_subsets()).filter(|&r| e.cost(r) != u64::MAX).count();
            let _ = writeln!(out, "entry {i}: fingerprint {}", e.fingerprint());
            let _ = writeln!(
                out,
                "  within {:#x} ({} relations), plan cost {}, {} plan steps",
                e.within(),
                e.within().count_ones(),
                if e.plan_cost() == u64::MAX {
                    "(not costed)".to_string()
                } else {
                    e.plan_cost().to_string()
                },
                e.n_steps(),
            );
            let _ = writeln!(
                out,
                "  memo: {} connected subsets ({solved} solved), {} cached cardinalities",
                e.n_subsets(),
                e.n_cards(),
            );
            let _ = writeln!(out, "  response: {} bytes", e.response().len());
        }
        out
    }
}

/// Structural validation of one entry blob (bounds, counts, UTF-8, split
/// ranks) — runs at open so every later accessor can index unchecked.
fn validate_entry(b: &[u8], i: usize) -> Result<(), MjoinError> {
    if b.len() < ENTRY_HEADER_LEN {
        return Err(corrupt(format!("entry {i} shorter than its header")));
    }
    if !b[..FINGERPRINT_LEN].iter().all(|c| c.is_ascii_hexdigit()) {
        return Err(corrupt(format!("entry {i} fingerprint is not ASCII hex")));
    }
    let n_subsets = u32_at(b, 48) as usize;
    let n_cards = u32_at(b, 52) as usize;
    let n_steps = u32_at(b, 56) as usize;
    let response_len = u32_at(b, 60) as usize;
    if n_cards != 0 && n_cards != n_subsets {
        return Err(corrupt(format!(
            "entry {i} has {n_cards} cards for {n_subsets} subsets"
        )));
    }
    let need = ENTRY_HEADER_LEN
        .checked_add(n_subsets.checked_mul(24).ok_or_else(|| corrupt("section overflow"))?)
        .and_then(|x| x.checked_add(n_cards * 8))
        .and_then(|x| x.checked_add(n_steps.checked_mul(24)?))
        .and_then(|x| x.checked_add(response_len))
        .ok_or_else(|| corrupt(format!("entry {i} section sizes overflow")))?;
    if need != b.len() {
        return Err(corrupt(format!(
            "entry {i} sections need {need} bytes but the blob holds {}",
            b.len()
        )));
    }
    let splits_at = ENTRY_HEADER_LEN + n_subsets * 16;
    for r in 0..n_subsets {
        let (a, b2) = (u32_at(b, splits_at + r * 8), u32_at(b, splits_at + r * 8 + 4));
        let ok = ((a == NO_SPLIT.0) == (b2 == NO_SPLIT.1))
            && (a == NO_SPLIT.0 || ((a as usize) < n_subsets && (b2 as usize) < n_subsets));
        if !ok {
            return Err(corrupt(format!(
                "entry {i} memo split at rank {r} points outside the rank space"
            )));
        }
    }
    let response_at = need - response_len;
    if std::str::from_utf8(&b[response_at..]).is_err() {
        return Err(corrupt(format!("entry {i} response is not UTF-8")));
    }
    Ok(())
}

/// A zero-copy view of one validated entry. Accessors decode little-endian
/// fields in place; nothing is materialized until [`EntryView::to_entry`].
#[derive(Clone, Copy)]
pub struct EntryView<'a> {
    bytes: &'a [u8],
}

impl<'a> EntryView<'a> {
    /// The entry's canonical fingerprint.
    pub fn fingerprint(&self) -> &'a str {
        std::str::from_utf8(&self.bytes[..FINGERPRINT_LEN]).expect("validated at open")
    }

    /// The optimized subset's RelSet bits.
    pub fn within(&self) -> u64 {
        u64_at(self.bytes, 32)
    }

    /// The winning plan's τ (`u64::MAX` = not costed).
    pub fn plan_cost(&self) -> u64 {
        u64_at(self.bytes, 40)
    }

    /// Connected-subset (= memo-table) length.
    pub fn n_subsets(&self) -> usize {
        u32_at(self.bytes, 48) as usize
    }

    /// Cached-cardinality count (0 or [`n_subsets`](Self::n_subsets)).
    pub fn n_cards(&self) -> usize {
        u32_at(self.bytes, 52) as usize
    }

    /// Plan step count.
    pub fn n_steps(&self) -> usize {
        u32_at(self.bytes, 56) as usize
    }

    /// The rank-`r` connected subset's bits.
    pub fn subset(&self, r: usize) -> u64 {
        u64_at(self.bytes, ENTRY_HEADER_LEN + r * 8)
    }

    /// The rank-`r` memo cost (`u64::MAX` = unsolved).
    pub fn cost(&self, r: usize) -> u64 {
        u64_at(self.bytes, ENTRY_HEADER_LEN + self.n_subsets() * 8 + r * 8)
    }

    /// The rank-`r` memo split, `None` for leaves/unsolved ranks.
    pub fn split(&self, r: usize) -> Option<(u32, u32)> {
        let at = ENTRY_HEADER_LEN + self.n_subsets() * 16 + r * 8;
        let pair = (u32_at(self.bytes, at), u32_at(self.bytes, at + 4));
        (pair != NO_SPLIT).then_some(pair)
    }

    /// The rank-`r` cached cardinality, when cards were stored.
    pub fn card(&self, r: usize) -> Option<u64> {
        (r < self.n_cards())
            .then(|| u64_at(self.bytes, ENTRY_HEADER_LEN + self.n_subsets() * 24 + r * 8))
    }

    /// The `k`-th plan step as `(set, left, right)` RelSet bits.
    pub fn step(&self, k: usize) -> (u64, u64, u64) {
        let at = ENTRY_HEADER_LEN + self.n_subsets() * 24 + self.n_cards() * 8 + k * 24;
        (
            u64_at(self.bytes, at),
            u64_at(self.bytes, at + 8),
            u64_at(self.bytes, at + 16),
        )
    }

    /// The rendered report text the cold run printed.
    pub fn response(&self) -> &'a str {
        let at = ENTRY_HEADER_LEN
            + self.n_subsets() * 24
            + self.n_cards() * 8
            + self.n_steps() * 24;
        std::str::from_utf8(&self.bytes[at..]).expect("validated at open")
    }

    /// Materializes the owned form (round-trip tests compare this against
    /// the entry that was saved).
    pub fn to_entry(&self) -> StoreEntry {
        StoreEntry {
            fingerprint: self.fingerprint().to_string(),
            within: self.within(),
            plan_cost: self.plan_cost(),
            subsets: (0..self.n_subsets()).map(|r| self.subset(r)).collect(),
            costs: (0..self.n_subsets()).map(|r| self.cost(r)).collect(),
            splits: (0..self.n_subsets())
                .map(|r| self.split(r).unwrap_or(NO_SPLIT))
                .collect(),
            cards: (0..self.n_cards())
                .map(|r| self.card(r).expect("r < n_cards"))
                .collect(),
            steps: (0..self.n_steps()).map(|k| self.step(k)).collect(),
            response: self.response().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_lanes_are_fnv1a_64() {
        // The published FNV-1a 64 digests of "" and "a" in the first lane.
        assert!(fingerprint128("").starts_with("cbf29ce484222325"));
        assert!(fingerprint128("a").starts_with("af63dc4c8601ec8c"));
        assert_eq!(&fingerprint128("")[16..], "9e3779b97f4a7c15");
        assert_eq!(fnv1a64(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(&[b"ab", b"", b"c"]), fnv1a64(&[b"abc"]));
    }

    #[test]
    fn streamed_fingerprint_ignores_how_the_text_is_split() {
        let text = "v1|optimize|rel AB;A B\n1 10\n-2 é 日本 🦀\t";
        let whole = fingerprint128(text);
        let bounds: Vec<usize> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        for &i in &bounds {
            for &j in bounds.iter().filter(|&&j| j >= i) {
                let mut h = Fingerprint128::new();
                for piece in [&text[..i], &text[i..j], &text[j..]] {
                    h.write_str(piece).unwrap();
                }
                assert_eq!(h.finish(), whole, "split at {i} and {j}");
            }
        }
        let mut h = Fingerprint128::default();
        write!(h, "{}|{:?}", &text[..5], Some(&text[5..])).unwrap();
        assert_eq!(
            h.finish(),
            fingerprint128(&format!("{}|{:?}", &text[..5], Some(&text[5..])))
        );
    }

    fn sample_entry(tag: u8) -> StoreEntry {
        StoreEntry {
            fingerprint: fingerprint128(&format!("sample-{tag}")),
            within: 0b111,
            plan_cost: 42 + u64::from(tag),
            subsets: vec![0b001, 0b010, 0b011, 0b100, 0b110, 0b111],
            costs: vec![0, 0, 7, 0, 9, 23],
            splits: vec![
                NO_SPLIT,
                NO_SPLIT,
                (0, 1),
                NO_SPLIT,
                (1, 3),
                (2, 3),
            ],
            cards: vec![4, 5, 7, 6, 9, 11],
            steps: vec![(0b111, 0b011, 0b100), (0b011, 0b001, 0b010)],
            response: format!("search space: NoCartesian\nplan {tag}\n"),
        }
    }

    #[test]
    fn round_trips_in_memory() {
        let entries = vec![sample_entry(1), sample_entry(2), StoreEntry::response_only(
            fingerprint128("resp-only"),
            u64::MAX,
            "τ = (not costed within budget)\n".into(),
        )];
        let bytes = serialize(&entries).unwrap();
        let store = LoadedStore::from_bytes(bytes).unwrap();
        assert_eq!(store.len(), 3);
        for (want, got) in entries.iter().zip(store.entries()) {
            assert_eq!(*want, got.to_entry());
        }
        let fp = entries[1].fingerprint.clone();
        assert_eq!(store.entry(&fp).unwrap().plan_cost(), entries[1].plan_cost);
        assert!(store.entry(&fingerprint128("missing")).is_none());
    }

    #[test]
    fn save_and_open_both_paths() {
        let dir = std::env::temp_dir().join(format!("mjoin-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.store");
        let entries = vec![sample_entry(7)];
        let written = save(&path, &entries).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        for store in [
            LoadedStore::open(&path).unwrap(),
            LoadedStore::open_buffered(&path).unwrap(),
        ] {
            assert_eq!(store.file_len(), written);
            assert_eq!(store.entry_at(0).to_entry(), entries[0]);
        }
        assert!(!LoadedStore::open_buffered(&path).unwrap().via_mmap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serialization_is_deterministic() {
        let entries = vec![sample_entry(1), sample_entry(2)];
        assert_eq!(serialize(&entries).unwrap(), serialize(&entries).unwrap());
    }

    #[test]
    fn truncation_and_flips_yield_typed_errors() {
        let bytes = serialize(&[sample_entry(3)]).unwrap();
        for cut in 0..bytes.len() {
            let err = LoadedStore::from_bytes(bytes[..cut].to_vec()).unwrap_err();
            assert!(matches!(err, MjoinError::CorruptStore(_)), "cut {cut}: {err}");
        }
        // Oversized: appended garbage breaks the recorded length.
        let mut grown = bytes.clone();
        grown.extend_from_slice(&[0xAB; 9]);
        assert!(matches!(
            LoadedStore::from_bytes(grown).unwrap_err(),
            MjoinError::CorruptStore(_)
        ));
        for bit in 0..(bytes.len() * 8) {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let err = LoadedStore::from_bytes(flipped).unwrap_err();
            assert!(matches!(err, MjoinError::CorruptStore(_)), "bit {bit}: {err}");
        }
    }

    #[test]
    fn invalid_entries_are_rejected_at_save() {
        let mut e = sample_entry(1);
        e.fingerprint = "short".into();
        assert!(serialize(&[e]).is_err());
        let mut e = sample_entry(1);
        e.costs.pop();
        assert!(serialize(&[e]).is_err());
        let mut e = sample_entry(1);
        e.cards.pop();
        assert!(serialize(&[e]).is_err());
    }

    #[test]
    fn failpoints_cover_save_and_load() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mjoin-store-fp-{}.store", std::process::id()));
        {
            let _fp = failpoints::ScopedFailpoint::arm("store::save");
            let err = save(&path, &[sample_entry(1)]).unwrap_err();
            assert!(err.to_string().contains("store::save"), "{err}");
        }
        save(&path, &[sample_entry(1)]).unwrap();
        {
            let _fp = failpoints::ScopedFailpoint::arm("store::load");
            let err = LoadedStore::open(&path).unwrap_err();
            assert!(err.to_string().contains("store::load"), "{err}");
        }
        assert!(LoadedStore::open(&path).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_save_leaves_the_old_store_intact() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mjoin-store-crash-{}.store", std::process::id()));
        let _ = std::fs::remove_file(&path);
        save(&path, &[sample_entry(1)]).unwrap();
        let before = std::fs::read(&path).unwrap();
        // A save killed before the rename (simulated by the failpoint, and
        // by a stale temp file from a hypothetical earlier crash) must not
        // disturb the committed store.
        std::fs::write(path.with_extension("tmp"), b"torn partial write").unwrap();
        {
            let _fp = failpoints::ScopedFailpoint::arm("store::save");
            assert!(save(&path, &[sample_entry(2)]).is_err());
        }
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let store = LoadedStore::open(&path).unwrap();
        assert_eq!(store.entry_at(0).to_entry(), sample_entry(1));
        // The next clean save replaces both the stale temp and the store.
        save(&path, &[sample_entry(2)]).unwrap();
        let store = LoadedStore::open(&path).unwrap();
        assert_eq!(store.entry_at(0).to_entry(), sample_entry(2));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("tmp"));
    }

    #[test]
    fn inspect_is_informative() {
        let bytes = serialize(&[sample_entry(5)]).unwrap();
        let store = LoadedStore::from_bytes(bytes).unwrap();
        let text = store.inspect("test.store");
        assert!(text.contains("version 1"), "{text}");
        assert!(text.contains("6 connected subsets (6 solved)"), "{text}");
        assert!(text.contains("2 plan steps"), "{text}");
    }
}
