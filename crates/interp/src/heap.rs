//! Memcheck-style simulated heap.
//!
//! The paper detects triggered overflows indirectly, through their effect
//! on the computation: "invalid reads and writes" reported by Valgrind's
//! memcheck, or outright crashes (§4.6, Table 2's *Error Type* column).
//! This module reproduces that behaviour:
//!
//! * every allocation is an isolated block with an exact byte size;
//! * reads/writes past the block (but within a red zone) are recorded as
//!   [`MemErrorKind::InvalidRead`]/[`MemErrorKind::InvalidWrite`] and the
//!   program continues — like memcheck;
//! * accesses far outside any block (beyond the red zone), and any access
//!   through null, escalate to a segmentation fault;
//! * use-after-free and double-free are recorded;
//! * allocation sizes ≥ the allocator limit fail (null return or abort,
//!   depending on the site's wrapper, matching `malloc` vs `g_malloc`).
//!
//! Block payloads are materialised on first write. Blocks up to 1 MiB are
//! paged: a table of 256-cell pages, each created by the first store into
//! it, so a megabyte allocation that a program probes at 16 offsets holds
//! 16 pages, not a million cells. Larger blocks are sparse maps of touched
//! cells, so simulating a 2 GB allocation costs no host memory either. An
//! unwritten cell reads as zero in both.

use std::collections::HashMap;
use std::sync::Arc;

use diode_lang::{Bv, Label};

use crate::value::BlockId;

thread_local! {
    /// Largest heap high-water mark of any run finished on this thread
    /// since the last [`take_peak_heap_bytes`] call. The machine notes
    /// every run's peak here so campaign drivers can attribute peak
    /// interpreter memory to a site without threading a gauge through
    /// every entry point.
    static PEAK_HEAP: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Folds one finished run's heap peak into the thread-local gauge.
pub(crate) fn note_peak_heap_bytes(bytes: u64) {
    PEAK_HEAP.with(|p| p.set(p.get().max(bytes)));
}

/// Reads and resets this thread's peak-heap gauge: the largest heap
/// high-water mark among runs finished on this thread since the last
/// call. Zero when no run finished in the window.
#[must_use]
pub fn take_peak_heap_bytes() -> u64 {
    PEAK_HEAP.with(|p| p.replace(0))
}

/// Kinds of memory errors detected by the heap monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemErrorKind {
    /// Read past the end of a live block (within the red zone).
    InvalidRead,
    /// Write past the end of a live block (within the red zone).
    InvalidWrite,
    /// Read through a pointer to a freed block.
    UseAfterFreeRead,
    /// Write through a pointer to a freed block.
    UseAfterFreeWrite,
    /// Second `free` of the same block.
    DoubleFree,
}

/// A recorded memory error (one memcheck report line).
#[derive(Debug, Clone)]
pub struct MemError {
    /// What happened.
    pub kind: MemErrorKind,
    /// The allocation site of the affected block.
    pub site: Arc<str>,
    /// Offset of the access relative to the block base.
    pub offset: u64,
    /// Size of the affected block at allocation time.
    pub block_size: u32,
    /// Label of the statement performing the access.
    pub at: Label,
}

/// Reason the heap monitor escalated to a fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Access through the null pointer.
    NullDeref {
        /// Label of the faulting statement.
        at: Label,
    },
    /// Access far beyond a block's red zone.
    WildAccess {
        /// Label of the faulting statement.
        at: Label,
        /// Offset of the attempted access.
        offset: u64,
        /// Size of the block being overrun.
        block_size: u32,
    },
}

/// One byte cell: value, sticky overflow flag, shadow tag.
#[derive(Debug, Clone)]
pub struct Cell<T> {
    /// Stored byte (8-bit).
    pub value: Bv,
    /// Sticky overflow flag of the stored value.
    pub ovf: bool,
    /// Shadow tag of the stored value.
    pub tag: T,
}

impl<T: Default> Default for Cell<T> {
    fn default() -> Self {
        Cell {
            value: Bv::byte(0),
            ovf: false,
            tag: T::default(),
        }
    }
}

/// Cells per page of a paged payload.
pub(crate) const PAGE_CELLS: usize = 256;

/// Blocks of at most this many bytes are paged; larger ones are sparse.
/// A page table for the largest such block has 4,096 slots (32 KiB).
const DENSE_LIMIT: u32 = 1 << 20;

/// [`PAGE_CELLS`] consecutive cells of a paged payload (fewer in a
/// block's last page).
type Page<T> = Arc<Vec<Cell<T>>>;

/// A block's cells, materialised on first write.
///
/// `Paged` holds `size.div_ceil(PAGE_CELLS)` slots; a slot stays `None`
/// until the first store into its page creates it (the last page cut to
/// the block's size). `Sparse` keys touched cells by offset. Its offsets
/// come from program input, so the map keeps std's DoS-resistant hasher.
///
/// Tables, pages and maps sit behind `Arc`s so cloning a whole heap — the
/// prefix-snapshot operation — is O(blocks), not O(bytes). Copy-on-write
/// (`Arc::make_mut`) is per page: a post-snapshot store copies the table
/// and the one page it lands in, not the whole block.
enum Payload<T> {
    Paged(Arc<Vec<Option<Page<T>>>>),
    Sparse(Arc<HashMap<u64, Cell<T>>>),
}

impl<T: Clone> Clone for Payload<T> {
    fn clone(&self) -> Self {
        match self {
            Payload::Paged(pages) => Payload::Paged(Arc::clone(pages)),
            Payload::Sparse(cells) => Payload::Sparse(Arc::clone(cells)),
        }
    }
}

struct Block<T> {
    site: Arc<str>,
    size: u32,
    freed: bool,
    payload: Payload<T>,
    /// Approximate bytes charged to the heap gauge for this block: the
    /// fixed overhead, plus each page's cells as it is created (paged) or
    /// each touched cell (sparse). The page table itself is not charged.
    accounted: u64,
}

impl<T: Clone> Clone for Block<T> {
    fn clone(&self) -> Self {
        Block {
            site: self.site.clone(),
            size: self.size,
            freed: self.freed,
            payload: self.payload.clone(),
            accounted: self.accounted,
        }
    }
}

/// Fixed per-block bookkeeping charge (site arc, size, flags, vec slot).
pub(crate) const BLOCK_OVERHEAD_BYTES: u64 = 48;

/// Extra charge per sparse cell beyond the cell itself (hash-map key +
/// bucket overhead).
const SPARSE_CELL_OVERHEAD_BYTES: u64 = 16;

/// Outcome of a heap access: either a value (reads) / unit (writes), plus
/// any recorded error; or a fault that must halt the program.
pub type AccessResult<V> = Result<V, Fault>;

/// The simulated heap.
pub struct Heap<T> {
    blocks: Vec<Block<T>>,
    errors: Vec<MemError>,
    /// Single-allocation limit: requests of at least this many bytes fail.
    alloc_limit: u64,
    /// Accesses past `size + redzone` fault instead of being recorded.
    redzone: u64,
    /// Approximate bytes resident in live block payloads right now.
    cur_bytes: u64,
    /// High-water mark of `cur_bytes` over the heap's lifetime. Plain
    /// (non-atomic) state updated on the interpreter's single thread,
    /// so accounting is deterministic and costs one add per event.
    peak_bytes: u64,
}

impl<T: Clone> Clone for Heap<T> {
    fn clone(&self) -> Self {
        Heap {
            blocks: self.blocks.clone(),
            errors: self.errors.clone(),
            alloc_limit: self.alloc_limit,
            redzone: self.redzone,
            cur_bytes: self.cur_bytes,
            peak_bytes: self.peak_bytes,
        }
    }
}

impl<T: Default + Clone> Heap<T> {
    /// Creates an empty heap.
    ///
    /// `alloc_limit` is the allocator's single-request capacity in bytes
    /// (the paper's x86-32 processes realistically refuse ~2 GB requests);
    /// `redzone` is how far past a block an access may land and still be
    /// recorded (rather than faulting).
    #[must_use]
    pub fn new(alloc_limit: u64, redzone: u64) -> Self {
        Heap {
            blocks: Vec::new(),
            errors: Vec::new(),
            alloc_limit,
            redzone,
            cur_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Charges `bytes` to the resident gauge and ratchets the peak.
    fn account(&mut self, bytes: u64) {
        self.cur_bytes += bytes;
        if self.cur_bytes > self.peak_bytes {
            self.peak_bytes = self.cur_bytes;
        }
    }

    /// Attempts to allocate `size` bytes for `site`. Returns `None` when
    /// the allocator refuses the request.
    pub fn alloc(&mut self, site: Arc<str>, size: u32) -> Option<BlockId> {
        if u64::from(size) >= self.alloc_limit {
            return None;
        }
        let payload = if size <= DENSE_LIMIT {
            Payload::Paged(Arc::new(vec![None; (size as usize).div_ceil(PAGE_CELLS)]))
        } else {
            Payload::Sparse(Arc::new(HashMap::new()))
        };
        self.account(BLOCK_OVERHEAD_BYTES);
        self.blocks.push(Block {
            site,
            size,
            freed: false,
            payload,
            accounted: BLOCK_OVERHEAD_BYTES,
        });
        Some(BlockId(
            u32::try_from(self.blocks.len()).expect("too many blocks"),
        ))
    }

    /// Frees a block, recording a double-free if needed.
    ///
    /// Returns a fault for `free(null)`-through-wild pointers (null frees
    /// are tolerated, like `free(NULL)` in C).
    pub fn free(&mut self, ptr: BlockId, at: Label) {
        if ptr.is_null() {
            return;
        }
        let block = &mut self.blocks[(ptr.0 - 1) as usize];
        if block.freed {
            self.errors.push(MemError {
                kind: MemErrorKind::DoubleFree,
                site: block.site.clone(),
                offset: 0,
                block_size: block.size,
                at,
            });
        } else {
            block.freed = true;
            // Use-after-free accesses are answered from the `freed` flag
            // before the payload is ever consulted, so the cells are
            // unreachable from here on: drop them eagerly. This keeps
            // long-lived heap clones — prefix snapshots — from pinning
            // (and later re-dropping) megabytes of dead payload.
            block.payload = Payload::Paged(Arc::new(Vec::new()));
            let released = std::mem::take(&mut block.accounted);
            self.cur_bytes = self.cur_bytes.saturating_sub(released);
        }
    }

    /// Loads one byte. Out-of-bounds reads within the red zone are
    /// recorded and return a zero cell; farther reads fault.
    pub fn load(&mut self, ptr: BlockId, offset: u64, at: Label) -> AccessResult<Cell<T>> {
        if ptr.is_null() {
            return Err(Fault::NullDeref { at });
        }
        let block = &mut self.blocks[(ptr.0 - 1) as usize];
        if block.freed {
            self.errors.push(MemError {
                kind: MemErrorKind::UseAfterFreeRead,
                site: block.site.clone(),
                offset,
                block_size: block.size,
                at,
            });
            return Ok(Cell::default());
        }
        if offset >= u64::from(block.size) {
            if offset >= u64::from(block.size) + self.redzone {
                return Err(Fault::WildAccess {
                    at,
                    offset,
                    block_size: block.size,
                });
            }
            self.errors.push(MemError {
                kind: MemErrorKind::InvalidRead,
                site: block.site.clone(),
                offset,
                block_size: block.size,
                at,
            });
            return Ok(Cell::default());
        }
        // In bounds: `offset < size ≤ u32::MAX`, so the casts are exact.
        let offset = offset as usize;
        Ok(match &block.payload {
            Payload::Paged(pages) => match &pages[offset / PAGE_CELLS] {
                Some(page) => page[offset % PAGE_CELLS].clone(),
                None => Cell::default(),
            },
            Payload::Sparse(cells) => cells.get(&(offset as u64)).cloned().unwrap_or_default(),
        })
    }

    /// Stores one byte. Out-of-bounds writes within the red zone are
    /// recorded and dropped; farther writes fault.
    pub fn store(
        &mut self,
        ptr: BlockId,
        offset: u64,
        cell: Cell<T>,
        at: Label,
    ) -> AccessResult<()> {
        if ptr.is_null() {
            return Err(Fault::NullDeref { at });
        }
        let block = &mut self.blocks[(ptr.0 - 1) as usize];
        if block.freed {
            self.errors.push(MemError {
                kind: MemErrorKind::UseAfterFreeWrite,
                site: block.site.clone(),
                offset,
                block_size: block.size,
                at,
            });
            return Ok(());
        }
        if offset >= u64::from(block.size) {
            if offset >= u64::from(block.size) + self.redzone {
                return Err(Fault::WildAccess {
                    at,
                    offset,
                    block_size: block.size,
                });
            }
            self.errors.push(MemError {
                kind: MemErrorKind::InvalidWrite,
                site: block.site.clone(),
                offset,
                block_size: block.size,
                at,
            });
            return Ok(());
        }
        let cell_cost = std::mem::size_of::<Cell<T>>() as u64;
        // Bytes newly materialised by this store (zero on a rewrite).
        let charged = match &mut block.payload {
            Payload::Paged(pages) => {
                // In bounds: `offset < size ≤ u32::MAX`, so the casts are exact.
                let (index, slot) = (offset as usize / PAGE_CELLS, offset as usize % PAGE_CELLS);
                let mut charged = 0;
                let page = Arc::make_mut(pages)[index].get_or_insert_with(|| {
                    let len = (block.size as usize - index * PAGE_CELLS).min(PAGE_CELLS);
                    charged = len as u64 * cell_cost;
                    Arc::new(vec![Cell::default(); len])
                });
                Arc::make_mut(page)[slot] = cell;
                charged
            }
            Payload::Sparse(cells) => {
                if Arc::make_mut(cells).insert(offset, cell).is_none() {
                    cell_cost + SPARSE_CELL_OVERHEAD_BYTES
                } else {
                    0
                }
            }
        };
        if charged > 0 {
            block.accounted += charged;
            self.account(charged);
        }
        Ok(())
    }

    /// All recorded (non-fatal) memory errors, in occurrence order.
    #[must_use]
    pub fn errors(&self) -> &[MemError] {
        &self.errors
    }

    /// Consumes the heap, returning the recorded errors.
    #[must_use]
    pub fn into_errors(self) -> Vec<MemError> {
        self.errors
    }

    /// Number of live (never freed) blocks — useful for leak assertions in
    /// tests.
    #[must_use]
    pub fn live_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| !b.freed).count()
    }

    /// Approximate bytes resident in live block payloads right now:
    /// per-block overhead plus the cells of every materialised page or
    /// sparse cell. Logical accounting: pages shared with snapshot
    /// clones via copy-on-write `Arc`s are charged to every heap that
    /// can reach them.
    #[must_use]
    pub fn current_bytes(&self) -> u64 {
        self.cur_bytes
    }

    /// High-water mark of [`current_bytes`](Self::current_bytes) over
    /// the heap's lifetime (resumed heaps inherit their snapshot's
    /// peak).
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap<()> {
        Heap::new(1 << 31, 4096)
    }

    fn cell(v: u8) -> Cell<()> {
        Cell {
            value: Bv::byte(v),
            ovf: false,
            tag: (),
        }
    }

    #[test]
    fn roundtrip_within_bounds() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), 8).unwrap();
        h.store(b, 3, cell(0xaa), Label(0)).unwrap();
        let c = h.load(b, 3, Label(1)).unwrap();
        assert_eq!(c.value, Bv::byte(0xaa));
        assert!(h.errors().is_empty());
    }

    #[test]
    fn oob_write_is_recorded_not_fatal() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), 8).unwrap();
        h.store(b, 8, cell(1), Label(0)).unwrap();
        h.store(b, 100, cell(1), Label(0)).unwrap();
        assert_eq!(h.errors().len(), 2);
        assert!(h
            .errors()
            .iter()
            .all(|e| e.kind == MemErrorKind::InvalidWrite));
    }

    #[test]
    fn wild_write_faults() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), 8).unwrap();
        let fault = h.store(b, 8 + 4096, cell(1), Label(7)).unwrap_err();
        assert!(matches!(fault, Fault::WildAccess { at: Label(7), .. }));
    }

    #[test]
    fn null_deref_faults() {
        let mut h = heap();
        assert!(matches!(
            h.load(BlockId::NULL, 0, Label(2)),
            Err(Fault::NullDeref { at: Label(2) })
        ));
    }

    #[test]
    fn oversized_allocation_fails() {
        let mut h = heap();
        assert!(h.alloc("t@1".into(), u32::MAX).is_none());
        assert!(h.alloc("t@1".into(), 1 << 30).is_some());
    }

    #[test]
    fn huge_allocations_are_sparse_and_cheap() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), (1 << 30) - 1).unwrap();
        h.store(b, (1 << 29) + 17, cell(0x5a), Label(0)).unwrap();
        assert_eq!(
            h.load(b, (1 << 29) + 17, Label(0)).unwrap().value,
            Bv::byte(0x5a)
        );
        // Unwritten sparse cells read as zero.
        assert_eq!(h.load(b, 12345, Label(0)).unwrap().value, Bv::byte(0));
    }

    #[test]
    fn use_after_free_and_double_free() {
        let mut h = heap();
        let b = h.alloc("t@1".into(), 4).unwrap();
        h.free(b, Label(0));
        h.free(b, Label(1));
        h.store(b, 0, cell(1), Label(2)).unwrap();
        let _ = h.load(b, 0, Label(3)).unwrap();
        let kinds: Vec<_> = h.errors().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                MemErrorKind::DoubleFree,
                MemErrorKind::UseAfterFreeWrite,
                MemErrorKind::UseAfterFreeRead
            ]
        );
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn free_null_is_tolerated() {
        let mut h = heap();
        h.free(BlockId::NULL, Label(0));
        assert!(h.errors().is_empty());
    }

    #[test]
    fn byte_accounting_tracks_alloc_store_free() {
        let cell = std::mem::size_of::<Cell<()>>() as u64;
        let mut h = heap();
        assert_eq!((h.current_bytes(), h.peak_bytes()), (0, 0));

        // Paged block: only overhead until written; each page is
        // charged once, when the first store creates it.
        let paged = h.alloc("t@1".into(), 8).unwrap();
        assert_eq!(h.current_bytes(), BLOCK_OVERHEAD_BYTES);
        h.store(paged, 3, cell_of(1), Label(0)).unwrap();
        h.store(paged, 5, cell_of(2), Label(0)).unwrap(); // same page: no growth
        let paged_cost = BLOCK_OVERHEAD_BYTES + 8 * cell;
        assert_eq!(h.current_bytes(), paged_cost);

        // Sparse block: only overhead until cells are touched.
        let sparse = h.alloc("t@2".into(), (1 << 30) - 1).unwrap();
        assert_eq!(h.current_bytes(), paged_cost + BLOCK_OVERHEAD_BYTES);
        h.store(sparse, 17, cell_of(1), Label(0)).unwrap();
        h.store(sparse, 17, cell_of(2), Label(0)).unwrap(); // rewrite: no growth
        h.store(sparse, 99, cell_of(3), Label(0)).unwrap();
        let sparse_cost = BLOCK_OVERHEAD_BYTES + 2 * (cell + SPARSE_CELL_OVERHEAD_BYTES);
        assert_eq!(h.current_bytes(), paged_cost + sparse_cost);
        let peak = h.peak_bytes();
        assert_eq!(peak, h.current_bytes());

        // Free releases a block's charge; the peak stays.
        h.free(paged, Label(0));
        assert_eq!(h.current_bytes(), sparse_cost);
        assert_eq!(h.peak_bytes(), peak);
        h.free(paged, Label(0)); // double free: no double release
        assert_eq!(h.current_bytes(), sparse_cost);

        // Clones carry the gauges.
        let clone = h.clone();
        assert_eq!(clone.current_bytes(), sparse_cost);
        assert_eq!(clone.peak_bytes(), peak);
    }

    fn cell_of(v: u8) -> Cell<()> {
        cell(v)
    }

    #[test]
    fn pages_materialise_on_first_write() {
        let cell_bytes = std::mem::size_of::<Cell<()>>() as u64;
        let size: u32 = (1 << 20) - 1;
        let last = u64::from(size) - 1;
        let mut h = heap();
        let b = h.alloc("t@1".into(), size).unwrap();
        assert_eq!(h.current_bytes(), BLOCK_OVERHEAD_BYTES);
        // Absent pages read zero and materialise nothing.
        for off in [0, 1, 300, last] {
            assert_eq!(h.load(b, off, Label(0)).unwrap().value, Bv::byte(0));
        }
        assert_eq!(h.current_bytes(), BLOCK_OVERHEAD_BYTES);

        h.store(b, 0, cell(0x11), Label(0)).unwrap();
        h.store(b, last, cell(0x22), Label(0)).unwrap();
        // One full page plus the short last page (size % PAGE_CELLS cells).
        let short = u64::from(size) % PAGE_CELLS as u64;
        assert_eq!(short, 255);
        let charged = (PAGE_CELLS as u64 + short) * cell_bytes;
        assert_eq!(h.current_bytes(), BLOCK_OVERHEAD_BYTES + charged);
        assert_eq!(h.load(b, 0, Label(0)).unwrap().value, Bv::byte(0x11));
        assert_eq!(h.load(b, last, Label(0)).unwrap().value, Bv::byte(0x22));
        // Unwritten cells of existing pages still read zero.
        assert_eq!(h.load(b, 1, Label(0)).unwrap().value, Bv::byte(0));
        assert_eq!(h.load(b, last - 1, Label(0)).unwrap().value, Bv::byte(0));
        // The cell just past the block is out of bounds, not a page slot.
        h.store(b, u64::from(size), cell(1), Label(0)).unwrap();
        assert_eq!(h.errors()[0].kind, MemErrorKind::InvalidWrite);
        assert_eq!(h.current_bytes(), BLOCK_OVERHEAD_BYTES + charged);

        // Free releases exactly those charges.
        h.free(b, Label(0));
        assert_eq!(h.current_bytes(), 0);
        assert_eq!(h.peak_bytes(), BLOCK_OVERHEAD_BYTES + charged);
    }

    #[test]
    fn clones_are_isolated() {
        let mut h = heap();
        let paged = h.alloc("t@1".into(), 4096).unwrap();
        let sparse = h.alloc("t@2".into(), (1 << 30) - 1).unwrap();
        for b in [paged, sparse] {
            h.store(b, 7, cell(1), Label(0)).unwrap();
        }
        let mut clone = h.clone();
        for b in [paged, sparse] {
            // Same page, another page, and a sparse rewrite.
            clone.store(b, 7, cell(2), Label(0)).unwrap();
            clone.store(b, 3000, cell(3), Label(0)).unwrap();
            h.store(b, 8, cell(4), Label(0)).unwrap();
        }
        for b in [paged, sparse] {
            let read = |h: &mut Heap<()>, off| h.load(b, off, Label(0)).unwrap().value;
            assert_eq!(read(&mut h, 7), Bv::byte(1));
            assert_eq!(read(&mut h, 3000), Bv::byte(0));
            assert_eq!(read(&mut h, 8), Bv::byte(4));
            assert_eq!(read(&mut clone, 7), Bv::byte(2));
            assert_eq!(read(&mut clone, 3000), Bv::byte(3));
            assert_eq!(read(&mut clone, 8), Bv::byte(0));
        }
    }

    #[test]
    fn thread_local_peak_gauge_reads_and_resets() {
        // Run on a dedicated thread so parallel tests can't interleave
        // their own note_peak calls into this gauge.
        std::thread::spawn(|| {
            assert_eq!(take_peak_heap_bytes(), 0);
            note_peak_heap_bytes(100);
            note_peak_heap_bytes(40); // smaller: ignored
            assert_eq!(take_peak_heap_bytes(), 100);
            assert_eq!(take_peak_heap_bytes(), 0);
        })
        .join()
        .unwrap();
    }
}
