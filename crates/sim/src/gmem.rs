//! Functional global memory as a paged store.
//!
//! The simulator's functional global memory maps byte addresses to the
//! raw 64-bit value of the last store (loads of untouched addresses
//! return the deterministic pseudo-random fill from
//! [`default_memory_value`]). The original implementation was a
//! `HashMap<u64, u64>`, which put a hash + probe on every lane of
//! every global load and store. [`GlobalMem`] replaces it with
//! `Vec`-backed pages of 512 cells (4 KiB of cell data) behind a small
//! page table and a one-entry TLB: warp accesses are strongly
//! clustered, so almost every lane hits the TLB and resolves to an
//! array index. The TLB also remembers a page that no store has
//! created: kernels read input arrays they never write, so otherwise
//! every lane of those loads would probe the page table.
//!
//! Pages are created by stores only; loads of unmapped pages return
//! the default fill without allocating. Created pages are prefilled
//! with the default values so loads never consult a presence bitmap;
//! a per-page written bitmap records which cells were actually stored
//! so [`GlobalMem::into_map`] can export exactly the stored addresses
//! (what `simulate_capture` promises). Addresses at or above
//! [`SPARSE_BASE`] — the synthetic local-memory timing region, which
//! no functional store targets in practice — fall back to a sparse
//! hash map so a stray huge address cannot allocate pages.

use std::collections::HashMap;

use crat_ptx::eval::default_memory_value;

/// Addresses at or above this fall back to the sparse hash store.
/// Equal to the machine's `LOCAL_TIMING_BASE`.
pub const SPARSE_BASE: u64 = 1 << 40;

/// Cells per page; 512 cells × 8 bytes = 4 KiB of cell data.
const PAGE_CELLS: usize = 512;
const PAGE_SHIFT: u32 = 9;
const PAGE_MASK: u64 = PAGE_CELLS as u64 - 1;

/// One page: the cell values plus a bitmap of stored cells.
struct Page {
    cells: Box<[u64; PAGE_CELLS]>,
    written: [u64; PAGE_CELLS / 64],
}

impl Page {
    fn new(page_no: u64) -> Page {
        let base = page_no << PAGE_SHIFT;
        let mut cells = Box::new([0u64; PAGE_CELLS]);
        for (i, c) in cells.iter_mut().enumerate() {
            *c = default_memory_value(base + i as u64);
        }
        Page {
            cells,
            written: [0; PAGE_CELLS / 64],
        }
    }
}

/// Paged functional global memory. See the module docs.
pub struct GlobalMem {
    pages: Vec<Page>,
    table: HashMap<u64, u32>,
    /// One-entry TLB: the last page number looked up and its arena
    /// index, `None` while no store has created that page.
    tlb_page: u64,
    tlb_idx: Option<u32>,
    sparse: HashMap<u64, u64>,
}

impl Default for GlobalMem {
    fn default() -> Self {
        GlobalMem::new()
    }
}

impl GlobalMem {
    /// An empty memory (every address reads its default fill).
    pub fn new() -> GlobalMem {
        GlobalMem {
            pages: Vec::new(),
            table: HashMap::new(),
            tlb_page: u64::MAX,
            tlb_idx: None,
            sparse: HashMap::new(),
        }
    }

    #[inline]
    fn lookup(&mut self, page_no: u64) -> Option<u32> {
        if page_no != self.tlb_page {
            self.tlb_page = page_no;
            self.tlb_idx = self.table.get(&page_no).copied();
        }
        self.tlb_idx
    }

    /// The value at `addr`: the last store, or the default fill.
    #[inline]
    pub fn load(&mut self, addr: u64) -> u64 {
        if addr >= SPARSE_BASE {
            return match self.sparse.get(&addr) {
                Some(&v) => v,
                None => default_memory_value(addr),
            };
        }
        match self.lookup(addr >> PAGE_SHIFT) {
            Some(idx) => self.pages[idx as usize].cells[(addr & PAGE_MASK) as usize],
            None => default_memory_value(addr),
        }
    }

    /// Store `v` at `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, v: u64) {
        if addr >= SPARSE_BASE {
            self.sparse.insert(addr, v);
            return;
        }
        let page_no = addr >> PAGE_SHIFT;
        let idx = match self.lookup(page_no) {
            Some(idx) => idx,
            None => {
                let idx = self.pages.len() as u32;
                self.pages.push(Page::new(page_no));
                self.table.insert(page_no, idx);
                self.tlb_page = page_no;
                self.tlb_idx = Some(idx);
                idx
            }
        };
        let cell = (addr & PAGE_MASK) as usize;
        let page = &mut self.pages[idx as usize];
        page.cells[cell] = v;
        page.written[cell / 64] |= 1 << (cell % 64);
    }

    /// Export the stored addresses (and only those) as a map, the
    /// shape `simulate_capture` returns.
    pub fn into_map(self) -> HashMap<u64, u64> {
        let mut out = self.sparse;
        for (&page_no, &idx) in &self.table {
            let base = page_no << PAGE_SHIFT;
            let page = &self.pages[idx as usize];
            for (word, &bits) in page.written.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let cell = word * 64 + bit;
                    out.insert(base + cell as u64, page.cells[cell]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_addresses_read_default_fill() {
        let mut m = GlobalMem::new();
        for addr in [0u64, 1, 511, 512, 0xDEAD_BEEF, SPARSE_BASE + 7] {
            assert_eq!(m.load(addr), default_memory_value(addr), "addr {addr:#x}");
        }
        assert!(m.into_map().is_empty(), "loads must not appear in capture");
    }

    #[test]
    fn stores_round_trip_and_capture_exactly() {
        let mut m = GlobalMem::new();
        // Same page, page boundary, far page, sparse region.
        let writes = [
            (0x1000u64, 7u64),
            (0x1004, 8),
            (0x11FF, 9),
            (0x1200, 10),
            (0x9_0000, 11),
            (SPARSE_BASE + 42, 12),
        ];
        for &(a, v) in &writes {
            m.store(a, v);
        }
        for &(a, v) in &writes {
            assert_eq!(m.load(a), v, "addr {a:#x}");
        }
        // Unwritten neighbours on a mapped page still read defaults.
        assert_eq!(m.load(0x1001), default_memory_value(0x1001));
        let map = m.into_map();
        assert_eq!(map.len(), writes.len());
        for &(a, v) in &writes {
            assert_eq!(map.get(&a), Some(&v));
        }
    }

    #[test]
    fn a_store_maps_a_page_the_tlb_saw_unmapped() {
        let mut m = GlobalMem::new();
        assert_eq!(m.load(0x1000), default_memory_value(0x1000));
        m.store(0x1004, 5);
        assert_eq!(m.load(0x1004), 5);
        assert_eq!(m.load(0x1000), default_memory_value(0x1000));
        // Away to another unmapped page and back.
        assert_eq!(m.load(0x9000), default_memory_value(0x9000));
        assert_eq!(m.load(0x1004), 5);
    }

    #[test]
    fn overwrites_keep_last_value() {
        let mut m = GlobalMem::new();
        m.store(64, 1);
        m.store(64, 2);
        assert_eq!(m.load(64), 2);
        let map = m.into_map();
        assert_eq!(map.get(&64), Some(&2));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn matches_hashmap_reference_on_mixed_traffic() {
        let mut m = GlobalMem::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        // Deterministic pseudo-random address/value stream.
        let mut x = 0x1234_5678_9ABC_DEFFu64;
        for i in 0..4096u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 16) & 0xF_FFFF; // cluster into 1 MiB
            if i % 3 == 0 {
                let got = m.load(addr);
                let want = reference
                    .get(&addr)
                    .copied()
                    .unwrap_or_else(|| default_memory_value(addr));
                assert_eq!(got, want, "load {addr:#x}");
            } else {
                m.store(addr, x);
                reference.insert(addr, x);
            }
        }
        assert_eq!(m.into_map(), reference);
    }
}
