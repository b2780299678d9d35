//! Per-block bookkeeping for the flash translation layer.
//!
//! A block is the erase unit (§I): pages inside it are programmed in order
//! (NAND constraint), individually invalidated by out-of-place updates,
//! and reclaimed all at once by an erase.

use edm_snap::snapshot_struct;

/// State of one physical page inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased and programmable.
    Free,
    /// Programmed and still mapped by some logical page.
    Valid,
    /// Programmed but superseded by a newer copy elsewhere; reclaimable.
    Invalid,
}

/// One physical erase block: page states plus wear bookkeeping.
#[derive(Debug, Clone)]
pub struct Block {
    pages: Vec<PageState>,
    /// Next page to program (NAND programs pages sequentially in a block).
    write_ptr: u32,
    valid: u32,
    erase_count: u64,
}

impl Block {
    pub fn new(pages_per_block: u32) -> Self {
        Block {
            pages: vec![PageState::Free; pages_per_block as usize],
            write_ptr: 0,
            valid: 0,
            erase_count: 0,
        }
    }

    pub fn pages_per_block(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Number of pages still mapped (live data the GC must relocate).
    pub fn valid_pages(&self) -> u32 {
        self.valid
    }

    /// Number of pages not yet programmed since the last erase.
    pub fn free_pages(&self) -> u32 {
        self.pages_per_block() - self.write_ptr
    }

    /// True once every page has been programmed.
    pub fn is_full(&self) -> bool {
        self.write_ptr == self.pages_per_block()
    }

    /// True if no page has been programmed since the last erase.
    pub fn is_erased(&self) -> bool {
        self.write_ptr == 0
    }

    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    pub fn state(&self, page: u32) -> PageState {
        self.pages[page as usize]
    }

    /// Programs the next free page, returning its in-block index.
    ///
    /// # Panics
    /// Panics if the block is full — the FTL must check `is_full` first.
    pub fn program(&mut self) -> u32 {
        assert!(!self.is_full(), "programming a full block");
        let idx = self.write_ptr;
        self.pages[idx as usize] = PageState::Valid;
        self.write_ptr += 1;
        self.valid += 1;
        idx
    }

    /// Marks a previously valid page as superseded.
    ///
    /// # Panics
    /// Panics if the page was not valid — invalidating a free or already
    /// invalid page indicates FTL mapping corruption.
    pub fn invalidate(&mut self, page: u32) {
        let slot = &mut self.pages[page as usize];
        assert_eq!(*slot, PageState::Valid, "invalidating non-valid page");
        *slot = PageState::Invalid;
        self.valid -= 1;
    }

    /// Erases the block: all pages become free, wear counter increments.
    ///
    /// # Panics
    /// Panics if any page is still valid — the GC must relocate live data
    /// before erasing.
    pub fn erase(&mut self) {
        assert_eq!(self.valid, 0, "erasing a block with live pages");
        self.pages.fill(PageState::Free);
        self.write_ptr = 0;
        self.erase_count += 1;
    }

    /// In-block indices of the currently valid pages (for GC relocation).
    pub fn valid_page_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == PageState::Valid)
            .map(|(i, _)| i as u32)
    }

    /// First valid page at index `from` or later, if any. Lets the GC walk
    /// a victim's live pages with a cursor instead of collecting them —
    /// states may change (invalidations) between steps without the cursor
    /// going stale, because relocation only ever invalidates pages it has
    /// already passed.
    pub fn next_valid_page(&self, from: u32) -> Option<u32> {
        (from..self.pages_per_block()).find(|&i| self.pages[i as usize] == PageState::Valid)
    }
}

snapshot_struct!(PageState { 0 = Free, 1 = Valid, 2 = Invalid });

snapshot_struct!(
    Block { pages, write_ptr, valid, erase_count },
    check = "block": |b| {
        let counted = b.pages.iter().filter(|p| **p == PageState::Valid).count() as u32;
        if counted != b.valid || b.write_ptr as usize > b.pages.len() {
            return Err("page-state bookkeeping disagrees with counters".into());
        }
        Ok(())
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_all_free() {
        let b = Block::new(32);
        assert_eq!(b.free_pages(), 32);
        assert_eq!(b.valid_pages(), 0);
        assert!(b.is_erased());
        assert!(!b.is_full());
    }

    #[test]
    fn program_fills_sequentially() {
        let mut b = Block::new(4);
        assert_eq!(b.program(), 0);
        assert_eq!(b.program(), 1);
        assert_eq!(b.valid_pages(), 2);
        assert_eq!(b.free_pages(), 2);
        assert_eq!(b.state(0), PageState::Valid);
        assert_eq!(b.state(2), PageState::Free);
    }

    #[test]
    fn invalidate_tracks_counts() {
        let mut b = Block::new(4);
        b.program();
        b.program();
        b.invalidate(0);
        assert_eq!(b.valid_pages(), 1);
        assert_eq!(b.state(0), PageState::Invalid);
    }

    #[test]
    #[should_panic(expected = "invalidating non-valid page")]
    fn double_invalidate_panics() {
        let mut b = Block::new(4);
        b.program();
        b.invalidate(0);
        b.invalidate(0);
    }

    #[test]
    #[should_panic(expected = "programming a full block")]
    fn program_full_block_panics() {
        let mut b = Block::new(2);
        b.program();
        b.program();
        b.program();
    }

    #[test]
    fn erase_resets_and_counts_wear() {
        let mut b = Block::new(2);
        b.program();
        b.program();
        b.invalidate(0);
        b.invalidate(1);
        b.erase();
        assert!(b.is_erased());
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.free_pages(), 2);
        b.program();
        assert_eq!(b.valid_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "erasing a block with live pages")]
    fn erase_with_live_data_panics() {
        let mut b = Block::new(2);
        b.program();
        b.erase();
    }

    #[test]
    fn valid_page_indices_skips_invalid() {
        let mut b = Block::new(4);
        b.program();
        b.program();
        b.program();
        b.invalidate(1);
        let idx: Vec<u32> = b.valid_page_indices().collect();
        assert_eq!(idx, vec![0, 2]);
    }

    #[test]
    fn next_valid_page_walks_like_the_index_list() {
        let mut b = Block::new(6);
        for _ in 0..5 {
            b.program();
        }
        b.invalidate(0);
        b.invalidate(3);
        let mut cursor = Vec::new();
        let mut from = 0;
        while let Some(p) = b.next_valid_page(from) {
            cursor.push(p);
            from = p + 1;
        }
        let listed: Vec<u32> = b.valid_page_indices().collect();
        assert_eq!(cursor, listed);
        assert_eq!(cursor, vec![1, 2, 4]);
        assert_eq!(b.next_valid_page(5), None);
    }
}
