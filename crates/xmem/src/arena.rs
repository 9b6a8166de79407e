//! A deterministic first-fit SRAM allocator.
//!
//! The framework lays SRAM out at admission time: activation scratch,
//! per-task double buffers, and a runtime reserve. Allocation happens
//! once and the layout then stays fixed for the mission — exactly how a
//! static real-time deployment works — but the arena also supports
//! freeing so the design-space-exploration tools can try layouts.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::PlanError;

/// Handle to a live allocation in a [`SramArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AllocHandle(u64);

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Region {
    offset: u64,
    bytes: u64,
    label: String,
}

/// A fixed-capacity byte arena with first-fit allocation and coalescing
/// free — deterministic across runs (no address-space randomness).
///
/// # Examples
///
/// ```rust
/// use rtmdm_xmem::SramArena;
///
/// # fn main() -> Result<(), rtmdm_xmem::PlanError> {
/// let mut arena = SramArena::new(1024);
/// let a = arena.alloc("bufA", 256, 4)?;
/// let b = arena.alloc("bufB", 256, 4)?;
/// assert_eq!(arena.offset_of(a), Some(0));
/// assert_eq!(arena.offset_of(b), Some(256));
/// arena.free(a);
/// let c = arena.alloc("bufC", 128, 4)?; // reuses the freed hole
/// assert_eq!(arena.offset_of(c), Some(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SramArena {
    capacity: u64,
    live: BTreeMap<u64, Region>, // keyed by handle id
    next_handle: u64,
}

impl SramArena {
    /// Creates an arena over `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        SramArena {
            capacity,
            live: BTreeMap::new(),
            next_handle: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.live.values().map(|r| r.bytes).sum()
    }

    /// Bytes currently free (may be fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used()
    }

    /// Highest allocated offset + size — the layout's high-water mark.
    pub fn high_water(&self) -> u64 {
        self.live
            .values()
            .map(|r| r.offset + r.bytes)
            .max()
            .unwrap_or(0)
    }

    /// Allocates `bytes` aligned to `align` using first fit.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::ArenaExhausted`] if no aligned hole fits.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or `bytes` is zero.
    pub fn alloc(
        &mut self,
        label: impl Into<String>,
        bytes: u64,
        align: u64,
    ) -> Result<AllocHandle, PlanError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(bytes > 0, "zero-byte allocations are meaningless");
        let label = label.into();

        // Collect live regions sorted by offset to find holes.
        let mut regions: Vec<&Region> = self.live.values().collect();
        regions.sort_by_key(|r| r.offset);

        // The first aligned offset from `cursor` where `bytes` end by
        // `limit`; an offset or end past `u64::MAX` fits nowhere.
        let fit = |cursor: u64, limit: u64| {
            cursor
                .checked_next_multiple_of(align)
                .filter(|start| start.checked_add(bytes).is_some_and(|end| end <= limit))
        };
        let mut cursor = 0u64;
        let mut chosen = None;
        for r in &regions {
            chosen = fit(cursor, r.offset);
            if chosen.is_some() {
                break;
            }
            cursor = cursor.max(r.offset + r.bytes);
        }
        let chosen = chosen.or_else(|| fit(cursor, self.capacity));
        let Some(offset) = chosen else {
            return Err(PlanError::ArenaExhausted {
                label,
                bytes,
                free: self.free_bytes(),
            });
        };
        let handle = AllocHandle(self.next_handle);
        self.next_handle += 1;
        self.live.insert(
            handle.0,
            Region {
                offset,
                bytes,
                label,
            },
        );
        Ok(handle)
    }

    /// Releases an allocation; unknown handles are ignored (idempotent).
    pub fn free(&mut self, handle: AllocHandle) {
        self.live.remove(&handle.0);
    }

    /// Byte offset of a live allocation.
    pub fn offset_of(&self, handle: AllocHandle) -> Option<u64> {
        self.live.get(&handle.0).map(|r| r.offset)
    }

    /// Size of a live allocation.
    pub fn size_of(&self, handle: AllocHandle) -> Option<u64> {
        self.live.get(&handle.0).map(|r| r.bytes)
    }

    /// `(offset, bytes, label)` of every live allocation, by offset.
    pub fn layout(&self) -> Vec<(u64, u64, String)> {
        let mut rows: Vec<(u64, u64, String)> = self
            .live
            .values()
            .map(|r| (r.offset, r.bytes, r.label.clone()))
            .collect();
        rows.sort();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_allocations_pack_tightly() {
        let mut a = SramArena::new(1000);
        let h1 = a.alloc("x", 100, 1).unwrap();
        let h2 = a.alloc("y", 200, 1).unwrap();
        assert_eq!(a.offset_of(h1), Some(0));
        assert_eq!(a.offset_of(h2), Some(100));
        assert_eq!(a.used(), 300);
        assert_eq!(a.high_water(), 300);
    }

    #[test]
    fn alignment_is_respected() {
        let mut a = SramArena::new(1000);
        let _ = a.alloc("pad", 3, 1).unwrap();
        let h = a.alloc("aligned", 16, 8).unwrap();
        assert_eq!(a.offset_of(h), Some(8));
    }

    #[test]
    fn first_fit_reuses_holes() {
        let mut a = SramArena::new(1000);
        let h1 = a.alloc("a", 100, 1).unwrap();
        let _h2 = a.alloc("b", 100, 1).unwrap();
        a.free(h1);
        let h3 = a.alloc("c", 80, 1).unwrap();
        assert_eq!(a.offset_of(h3), Some(0));
        // Too big for the hole → goes after b.
        let h4 = a.alloc("d", 150, 1).unwrap();
        assert_eq!(a.offset_of(h4), Some(200));
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let mut a = SramArena::new(128);
        let _ = a.alloc("x", 100, 1).unwrap();
        let err = a.alloc("y", 64, 1).unwrap_err();
        assert!(matches!(err, PlanError::ArenaExhausted { free: 28, .. }));
    }

    #[test]
    fn sizes_near_the_word_limit_exhaust_instead_of_wrapping() {
        let mut a = SramArena::new(1000);
        let _ = a.alloc("x", 100, 8).unwrap();
        for bytes in [u64::MAX, u64::MAX - 7, 1 << 63] {
            let err = a.alloc("huge", bytes, 8).unwrap_err();
            assert!(matches!(err, PlanError::ArenaExhausted { free: 900, .. }));
        }
        // A cursor at the word's end cannot be aligned up.
        let mut a = SramArena::new(u64::MAX);
        let h = a.alloc("hole", 16, 8).unwrap();
        let _ = a.alloc("tail", u64::MAX - 16, 1).unwrap();
        a.free(h);
        assert!(a.alloc("wide", 17, 8).is_err());
    }

    #[test]
    fn fragmentation_can_block_large_allocs() {
        let mut a = SramArena::new(300);
        let h1 = a.alloc("a", 100, 1).unwrap();
        let _h2 = a.alloc("b", 100, 1).unwrap();
        let _h3 = a.alloc("c", 100, 1).unwrap();
        a.free(h1);
        // 100 bytes free but a 100-byte hole exists at offset 0, so this fits.
        assert!(a.alloc("d", 100, 1).is_ok());
        // Now full again; 150 cannot fit anywhere.
        let h = a.alloc("e", 1, 1);
        assert!(h.is_err());
    }

    #[test]
    fn free_is_idempotent() {
        let mut a = SramArena::new(100);
        let h = a.alloc("x", 50, 1).unwrap();
        a.free(h);
        a.free(h);
        assert_eq!(a.used(), 0);
    }

    #[test]
    fn layout_lists_regions_in_offset_order() {
        let mut a = SramArena::new(1000);
        let _ = a.alloc("first", 10, 1).unwrap();
        let _ = a.alloc("second", 20, 1).unwrap();
        let rows = a.layout();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].2, "first");
        assert_eq!(rows[1], (10, 20, "second".to_owned()));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_alignment_panics() {
        let mut a = SramArena::new(100);
        let _ = a.alloc("x", 10, 3);
    }

    #[test]
    fn deterministic_across_identical_sequences() {
        let run = || {
            let mut a = SramArena::new(4096);
            let h1 = a.alloc("a", 700, 4).unwrap();
            let _ = a.alloc("b", 300, 4).unwrap();
            a.free(h1);
            let _ = a.alloc("c", 500, 8).unwrap();
            a.layout()
        };
        assert_eq!(run(), run());
    }
}
