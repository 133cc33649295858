//! Address newtypes.
//!
//! The accelerator tile operates on **virtual** addresses (the paper places
//! the AX-TLB on the shared L1X miss path); the host operates on **physical**
//! addresses. Keeping the two statically distinct prevents an entire class
//! of bugs in the protocol glue code, where a forwarded MESI request carries
//! a physical address that must be reverse-mapped before it can index the
//! virtually-indexed L1X.

use std::fmt;

/// Size of a cache block in bytes (64 B, as in GEMS and the paper's links
/// which move 64-byte data messages / 8-byte flits).
pub const CACHE_BLOCK_BYTES: usize = 64;

/// Page size used by the simulated virtual memory system (4 KiB).
pub const PAGE_BYTES: usize = 4096;

macro_rules! addr_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit address.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit address value.
            #[inline]
            pub const fn value(self) -> u64 {
                self.0
            }

            /// Returns the address of the cache block containing this address.
            #[inline]
            pub const fn block_base(self) -> Self {
                Self(self.0 & !(CACHE_BLOCK_BYTES as u64 - 1))
            }

            /// Returns the byte offset of this address within its cache block.
            #[inline]
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the offset is below CACHE_BLOCK_BYTES, a usize"
            )]
            pub const fn block_offset(self) -> usize {
                (self.0 & (CACHE_BLOCK_BYTES as u64 - 1)) as usize
            }

            /// Returns the base address of the page containing this address.
            #[inline]
            pub const fn page_base(self) -> Self {
                Self(self.0 & !(PAGE_BYTES as u64 - 1))
            }

            /// Returns the byte offset of this address within its page.
            #[inline]
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the offset is below PAGE_BYTES, a usize"
            )]
            pub const fn page_offset(self) -> usize {
                (self.0 & (PAGE_BYTES as u64 - 1)) as usize
            }

            /// Returns this address displaced by `delta` bytes.
            ///
            /// # Panics
            ///
            /// Panics on address overflow in debug builds.
            #[inline]
            pub const fn offset(self, delta: u64) -> Self {
                Self(self.0 + delta)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self::new(raw)
            }
        }
    };
}

addr_newtype! {
    /// A virtual address as issued by an accelerator (the tile caches are
    /// virtually indexed and tagged).
    VirtAddr
}

addr_newtype! {
    /// A physical address as used by the host cores, the shared L2 and the
    /// MESI directory.
    PhysAddr
}

/// A block-aligned virtual address: the unit of coherence and caching.
///
/// Both the ACC protocol and the host MESI protocol operate at cache-block
/// granularity; `BlockAddr` is used anywhere only the block identity matters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Returns the block containing the given virtual address.
    #[inline]
    pub const fn containing(addr: VirtAddr) -> Self {
        Self(addr.value() / CACHE_BLOCK_BYTES as u64)
    }

    /// Builds a block address from a block *index* (address / block size).
    #[inline]
    pub const fn from_index(index: u64) -> Self {
        Self(index)
    }

    /// Returns the block index (base address / block size).
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the base virtual address of this block.
    #[inline]
    pub const fn base(self) -> VirtAddr {
        VirtAddr::new(self.0 * CACHE_BLOCK_BYTES as u64)
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockAddr({:#x})", self.0 * CACHE_BLOCK_BYTES as u64)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0 * CACHE_BLOCK_BYTES as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_alignment() {
        let a = VirtAddr::new(0x1fff);
        assert_eq!(a.block_base().value(), 0x1fc0);
        assert_eq!(a.block_offset(), 0x3f);
        let b = BlockAddr::containing(a);
        assert_eq!(b.base().value(), 0x1fc0);
        assert_eq!(b.index(), 0x1fc0 / 64);
    }

    #[test]
    fn page_alignment() {
        let a = PhysAddr::new(0x12345);
        assert_eq!(a.page_base().value(), 0x12000);
        assert_eq!(a.page_offset(), 0x345);
    }

    #[test]
    fn block_addr_roundtrip() {
        for raw in [0u64, 63, 64, 65, 4096, u32::MAX as u64] {
            let b = BlockAddr::containing(VirtAddr::new(raw));
            assert_eq!(b.base().value(), raw & !63);
            assert_eq!(BlockAddr::from_index(b.index()), b);
        }
    }

    #[test]
    fn offsets_displace() {
        let a = VirtAddr::new(0x100);
        assert_eq!(a.offset(0x40).value(), 0x140);
    }

    #[test]
    fn debug_and_display_are_hex() {
        let a = VirtAddr::new(0xabc);
        assert_eq!(format!("{a}"), "0xabc");
        assert_eq!(format!("{a:?}"), "VirtAddr(0xabc)");
        let b = BlockAddr::containing(a);
        assert_eq!(format!("{b}"), "0xa80");
    }
}
