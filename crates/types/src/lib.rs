//! Common newtypes and configuration for the FUSION accelerator
//! cache-hierarchy simulator.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: addresses ([`VirtAddr`], [`PhysAddr`], [`BlockAddr`]),
//! simulated time ([`Cycle`]), energy ([`PicoJoules`]), identifiers
//! ([`AxcId`], [`Pid`]) and the system configuration structs mirroring
//! Table 2 of the paper ([`config::SystemConfig`]).
//!
//! # Examples
//!
//! ```
//! use fusion_types::{VirtAddr, BlockAddr, CACHE_BLOCK_BYTES};
//!
//! let a = VirtAddr::new(0x1234);
//! let b = BlockAddr::containing(a);
//! assert_eq!(b.base().value(), 0x1234 & !(CACHE_BLOCK_BYTES as u64 - 1));
//! ```

pub mod addr;
pub mod config;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod units;

pub use addr::{BlockAddr, PhysAddr, VirtAddr, CACHE_BLOCK_BYTES, PAGE_BYTES};
pub use config::{CacheGeometry, LinkConfig, SystemConfig, WritePolicy};
pub use error::{InvariantViolation, JournalError, SimError};
pub use fault::{CheckerConfig, ProtocolFault, ProtocolFaultKind};
pub use hash::{sorted_entries, sorted_keys, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{AxcId, Pid};
pub use rng::SplitMix64;
pub use units::{Bytes, Cycle, Flits, PicoJoules, FLIT_BYTES};

/// Kind of a memory access issued by an accelerator or the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (read) of up to one cache block.
    Load,
    /// A store (write) of up to one cache block.
    Store,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Store`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessKind::Load => write!(f, "LD"),
            AccessKind::Store => write!(f, "ST"),
        }
    }
}

/// Escapes `s` for use inside a JSON string literal: quotes,
/// backslashes, `\n` and `\t` get their short escapes, and every other
/// control character a `\uXXXX` one. The one escaper behind every JSON
/// the workspace writes (sweep rows, journals, salvage and verify
/// reports).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_is_write() {
        assert!(!AccessKind::Load.is_write());
        assert!(AccessKind::Store.is_write());
        assert_eq!(AccessKind::Load.to_string(), "LD");
        assert_eq!(AccessKind::Store.to_string(), "ST");
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("x\ty"), "x\\ty");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
