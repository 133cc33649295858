//! Cache and memory structures for the FUSION simulator.
//!
//! This crate provides the storage substrates every architecture in the
//! paper is built from:
//!
//! * [`SetAssocCache`] — a generic LRU set-associative cache with pluggable
//!   per-line metadata (the ACC protocol stores lease timestamps in it, the
//!   host MESI caches store stable states),
//! * [`BankedTiming`] — bank-conflict timing for the 16-banked shared L1X,
//! * [`Scratchpad`] — the explicitly managed per-AXC RAM of the SCRATCH
//!   baseline,
//! * [`NucaRing`] — ring-hop timing for the 8-tile NUCA L2,
//! * [`MainMemory`] — the 4-channel, 200-cycle open-page memory of Table 2.
//!
//! # Examples
//!
//! ```
//! use fusion_mem::{ReplacementPolicy, SetAssocCache};
//! use fusion_types::{BlockAddr, CacheGeometry, Pid};
//!
//! let geom = CacheGeometry { capacity_bytes: 4096, ways: 4, banks: 1, latency: 1 };
//! let mut cache: SetAssocCache<()> = SetAssocCache::new(geom, ReplacementPolicy::Lru);
//! let b = BlockAddr::from_index(42);
//! assert!(cache.lookup(Pid::new(0), b).is_none());
//! cache.insert(Pid::new(0), b, (), false);
//! assert!(cache.lookup(Pid::new(0), b).is_some());
//! ```

pub mod banked;
pub mod cache;
pub mod memory;
pub mod nuca;
pub mod scratchpad;

pub use banked::BankedTiming;
pub use cache::{Evicted, Line, ReplacementPolicy, SetAssocCache};
pub use memory::MainMemory;
pub use nuca::NucaRing;
pub use scratchpad::Scratchpad;
