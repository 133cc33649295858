//! Deterministic simulation primitives: clock, event queue and statistics.
//!
//! Every timed component of the FUSION simulator is built on these three
//! pieces:
//!
//! * [`Clock`] — a monotonically advancing cycle counter shared by the
//!   components of one simulated system,
//! * [`EventQueue`] — a deterministic priority queue of `(time, event)`
//!   pairs (FIFO among same-cycle events, so simulations are reproducible),
//! * [`stats`] — counters and histograms used for every measurement the
//!   paper reports.
//!
//! # Examples
//!
//! ```
//! use fusion_sim::EventQueue;
//! use fusion_types::Cycle;
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle::new(5), "b");
//! q.push(Cycle::new(3), "a");
//! q.push(Cycle::new(5), "c");
//! let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
//! assert_eq!(order, ["a", "b", "c"]);
//! ```

pub mod clock;
pub mod events;
pub mod stats;

pub use clock::Clock;
pub use events::EventQueue;
pub use stats::{Counter, Histogram};
