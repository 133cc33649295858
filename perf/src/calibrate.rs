//! Machine-speed calibration.
//!
//! The benchmark runs on shared machines whose speed changes by tens of
//! percent from one second to the next as neighbours come and go: on a
//! 2-vCPU Xeon VM on a shared host the same `grid_paper` child took 1.4 s
//! and 2.7 s a minute apart. The slowdown hits every process on the CPU,
//! so the harness pins itself and its children to one CPU, times a fixed
//! reference kernel between measured operations, and scales each
//! operation's time by the kernel times on either side of it, back to
//! seconds at the kernel's time on the machine the benchmark was defined
//! on ([`REFERENCE_S`]).
//!
//! The slowdown comes mostly from the memory system the neighbours
//! share, and it slows code in proportion to how much that code leans on
//! it. The kernel therefore has two passes whose times add up: a
//! set-associative tag store with LRU replacement probed by a streamed
//! block trace with locality (the simulator's kind of work, which fits
//! the private caches), and random read-modify-writes over an 8 MB table
//! (which does not). On that VM, over 20 minutes of one child after
//! another, the tag-store pass alone slowed less than every workload (the
//! log-log slope of child time on kernel time was 1.45 to 1.65), the
//! random pass alone more (0.6 to 0.66), and their sum about as much
//! (1.0 to 1.2). Per 25-second block the children's medians spread by
//! 20 to 42 % (interquartile range ÷ median) and their ratios to the sum
//! by 6 to 12 %.
//!
//! The kernel is part of the benchmark, not of the simulator, so no
//! change to the simulator moves it.

use std::time::Instant;

/// The kernel's time (s) on the machine the benchmark was defined on,
/// with no neighbour slowing it.
pub const REFERENCE_S: f64 = 0.040;

const SETS: usize = 4096;
const WAYS: usize = 16;
const TRACE_LEN: usize = 1 << 20;
/// Blocks the trace ranges over (16 MB of 64-byte blocks).
const SPAN_BLOCKS: u32 = 1 << 18;
/// Words of the random pass's table (8 MB).
const TABLE_WORDS: usize = 1 << 20;
const RANDOM_STEPS: u32 = 3_000_000;

/// The reference kernel: its trace, tag store and table, allocated once,
/// outside timing.
pub struct Reference {
    trace: Vec<u32>,
    tags: Vec<u32>,
    stamps: Vec<u32>,
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    /// Builds the trace (mostly short forward strides, one jump in five)
    /// and the table.
    pub fn new() -> Reference {
        let mut x: u64 = 99;
        let mut block = 0u32;
        let trace = (0..TRACE_LEN)
            .map(|_| {
                let r = xorshift(&mut x);
                block = if r.is_multiple_of(5) {
                    (r >> 20) as u32
                } else {
                    block.wrapping_add((r & 3) as u32)
                } % SPAN_BLOCKS;
                block
            })
            .collect();
        Reference {
            trace,
            tags: vec![u32::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        }
    }

    /// Runs both passes once and returns their summed wall time in
    /// seconds.
    pub fn time(&mut self) -> f64 {
        self.tag_store() + self.random_table()
    }

    /// Replays the trace through an empty tag store.
    fn tag_store(&mut self) -> f64 {
        self.tags.fill(u32::MAX);
        self.stamps.fill(0);
        // lint:allow-wall-clock: the kernel's host time is what it measures.
        let started = Instant::now();
        let mut misses = 0u32;
        for (tick, &block) in (1u32..).zip(&self.trace) {
            let base = (block as usize % SETS) * WAYS;
            let tags = &mut self.tags[base..base + WAYS];
            let stamps = &mut self.stamps[base..base + WAYS];
            let way = match tags.iter().position(|&t| t == block) {
                Some(hit) => hit,
                None => {
                    misses += 1;
                    let mut victim = 0;
                    for w in 1..WAYS {
                        if stamps[w] < stamps[victim] {
                            victim = w;
                        }
                    }
                    tags[victim] = block;
                    victim
                }
            };
            stamps[way] = tick;
        }
        std::hint::black_box(misses);
        started.elapsed().as_secs_f64()
    }

    /// Read-modify-writes of random words of the table.
    fn random_table(&mut self) -> f64 {
        // lint:allow-wall-clock: the kernel's host time is what it measures.
        let started = Instant::now();
        let mut x: u64 = 0x1234_5678;
        let mut acc = 0u64;
        for _ in 0..RANDOM_STEPS {
            let i = xorshift(&mut x) as usize % TABLE_WORDS;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc ^ x;
        }
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64()
    }
}
