//! A fixed kernel that measures how fast the host is during a run.
//!
//! On a shared host the speed of every timing drifts together, by tens of
//! percent over minutes. The kernel does the kind of work the simulator
//! spends its time on — heap and ordered-map updates and scattered reads and
//! writes over a table larger than the L2 cache — but shares no code with
//! the program, so a change to the program never changes it. The host times
//! of the end-to-end metrics are scaled by
//! `(REF_SECS / fastest pass) ^ SENSITIVITY`: they read as if the fastest
//! pass had taken `REF_SECS`.

use std::collections::{BTreeMap, BinaryHeap};

use crate::clock;
use crate::stats::med;

/// Nominal time of one pass, in seconds.
pub const REF_SECS: f64 = 0.005;

/// How strongly the program's host times follow the kernel's. The kernel
/// is more memory-bound than the simulator: across 30-second runs on a
/// shared 2-CPU host, the simulator slowed by about three quarters as much,
/// in log terms, as the kernel did.
pub const SENSITIVITY: f64 = 0.75;

/// Entries in the scattered table (4 MB).
const TABLE: usize = 1 << 19;

/// Passes of the kernel measured over one run.
#[derive(Debug)]
pub struct Calibration {
    table: Vec<f64>,
    passes: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// No passes yet.
    pub fn new() -> Self {
        Self {
            table: vec![1.0; TABLE],
            passes: Vec::new(),
        }
    }

    /// Times `n` passes of the kernel.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let secs = self.pass();
            self.passes.push(secs);
        }
    }

    fn pass(&mut self) -> f64 {
        let t = clock::now();
        let mut heap = BinaryHeap::new();
        let mut map = BTreeMap::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0.0f64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap.push((x >> 11, i));
            map.insert(x & 0xffff, i);
            let j = (x % TABLE as u64) as usize;
            self.table[j] = self.table[j] * 0.5 + (i as f64).sqrt();
            acc += self.table[((x >> 20) % TABLE as u64) as usize];
            if heap.len() > 2000 {
                heap.pop();
            }
            if map.len() > 2000 {
                map.pop_first();
            }
        }
        std::hint::black_box(acc);
        clock::secs_since(t)
    }

    /// Fastest pass, in seconds (`NaN` before any pass).
    pub fn fastest(&self) -> f64 {
        self.passes
            .iter()
            .copied()
            .reduce(f64::min)
            .unwrap_or(f64::NAN)
    }

    /// Median pass, in seconds.
    pub fn median(&self) -> f64 {
        med(self.passes.iter().copied())
    }

    /// Factor that turns a host time measured in this run into its
    /// normalized value: `(REF_SECS / fastest pass) ^ SENSITIVITY`.
    pub fn time_factor(&self) -> f64 {
        (REF_SECS / self.fastest()).powf(SENSITIVITY)
    }
}
