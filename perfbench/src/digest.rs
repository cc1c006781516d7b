//! Canonical digest of a simulated outcome.
//!
//! Covers per-job outcomes (id, arrival, completion, response, WAN, tasks),
//! the makespan and the total WAN, bit for bit. No wall-clock field
//! (`sched_wall_secs`) and no observability record enters it, so two runs of
//! one input agree exactly when the simulation is deterministic.

use tetrium::sim::RunReport;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over little-endian 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv {
    /// Mixes one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Mixes a float by its bit pattern.
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// Mixes a count.
    pub fn count(&mut self, n: usize) -> &mut Self {
        self.word(n as u64)
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a run report's simulated fields.
pub fn run_digest(report: &RunReport) -> u64 {
    let mut h = Fnv::default();
    h.count(report.jobs.len());
    for j in &report.jobs {
        h.count(j.id.0)
            .float(j.arrival)
            .float(j.finished)
            .float(j.response)
            .float(j.wan_gb)
            .count(j.total_tasks);
    }
    h.float(report.makespan).float(report.total_wan_gb);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_separates_order_and_bits() {
        let a = Fnv::default().word(1).word(2).finish();
        let b = Fnv::default().word(2).word(1).finish();
        assert_ne!(a, b);
        let z = Fnv::default().float(0.0).finish();
        let nz = Fnv::default().float(-0.0).finish();
        assert_ne!(z, nz, "floats hash by bit pattern");
    }
}
