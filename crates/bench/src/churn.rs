//! Deterministic flow-churn workload driving [`FlowSim`] directly — the
//! micro-benchmark behind the `flowsim_churn` entry of `perf_snapshot`.
//!
//! The pattern mirrors what the engine does to the simulator on the 30-site
//! trace: bursts of same-instant shuffle fan-out (many `add_flow` calls
//! before the next rate query), completion-driven removals, and occasional
//! capacity movement. It isolates the incremental rate-recomputation path
//! (`Waterfiller` refills plus the cached completion ETAs) from scheduling
//! and placement cost.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tetrium_cluster::SiteId;
use tetrium_net::FlowSim;

/// Runs `rounds` churn rounds over `sites` sites and returns the number of
/// flow events (adds + completions) processed. Deterministic in `seed`.
pub fn run_flowsim_churn(sites: usize, rounds: usize, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let up: Vec<f64> = (0..sites).map(|_| rng.gen_range(0.5..2.0)).collect();
    let down: Vec<f64> = (0..sites).map(|_| rng.gen_range(0.5..2.0)).collect();
    let mut sim = FlowSim::new(up, down);
    let mut events = 0usize;
    for round in 0..rounds {
        // A same-instant burst of shuffle-like fan-out from one source.
        let src = rng.gen_range(0..sites);
        let fan_out = rng.gen_range(4..12);
        for _ in 0..fan_out {
            let mut dst = rng.gen_range(0..sites);
            if dst == src {
                dst = (dst + 1) % sites;
            }
            sim.add_flow(SiteId(src), SiteId(dst), rng.gen_range(0.1..4.0));
            events += 1;
        }
        // Occasionally move a site's capacity (resource dynamics, §4.2).
        if round % 16 == 0 {
            let s = rng.gen_range(0..sites);
            sim.set_capacity(SiteId(s), rng.gen_range(0.5..2.0), rng.gen_range(0.5..2.0));
        }
        // Drain a few completions so the live set stays bounded.
        for _ in 0..rng.gen_range(2..8) {
            let Some((k, t)) = sim.next_completion() else {
                break;
            };
            sim.advance_to(t);
            sim.remove_flow(k);
            events += 1;
        }
    }
    // Drain the tail so every byte is accounted for.
    while let Some((k, t)) = sim.next_completion() {
        sim.advance_to(t);
        sim.remove_flow(k);
        events += 1;
    }
    events
}
