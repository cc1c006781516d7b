//! The only place the benchmark reads the host clock.
//!
//! Host time is what the benchmark measures; it never flows back into a
//! simulation, whose outputs stay a pure function of the seed.
// lint:allow-file(L3) -- benchmark timing: host wall clock read from outside the simulator

use std::time::Instant;

/// A host-clock reading.
pub type Stamp = Instant;

/// Reads the host clock.
pub fn now() -> Stamp {
    Instant::now()
}

/// Seconds elapsed since `since`.
pub fn secs_since(since: Stamp) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Seconds from `from` to `to` (zero if `to` is earlier).
pub fn secs_between(from: Stamp, to: Stamp) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}
