//! L7 fixture, helper half: iterates a `HashMap` outside L1's path
//! scope. The token rules report nothing here — the taint only
//! becomes visible once it flows through `merge_weights` into the sim
//! crate (see `crates/sim/src/taint_caller.rs`).

use std::collections::HashMap;

pub fn merge_weights(m: &HashMap<u32, f64>) -> f64 {
    m.values().sum()
}
