//! Fluid-flow simulator over the max-min fair model.
//!
//! Flows between the same `(src, dst)` pair always share one max-min rate,
//! so the simulator keeps them in per-pair *groups*. Each group carries a
//! virtual drain clock (`drained`: bytes sent per member flow since the
//! group was created); a flow joining at drain level `d` with `size` bytes
//! completes when the clock reaches `d + size`.
//!
//! The per-event costs are incremental:
//!
//! - Rate recomputation reuses a persistent [`Waterfiller`]. Each flow
//!   added or removed pushes its group's new count into it, so it keeps
//!   the link membership across events and replays the previous max-min
//!   fill from the first step a mutation can alter.
//! - Each group caches its earliest completion threshold (the validated
//!   top of its threshold heap), dropped only when the group's membership
//!   changes, and its ETA, recomputed from that threshold after its rate
//!   changed or the clock moved. The next completion is a linear argmin
//!   over the cached ETAs.
//! - Time advancement walks a live-group list, so `(src, dst)` pairs that
//!   once carried a flow but drained long ago cost nothing.
//!
//! All of it is exact: the arithmetic — and therefore every simulated
//! timestamp and byte count — is bit-identical to recomputing the world
//! from scratch at every event.

use crate::maxmin::{WaterfillStats, Waterfiller};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use tetrium_cluster::SiteId;
use tetrium_obs::Obs;

/// Handle to a flow inside a [`FlowSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey(usize);

impl FlowKey {
    /// The slab index behind the handle. Keys are reused after removal, so
    /// indices are dense: callers can keep per-flow state in a plain vector
    /// instead of a hash map.
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct FlowRec {
    size_gb: f64,
    /// Group the flow belongs to (`None` for local flows).
    group: Option<usize>,
    /// Group drain level when the flow joined.
    join_drain: f64,
    /// Position in `locals` (meaningful only for alive local flows).
    local_pos: usize,
    alive: bool,
}

#[derive(Debug)]
struct Group {
    src: usize,
    dst: usize,
    count: usize,
    /// Current per-flow rate in GB/s.
    rate: f64,
    /// Bytes drained per member flow since group creation.
    drained: f64,
    /// Completion thresholds `(join_drain + size, flow index)`, min-first;
    /// entries for removed flows are discarded lazily.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Cached validated heap top `(threshold, flow)`: the earliest
    /// completion threshold among the alive members. `None` until
    /// validated, and again after every membership change.
    top: Option<(f64, usize)>,
    /// Cached earliest completion `(eta, flow)`, `None` while stalled.
    /// Valid only while `eta_fresh`.
    eta: Option<(f64, usize)>,
    /// Cleared whenever an input of `eta` changes: membership, a bitwise
    /// rate change, or the clock.
    eta_fresh: bool,
}

impl Group {
    /// The earliest `(completion time, flow)` of this group (id `g`), or
    /// `None` when it has no runnable member at a positive rate. The
    /// threshold comes from the cached heap top; only after a membership
    /// change is the heap validated against the flow slab again.
    fn earliest(&mut self, g: usize, flows: &[FlowRec], now: f64) -> Option<(f64, usize)> {
        let (threshold, idx) = match self.top {
            Some(top) => top,
            None => {
                // Discard heap entries of removed flows or stale re-additions.
                let (th, idx) = loop {
                    let &Reverse((th, idx)) = self.heap.peek()?;
                    let valid = flows.get(idx).is_some_and(|f| {
                        f.alive && f.group == Some(g) && key(f.join_drain + f.size_gb) == th
                    });
                    if valid {
                        break (th, idx);
                    }
                    self.heap.pop();
                };
                let top = (f64::from_bits(th), idx);
                self.top = Some(top);
                top
            }
        };
        Some((eta(threshold, self.drained, self.rate, now)?, idx))
    }
}

/// Orders non-negative f64 thresholds as u64 keys.
fn key(v: f64) -> u64 {
    v.max(0.0).to_bits()
}

/// Completion time of a group member with drain threshold `threshold`, or
/// `None` while the group is stalled.
fn eta(threshold: f64, drained: f64, rate: f64, now: f64) -> Option<f64> {
    let remaining = (threshold - drained).max(0.0);
    if remaining <= 1e-12 {
        Some(now)
    } else if rate <= 0.0 {
        // Stalled: the group sits on a zeroed link (`set_capacity` with 0
        // during an outage). No finite ETA exists; the group rejoins the
        // completion scan when a capacity change restores its rate.
        None
    } else {
        Some(now + remaining / rate)
    }
}

/// Maps any non-NaN f64 to a u64 that orders like the float (negative
/// values included), for use as a heap key.
fn ord_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Fluid simulation of concurrent WAN transfers.
///
/// Time does not advance on its own: the owner (the discrete-event engine)
/// calls [`FlowSim::advance_to`] to move the clock forward — draining bytes
/// at the current max-min rates — and uses [`FlowSim::next_completion`] to
/// schedule its next network event. Rates are recomputed lazily whenever the
/// flow set or link capacities change, and incrementally: the max-min fill
/// is replayed from the first step the changes can alter.
///
/// Local flows (`src == dst`) complete instantly (zero remaining time), as
/// local reads do not cross the WAN in the paper's model.
///
/// # Examples
///
/// ```
/// use tetrium_net::FlowSim;
/// use tetrium_cluster::SiteId;
///
/// let mut sim = FlowSim::new(vec![1.0, 4.0], vec![4.0, 2.0]);
/// let flow = sim.add_flow(SiteId(0), SiteId(1), 10.0);
/// let (done, t) = sim.next_completion().unwrap();
/// assert_eq!(done, flow);
/// assert!((t - 10.0).abs() < 1e-9); // 10 GB over the 1 GB/s uplink.
/// sim.advance_to(t);
/// assert!(sim.remaining_gb(flow) < 1e-9);
/// ```
#[derive(Debug)]
pub struct FlowSim {
    up_gbps: Vec<f64>,
    down_gbps: Vec<f64>,
    flows: Vec<FlowRec>,
    free: Vec<usize>,
    groups: Vec<Group>,
    group_index: BTreeMap<(usize, usize), usize>,
    /// Group ids with `count > 0`, ascending. Groups whose pair drained
    /// empty stay in the table (their drain clock must survive re-use) but
    /// drop off this list, so long-dead pairs cost nothing per event.
    live: Vec<usize>,
    now: f64,
    total_wan_gb: f64,
    active: usize,
    /// Alive local flows (rarely used; the engine short-circuits local
    /// reads before they reach the WAN model). Removal is a swap_remove,
    /// so the order is not insertion order.
    locals: Vec<usize>,
    dirty: bool,
    /// Persistent waterfilling state: the recorded fill + dirty-link set.
    wf: Waterfiller,
    /// Memoized result of [`FlowSim::next_completion`]: completion times are
    /// absolute, so the answer stays valid until the flow set or capacities
    /// change.
    cached_next: Option<Option<(FlowKey, f64)>>,
    /// Observability sink; disabled by default.
    obs: Obs,
    /// A link-utilization sample is owed at the current instant (samples
    /// are deferred to the end of a same-timestamp mutation burst; the sink
    /// coalesces same-instant samples, so one deferred sample equals the
    /// last of the per-mutation ones).
    obs_pending: bool,
    obs_up: Vec<f64>,
    obs_down: Vec<f64>,
}

impl FlowSim {
    /// Creates a simulator over sites with the given link capacities.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length or any capacity is
    /// non-positive.
    pub fn new(up_gbps: Vec<f64>, down_gbps: Vec<f64>) -> Self {
        assert_eq!(up_gbps.len(), down_gbps.len());
        assert!(up_gbps.iter().chain(&down_gbps).all(|&c| c > 0.0));
        let n = up_gbps.len();
        Self {
            up_gbps,
            down_gbps,
            flows: Vec::new(),
            free: Vec::new(),
            groups: Vec::new(),
            group_index: BTreeMap::new(),
            live: Vec::new(),
            now: 0.0,
            total_wan_gb: 0.0,
            active: 0,
            locals: Vec::new(),
            dirty: false,
            wf: Waterfiller::new(n),
            cached_next: None,
            obs: Obs::disabled(),
            obs_pending: false,
            obs_up: Vec::new(),
            obs_down: Vec::new(),
        }
    }

    /// Installs an observability sink. The simulator emits per-pair WAN
    /// accounting (including refunds) and a link-utilization sample at
    /// every flow-set or capacity change boundary. Samples are flushed at
    /// the next query or time advance; call [`FlowSim::next_completion`] or
    /// [`FlowSim::link_usage`] before reading the sink if the last event
    /// was a mutation.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Current simulation time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Cumulative bytes (GB) that crossed the WAN so far — the WAN-usage
    /// metric of §4.3 (local flows do not count).
    pub fn total_wan_gb(&self) -> f64 {
        self.total_wan_gb
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Cumulative work counters of the rate recomputation.
    pub fn waterfill_stats(&self) -> WaterfillStats {
        self.wf.stats()
    }

    fn live_insert(&mut self, g: usize) {
        let pos = self.live.partition_point(|&x| x < g);
        self.live.insert(pos, g);
    }

    fn live_remove(&mut self, g: usize) {
        let pos = self.live.partition_point(|&x| x < g);
        debug_assert_eq!(self.live[pos], g);
        self.live.remove(pos);
    }

    /// Starts a transfer of `gb` from `src` to `dst` and returns its handle.
    ///
    /// WAN usage is accounted at start time (the bytes will cross the WAN
    /// unless the flow is cancelled).
    pub fn add_flow(&mut self, src: SiteId, dst: SiteId, gb: f64) -> FlowKey {
        assert!(gb >= 0.0 && gb.is_finite());
        let local = src == dst;
        if !local {
            self.total_wan_gb += gb;
            self.obs.wan_transfer(src, dst, gb);
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.flows.push(FlowRec {
                size_gb: 0.0,
                group: None,
                join_drain: 0.0,
                local_pos: 0,
                alive: false,
            });
            self.flows.len() - 1
        });
        let (group, join_drain, local_pos) = if local {
            let pos = self.locals.len();
            self.locals.push(idx);
            self.cached_next = None;
            (None, 0.0, pos)
        } else {
            let g = *self
                .group_index
                .entry((src.index(), dst.index()))
                .or_insert_with(|| {
                    self.groups.push(Group {
                        src: src.index(),
                        dst: dst.index(),
                        count: 0,
                        rate: 0.0,
                        drained: 0.0,
                        heap: BinaryHeap::new(),
                        top: None,
                        eta: None,
                        eta_fresh: false,
                    });
                    self.groups.len() - 1
                });
            let grp = &mut self.groups[g];
            grp.count += 1;
            grp.heap.push(Reverse((key(grp.drained + gb), idx)));
            grp.top = None;
            grp.eta_fresh = false;
            let (join, count) = (grp.drained, grp.count);
            if count == 1 {
                self.live_insert(g);
            }
            self.wf.set_group(g, src.index(), dst.index(), count);
            self.dirty = true;
            self.cached_next = None;
            (Some(g), join, 0)
        };
        self.flows[idx] = FlowRec {
            size_gb: gb,
            group,
            join_drain,
            local_pos,
            alive: true,
        };
        self.active += 1;
        if !local && self.obs.is_enabled() {
            self.obs_pending = true;
        }
        FlowKey(idx)
    }

    /// Removes a completed (or cancelled) flow.
    ///
    /// Returns the bytes that were still unsent (exactly zero for a
    /// completed flow: the group drain clock accumulates `rate * dt`
    /// increments, so a flow removed at its completion time can be left
    /// with a float-drift remainder; refunding that from `total_wan_gb`
    /// would leak bytes out of the conservation ledger, so sub-epsilon
    /// remainders are clamped to zero before the refund).
    pub fn remove_flow(&mut self, fkey: FlowKey) -> f64 {
        let size = self.flows[fkey.0].size_gb;
        let mut remaining = self.remaining_gb(fkey);
        if remaining < 1e-9 * (1.0 + size) {
            remaining = 0.0;
        }
        let rec = &mut self.flows[fkey.0];
        assert!(rec.alive, "flow already removed");
        rec.alive = false;
        self.cached_next = None;
        match rec.group {
            Some(g) => {
                let grp = &mut self.groups[g];
                grp.count -= 1;
                // The flow's heap entry is discarded lazily when it
                // surfaces; the cached top may be that entry.
                grp.top = None;
                grp.eta_fresh = false;
                let (src, dst, count) = (grp.src, grp.dst, grp.count);
                if count == 0 {
                    self.live_remove(g);
                }
                self.wf.set_group(g, src, dst, count);
                self.dirty = true;
                // Refund WAN accounting for unsent bytes of a cancelled flow.
                self.total_wan_gb -= remaining;
                if remaining > 0.0 {
                    self.obs.wan_transfer(SiteId(src), SiteId(dst), -remaining);
                }
                if self.obs.is_enabled() {
                    self.obs_pending = true;
                }
            }
            None => {
                let pos = self.flows[fkey.0].local_pos;
                self.locals.swap_remove(pos);
                if pos < self.locals.len() {
                    let moved = self.locals[pos];
                    self.flows[moved].local_pos = pos;
                }
            }
        }
        self.free.push(fkey.0);
        self.active -= 1;
        remaining
    }

    /// Updates a site's link capacities (resource dynamics, §4.2).
    ///
    /// Zero is allowed and models a full link outage: flows bottlenecked on
    /// the zeroed link get rate 0 from the waterfiller and become
    /// *stalled* — they keep their drained progress but are excluded from
    /// [`FlowSim::next_completion`] (no infinite/NaN ETA is ever produced),
    /// so the engine never busy-loops on them. Restoring a positive
    /// capacity later resumes the stalled flows from where they stopped.
    /// Construction ([`FlowSim::new`]) still requires positive capacities:
    /// only mid-run dynamics may zero a link.
    pub fn set_capacity(&mut self, site: SiteId, up_gbps: f64, down_gbps: f64) {
        assert!(up_gbps >= 0.0 && down_gbps >= 0.0 && up_gbps.is_finite() && down_gbps.is_finite());
        self.up_gbps[site.index()] = up_gbps;
        self.down_gbps[site.index()] = down_gbps;
        self.wf.mark_site_dirty(site.index());
        self.dirty = true;
        self.cached_next = None;
        if self.obs.is_enabled() {
            self.obs_pending = true;
        }
    }

    /// Advances the clock to `t`, draining every flow at its current rate.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    pub fn advance_to(&mut self, t: f64) {
        assert!(t >= self.now - 1e-9, "time must be monotone");
        let dt = (t - self.now).max(0.0);
        if dt > 0.0 {
            // The owed sample belongs to the instant the mutations happened
            // at, so flush before moving the clock.
            self.flush_link_sample();
            self.refresh();
            let Self { live, groups, .. } = self;
            for &g in live.iter() {
                let Some(grp) = groups.get_mut(g) else {
                    continue;
                };
                if grp.rate > 0.0 {
                    grp.drained += grp.rate * dt;
                }
                grp.eta_fresh = false;
            }
        } else if t.to_bits() != self.now.to_bits() {
            // The clock value changed bitwise (a sub-epsilon step backwards
            // or across the zero signs): ETAs derive from `now`, so they
            // must be recomputed to stay bit-exact.
            let Self { live, groups, .. } = self;
            for &g in live.iter() {
                if let Some(grp) = groups.get_mut(g) {
                    grp.eta_fresh = false;
                }
            }
        }
        self.now = t;
    }

    /// The earliest `(flow, absolute completion time)` among in-flight flows
    /// at current rates, or `None` when no flows are active.
    ///
    /// Local flows and zero-byte flows complete "now". Ties between groups
    /// resolve to the lowest group id.
    pub fn next_completion(&mut self) -> Option<(FlowKey, f64)> {
        if let Some(cached) = self.cached_next {
            return cached;
        }
        self.flush_link_sample();
        let best = self.scan_completion();
        self.cached_next = Some(best);
        best
    }

    /// Computes [`FlowSim::next_completion`] from the group caches, without
    /// the memo.
    fn scan_completion(&mut self) -> Option<(FlowKey, f64)> {
        self.refresh();
        // Local flows (no group) complete immediately.
        if let Some(&i) = self.locals.first() {
            return Some((FlowKey(i), self.now));
        }
        // Argmin of `(eta, group)` over the live list (ascending ids, so a
        // strict `<` keeps the lowest group on ties), refreshing stale
        // cached ETAs on the way.
        let Self {
            live,
            groups,
            flows,
            now,
            ..
        } = self;
        let mut best: Option<(u64, usize, f64)> = None;
        for &g in live.iter() {
            let Some(grp) = groups.get_mut(g) else {
                continue;
            };
            if !grp.eta_fresh {
                grp.eta = grp.earliest(g, flows, *now);
                grp.eta_fresh = true;
            }
            if let Some((eta, flow)) = grp.eta {
                let ord = ord_key(eta);
                if best.is_none_or(|(b, _, _)| ord < b) {
                    best = Some((ord, flow, eta));
                }
            }
        }
        best.map(|(_, flow, eta)| (FlowKey(flow), eta))
    }

    /// Remaining volume of a flow in GB (zero for local flows, which never
    /// queue).
    pub fn remaining_gb(&self, fkey: FlowKey) -> f64 {
        let f = &self.flows[fkey.0];
        assert!(f.alive, "flow was removed");
        match f.group {
            None => 0.0,
            Some(g) => (f.join_drain + f.size_gb - self.groups[g].drained).max(0.0),
        }
    }

    /// Current rate of a flow in GB/s (`f64::INFINITY` for local flows).
    pub fn rate_gbps(&mut self, fkey: FlowKey) -> f64 {
        self.refresh();
        let f = &self.flows[fkey.0];
        assert!(f.alive, "flow was removed");
        match f.group {
            None => f64::INFINITY,
            Some(g) => self.groups[g].rate,
        }
    }

    /// Aggregate rate currently allocated on each site's uplink and
    /// downlink, in GB/s — the basis for available-bandwidth estimation
    /// (paper §5). Local flows consume nothing.
    pub fn link_usage(&mut self) -> (Vec<f64>, Vec<f64>) {
        let n = self.up_gbps.len();
        let mut up = Vec::with_capacity(n);
        let mut down = Vec::with_capacity(n);
        self.link_usage_into(&mut up, &mut down);
        (up, down)
    }

    /// Allocation-free variant of [`FlowSim::link_usage`]: clears and fills
    /// the caller's buffers so a hot caller can reuse their capacity.
    pub fn link_usage_into(&mut self, up: &mut Vec<f64>, down: &mut Vec<f64>) {
        self.flush_link_sample();
        self.refresh();
        self.fill_usage(up, down);
    }

    /// Sums live-group rates into the buffers (ascending group order — the
    /// accumulation order is part of the bit-exact contract).
    fn fill_usage(&self, up: &mut Vec<f64>, down: &mut Vec<f64>) {
        let n = self.up_gbps.len();
        up.clear();
        up.resize(n, 0.0);
        down.clear();
        down.resize(n, 0.0);
        for &gi in &self.live {
            let g = &self.groups[gi];
            up[g.src] += g.rate * g.count as f64;
            down[g.dst] += g.rate * g.count as f64;
        }
    }

    /// Emits the owed per-link utilization sample, if any. Deferring to the
    /// end of a same-timestamp mutation burst is invisible in the sink
    /// (same-instant samples coalesce to the last one) and means one rate
    /// refresh per burst instead of one per mutation.
    fn flush_link_sample(&mut self) {
        if !self.obs_pending {
            return;
        }
        self.obs_pending = false;
        self.refresh();
        let mut up = std::mem::take(&mut self.obs_up);
        let mut down = std::mem::take(&mut self.obs_down);
        self.fill_usage(&mut up, &mut down);
        self.obs.link_sample(self.now, &up, &down);
        self.obs_up = up;
        self.obs_down = down;
    }

    /// Recomputes rates if any mutation happened since the last refresh.
    /// The waterfiller reports only the groups whose freeze step the
    /// mutations could alter; every other group keeps its (still exact)
    /// rate.
    fn refresh(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let Self {
            wf,
            groups,
            up_gbps,
            down_gbps,
            ..
        } = self;
        wf.refill(up_gbps, down_gbps);
        for &(g, r) in wf.refilled() {
            if let Some(grp) = groups.get_mut(g) {
                if grp.rate.to_bits() != r.to_bits() {
                    grp.rate = r;
                    grp.eta_fresh = false;
                }
            }
        }
    }
}

#[cfg(feature = "audit")]
impl FlowSim {
    /// Audit-mode invariant check (feature `audit`, DESIGN.md §10): re-checks
    /// the simulator's incremental state against from-scratch oracles and
    /// panics with full context on any violation.
    ///
    /// Invariants:
    /// 1. Every live group's per-flow rate is **bit-exact** equal to a
    ///    from-scratch [`crate::waterfill_groups`] over the same groups and
    ///    capacities (the replayed-refill contract).
    /// 2. Per-link conservation: Σ (rate × count) over groups crossing a
    ///    link never exceeds its capacity (tiny relative tolerance for the
    ///    summation order).
    /// 3. Per-flow byte conservation: for every alive WAN flow,
    ///    `sent + remaining == size` with `0 ≤ sent ≤ size` up to float
    ///    drift, where `sent = group.drained − join_drain` (drain clocks are
    ///    monotone, so a violation means bytes were created or destroyed).
    /// 4. Bookkeeping consistency: group member counts match the alive flow
    ///    records, the live list is exactly the non-empty groups in
    ///    ascending order, and `active` counts the alive flows.
    /// 5. Every live group's cached earliest threshold, when validated,
    ///    equals bit for bit the minimum `(join_drain + size, flow)` over its
    ///    alive flows, recomputed from the flow slab.
    /// 6. The waterfiller's group table and per-link member lists equal the
    ///    from-scratch membership of the live groups, in ascending id.
    /// 7. The completion scan behind [`FlowSim::next_completion`] equals,
    ///    bit for bit, a from-scratch argmin over `(eta, group)` with every
    ///    threshold recomputed from the slab. (The memo it returns between
    ///    mutations is the scan taken at the last one.)
    pub fn audit(&mut self, ctx: &str) {
        self.refresh();
        let n = self.up_gbps.len();

        // 1. Rates vs the stateless oracle, bit for bit.
        let specs: Vec<crate::GroupSpec> = self
            .groups
            .iter()
            .map(|g| crate::GroupSpec {
                src: g.src,
                dst: g.dst,
                count: g.count,
            })
            .collect();
        let oracle = crate::waterfill_groups(&specs, &self.up_gbps, &self.down_gbps);
        for &g in &self.live {
            let gr = &self.groups[g];
            assert!(
                gr.rate.to_bits() == oracle[g].to_bits(),
                "audit[{ctx}]: group {g} ({}->{}, count {}) incremental rate \
                 {:?} != from-scratch waterfill {:?} at t={}",
                gr.src,
                gr.dst,
                gr.count,
                gr.rate,
                oracle[g],
                self.now
            );
        }

        // 2. Per-link conservation.
        let mut up_used = vec![0.0f64; n];
        let mut down_used = vec![0.0f64; n];
        for &g in &self.live {
            let gr = &self.groups[g];
            let total = gr.rate * gr.count as f64;
            up_used[gr.src] += total;
            down_used[gr.dst] += total;
        }
        for s in 0..n {
            assert!(
                up_used[s] <= self.up_gbps[s] * (1.0 + 1e-9) + 1e-12,
                "audit[{ctx}]: uplink {s} oversubscribed: {} > cap {} at t={}",
                up_used[s],
                self.up_gbps[s],
                self.now
            );
            assert!(
                down_used[s] <= self.down_gbps[s] * (1.0 + 1e-9) + 1e-12,
                "audit[{ctx}]: downlink {s} oversubscribed: {} > cap {} at t={}",
                down_used[s],
                self.down_gbps[s],
                self.now
            );
        }

        // 3. Per-flow byte conservation.
        for (i, f) in self.flows.iter().enumerate() {
            if !f.alive {
                continue;
            }
            let Some(g) = f.group else { continue };
            let sent = self.groups[g].drained - f.join_drain;
            let tol = 1e-6 * (1.0 + f.size_gb);
            assert!(
                sent >= -tol,
                "audit[{ctx}]: flow {i} drained backwards (sent {sent}) at t={}",
                self.now
            );
            assert!(
                sent <= f.size_gb + tol,
                "audit[{ctx}]: flow {i} overshot its size: sent {sent} of \
                 {} GB (group {g} drained {}, joined at {}) at t={}",
                f.size_gb,
                self.groups[g].drained,
                f.join_drain,
                self.now
            );
        }

        // 4. Bookkeeping consistency.
        let mut member_counts = vec![0usize; self.groups.len()];
        let mut alive = 0usize;
        for f in &self.flows {
            if f.alive {
                alive += 1;
                if let Some(g) = f.group {
                    member_counts[g] += 1;
                }
            }
        }
        assert!(
            alive == self.active,
            "audit[{ctx}]: active counter {} != alive flow records {alive}",
            self.active
        );
        for (g, gr) in self.groups.iter().enumerate() {
            assert!(
                gr.count == member_counts[g],
                "audit[{ctx}]: group {g} count {} != alive members {}",
                gr.count,
                member_counts[g]
            );
        }
        let expect_live: Vec<usize> = (0..self.groups.len())
            .filter(|&g| self.groups[g].count > 0)
            .collect();
        assert!(
            self.live == expect_live,
            "audit[{ctx}]: live list {:?} != non-empty groups {:?}",
            self.live,
            expect_live
        );

        // 5. Cached thresholds vs the slab.
        let mut earliest: Vec<Option<(u64, usize)>> = vec![None; self.groups.len()];
        for (i, f) in self.flows.iter().enumerate() {
            if let (true, Some(g)) = (f.alive, f.group) {
                let cand = (key(f.join_drain + f.size_gb), i);
                if earliest[g].is_none_or(|e| cand < e) {
                    earliest[g] = Some(cand);
                }
            }
        }
        for &g in &self.live {
            if let Some((th, flow)) = self.groups[g].top {
                assert!(
                    Some((th.to_bits(), flow)) == earliest[g],
                    "audit[{ctx}]: group {g} cached earliest threshold \
                     ({th:?}, flow {flow}) != from-scratch {:?} at t={}",
                    earliest[g].map(|(k, i)| (f64::from_bits(k), i)),
                    self.now
                );
            }
        }

        // 6. Waterfiller membership vs the live groups.
        let live: Vec<(usize, usize, usize, usize)> = self
            .live
            .iter()
            .map(|&g| {
                let gr = &self.groups[g];
                (g, gr.src, gr.dst, gr.count)
            })
            .collect();
        self.wf.audit_membership(ctx, &live);

        // 7. The completion scan vs a from-scratch argmin.
        let mut want: Option<(FlowKey, f64)> = None;
        if let Some(&i) = self.locals.first() {
            want = Some((FlowKey(i), self.now));
        } else {
            let mut best: Option<(u64, usize, f64)> = None;
            for &g in &self.live {
                let gr = &self.groups[g];
                let Some((th, flow)) = earliest[g] else {
                    continue;
                };
                if let Some(t) = eta(f64::from_bits(th), gr.drained, gr.rate, self.now) {
                    if best.is_none_or(|(b, _, _)| ord_key(t) < b) {
                        best = Some((ord_key(t), flow, t));
                    }
                }
            }
            if let Some((_, flow, t)) = best {
                want = Some((FlowKey(flow), t));
            }
        }
        let got = self.scan_completion();
        assert!(
            got.map(|(k, t)| (k, t.to_bits())) == want.map(|(k, t)| (k, t.to_bits())),
            "audit[{ctx}]: completion scan {got:?} != from-scratch argmin {want:?} at t={}",
            self.now
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercises the audit oracle across the simulator's full lifecycle —
    /// adds, drains, removals, capacity changes including a zero-capacity
    /// outage — proving the incremental state matches the from-scratch
    /// waterfill at every step (and that the oracle tolerates zeroed links).
    #[cfg(feature = "audit")]
    #[test]
    fn audit_passes_through_churn_and_outage() {
        let mut sim = FlowSim::new(vec![2.0, 9.0, 3.0], vec![9.0, 4.0, 9.0]);
        sim.audit("empty");
        let a = sim.add_flow(SiteId(0), SiteId(1), 4.0);
        let b = sim.add_flow(SiteId(0), SiteId(2), 8.0);
        let c = sim.add_flow(SiteId(2), SiteId(1), 6.0);
        sim.audit("after adds");
        let (_, t) = sim.next_completion().unwrap();
        sim.advance_to(t * 0.5);
        sim.audit("mid drain");
        sim.set_capacity(SiteId(0), 0.0, 0.0); // outage
        sim.audit("outage");
        sim.advance_to(t * 0.75);
        sim.remove_flow(c);
        sim.audit("removal during outage");
        sim.set_capacity(SiteId(0), 5.0, 5.0); // recovery
        sim.audit("recovery");
        while let Some((k, t)) = sim.next_completion() {
            sim.advance_to(t);
            sim.remove_flow(k);
            sim.audit("drain to empty");
        }
        assert!(sim.active_flows() == 0);
        // Revive drained pair 0->1 (group 0) beside live 0->2 (group 1) on
        // uplink 0, then move the revived group's earliest threshold both
        // ways: a nearer flow joins, and the earliest is cancelled.
        sim.add_flow(SiteId(0), SiteId(2), 9.0);
        sim.next_completion();
        let d = sim.add_flow(SiteId(0), SiteId(1), 3.0);
        sim.add_flow(SiteId(1), SiteId(0), 1.0);
        sim.audit("revival");
        sim.next_completion();
        let e = sim.add_flow(SiteId(0), SiteId(1), 2.0);
        sim.audit("nearer join");
        let (_, t) = sim.next_completion().unwrap();
        sim.advance_to(sim.now() + (t - sim.now()) * 0.5);
        sim.remove_flow(e);
        sim.audit("cancel earliest");
        sim.remove_flow(d);
        sim.audit("cancel last of group");
        let _ = (a, b);
    }

    #[test]
    fn single_transfer_finishes_at_bottleneck_time() {
        let mut sim = FlowSim::new(vec![1.0, 4.0], vec![4.0, 2.0]);
        let k = sim.add_flow(SiteId(0), SiteId(1), 10.0);
        let (kk, t) = sim.next_completion().unwrap();
        assert_eq!(kk, k);
        assert!((t - 10.0).abs() < 1e-9); // Uplink 1 GB/s is the bottleneck.
        sim.advance_to(t);
        assert!(sim.remaining_gb(k) < 1e-9);
        assert!((sim.total_wan_gb() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn competing_flows_slow_each_other_then_speed_up() {
        let mut sim = FlowSim::new(vec![2.0, 9.0, 9.0], vec![9.0; 3]);
        let a = sim.add_flow(SiteId(0), SiteId(1), 4.0);
        let b = sim.add_flow(SiteId(0), SiteId(2), 8.0);
        // Shared uplink 2 GB/s -> 1 GB/s each; flow a completes at t=4.
        let (first, t1) = sim.next_completion().unwrap();
        assert_eq!(first, a);
        assert!((t1 - 4.0).abs() < 1e-9);
        sim.advance_to(t1);
        sim.remove_flow(a);
        // Flow b has 4 GB left and now gets the full 2 GB/s: +2 s.
        let (second, t2) = sim.next_completion().unwrap();
        assert_eq!(second, b);
        assert!((t2 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn same_pair_flows_share_and_complete_in_size_order() {
        let mut sim = FlowSim::new(vec![2.0, 2.0], vec![2.0, 2.0]);
        let small = sim.add_flow(SiteId(0), SiteId(1), 1.0);
        let big = sim.add_flow(SiteId(0), SiteId(1), 3.0);
        // Each gets 1 GB/s; small finishes at t=1.
        let (first, t1) = sim.next_completion().unwrap();
        assert_eq!(first, small);
        assert!((t1 - 1.0).abs() < 1e-9);
        sim.advance_to(t1);
        sim.remove_flow(small);
        // Big has 2 GB left at the full 2 GB/s.
        let (second, t2) = sim.next_completion().unwrap();
        assert_eq!(second, big);
        assert!((t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn local_flow_completes_immediately_and_costs_no_wan() {
        let mut sim = FlowSim::new(vec![1.0], vec![1.0]);
        let k = sim.add_flow(SiteId(0), SiteId(0), 100.0);
        let (kk, t) = sim.next_completion().unwrap();
        assert_eq!(kk, k);
        assert_eq!(t, 0.0);
        assert_eq!(sim.total_wan_gb(), 0.0);
    }

    #[test]
    fn local_flow_removal_is_positional() {
        // Three local flows; removing the first must keep the other two
        // alive and resolvable (swap_remove repositions the moved entry).
        let mut sim = FlowSim::new(vec![1.0], vec![1.0]);
        let a = sim.add_flow(SiteId(0), SiteId(0), 1.0);
        let b = sim.add_flow(SiteId(0), SiteId(0), 1.0);
        let c = sim.add_flow(SiteId(0), SiteId(0), 1.0);
        sim.remove_flow(a);
        assert_eq!(sim.active_flows(), 2);
        let (k1, _) = sim.next_completion().unwrap();
        sim.remove_flow(k1);
        let (k2, _) = sim.next_completion().unwrap();
        sim.remove_flow(k2);
        assert!(sim.next_completion().is_none());
        assert!([b, c].contains(&k1) && [b, c].contains(&k2) && k1 != k2);
    }

    #[test]
    fn cancelling_a_flow_refunds_wan_accounting() {
        let mut sim = FlowSim::new(vec![1.0, 1.0], vec![1.0, 1.0]);
        let k = sim.add_flow(SiteId(0), SiteId(1), 10.0);
        sim.advance_to(2.0);
        let unsent = sim.remove_flow(k);
        assert!((unsent - 8.0).abs() < 1e-9);
        assert!((sim.total_wan_gb() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_drop_slows_flows() {
        let mut sim = FlowSim::new(vec![4.0, 9.0], vec![9.0, 9.0]);
        let k = sim.add_flow(SiteId(0), SiteId(1), 8.0);
        sim.advance_to(1.0); // 4 GB sent, 4 left.
        sim.set_capacity(SiteId(0), 1.0, 9.0);
        let (_, t) = sim.next_completion().unwrap();
        assert!((t - 5.0).abs() < 1e-9); // 4 GB at 1 GB/s from t=1.
        assert!((sim.rate_gbps(k) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn key_reuse_is_safe() {
        let mut sim = FlowSim::new(vec![1.0, 1.0], vec![1.0, 1.0]);
        let a = sim.add_flow(SiteId(0), SiteId(1), 1.0);
        sim.advance_to(1.0);
        sim.remove_flow(a);
        let b = sim.add_flow(SiteId(1), SiteId(0), 2.0);
        assert_eq!(sim.active_flows(), 1);
        assert!((sim.remaining_gb(b) - 2.0).abs() < 1e-9);
    }

    /// Once a pair's group drains empty it leaves the live list; re-adding
    /// flows on the pair (and on others) must still produce completions in
    /// exact ETA order, and the long-dead pair must not resurface.
    #[test]
    fn completion_order_is_unchanged_after_group_pruning() {
        let mut sim = FlowSim::new(vec![2.0; 3], vec![2.0; 3]);
        // Round 1: drain pair (0,1) to empty so its group goes dormant.
        let a = sim.add_flow(SiteId(0), SiteId(1), 2.0);
        let (ka, ta) = sim.next_completion().unwrap();
        assert_eq!(ka, a);
        sim.advance_to(ta);
        sim.remove_flow(a);
        assert!(sim.next_completion().is_none());
        // Round 2: flows on (1,2) and the revived (0,1); sizes chosen so
        // the revived pair finishes second. The (0,1) drain clock kept its
        // round-1 value, so remaining bytes must still resolve exactly.
        let b = sim.add_flow(SiteId(1), SiteId(2), 2.0);
        let c = sim.add_flow(SiteId(0), SiteId(1), 4.0);
        let (kb, tb) = sim.next_completion().unwrap();
        assert_eq!(kb, b);
        assert!((tb - 2.0).abs() < 1e-9); // 2 GB at 2 GB/s from t=1.
        sim.advance_to(tb);
        sim.remove_flow(b);
        let (kc, tc) = sim.next_completion().unwrap();
        assert_eq!(kc, c);
        assert!((tc - 3.0).abs() < 1e-9);
        sim.advance_to(tc);
        assert_eq!(sim.remove_flow(c), 0.0);
    }

    /// Cancelling the flow at the top of its group's threshold heap must
    /// drop the group's cached earliest threshold: the next completion is
    /// the next member, at exactly the time the drain arithmetic gives.
    #[test]
    fn cancelling_the_earliest_member_hands_completion_to_the_next() {
        // Three flows share uplink 0 (3 GB/s) at 1 GB/s each.
        let mut sim = FlowSim::new(vec![3.0, 9.0], vec![9.0, 9.0]);
        let a = sim.add_flow(SiteId(0), SiteId(1), 1.0);
        let b = sim.add_flow(SiteId(0), SiteId(1), 4.0);
        let c = sim.add_flow(SiteId(0), SiteId(1), 6.0);
        assert_eq!(sim.next_completion(), Some((a, 1.0)));
        // Cancel `a` halfway: the group has drained 0.5 GB per flow, and
        // the two survivors now get 1.5 GB/s each.
        sim.advance_to(0.5);
        sim.remove_flow(a);
        let t_b = 0.5 + (4.0 - 0.5) / 1.5;
        assert_eq!(sim.next_completion(), Some((b, t_b)));
        sim.advance_to(t_b);
        assert_eq!(sim.remove_flow(b), 0.0);
        let (k, t_c) = sim.next_completion().unwrap();
        assert_eq!(k, c);
        assert_eq!(t_c.to_bits(), (t_b + (6.0 - 4.0) / 3.0).to_bits());
    }

    /// A flow that joins a group with a nearer threshold than the cached
    /// earliest one must replace it: the join drops the cached threshold.
    #[test]
    fn joining_flow_with_a_nearer_threshold_completes_first() {
        // Two flows share uplink 0 (2 GB/s) at 1 GB/s each.
        let mut sim = FlowSim::new(vec![2.0, 9.0], vec![9.0, 9.0]);
        let a = sim.add_flow(SiteId(0), SiteId(1), 4.0);
        sim.add_flow(SiteId(0), SiteId(1), 6.0);
        assert_eq!(sim.next_completion(), Some((a, 4.0)));
        sim.advance_to(1.0);
        // At 2/3 GB/s each now, 1 GB of `b` finishes before `a`'s 3 left.
        let b = sim.add_flow(SiteId(0), SiteId(1), 1.0);
        assert_eq!(sim.next_completion(), Some((b, 1.0 + 1.0 / (2.0 / 3.0))));
    }

    /// A pair whose group drained empty leaves its links' member lists, and
    /// on revival re-enters them in group-id order, not at the end; every
    /// rate stays bit-identical to a from-scratch fill.
    #[test]
    fn revived_group_rejoins_its_links_in_id_order() {
        let (up, down) = (vec![2.0, 3.0, 5.0], vec![9.0, 9.0, 4.0]);
        let mut sim = FlowSim::new(up.clone(), down.clone());
        // Groups by creation: 0 is 0->2, 1 is 1->2, 2 is 0->1.
        let pairs = [(0, 2), (1, 2), (0, 1)];
        let a = sim.add_flow(SiteId(0), SiteId(2), 5.0);
        let b = sim.add_flow(SiteId(1), SiteId(2), 5.0);
        let c = sim.add_flow(SiteId(0), SiteId(1), 5.0);
        let check = |sim: &mut FlowSim, flows: &[(FlowKey, usize)], counts: [usize; 3]| {
            let specs: Vec<crate::GroupSpec> = pairs
                .iter()
                .zip(counts)
                .map(|(&(src, dst), count)| crate::GroupSpec { src, dst, count })
                .collect();
            let want = crate::waterfill_groups(&specs, &up, &down);
            for &(k, g) in flows {
                assert_eq!(sim.rate_gbps(k).to_bits(), want[g].to_bits(), "group {g}");
            }
        };
        let (up0, down2) = (0, 3 + 2);
        check(&mut sim, &[(a, 0), (b, 1), (c, 2)], [1, 1, 1]);
        assert_eq!(sim.wf.members(up0), &[0, 2]);
        assert_eq!(sim.wf.members(down2), &[0, 1]);
        sim.advance_to(1.0);
        sim.remove_flow(a);
        check(&mut sim, &[(b, 1), (c, 2)], [0, 1, 1]);
        assert_eq!(sim.wf.members(up0), &[2]);
        assert_eq!(sim.wf.members(down2), &[1]);
        let d = sim.add_flow(SiteId(0), SiteId(2), 5.0);
        check(&mut sim, &[(b, 1), (c, 2), (d, 0)], [1, 1, 1]);
        assert_eq!(sim.wf.members(up0), &[0, 2]);
        assert_eq!(sim.wf.members(down2), &[0, 1]);
    }

    /// Drains `n` flows over `sites` sites to completion, asserting exact
    /// byte conservation: every completed flow must be removed with exactly
    /// zero remaining (the drift clamp in `remove_flow`), and the ledger
    /// must come back to the sum of sizes within 1e-9.
    fn drain_and_conserve(n: usize, sites: usize) {
        let mut sim = FlowSim::new(vec![1.0; sites], vec![1.0; sites]);
        let mut expected = 0.0;
        for i in 0..n {
            let src = i % sites;
            let dst = (i + 1 + i / sites) % sites;
            let gb = 0.1 + (i % 7) as f64 * 0.05;
            if src != dst {
                expected += gb;
            }
            sim.add_flow(SiteId(src), SiteId(dst), gb);
        }
        let mut done = 0;
        while let Some((k, t)) = sim.next_completion() {
            sim.advance_to(t);
            let rem = sim.remove_flow(k);
            assert_eq!(rem, 0.0, "completed flow removed with {rem} GB left");
            done += 1;
        }
        assert_eq!(done, n);
        assert!(
            (sim.total_wan_gb() - expected).abs() < 1e-9,
            "ledger {} vs expected {expected}",
            sim.total_wan_gb()
        );
    }

    #[test]
    fn many_flows_scale_and_conserve_bytes() {
        // A stress shape: 200 flows across 4 sites; drain to completion and
        // verify every flow finishes with total WAN equal to the bytes sent.
        drain_and_conserve(200, 4);
    }

    #[test]
    fn ten_thousand_flows_conserve_bytes_exactly() {
        // Drift accumulates with the number of rate recomputations, so the
        // 200-flow shape alone would not catch a leaky remainder refund.
        drain_and_conserve(10_000, 8);
    }

    #[test]
    fn obs_records_wan_pairs_and_link_samples() {
        let obs = Obs::recording(vec![1, 1]);
        let mut sim = FlowSim::new(vec![1.0, 1.0], vec![1.0, 1.0]);
        sim.set_obs(obs.clone());
        let k = sim.add_flow(SiteId(0), SiteId(1), 10.0);
        sim.advance_to(2.0);
        sim.remove_flow(k); // Cancelled: 8 GB refunded.
        sim.next_completion(); // Flush the sample owed for the removal.
        let r = obs.finish().unwrap();
        assert!((r.wan_pair(SiteId(0), SiteId(1)) - 2.0).abs() < 1e-9);
        assert!((r.total_wan_gb() - sim.total_wan_gb()).abs() < 1e-12);
        // One sample at add (t=0), one at remove (t=2).
        assert_eq!(r.link_timeline.len(), 2);
        assert!((r.link_timeline[0].up[0] - 1.0).abs() < 1e-12);
        assert_eq!(r.link_timeline[1].up[0], 0.0);
    }
}
