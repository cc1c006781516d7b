//! Max-min fair rate allocation by progressive filling.
//!
//! [`waterfill_groups`] fills from scratch and is the reference. The
//! persistent [`Waterfiller`] behind the flow simulator owns the group
//! table and link membership, which callers update one group change at a
//! time; it records each fill and replays it from the first step a
//! mutation can alter. Its docs give the argmin and divergence argument
//! that keeps the replay bit-identical to the reference.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tetrium_cluster::SiteId;

/// A wide-area flow between two sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Sending site (constrains the uplink).
    pub src: SiteId,
    /// Receiving site (constrains the downlink).
    pub dst: SiteId,
}

impl FlowSpec {
    /// Whether the flow stays within one site and therefore uses no WAN
    /// capacity.
    pub fn is_local(&self) -> bool {
        self.src == self.dst
    }
}

/// Computes the max-min fair rate (GB/s) of each flow by progressive filling.
///
/// All flows start at rate zero and grow at the same pace; when a link
/// (site uplink or downlink) saturates, every flow crossing it is frozen at
/// the current level, and the remaining flows keep growing. The result is
/// the unique max-min fair allocation: no link is over capacity and every
/// flow is bottlenecked at some saturated link.
///
/// Local flows (`src == dst`) cross no WAN link and are reported as
/// `f64::INFINITY`; the caller decides how to treat intra-site copies
/// (the engine completes them immediately, as reading local data does not
/// use the WAN in the paper's model).
///
/// # Panics
///
/// Panics if a site index is out of range of the capacity vectors or a
/// capacity is non-positive.
pub fn max_min_rates(flows: &[FlowSpec], up_gbps: &[f64], down_gbps: &[f64]) -> Vec<f64> {
    assert!(up_gbps.iter().all(|&c| c > 0.0));
    assert!(down_gbps.iter().all(|&c| c > 0.0));
    let n_sites = up_gbps.len();
    assert_eq!(down_gbps.len(), n_sites);

    // Flows with the same (src, dst) receive identical max-min rates, so
    // the filling runs over *groups*; with `n` sites there are at most `n^2`
    // groups regardless of flow count.
    let mut rates = vec![0.0f64; flows.len()];
    let mut group_of = vec![usize::MAX; flows.len()];
    let mut groups: Vec<GroupSpec> = Vec::new();
    let mut index: std::collections::BTreeMap<(usize, usize), usize> =
        std::collections::BTreeMap::new();
    for (i, f) in flows.iter().enumerate() {
        assert!(f.src.index() < n_sites && f.dst.index() < n_sites);
        if f.is_local() {
            // Local flows never contend for WAN links.
            rates[i] = f64::INFINITY;
            continue;
        }
        let g = *index
            .entry((f.src.index(), f.dst.index()))
            .or_insert_with(|| {
                groups.push(GroupSpec {
                    src: f.src.index(),
                    dst: f.dst.index(),
                    count: 0,
                });
                groups.len() - 1
            });
        groups[g].count += 1;
        group_of[i] = g;
    }
    let group_rates = waterfill_groups(&groups, up_gbps, down_gbps);
    for (i, &g) in group_of.iter().enumerate() {
        if g != usize::MAX {
            rates[i] = group_rates[g];
        }
    }
    rates
}

/// A bundle of identical flows between one `(src, dst)` site pair.
#[derive(Debug, Clone, Copy)]
pub struct GroupSpec {
    /// Sending site index.
    pub src: usize,
    /// Receiving site index.
    pub dst: usize,
    /// Number of flows in the bundle (zero-count groups get rate 0).
    pub count: usize,
}

/// Max-min fair per-flow rate of each group, by progressive filling with a
/// lazily re-validated link heap.
///
/// Stateless convenience wrapper over [`Waterfiller`]: group `g` of the
/// slice becomes group id `g` of a fresh waterfiller. Hot callers (the flow
/// simulator) hold a persistent [`Waterfiller`] instead and push each group
/// change into it.
pub fn waterfill_groups(groups: &[GroupSpec], up_gbps: &[f64], down_gbps: &[f64]) -> Vec<f64> {
    let n = up_gbps.len();
    assert_eq!(down_gbps.len(), n);
    let mut wf = Waterfiller::new(n);
    for (g, spec) in groups.iter().enumerate() {
        if spec.count > 0 {
            wf.set_group(g, spec.src, spec.dst, spec.count);
        }
    }
    wf.refill(up_gbps, down_gbps);
    let mut rates = vec![0.0f64; groups.len()];
    for &(g, r) in wf.refilled() {
        if let Some(rate) = rates.get_mut(g) {
            *rate = r;
        }
    }
    rates
}

/// Orders non-negative f64 levels as u64 keys.
#[inline]
fn key(level: f64) -> u64 {
    level.max(0.0).to_bits()
}

/// Packs a `(level key, link)` pair into one word that orders like the
/// tuple: the argmin order of the fill.
#[inline]
fn pack(k: u64, link: usize) -> u128 {
    (u128::from(k) << 64) | link as u128
}

/// The link half of a [`pack`]ed order.
#[inline]
fn link_of(packed: u128) -> usize {
    packed as u64 as usize
}

/// The key half of a [`pack`]ed order.
#[inline]
fn key_of(packed: u128) -> u64 {
    (packed >> 64) as u64
}

/// Fill state of one link (site uplink or downlink).
#[derive(Debug, Clone, Copy, Default)]
struct LinkFill {
    /// Remaining capacity.
    rem: f64,
    /// Flows of unfrozen groups crossing the link. Zero once the link has
    /// saturated, so it doubles as the "already selected" marker.
    act: u32,
    /// Key of the most recent heap push for this link (see the fill loop).
    best_key: u64,
}

impl LinkFill {
    /// The per-flow level at which the link saturates from here.
    #[inline]
    fn level(&self) -> f64 {
        self.rem.max(0.0) / f64::from(self.act)
    }

    /// Freezes `count` flows at `level`: the link loses their flows and the
    /// capacity they take. The heap gets a fresh entry only when the new
    /// saturation key lands below the last pushed one.
    #[inline]
    fn freeze(
        &mut self,
        level: f64,
        count: u32,
        link: usize,
        heap: &mut BinaryHeap<Reverse<u128>>,
    ) {
        self.act -= count;
        self.rem = (self.rem - level * f64::from(count)).max(0.0);
        if self.act > 0 {
            let nk = key(self.level());
            if nk < self.best_key {
                self.best_key = nk;
                heap.push(Reverse(pack(nk, link)));
            }
        }
    }
}

/// One saturation step of the recorded fill.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// [`pack`]ed `(key(level), link)` of the selected link.
    order: u128,
    /// Per-flow rate of every group frozen at this step.
    level: f64,
    /// The selected link's active count before the step.
    act: u32,
    /// First entry of the step in the undo log.
    undo_start: usize,
}

/// Undo record of one freeze: the state of the frozen group's other link
/// just before the freeze lowered it.
#[derive(Debug, Clone, Copy)]
struct Undo {
    link: u32,
    /// Flows in the frozen group.
    count: u32,
    act: u32,
    rem: f64,
}

/// Cumulative work counters of a [`Waterfiller`]. Plain counts: they cost
/// one add per refill and never feed back into a rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaterfillStats {
    /// Refills that had a dirty link to act on.
    pub refills: u64,
    /// Saturation steps kept from the previous fill instead of recomputed.
    pub steps_reused: u64,
    /// Groups frozen again: the lengths of every refill's
    /// [`Waterfiller::refilled`] list, summed.
    pub groups_refrozen: u64,
}

/// Persistent progressive-filling state that replays the previous fill.
///
/// # The fill is an argmin sequence
///
/// Progressive filling repeatedly selects the active link (one with
/// unfrozen flows) that saturates at the lowest per-flow level, freezes
/// every unfrozen group crossing it at that level, and lowers the other
/// link of each frozen group. The saturation heap implements exactly the
/// argmin over active links of `(key(rem / act), link index)`: every
/// active link keeps a heap entry at or below its current key (see the
/// fill loop), so the first entry that validates is the strict minimum.
/// The fill is therefore a pure function of the live groups (in ascending
/// id order) and the capacities, and each step depends only on the state of
/// the links.
///
/// # Replay from the first step a mutation can alter
///
/// Every refill records its steps (selected link, level key, level) and an
/// undo log holding, per freeze, the other link's state before the freeze.
/// A mutation — a group's count changing, a group appearing or vanishing
/// ([`set_group`]), a capacity change ([`mark_site_dirty`]) — marks the
/// links it touches *dirty*. Non-dirty links keep their capacity and their
/// member groups with the same counts, so step `j` of the previous fill
/// recurs unchanged exactly when
///
/// - its selected link is not dirty, and
/// - no dirty link's new key sorts before `(key_j, link_j)`.
///
/// Inductively, the prefix before the first failing step freezes the same
/// groups at the same levels, and every non-dirty link passes through the
/// same states. A group frozen in the prefix has a non-dirty selected link,
/// so its count did not change, and it keeps the rate the caller already
/// stores. A dirty link's new key comes from its new capacity and active
/// count, replayed through its own freezes in the prefix. [`refill`]
/// finds that first step, rewinds only the suffix through the undo log,
/// and resumes progressive filling from there. The result is bit for bit
/// the rates a from-scratch fill produces, because the arithmetic of every
/// step is the same.
///
/// Undo entries of a dirty link inside the kept prefix hold that link's
/// *old* values. The scan that finds the first altered step rewrites them
/// with the new ones, so a later refill that rewinds past them restores
/// the current state and not a stale one.
///
/// # Sparsity
///
/// Construction allocates only the per-link arrays (`2 × n_sites`
/// entries). Per-group state is keyed by the caller's group id: one table
/// entry per id up to the largest one set, so ids should be dense (the
/// flow simulator numbers its pair groups in creation order), and one
/// link-list entry per live group on each of its two links. The link
/// member lists persist across refills and change only when a group
/// appears or empties, by a sorted insert or remove. The recorded fill is
/// O(links) steps and O(live groups) undo entries. A refill costs the
/// divergence scan over the kept prefix's undo entries plus the suffix it
/// refills; it never walks the live groups.
///
/// [`refill`]: Waterfiller::refill
/// [`set_group`]: Waterfiller::set_group
/// [`mark_site_dirty`]: Waterfiller::mark_site_dirty
#[derive(Debug)]
pub struct Waterfiller {
    n_sites: usize,
    /// Per-link fill state (0..n uplinks, n..2n downlinks). Between refills
    /// it holds the final state of the recorded fill.
    links: Vec<LinkFill>,
    /// Per-link ids of the live groups crossing it, ascending: the order in
    /// which the fill freezes them and logs their undo entries. Kept across
    /// refills by [`Waterfiller::set_group`].
    link_groups: Vec<Vec<u32>>,
    /// Links with a non-empty `link_groups` entry, in no particular order.
    live_links: Vec<u32>,
    /// `(uplink, downlink, count)` per group id; count 0 means not live.
    groups: Vec<(u32, u32, u32)>,
    /// Saturation heap of [`pack`]ed `(level key, link)` entries, min-first.
    heap: BinaryHeap<Reverse<u128>>,
    /// The recorded fill: one entry per saturation step.
    steps: Vec<Step>,
    /// Undo log of the recorded fill, in freeze order.
    undo: Vec<Undo>,
    /// Links marked dirty by mutations since the last refill.
    dirty_links: Vec<usize>,
    dirty_mask: Vec<bool>,
    all_dirty: bool,
    /// `(group, new rate)` pairs produced by the last refill.
    refilled: Vec<(usize, f64)>,
    stats: WaterfillStats,
}

impl Waterfiller {
    /// Creates a waterfiller over `n_sites` sites (2 × `n_sites` links).
    /// The first refill is a full fill.
    pub fn new(n_sites: usize) -> Self {
        let links = 2 * n_sites;
        Self {
            n_sites,
            links: vec![LinkFill::default(); links],
            link_groups: vec![Vec::new(); links],
            live_links: Vec::new(),
            groups: Vec::new(),
            heap: BinaryHeap::new(),
            steps: Vec::new(),
            undo: Vec::new(),
            dirty_links: Vec::new(),
            dirty_mask: vec![false; links],
            all_dirty: true,
            refilled: Vec::new(),
            stats: WaterfillStats::default(),
        }
    }

    /// Sets group `g` to carry `count` flows from site `src` to site `dst`
    /// and marks the pair's uplink and downlink dirty. Count 0 takes the
    /// group out of the fill. A group enters or leaves its links' member
    /// lists only when it appears or empties, so a count change on a live
    /// group costs two dirty marks.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (local flows cross no link), a site is out of
    /// range, or a live group is given another pair.
    pub fn set_group(&mut self, g: usize, src: usize, dst: usize, count: usize) {
        let n = self.n_sites;
        assert!(src != dst, "local flows cannot be grouped");
        assert!(src < n && dst < n);
        let (up, down) = (src as u32, (n + dst) as u32);
        if self.groups.len() <= g {
            self.groups.resize(g + 1, (0, 0, 0));
        }
        let Some(rec) = self.groups.get_mut(g) else {
            return;
        };
        let (old_up, old_down, old_count) = std::mem::replace(rec, (up, down, count as u32));
        assert!(
            old_count == 0 || (old_up, old_down) == (up, down),
            "a live group keeps its site pair"
        );
        let id = g as u32;
        if old_count > 0 && count == 0 {
            self.leave_link(id, up);
            self.leave_link(id, down);
        } else if old_count == 0 && count > 0 {
            self.join_link(id, up);
            self.join_link(id, down);
        }
        self.mark_dirty(up as usize);
        self.mark_dirty(down as usize);
    }

    /// Inserts group `g` into link `l`'s member list, keeping it ascending.
    fn join_link(&mut self, g: u32, l: u32) {
        let Some(members) = self.link_groups.get_mut(l as usize) else {
            return;
        };
        if members.is_empty() {
            self.live_links.push(l);
        }
        let pos = members.partition_point(|&m| m < g);
        members.insert(pos, g);
    }

    /// Removes group `g` from link `l`'s member list.
    fn leave_link(&mut self, g: u32, l: u32) {
        let Some(members) = self.link_groups.get_mut(l as usize) else {
            return;
        };
        if let Ok(pos) = members.binary_search(&g) {
            members.remove(pos);
        }
        if members.is_empty() {
            if let Some(pos) = self.live_links.iter().position(|&x| x == l) {
                self.live_links.swap_remove(pos);
            }
        }
    }

    /// Marks one site's uplink (`link < n_sites`) or downlink
    /// (`n_sites + site`) dirty: its capacity changed since the last
    /// [`refill`].
    ///
    /// [`refill`]: Waterfiller::refill
    #[inline]
    pub fn mark_dirty(&mut self, link: usize) {
        if self.all_dirty {
            return;
        }
        if let Some(m) = self.dirty_mask.get_mut(link) {
            if !*m {
                *m = true;
                self.dirty_links.push(link);
            }
        }
    }

    /// Marks both links of `site` dirty: its capacities changed.
    #[inline]
    pub fn mark_site_dirty(&mut self, site: usize) {
        self.mark_dirty(site);
        self.mark_dirty(self.n_sites + site);
    }

    /// Marks everything dirty: the next [`refill`] discards the recorded
    /// fill and fills every live group from scratch.
    ///
    /// [`refill`]: Waterfiller::refill
    pub fn mark_all_dirty(&mut self) {
        self.all_dirty = true;
        self.clear_dirty_links();
    }

    /// Whether any link is marked dirty.
    pub fn is_dirty(&self) -> bool {
        self.all_dirty || !self.dirty_links.is_empty()
    }

    /// Cumulative work counters since construction.
    pub fn stats(&self) -> WaterfillStats {
        self.stats
    }

    fn clear_dirty_links(&mut self) {
        for l in self.dirty_links.drain(..) {
            if let Some(m) = self.dirty_mask.get_mut(l) {
                *m = false;
            }
        }
    }

    /// Recomputes the rates of every live group whose freeze step lies at
    /// or after the first step of the previous fill that a dirty link can
    /// alter, and clears the dirty set. The results are exposed via
    /// [`Waterfiller::refilled`]; every other live group keeps, bit for bit,
    /// the rate the caller stored for it from an earlier refill.
    pub fn refill(&mut self, up_gbps: &[f64], down_gbps: &[f64]) {
        let n = self.n_sites;
        assert_eq!(up_gbps.len(), n);
        assert_eq!(down_gbps.len(), n);
        self.refilled.clear();
        if !self.is_dirty() {
            return;
        }
        let keep = if self.all_dirty {
            self.steps.clear();
            self.undo.clear();
            for i in 0..self.live_links.len() {
                if let Some(&l) = self.live_links.get(i) {
                    self.reset_link(l as usize, up_gbps, down_gbps);
                }
            }
            0
        } else {
            let keep = self.divergence(up_gbps, down_gbps);
            self.rewind(keep);
            keep
        };
        self.fill();
        self.stats.refills += 1;
        self.stats.steps_reused += keep as u64;
        self.stats.groups_refrozen += self.refilled.len() as u64;
        self.all_dirty = false;
        self.clear_dirty_links();
    }

    /// Puts link `l` in its initial state: full capacity, every member
    /// group's flows active.
    fn reset_link(&mut self, l: usize, up_gbps: &[f64], down_gbps: &[f64]) {
        let n = self.n_sites;
        let cap = if l < n {
            up_gbps.get(l)
        } else {
            down_gbps.get(l - n)
        };
        let act = self.link_groups.get(l).map_or(0, |members| {
            members
                .iter()
                .filter_map(|&g| self.groups.get(g as usize))
                .map(|&(_, _, count)| count)
                .sum()
        });
        if let Some(lf) = self.links.get_mut(l) {
            lf.rem = cap.copied().unwrap_or(0.0);
            lf.act = act;
        }
    }

    /// Length of the prefix of the recorded fill that the pending mutations
    /// cannot alter (the divergence rule in the type docs). Leaves every
    /// dirty link in its state at the end of that prefix, with its undo
    /// entries inside the prefix rewritten to the new values.
    fn divergence(&mut self, up_gbps: &[f64], down_gbps: &[f64]) -> usize {
        for i in 0..self.dirty_links.len() {
            if let Some(&d) = self.dirty_links.get(i) {
                self.reset_link(d, up_gbps, down_gbps);
            }
        }
        let Waterfiller {
            links,
            heap,
            steps,
            undo,
            dirty_links,
            dirty_mask,
            ..
        } = self;
        let dirty = |l: usize| dirty_mask.get(l).copied().unwrap_or(false);
        // A lazy min-heap over the dirty links' current orders, kept with
        // the fill loop's at-or-below invariant: its first entry that
        // validates is the dirty argmin.
        heap.clear();
        for &d in dirty_links.iter() {
            if let Some(lf) = links.get_mut(d) {
                if lf.act > 0 {
                    lf.best_key = key(lf.level());
                    heap.push(Reverse(pack(lf.best_key, d)));
                }
            }
        }
        for j in 0..steps.len() {
            let Some(&step) = steps.get(j) else { break };
            if dirty(link_of(step.order)) {
                return j;
            }
            while let Some(&Reverse(top)) = heap.peek() {
                if top >= step.order {
                    break;
                }
                let d = link_of(top);
                let Some(lf) = links.get_mut(d) else {
                    heap.pop();
                    continue;
                };
                if lf.act == 0 {
                    heap.pop();
                    continue;
                }
                let k = key(lf.level());
                if k > key_of(top) {
                    heap.pop();
                    lf.best_key = k;
                    heap.push(Reverse(pack(k, d)));
                    continue;
                }
                // A dirty link now saturates before step `j`'s link.
                return j;
            }
            // Step `j` recurs: replay its freezes onto the dirty links.
            let end = steps.get(j + 1).map_or(undo.len(), |s| s.undo_start);
            for e in undo.get_mut(step.undo_start..end).into_iter().flatten() {
                let l = e.link as usize;
                if !dirty(l) {
                    continue;
                }
                let Some(lf) = links.get_mut(l) else { continue };
                e.act = lf.act;
                e.rem = lf.rem;
                lf.freeze(step.level, e.count, l, heap);
            }
        }
        steps.len()
    }

    /// Rewinds the recorded fill to its first `keep` steps. Dirty links are
    /// skipped: [`Waterfiller::divergence`] already put them in their state
    /// at the cut.
    fn rewind(&mut self, keep: usize) {
        let Waterfiller {
            links,
            steps,
            undo,
            dirty_mask,
            ..
        } = self;
        let dirty = |l: usize| dirty_mask.get(l).copied().unwrap_or(false);
        while steps.len() > keep {
            let Some(step) = steps.pop() else { break };
            let l = link_of(step.order);
            if !dirty(l) {
                if let Some(lf) = links.get_mut(l) {
                    lf.act = step.act;
                }
            }
            for e in undo.get(step.undo_start..).into_iter().flatten().rev() {
                let l = e.link as usize;
                if dirty(l) {
                    continue;
                }
                if let Some(lf) = links.get_mut(l) {
                    lf.act = e.act;
                    lf.rem = e.rem;
                }
            }
            undo.truncate(step.undo_start);
        }
    }

    /// Progressive filling from the current link states, appending to the
    /// recorded fill. Each group freezes once, giving
    /// `O(groups + links·log links)` for a full fill.
    fn fill(&mut self) {
        let Waterfiller {
            links,
            link_groups,
            live_links,
            groups,
            heap,
            steps,
            undo,
            refilled,
            ..
        } = self;
        // Heapify in one O(links) pass; link keys are distinct, so the pop
        // order matches one-by-one pushes exactly.
        let mut buf = std::mem::take(heap).into_vec();
        buf.clear();
        for &l in live_links.iter() {
            let l = l as usize;
            if let Some(lf) = links.get_mut(l) {
                if lf.act > 0 {
                    lf.best_key = key(lf.level());
                    buf.push(Reverse(pack(lf.best_key, l)));
                }
            }
        }
        *heap = BinaryHeap::from(buf);
        // Every active link keeps an entry at or below its current key:
        // levels are monotone over the fill modulo float rounding, so a
        // stale entry is re-pushed with its recomputed key when it
        // surfaces, and only a *downward* rounding move (see
        // `LinkFill::freeze`) needs an eager push.
        while let Some(Reverse(packed)) = heap.pop() {
            let l = link_of(packed);
            let Some(lf) = links.get_mut(l) else { continue };
            if lf.act == 0 {
                continue;
            }
            let level = lf.level();
            if key(level) > key_of(packed) {
                lf.best_key = key(level);
                heap.push(Reverse(pack(lf.best_key, l)));
                continue;
            }
            steps.push(Step {
                order: packed,
                level,
                act: lf.act,
                undo_start: undo.len(),
            });
            lf.act = 0;
            // Freeze every unfrozen group crossing `l` at this level. A
            // group is already frozen exactly when its other link saturated
            // at an earlier step, which left that link's count at zero.
            let members = link_groups.get(l).map(Vec::as_slice).unwrap_or_default();
            for &g in members {
                let Some(&(up, down, count)) = groups.get(g as usize) else {
                    continue;
                };
                let other = if up as usize == l { down } else { up };
                let Some(o) = links.get_mut(other as usize) else {
                    continue;
                };
                if o.act == 0 {
                    continue;
                }
                undo.push(Undo {
                    link: other,
                    count,
                    act: o.act,
                    rem: o.rem,
                });
                o.freeze(level, count, other as usize, heap);
                refilled.push((g as usize, level));
            }
        }
    }

    /// The `(group, per-flow rate)` results of the last [`refill`]: exactly
    /// the groups frozen at or after the first step a dirty link altered,
    /// each once.
    ///
    /// [`refill`]: Waterfiller::refill
    pub fn refilled(&self) -> &[(usize, f64)] {
        &self.refilled
    }
}

#[cfg(feature = "audit")]
impl Waterfiller {
    /// Audit-mode check (feature `audit`): the group table and the per-link
    /// member lists equal the from-scratch membership of `live`, the
    /// caller's `(group, src, dst, count)` for every live group in
    /// ascending id. Panics with context on any difference.
    pub(crate) fn audit_membership(&self, ctx: &str, live: &[(usize, usize, usize, usize)]) {
        let n = self.n_sites;
        let mut want_groups = vec![0u32; self.groups.len()];
        let mut want_links: Vec<Vec<u32>> = vec![Vec::new(); 2 * n];
        for &(g, src, dst, count) in live {
            let rec = self.groups.get(g).copied();
            assert!(
                rec == Some((src as u32, (n + dst) as u32, count as u32)),
                "audit[{ctx}]: waterfiller group {g} is {rec:?}, caller has \
                 {src}->{dst} with {count} flows"
            );
            want_groups[g] = count as u32;
            want_links[src].push(g as u32);
            want_links[n + dst].push(g as u32);
        }
        for (g, &(_, _, count)) in self.groups.iter().enumerate() {
            assert!(
                count == want_groups[g],
                "audit[{ctx}]: waterfiller group {g} has count {count}, caller {}",
                want_groups[g]
            );
        }
        for (l, want) in want_links.iter().enumerate() {
            assert!(
                self.link_groups[l] == *want,
                "audit[{ctx}]: link {l} members {:?} != from-scratch {want:?}",
                self.link_groups[l]
            );
        }
        let mut live_links = self.live_links.clone();
        live_links.sort_unstable();
        let want_live: Vec<u32> = (0..2 * n as u32)
            .filter(|&l| !want_links[l as usize].is_empty())
            .collect();
        assert!(
            live_links == want_live,
            "audit[{ctx}]: live links {live_links:?} != non-empty member lists {want_live:?}"
        );
    }
}

#[cfg(test)]
impl Waterfiller {
    /// The ids of the live groups crossing `link`, in fill order.
    pub(crate) fn members(&self, link: usize) -> &[u32] {
        &self.link_groups[link]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(s: usize, d: usize) -> FlowSpec {
        FlowSpec {
            src: SiteId(s),
            dst: SiteId(d),
        }
    }

    #[test]
    fn single_flow_gets_bottleneck_bandwidth() {
        let rates = max_min_rates(&[f(0, 1)], &[10.0, 10.0], &[10.0, 2.0]);
        assert!((rates[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        // Both flows leave site 0 (uplink 4); receivers are unconstrained.
        let rates = max_min_rates(&[f(0, 1), f(0, 2)], &[4.0, 9.0, 9.0], &[9.0; 3]);
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn freed_capacity_goes_to_unbottlenecked_flow() {
        // Flow A: 0->1 constrained by dst downlink 1. Flow B: 0->2 can then
        // use the rest of src uplink 4 => 3.
        let rates = max_min_rates(&[f(0, 1), f(0, 2)], &[4.0, 9.0, 9.0], &[9.0, 1.0, 9.0]);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn local_flows_are_infinite_and_do_not_contend() {
        let rates = max_min_rates(&[f(0, 0), f(0, 1)], &[2.0, 2.0], &[2.0, 2.0]);
        assert!(rates[0].is_infinite());
        assert!((rates[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn no_link_oversubscribed_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.gen_range(2..6);
            let up: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..8.0)).collect();
            let down: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..8.0)).collect();
            let flows: Vec<FlowSpec> = (0..rng.gen_range(1..20))
                .map(|_| f(rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let rates = max_min_rates(&flows, &up, &down);
            let mut upload = vec![0.0; n];
            let mut download = vec![0.0; n];
            for (i, fl) in flows.iter().enumerate() {
                if !fl.is_local() {
                    upload[fl.src.index()] += rates[i];
                    download[fl.dst.index()] += rates[i];
                }
            }
            for s in 0..n {
                assert!(upload[s] <= up[s] + 1e-6, "uplink {s} oversubscribed");
                assert!(download[s] <= down[s] + 1e-6, "downlink {s} oversubscribed");
            }
            // Every non-local flow is bottlenecked: its rate cannot be raised
            // without violating some link, i.e. it crosses a saturated link.
            for (i, fl) in flows.iter().enumerate() {
                if fl.is_local() {
                    continue;
                }
                let up_sat = upload[fl.src.index()] >= up[fl.src.index()] - 1e-6;
                let down_sat = download[fl.dst.index()] >= down[fl.dst.index()] - 1e-6;
                assert!(up_sat || down_sat, "flow {i} not bottlenecked");
            }
        }
    }

    /// Replayed refills must reproduce the full fill bit for bit through a
    /// deterministic churn sequence: bursts of several pair mutations and a
    /// capacity change (to zero and back included) before one refill,
    /// groups dying and reviving, and `mark_all_dirty` mid-stream.
    #[test]
    fn incremental_refill_matches_full_fill_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 6;
        let mut up: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..8.0)).collect();
        let mut down: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..8.0)).collect();
        // One group per ordered pair; counts mutate over time.
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
            .collect();
        let mut counts = vec![0usize; pairs.len()];
        let mut rates = vec![0.0f64; pairs.len()];
        let mut wf = Waterfiller::new(n);
        let mut zeroed: Option<(usize, f64, f64)> = None;
        for step in 0..600 {
            for _ in 0..rng.gen_range(1..5) {
                let g = rng.gen_range(0..pairs.len());
                if counts[g] > 0 && rng.gen_bool(0.4) {
                    // Sometimes the whole group dies at once.
                    counts[g] = if rng.gen_bool(0.3) { 0 } else { counts[g] - 1 };
                } else {
                    counts[g] += rng.gen_range(1..4usize);
                }
                let (s, d) = pairs[g];
                wf.set_group(g, s, d, counts[g]);
            }
            if rng.gen_bool(0.3) {
                // A site's links go to zero and come back a few steps later.
                let s = match zeroed.take() {
                    Some((s, u, d)) => {
                        up[s] = u;
                        down[s] = d;
                        s
                    }
                    None => {
                        let s = rng.gen_range(0..n);
                        if rng.gen_bool(0.5) {
                            zeroed = Some((s, up[s], down[s]));
                            up[s] = 0.0;
                            down[s] = 0.0;
                        } else {
                            up[s] = rng.gen_range(0.5..8.0);
                            down[s] = rng.gen_range(0.5..8.0);
                        }
                        s
                    }
                };
                wf.mark_site_dirty(s);
            }
            if step % 97 == 50 {
                wf.mark_all_dirty();
            }
            wf.refill(&up, &down);
            for &(g, r) in wf.refilled() {
                rates[g] = r;
            }
            let specs: Vec<GroupSpec> = pairs
                .iter()
                .zip(&counts)
                .map(|(&(src, dst), &count)| GroupSpec { src, dst, count })
                .collect();
            let want = waterfill_groups(&specs, &up, &down);
            for g in (0..pairs.len()).filter(|&g| counts[g] > 0) {
                assert!(
                    rates[g].to_bits() == want[g].to_bits(),
                    "step {step}: group {g} incremental {} != full {}",
                    rates[g],
                    want[g]
                );
            }
        }
        let stats = wf.stats();
        assert!(stats.steps_reused > 0, "no refill reused a step: {stats:?}");
    }

    /// Three groups into one wide downlink, each bottlenecked on its own
    /// uplink: the fill saturates uplinks 0, 1, 2 at levels 1, 2, 3.
    fn three_uplink_fill() -> (Waterfiller, Vec<f64>, Vec<f64>) {
        let up = vec![1.0, 2.0, 3.0, 9.0];
        let down = vec![9.0, 9.0, 9.0, 100.0];
        let mut wf = Waterfiller::new(4);
        for g in 0..3 {
            wf.set_group(g, g, 3, 1);
        }
        wf.refill(&up, &down);
        assert_eq!(wf.refilled(), &[(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(wf.steps.len(), 3);
        (wf, up, down)
    }

    /// Refills `wf` after the caller's mutations and checks the result
    /// against a from-scratch fill of groups `g -> 3` carrying `counts[g]`
    /// flows; returns the steps the refill kept.
    fn replay_and_check(wf: &mut Waterfiller, counts: &[usize], up: &[f64], down: &[f64]) -> u64 {
        let before = wf.stats();
        wf.refill(up, down);
        let specs: Vec<GroupSpec> = (0..3)
            .map(|g| GroupSpec {
                src: g,
                dst: 3,
                count: counts[g],
            })
            .collect();
        let want = waterfill_groups(&specs, up, down);
        for &(g, r) in wf.refilled() {
            assert_eq!(r.to_bits(), want[g].to_bits(), "group {g}");
        }
        let after = wf.stats();
        assert_eq!(after.refills, before.refills + 1);
        assert_eq!(
            after.groups_refrozen - before.groups_refrozen,
            wf.refilled().len() as u64
        );
        after.steps_reused - before.steps_reused
    }

    #[test]
    fn divergence_at_step_zero() {
        // Zeroing uplink 2 makes it saturate first (level 0).
        let (mut wf, mut up, down) = three_uplink_fill();
        up[2] = 0.0;
        wf.mark_site_dirty(2);
        assert_eq!(replay_and_check(&mut wf, &[1, 1, 1], &up, &down), 0);
        assert_eq!(wf.refilled().len(), 3);
        // And back: the zeroed link's step moves back to the end.
        up[2] = 3.0;
        wf.mark_site_dirty(2);
        assert_eq!(replay_and_check(&mut wf, &[1, 1, 1], &up, &down), 0);
        assert_eq!(wf.refilled(), &[(0, 1.0), (1, 2.0), (2, 3.0)]);
    }

    #[test]
    fn divergence_mid_fill_refreezes_only_the_suffix() {
        // A mutation on the last-saturating link keeps the first two steps
        // and refreezes one group of three: no silent full fill.
        let (mut wf, mut up, down) = three_uplink_fill();
        up[2] = 4.0;
        wf.mark_site_dirty(2);
        assert_eq!(replay_and_check(&mut wf, &[1, 1, 1], &up, &down), 2);
        assert_eq!(wf.refilled(), &[(2, 4.0)]);
        // A second flow on group 1 halves its level to 1, tying uplink 0:
        // the tie breaks on the link index, so step 0 still recurs.
        wf.set_group(1, 1, 3, 2);
        assert_eq!(replay_and_check(&mut wf, &[1, 2, 1], &up, &down), 1);
        assert_eq!(wf.refilled(), &[(1, 1.0), (2, 4.0)]);
        // Group 1 dies and revives.
        wf.set_group(1, 1, 3, 0);
        assert_eq!(replay_and_check(&mut wf, &[1, 0, 1], &up, &down), 1);
        assert_eq!(wf.refilled(), &[(2, 4.0)]);
        wf.set_group(1, 1, 3, 1);
        assert_eq!(replay_and_check(&mut wf, &[1, 1, 1], &up, &down), 1);
        assert_eq!(wf.refilled(), &[(1, 2.0), (2, 4.0)]);
    }

    #[test]
    fn divergence_past_the_last_step_refreezes_nothing() {
        // The shared downlink never saturates; raising it alters no step,
        // though its replayed count reaches zero through all three.
        let (mut wf, up, mut down) = three_uplink_fill();
        down[3] = 200.0;
        wf.mark_dirty(4 + 3);
        assert_eq!(replay_and_check(&mut wf, &[1, 1, 1], &up, &down), 3);
        assert!(wf.refilled().is_empty());
        // A full refill after `mark_all_dirty` reuses nothing.
        wf.mark_all_dirty();
        assert_eq!(replay_and_check(&mut wf, &[1, 1, 1], &up, &down), 0);
        assert_eq!(wf.refilled().len(), 3);
    }

    /// The trap: a dirty link's undo entries inside the kept prefix hold
    /// its old values. A later refill that rewinds past them, with the link
    /// clean by then, must restore the state it had in the newer fill.
    #[test]
    fn rewinding_past_a_rewritten_prefix_restores_new_values() {
        // Groups 0->2 and 1->2 share downlink 2 (link 5). Uplink 0
        // saturates first, and its freeze lowers downlink 2 at step 0.
        let mut up = vec![1.0, 5.0, 9.0];
        let mut down = vec![9.0, 9.0, 4.0];
        let mut wf = Waterfiller::new(3);
        wf.set_group(0, 0, 2, 1);
        wf.set_group(1, 1, 2, 1);
        let mut rates = [0.0; 2];
        let mut check = |wf: &mut Waterfiller, up: &[f64], down: &[f64]| {
            wf.refill(up, down);
            for &(g, r) in wf.refilled() {
                rates[g] = r;
            }
            let groups = [0, 1].map(|src| GroupSpec {
                src,
                dst: 2,
                count: 1,
            });
            let want = waterfill_groups(&groups, up, down);
            assert_eq!(
                rates.map(f64::to_bits),
                [want[0].to_bits(), want[1].to_bits()]
            );
        };
        check(&mut wf, &up, &down);
        // Downlink 2 widens: step 0 is kept and its downlink-2 entry must
        // take the new capacity.
        down[2] = 6.0;
        wf.mark_dirty(3 + 2);
        check(&mut wf, &up, &down);
        assert_eq!(wf.stats().steps_reused, 1);
        // Uplink 0 changes: the refill rewinds through step 0, restoring
        // downlink 2 from that entry. A stale entry would hand group 1 the
        // rate 2.5 instead of 4.5.
        up[0] = 1.5;
        wf.mark_site_dirty(0);
        check(&mut wf, &up, &down);
        assert_eq!(rates, [1.5, 4.5]);
    }
}
