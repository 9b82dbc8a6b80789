//! The histogram keep-alive policy of Shahrad et al. (ATC '20), the
//! state-of-the-art baseline the paper reproduces as `HIST` (§7.1).
//!
//! Effectively a "TTL + prefetching" policy:
//!
//! - Per function, inter-arrival times (IATs) are recorded in minute-wide
//!   buckets up to four hours, and the coefficient of variation (CoV) is
//!   maintained with Welford's online algorithm.
//! - When a function's IAT is *predictable* (CoV ≤ 2), a custom window is
//!   used: the container may be released right after an invocation, a
//!   **pre-warm** is scheduled just before the head-percentile IAT, and the
//!   container is kept until the tail-percentile IAT (plus a margin).
//! - Otherwise a generic TTL of two hours applies.
//!
//! Like the paper, we omit the ARIMA path for out-of-window IATs (it covered
//! ~0.56 % of invocations); such IATs land in the histogram's overflow
//! bucket and push the function toward the unpredictable/generic-TTL path.

use crate::container::{Container, ContainerId};
use crate::fn_table::FnTable;
use crate::function::{FunctionId, FunctionSpec};
use crate::policy::index::{Probe, Seat, VictimHeap};
use crate::policy::{take_until_freed, KeepAlivePolicy};
use faascache_util::idmap::IdMap;
use faascache_util::stats::{Histogram, Welford};
use faascache_util::{MemMb, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Tunables of the HIST policy, with the defaults from Shahrad et al. as
/// reproduced by the FaasCache paper.
#[derive(Debug, Clone)]
pub struct HistConfig {
    /// IAT histogram bucket width (paper: one minute).
    pub bucket_width: SimDuration,
    /// Number of in-range buckets (paper: 240 ⇒ four hours).
    pub num_buckets: usize,
    /// CoV at or below which a function counts as predictable (paper: 2).
    pub cov_threshold: f64,
    /// Keep-alive for unpredictable functions (paper: two hours).
    pub generic_ttl: SimDuration,
    /// Head percentile for the pre-warm point.
    pub head_quantile: f64,
    /// Tail percentile for the keep-alive horizon.
    pub tail_quantile: f64,
    /// Safety margin added before the pre-warm and after the keep-alive.
    pub margin: SimDuration,
    /// Minimum IAT samples before the histogram is trusted.
    pub min_samples: u64,
}

impl Default for HistConfig {
    fn default() -> Self {
        HistConfig {
            bucket_width: SimDuration::from_mins(1),
            num_buckets: 240,
            cov_threshold: 2.0,
            generic_ttl: SimDuration::from_mins(120),
            head_quantile: 0.05,
            tail_quantile: 0.99,
            margin: SimDuration::from_mins(1),
            min_samples: 2,
        }
    }
}

/// Per-function IAT statistics, plus what the keys of the function's idle
/// containers are derived from. The derived fields change only where the
/// histogram does — in `on_request` — so they are computed there once
/// instead of per idle container per request.
#[derive(Debug)]
struct FnHist {
    hist: Histogram,
    welford: Welford,
    last_invocation: Option<SimTime>,
    pending_prewarm: Option<SimTime>,
    /// Enough samples, CoV at or below the threshold, and less than half
    /// of the IATs beyond the histogram's range.
    predictable: bool,
    /// Head-percentile IAT (pre-warm point); read only if predictable.
    head_window: SimDuration,
    /// Tail-percentile IAT (keep-alive horizon); read only if predictable.
    tail_window: SimDuration,
    /// Mean IAT (predicted gap to the next use); read only if predictable.
    mean_iat: SimDuration,
}

impl FnHist {
    fn new(cfg: &HistConfig) -> Self {
        let mut f = FnHist {
            hist: Histogram::new(cfg.bucket_width.as_mins_f64(), cfg.num_buckets),
            welford: Welford::new(),
            last_invocation: None,
            pending_prewarm: None,
            predictable: false,
            head_window: SimDuration::ZERO,
            tail_window: SimDuration::ZERO,
            mean_iat: SimDuration::ZERO,
        };
        f.refresh_derived(cfg);
        f
    }

    /// Recomputes the derived fields after the histogram changed. The
    /// windows cost a scan of the histogram, so an unpredictable function
    /// (nobody reads them) skips it, and a predictable one reads head and
    /// tail off the same scan.
    fn refresh_derived(&mut self, cfg: &HistConfig) {
        self.predictable = self.welford.count() >= cfg.min_samples
            && self.welford.coefficient_of_variation() <= cfg.cov_threshold
            && self.hist.overflow_fraction() < 0.5;
        if self.predictable {
            let (head, tail) = self
                .hist
                .percentile_bucket_pair(cfg.head_quantile, cfg.tail_quantile);
            self.head_window = self.window_of(head);
            self.tail_window = self.window_of(tail);
            self.mean_iat = SimDuration::from_secs_f64(self.welford.mean() * 60.0);
        }
    }

    /// The IAT a histogram bucket stands for.
    fn window_of(&self, bucket: usize) -> SimDuration {
        SimDuration::from_secs_f64(self.hist.bucket_value(bucket) * 60.0)
    }

    /// When a container of this function last used at `last_used` should
    /// be expired.
    fn deadline_at(&self, cfg: &HistConfig, last_used: SimTime) -> SimTime {
        let last = self.last_invocation.unwrap_or(last_used);
        if !self.predictable {
            return last.max(last_used) + cfg.generic_ttl;
        }
        // If a pre-warm is scheduled, the container can be released right
        // away ("the function's historical/customized preload and TTL time
        // are used"): it will be re-created just in time for the predicted
        // invocation.
        if self.pending_prewarm.is_some() && last_used <= last {
            return last + cfg.margin;
        }
        last + self.tail_window + cfg.margin
    }

    /// Predicted next invocation time for a container last used at
    /// `last_used`, used to rank eviction victims.
    fn predicted_next_at(&self, cfg: &HistConfig, last_used: SimTime) -> SimTime {
        if self.predictable {
            self.last_invocation.unwrap_or(last_used) + self.mean_iat
        } else {
            last_used + cfg.generic_ttl
        }
    }
}

/// `(predicted next use, expiry deadline)` of a container last used at
/// `last_used`, given its function's statistics (`None`: never requested
/// here, e.g. a container adopted from another pool).
fn keys_at(cfg: &HistConfig, stats: Option<&FnHist>, last_used: SimTime) -> (SimTime, SimTime) {
    match stats {
        Some(f) => (
            f.predicted_next_at(cfg, last_used),
            f.deadline_at(cfg, last_used),
        ),
        None => (last_used + cfg.generic_ttl, last_used + cfg.generic_ttl),
    }
}

/// What the index keeps per container that has been idle at least once —
/// the policy's only table keyed by [`ContainerId`]: the live keys of the
/// two orders (as of the last release or re-key) and its seat in each.
#[derive(Debug, Clone, Copy)]
struct Filed {
    function: FunctionId,
    last_used: SimTime,
    predicted: SimTime,
    deadline: SimTime,
    victim: Seat,
    expiry: Seat,
}

type Victims = VictimHeap<Reverse<SimTime>>;
type Expiry = VictimHeap<SimTime>;

/// Incremental eviction and expiry order for HIST.
///
/// Keys (predicted next invocation and expiry deadline) are derived from
/// per-function histogram state, which changes at exactly two points: a
/// request to the function (`on_request`) and the consumption of a pending
/// pre-warm (`prewarm_due`). Both re-key that function's idle containers
/// on the spot, and a release re-keys the released one; each re-key goes
/// through [`Seat::file`], which asks for a superseding entry only for a
/// key that moved *down* (see [`crate::policy::index`]). The victim key —
/// predicted next use, descending — moves down with every hit, so a
/// release pushes there; the deadline moves up with a hit, and down only
/// when a pre-warm is scheduled (release early).
#[derive(Debug, Default)]
struct HistIndex {
    /// Eviction order: predicted next use descending (farthest first),
    /// then `last_used` ascending, then id ascending.
    victims: Victims,
    /// Expiry order: deadline ascending, then `last_used`, then id.
    expiry: Expiry,
    /// The keys each member is filed under in the two orders.
    keys: IdMap<ContainerId, Filed>,
    /// Idle members per function with their `last_used` (unordered), for
    /// re-keying after histogram updates.
    by_fn: FnTable<Vec<(SimTime, ContainerId)>>,
    /// Pending pre-warms ordered by fire time.
    prewarms: BTreeSet<(SimTime, FunctionId)>,
}

impl Filed {
    /// The member (container `id`) is idle at these keys now: records
    /// them and files it in the two orders. Follow with [`shed`].
    fn file(
        &mut self,
        victims: &mut Victims,
        expiry: &mut Expiry,
        id: ContainerId,
        last_used: SimTime,
        (predicted, deadline): (SimTime, SimTime),
    ) {
        // The victim order is by predicted next use *descending*.
        let victim_down =
            (Reverse(predicted), last_used) < (Reverse(self.predicted), self.last_used);
        let expiry_down = (deadline, last_used) < (self.deadline, self.last_used);
        (self.last_used, self.predicted, self.deadline) = (last_used, predicted, deadline);
        if self.victim.file(victim_down) {
            self.victim
                .entered(victims.push(id, Reverse(predicted), last_used));
        }
        if self.expiry.file(expiry_down) {
            self.expiry.entered(expiry.push(id, deadline, last_used));
        }
    }
}

/// Sheds either heap once superseding pushes have left it mostly stale
/// (see [`VictimHeap::shed_stale_with`]).
fn shed(victims: &mut Victims, expiry: &mut Expiry, keys: &IdMap<ContainerId, Filed>) {
    victims.shed_stale_with(keys.len(), |id, gen| {
        keys.get(&id).is_some_and(|k| k.victim.holds(gen))
    });
    expiry.shed_stale_with(keys.len(), |id, gen| {
        keys.get(&id).is_some_and(|k| k.expiry.holds(gen))
    });
}

impl HistIndex {
    /// Files a container going idle at the given keys, replacing whatever
    /// it was filed under.
    fn file(
        &mut self,
        id: ContainerId,
        function: FunctionId,
        last_used: SimTime,
        (predicted, deadline): (SimTime, SimTime),
    ) {
        let filed = self.keys.entry(id).or_insert(Filed {
            function,
            last_used,
            predicted,
            deadline,
            victim: Seat::running(),
            expiry: Seat::running(),
        });
        let members = self.by_fn.slot(function);
        if !filed.victim.is_busy() {
            // Re-filed while idle: listed already, under its old `last_used`.
            members.retain(|&(_, m)| m != id);
        }
        members.push((last_used, id));
        filed.file(
            &mut self.victims,
            &mut self.expiry,
            id,
            last_used,
            (predicted, deadline),
        );
        shed(&mut self.victims, &mut self.expiry, &self.keys);
    }

    /// The idle member `id` of `function` leaves the re-keying list.
    fn unlist(&mut self, function: FunctionId, id: ContainerId) {
        let members = self
            .by_fn
            .get_mut(function)
            .expect("indexed members are listed under their function");
        if let Some(pos) = members.iter().position(|&(_, m)| m == id) {
            members.swap_remove(pos);
        }
    }

    /// `id` started an invocation: out of both orders until it is filed
    /// again, without either heap hearing of it. A no-op when it is not
    /// indexed.
    fn mark_busy(&mut self, id: ContainerId) {
        let Some(filed) = self.keys.get_mut(&id) else {
            return;
        };
        filed.victim.mark_busy();
        filed.expiry.mark_busy();
        let function = filed.function;
        self.unlist(function, id);
    }

    /// Forgets `id`; a no-op when it is not indexed. Its heap entries are
    /// discarded when they surface.
    fn remove(&mut self, id: ContainerId) {
        if let Some(old) = self.keys.remove(&id) {
            self.unlist(old.function, id);
        }
    }
}

/// The HIST histogram/prefetching keep-alive policy.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::{Hist, HistConfig, KeepAlivePolicy};
/// let hist = Hist::new(HistConfig::default());
/// assert_eq!(hist.name(), "HIST");
/// ```
#[derive(Debug)]
pub struct Hist {
    cfg: HistConfig,
    /// Statistics per function. The slot is a pointer and the ~2 KB
    /// histogram behind it is allocated on the function's first request,
    /// so a table grown to a high function id stays small.
    funcs: FnTable<Option<Box<FnHist>>>,
    index: Option<HistIndex>,
}

impl Hist {
    /// Creates the policy with the given configuration (incremental
    /// eviction/expiry indexes).
    pub fn new(cfg: HistConfig) -> Self {
        Hist {
            cfg,
            funcs: FnTable::default(),
            index: Some(HistIndex::default()),
        }
    }

    /// Creates the policy with the naive scan-based eviction/expiry path.
    pub fn naive(cfg: HistConfig) -> Self {
        Hist {
            cfg,
            funcs: FnTable::default(),
            index: None,
        }
    }

    fn stats(&self, function: FunctionId) -> Option<&FnHist> {
        self.funcs.get(function)?.as_deref()
    }

    /// Whether a function's IAT pattern is currently considered
    /// predictable (enough samples and CoV at or below the threshold).
    pub fn is_predictable(&self, function: FunctionId) -> bool {
        self.stats(function).is_some_and(|f| f.predictable)
    }

    /// `(predicted next use, expiry deadline)` of `container` under the
    /// current histogram state of its function.
    fn keys_of(&self, container: &Container) -> (SimTime, SimTime) {
        keys_at(
            &self.cfg,
            self.stats(container.function()),
            container.last_used(),
        )
    }

    fn index_insert(&mut self, container: &Container) {
        let keys = self.keys_of(container);
        if let Some(index) = self.index.as_mut() {
            index.file(
                container.id(),
                container.function(),
                container.last_used(),
                keys,
            );
        }
    }

    fn index_remove(&mut self, id: ContainerId) {
        if let Some(index) = self.index.as_mut() {
            index.remove(id);
        }
    }

    /// Recomputes the keys of the idle containers of `function`, pushing a
    /// superseding entry for every key that moved down. Called after the two
    /// events that can change the function's histogram state (a request,
    /// or a pre-warm firing). With `skip_warm_pick`, all but the member
    /// with the greatest `(last_used, id)`: the one the pool takes next
    /// (see [`KeepAlivePolicy::on_request`]).
    fn rekey_function(&mut self, function: FunctionId, skip_warm_pick: bool) {
        let Some(index) = self.index.as_mut() else {
            return;
        };
        let stats = self.funcs.get(function).and_then(|slot| slot.as_deref());
        let HistIndex {
            victims,
            expiry,
            keys,
            by_fn,
            ..
        } = index;
        let members = by_fn.get(function).map_or(&[][..], Vec::as_slice);
        let skip = if skip_warm_pick {
            members.iter().max().map(|&(_, id)| id)
        } else {
            None
        };
        for &(last_used, id) in members {
            if Some(id) == skip {
                continue;
            }
            let filed = keys.get_mut(&id).expect("members have keys");
            let moved = keys_at(&self.cfg, stats, last_used);
            if moved != (filed.predicted, filed.deadline) {
                filed.file(victims, expiry, id, last_used, moved);
            }
        }
        shed(victims, expiry, keys);
    }
}

impl KeepAlivePolicy for Hist {
    fn name(&self) -> &'static str {
        "HIST"
    }

    fn on_request(&mut self, spec: &FunctionSpec, now: SimTime) {
        let cfg = &self.cfg;
        let f = self
            .funcs
            .slot(spec.id())
            .get_or_insert_with(|| Box::new(FnHist::new(cfg)));
        let old_pending = f.pending_prewarm;
        if let Some(last) = f.last_invocation {
            let iat_mins = now.since(last).as_mins_f64();
            f.hist.record(iat_mins);
            f.welford.push(iat_mins);
            f.refresh_derived(cfg);
        }
        f.last_invocation = Some(now);
        f.pending_prewarm = None;
        // Schedule the next pre-warm if the head of the IAT distribution is
        // far enough out that releasing and re-warming pays off.
        if f.predictable && f.head_window > cfg.margin + cfg.margin {
            f.pending_prewarm = Some(now + f.head_window.saturating_sub(cfg.margin));
        }
        let new_pending = f.pending_prewarm;
        if let Some(index) = self.index.as_mut() {
            if old_pending != new_pending {
                if let Some(at) = old_pending {
                    index.prewarms.remove(&(at, spec.id()));
                }
                if let Some(at) = new_pending {
                    index.prewarms.insert((at, spec.id()));
                }
            }
            // The request changed this function's histogram state (and
            // possibly its predictability), so its idle containers' keys
            // are stale: recompute them now — except the warm pick's, which
            // its release will recompute before anyone reads them.
            self.rekey_function(spec.id(), true);
        }
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        if let Some(index) = self.index.as_mut() {
            index.mark_busy(container.id());
        }
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
        if prewarm {
            self.index_insert(container);
        }
    }

    fn on_finish(&mut self, container: &Container, _now: SimTime) {
        self.index_insert(container);
    }

    fn select_victims(&mut self, idle: &[&Container], needed: MemMb) -> Vec<ContainerId> {
        // Evict the container whose next invocation is predicted farthest
        // in the future ("evicted when the policy predicts it will not have
        // an invocation in the near future").
        let mut ranked: Vec<&Container> = idle.to_vec();
        ranked.sort_by(|a, b| {
            self.keys_of(b)
                .0
                .cmp(&self.keys_of(a).0)
                .then(a.last_used().cmp(&b.last_used()))
        });
        take_until_freed(&ranked, needed)
    }

    fn on_evicted(&mut self, container: &Container, _remaining: usize, _now: SimTime) {
        self.index_remove(container.id());
    }

    fn expired(&mut self, idle: &[&Container], now: SimTime) -> Vec<ContainerId> {
        idle.iter()
            .filter(|c| now >= self.keys_of(c).1)
            .map(|c| c.id())
            .collect()
    }

    fn prewarm_due(&mut self, now: SimTime) -> Vec<FunctionId> {
        if let Some(index) = self.index.as_mut() {
            let mut due = Vec::new();
            while let Some(&(at, fid)) = index.prewarms.first() {
                if at > now {
                    break;
                }
                index.prewarms.pop_first();
                due.push(fid);
            }
            for &fid in &due {
                if let Some(Some(f)) = self.funcs.get_mut(fid) {
                    f.pending_prewarm = None;
                }
            }
            // Match the naive path's function-id order (it affects the
            // order downstream container ids are assigned in).
            due.sort();
            // Consuming a pre-warm changes the release-early deadline of
            // the function's idle containers.
            for &fid in &due {
                self.rekey_function(fid, false);
            }
            return due;
        }
        // The table iterates in ascending function-id order.
        let mut due = Vec::new();
        for (fid, slot) in self.funcs.iter_mut() {
            let Some(f) = slot else { continue };
            if f.pending_prewarm.is_some_and(|at| at <= now) {
                f.pending_prewarm = None;
                due.push(fid);
            }
        }
        due
    }

    fn supports_incremental(&self) -> bool {
        self.index.is_some()
    }

    fn peek_victim(&mut self) -> Option<ContainerId> {
        let HistIndex { victims, keys, .. } = self.index.as_mut()?;
        victims.peek_min_with(|id, gen| match keys.get_mut(&id) {
            Some(k) => k.victim.probe(gen, Reverse(k.predicted), k.last_used),
            None => Probe::Gone,
        })
    }

    fn pop_victim(&mut self) -> Option<ContainerId> {
        let id = self.peek_victim()?;
        // Forgetting the member retires both of its heap entries.
        self.index_remove(id);
        Some(id)
    }

    fn pop_expired(&mut self, now: SimTime) -> Option<ContainerId> {
        let index = self.index.as_mut()?;
        let HistIndex { expiry, keys, .. } = &mut *index;
        let id = expiry.peek_min_with(|id, gen| match keys.get_mut(&id) {
            Some(k) => k.expiry.probe(gen, k.deadline, k.last_used),
            None => Probe::Gone,
        })?;
        if now >= keys.get(&id).expect("peeked a live member").deadline {
            index.remove(id);
            Some(id)
        } else {
            None
        }
    }

    fn priority_of(&self, container: &Container) -> Option<f64> {
        // Sooner predicted reuse ⇒ higher keep-alive priority.
        Some(-self.keys_of(container).0.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionRegistry;

    impl Hist {
        /// Entries held by the larger of the two heaps, stale ones included.
        pub(crate) fn heap_len(&self) -> usize {
            self.index
                .as_ref()
                .map_or(0, |index| index.victims.len().max(index.expiry.len()))
        }
    }

    fn spec(reg: &mut FunctionRegistry, name: &str) -> FunctionSpec {
        let id = reg
            .register(
                name,
                MemMb::new(128),
                SimDuration::from_millis(200),
                SimDuration::from_secs(2),
            )
            .unwrap();
        reg.spec(id).clone()
    }

    fn container_of(spec: &FunctionSpec, id: u64, now: SimTime) -> Container {
        Container::new(
            ContainerId::from_raw(id),
            spec.id(),
            spec.mem(),
            spec.warm_time(),
            spec.cold_time(),
            None,
            now,
        )
    }

    #[test]
    fn becomes_predictable_with_regular_iats() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "regular");
        let mut hist = Hist::new(HistConfig::default());
        assert!(!hist.is_predictable(s.id()));
        // Invocations every 10 minutes, like clockwork.
        for i in 0..10u64 {
            hist.on_request(&s, SimTime::from_mins(i * 10));
        }
        assert!(hist.is_predictable(s.id()));
    }

    #[test]
    fn erratic_iats_stay_unpredictable() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "erratic");
        let mut hist = Hist::new(HistConfig::default());
        // Wildly varying IATs: 1 min, 200 min, 1 min, 200 min...
        let times = [0u64, 1, 201, 202, 402, 403, 603];
        for &t in &times {
            hist.on_request(&s, SimTime::from_mins(t));
        }
        // CoV of {1,200,1,200,1,200} ≈ 0.99 — actually predictable by CoV;
        // use something with CoV > 2 instead.
        let s2 = spec(&mut reg, "erratic2");
        let times2 = [0u64, 1, 2, 3, 4, 5, 230];
        for &t in &times2 {
            hist.on_request(&s2, SimTime::from_mins(t));
        }
        // IATs: 1,1,1,1,1,225 → mean≈38.3, sd≈83.5 → CoV≈2.2 > 2.
        assert!(!hist.is_predictable(s2.id()));
    }

    #[test]
    fn predictable_function_schedules_prewarm() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "periodic");
        let mut hist = Hist::new(HistConfig::default());
        for i in 0..6u64 {
            hist.on_request(&s, SimTime::from_mins(i * 30));
        }
        // A pre-warm should be due before the next expected invocation at
        // t = 180 min, but not immediately.
        assert!(hist.prewarm_due(SimTime::from_mins(151)).is_empty());
        let due = hist.prewarm_due(SimTime::from_mins(180));
        assert_eq!(due, vec![s.id()]);
        // Consumed: not reported twice.
        assert!(hist.prewarm_due(SimTime::from_mins(181)).is_empty());
    }

    #[test]
    fn sub_minute_iats_do_not_prewarm() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "hot");
        let mut hist = Hist::new(HistConfig::default());
        for i in 0..20u64 {
            hist.on_request(&s, SimTime::from_secs(i * 10));
        }
        assert!(hist.is_predictable(s.id()));
        // Head bucket is 0 (< 1 min): the container never gets released, so
        // there is nothing to pre-warm.
        assert!(hist.prewarm_due(SimTime::from_mins(60)).is_empty());
    }

    #[test]
    fn unpredictable_uses_generic_ttl() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "once");
        let mut hist = Hist::new(HistConfig::default());
        hist.on_request(&s, SimTime::ZERO);
        let c = container_of(&s, 1, SimTime::ZERO);
        assert!(hist.expired(&[&c], SimTime::from_mins(119)).is_empty());
        assert_eq!(hist.expired(&[&c], SimTime::from_mins(121)).len(), 1);
    }

    #[test]
    fn predictable_releases_early_then_keeps_prewarmed_until_tail() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "steady");
        let mut hist = Hist::new(HistConfig::default());
        for i in 0..10u64 {
            hist.on_request(&s, SimTime::from_mins(i * 5));
        }
        let last = SimTime::from_mins(45);
        // Phase 1: a pre-warm is pending, so the old container is released
        // after the 1-minute margin rather than held for the whole gap.
        let old = container_of(&s, 1, last);
        assert!(hist
            .expired(&[&old], SimTime::from_secs(45 * 60 + 30))
            .is_empty());
        assert_eq!(hist.expired(&[&old], SimTime::from_mins(46)).len(), 1);
        // Phase 2: the pre-warm fires (head ≈ 5.5 min − margin before the
        // predicted invocation); the fresh container survives until
        // last + tail (≈5.5) + margin (1).
        let due = hist.prewarm_due(SimTime::from_secs((45 * 60) + 270));
        assert_eq!(due, vec![s.id()]);
        let fresh = container_of(&s, 2, SimTime::from_secs((45 * 60) + 270));
        assert!(hist.expired(&[&fresh], SimTime::from_mins(50)).is_empty());
        assert_eq!(hist.expired(&[&fresh], SimTime::from_mins(52)).len(), 1);
    }

    #[test]
    fn incremental_pop_prefers_farthest_predicted_use() {
        let mut reg = FunctionRegistry::new();
        let soon = spec(&mut reg, "soon");
        let late = spec(&mut reg, "late");
        let mut hist = Hist::new(HistConfig::default());
        for i in 0..10u64 {
            hist.on_request(&soon, SimTime::from_mins(i * 2));
            hist.on_request(&late, SimTime::from_mins(i * 60));
        }
        let c_soon = container_of(&soon, 1, SimTime::from_mins(18));
        let c_late = container_of(&late, 2, SimTime::from_mins(540));
        hist.on_finish(&c_soon, SimTime::from_mins(18));
        hist.on_finish(&c_late, SimTime::from_mins(540));
        assert_eq!(hist.peek_victim(), Some(ContainerId::from_raw(2)));
        assert_eq!(hist.pop_victim(), Some(ContainerId::from_raw(2)));
        assert_eq!(hist.pop_victim(), Some(ContainerId::from_raw(1)));
        assert_eq!(hist.pop_victim(), None);
    }

    #[test]
    fn incremental_expiry_follows_generic_ttl() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "once");
        let mut hist = Hist::new(HistConfig::default());
        hist.on_request(&s, SimTime::ZERO);
        let c = container_of(&s, 1, SimTime::ZERO);
        hist.on_finish(&c, SimTime::ZERO);
        assert!(hist.pop_expired(SimTime::from_mins(119)).is_none());
        assert_eq!(hist.pop_expired(SimTime::from_mins(121)), Some(c.id()));
        assert!(hist.pop_expired(SimTime::from_mins(121)).is_none());
    }

    #[test]
    fn request_rekeys_idle_containers() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "steady");
        let mut hist = Hist::new(HistConfig::default());
        for i in 0..10u64 {
            hist.on_request(&s, SimTime::from_mins(i * 5));
        }
        // An idle container of the steady function, last used at the last
        // invocation: a pre-warm is pending, so it is released after the
        // 1-minute margin (deadline ≈ 46 min).
        let c = container_of(&s, 1, SimTime::from_mins(45));
        hist.on_finish(&c, SimTime::from_mins(45));
        assert!(hist.pop_expired(SimTime::from_secs(45 * 60 + 30)).is_none());
        // The pre-warm fires: the container is re-keyed to the tail
        // horizon (≈ 45 + 5.5 + 1 min) instead of expiring at 46 min.
        let due = hist.prewarm_due(SimTime::from_secs(45 * 60 + 270));
        assert_eq!(due, vec![s.id()]);
        assert!(hist.pop_expired(SimTime::from_mins(46)).is_none());
        assert_eq!(hist.pop_expired(SimTime::from_mins(52)), Some(c.id()));
    }

    #[test]
    fn eviction_prefers_farthest_predicted_use() {
        let mut reg = FunctionRegistry::new();
        let soon = spec(&mut reg, "soon");
        let late = spec(&mut reg, "late");
        let mut hist = Hist::new(HistConfig::default());
        for i in 0..10u64 {
            hist.on_request(&soon, SimTime::from_mins(i * 2));
            hist.on_request(&late, SimTime::from_mins(i * 60));
        }
        let c_soon = container_of(&soon, 1, SimTime::from_mins(18));
        let c_late = container_of(&late, 2, SimTime::from_mins(540));
        let victims = hist.select_victims(&[&c_soon, &c_late], MemMb::new(128));
        assert_eq!(victims, vec![ContainerId::from_raw(2)]);
    }
}
