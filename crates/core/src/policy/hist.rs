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
use crate::policy::index::Resident;
use crate::policy::KeepAlivePolicy;
use faascache_util::stats::{Histogram, Welford};
use faascache_util::{SimDuration, SimTime};
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

/// A percentile bucket of one function's histogram, carried from request
/// to request instead of found by a scan from bucket 0 each time.
///
/// `below` is kept exact by [`Self::recorded`] on every observation; the
/// bucket itself is moved only when somebody reads it ([`Self::settle`]),
/// so an unpredictable function — nobody reads its windows — pays one
/// comparison per request. One observation moves the percentile's rank by
/// at most one, so settling is a step or two unless the rank crosses a
/// run of empty buckets, and never more than the scan it replaces.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    bucket: usize,
    /// Observations counted in the buckets below `bucket`.
    below: u64,
}

impl Cursor {
    /// An observation was counted in `bucket`.
    fn recorded(&mut self, bucket: usize) {
        if bucket < self.bucket {
            self.below += 1;
        }
    }

    /// Moves to the first bucket at which the cumulative count reaches
    /// `rank` (the last bucket when none does) and returns it. With the
    /// [`Histogram::percentile_rank`] of a quantile for `rank`, that is
    /// the quantile's [`Histogram::percentile_bucket`].
    fn settle(&mut self, counts: &[u64], rank: u64) -> usize {
        while self.below >= rank {
            self.bucket -= 1;
            self.below -= counts[self.bucket];
        }
        while self.below + counts[self.bucket] < rank && self.bucket + 1 < counts.len() {
            self.below += counts[self.bucket];
            self.bucket += 1;
        }
        self.bucket
    }
}

/// Per-function IAT statistics, plus what the keys of the function's idle
/// containers are derived from. The derived fields change only where the
/// histogram does — in `on_request` — so they are computed there once
/// instead of per idle container per request.
#[derive(Debug)]
struct FnHist {
    hist: Histogram,
    /// Where the head and tail percentiles of `hist` stood when last read.
    head: Cursor,
    tail: Cursor,
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
    fn new(cfg: &HistConfig, windows: &[SimDuration]) -> Self {
        let mut f = FnHist {
            hist: Histogram::new(cfg.bucket_width.as_mins_f64(), cfg.num_buckets),
            head: Cursor::default(),
            tail: Cursor::default(),
            welford: Welford::new(),
            last_invocation: None,
            pending_prewarm: None,
            predictable: false,
            head_window: SimDuration::ZERO,
            tail_window: SimDuration::ZERO,
            mean_iat: SimDuration::ZERO,
        };
        f.refresh_derived(cfg, windows);
        f
    }

    /// Counts one inter-arrival time, in minutes.
    fn record(&mut self, iat_mins: f64) {
        if let Some(bucket) = self.hist.record(iat_mins) {
            self.head.recorded(bucket);
            self.tail.recorded(bucket);
        }
        self.welford.push(iat_mins);
    }

    /// Recomputes the derived fields after the histogram changed. Nobody
    /// reads the windows of an unpredictable function, so its percentile
    /// cursors stay where they are. `windows[b]` is the IAT bucket `b`
    /// stands for ([`Hist::new`] builds it).
    fn refresh_derived(&mut self, cfg: &HistConfig, windows: &[SimDuration]) {
        self.predictable = self.welford.count() >= cfg.min_samples
            && self.welford.coefficient_of_variation() <= cfg.cov_threshold
            && self.hist.overflow_fraction() < 0.5;
        if self.predictable {
            let hist = &self.hist;
            let settle = |cursor: &mut Cursor, q: f64| {
                let bucket = cursor.settle(hist.counts(), hist.percentile_rank(q));
                debug_assert_eq!(bucket, hist.percentile_bucket(q));
                windows[bucket]
            };
            self.head_window = settle(&mut self.head, cfg.head_quantile);
            self.tail_window = settle(&mut self.tail, cfg.tail_quantile);
            self.mean_iat = SimDuration::from_secs_f64(self.welford.mean() * 60.0);
        }
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

/// What the victim order keeps per container that has been idle at least
/// once.
#[derive(Debug, Clone, Copy)]
pub(super) struct Member {
    function: FunctionId,
    /// Predicted next use as of the last release or re-key.
    predicted: Reverse<SimTime>,
}

/// Stores the key an idle container is at now and says whether it is below
/// the one it was at: the `key_fell` of [`Resident::file`].
fn lowered<K: Ord>(stored: &mut K, now: K) -> bool {
    let fell = now < *stored;
    *stored = now;
    fell
}

type Victims = Resident<Member, Reverse<SimTime>>;
type Expiry = Resident<SimTime, SimTime>;

/// Container `id` of `function` is idle at these keys now: files it in the
/// two orders.
fn file(
    victims: &mut Victims,
    expiry: &mut Expiry,
    id: ContainerId,
    function: FunctionId,
    last_used: SimTime,
    (predicted, deadline): (SimTime, SimTime),
) {
    let predicted = Reverse(predicted);
    victims.file(
        id,
        last_used,
        || Member {
            function,
            predicted,
        },
        |member| lowered(&mut member.predicted, predicted),
        |member| member.predicted,
    );
    expiry.file(
        id,
        last_used,
        || deadline,
        |stored| lowered(stored, deadline),
        |&stored| stored,
    );
}

/// The HIST histogram/prefetching keep-alive policy.
///
/// Its two keys — predicted next invocation and expiry deadline — are
/// derived from per-function histogram state, which changes at exactly two
/// points: a request to the function (`on_request`) and the consumption of
/// a pending pre-warm (`prewarm_due`). Both re-key that function's idle
/// containers on the spot, and a release re-keys the released one; each
/// re-key is a [`Resident::file`], which pushes a superseding entry only
/// for a key that moved *down* (see [`crate::policy::index`]). The victim
/// key — predicted next use, descending — moves down with every hit, so a
/// release pushes there; the deadline moves up with a hit, and down only
/// when a pre-warm is scheduled (release early).
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
    /// Eviction order: predicted next use descending (farthest first),
    /// then `last_used` ascending, then id ascending.
    pub(super) victims: Victims,
    /// Expiry order: deadline ascending, then `last_used`, then id. The
    /// record is the deadline; every container filed here is filed in
    /// `victims` too.
    pub(super) expiry: Expiry,
    /// Idle containers per function with their `last_used` (unordered),
    /// for re-keying after histogram updates.
    idle_of: FnTable<Vec<(SimTime, ContainerId)>>,
    /// Pending pre-warms ordered by fire time.
    prewarms: BTreeSet<(SimTime, FunctionId)>,
    /// The IAT each histogram bucket stands for (its midpoint), by bucket.
    windows: Vec<SimDuration>,
}

impl Hist {
    /// Creates the policy with the given configuration.
    pub fn new(cfg: HistConfig) -> Self {
        let scale = Histogram::new(cfg.bucket_width.as_mins_f64(), cfg.num_buckets);
        let windows = (0..cfg.num_buckets)
            .map(|bucket| SimDuration::from_secs_f64(scale.bucket_value(bucket) * 60.0))
            .collect();
        Hist {
            cfg,
            windows,
            funcs: FnTable::default(),
            victims: Resident::new(),
            expiry: Resident::new(),
            idle_of: FnTable::default(),
            prewarms: BTreeSet::new(),
        }
    }

    fn stats(&self, function: FunctionId) -> Option<&FnHist> {
        self.funcs.get(function)?.as_deref()
    }

    /// `(predicted next use, expiry deadline)` of `container` under the
    /// current histogram state of its function: what the differential
    /// suite's brute-force reference ranks and expires by.
    #[doc(hidden)]
    pub fn keys_of(&self, container: &Container) -> (SimTime, SimTime) {
        keys_at(
            &self.cfg,
            self.stats(container.function()),
            container.last_used(),
        )
    }

    /// The container went idle: lists it under its function and files it.
    fn index_insert(&mut self, container: &Container) {
        let (id, last_used) = (container.id(), container.last_used());
        let idle = self.idle_of.slot(container.function());
        // Filed again while idle, it is listed already, under its old
        // `last_used`.
        idle.retain(|&(_, listed)| listed != id);
        idle.push((last_used, id));
        let keys = self.keys_of(container);
        let function = container.function();
        file(
            &mut self.victims,
            &mut self.expiry,
            id,
            function,
            last_used,
            keys,
        );
    }

    /// The idle container `id` of `function` leaves the re-keying list.
    fn unlist(&mut self, function: FunctionId, id: ContainerId) {
        let idle = self
            .idle_of
            .get_mut(function)
            .expect("indexed containers are listed under their function");
        if let Some(pos) = idle.iter().position(|&(_, listed)| listed == id) {
            idle.swap_remove(pos);
        }
    }

    /// Forgets `id`; a no-op when it is not indexed. Its heap entries are
    /// discarded when they surface.
    fn index_remove(&mut self, id: ContainerId) {
        if let Some(member) = self.victims.forget(id) {
            self.expiry.forget(id);
            self.unlist(member.function, id);
        }
    }

    /// Recomputes the keys of the idle containers of `function`, pushing a
    /// superseding entry for every key that moved down. Called after the two
    /// events that can change the function's histogram state (a request,
    /// or a pre-warm firing). With `skip_warm_pick`, all but the container
    /// with the greatest `(last_used, id)`: the one the pool takes next
    /// (see [`KeepAlivePolicy::on_request`]).
    fn rekey_function(&mut self, function: FunctionId, skip_warm_pick: bool) {
        let stats = self.funcs.get(function).and_then(|slot| slot.as_deref());
        let idle = self.idle_of.get(function).map_or(&[][..], Vec::as_slice);
        let skip = if skip_warm_pick {
            idle.iter().max().map(|&(_, id)| id)
        } else {
            None
        };
        for &(last_used, id) in idle {
            if Some(id) != skip {
                let keys = keys_at(&self.cfg, stats, last_used);
                file(
                    &mut self.victims,
                    &mut self.expiry,
                    id,
                    function,
                    last_used,
                    keys,
                );
            }
        }
    }
}

impl KeepAlivePolicy for Hist {
    fn name(&self) -> &'static str {
        "HIST"
    }

    fn on_request(&mut self, spec: &FunctionSpec, now: SimTime) {
        let (cfg, windows) = (&self.cfg, &self.windows[..]);
        let f = self
            .funcs
            .slot(spec.id())
            .get_or_insert_with(|| Box::new(FnHist::new(cfg, windows)));
        let old_pending = f.pending_prewarm;
        if let Some(last) = f.last_invocation {
            f.record(now.since(last).as_mins_f64());
            f.refresh_derived(cfg, windows);
        }
        f.last_invocation = Some(now);
        f.pending_prewarm = None;
        // Schedule the next pre-warm if the head of the IAT distribution is
        // far enough out that releasing and re-warming pays off.
        if f.predictable && f.head_window > cfg.margin + cfg.margin {
            f.pending_prewarm = Some(now + f.head_window.saturating_sub(cfg.margin));
        }
        let new_pending = f.pending_prewarm;
        if old_pending != new_pending {
            if let Some(at) = old_pending {
                self.prewarms.remove(&(at, spec.id()));
            }
            if let Some(at) = new_pending {
                self.prewarms.insert((at, spec.id()));
            }
        }
        // The request changed this function's histogram state (and
        // possibly its predictability), so its idle containers' keys
        // are stale: recompute them now — except the warm pick's, which
        // its release will recompute before anyone reads them.
        self.rekey_function(spec.id(), true);
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        // Out of both orders until it is filed again, without either heap
        // hearing of it. A no-op when it is not indexed.
        if let Some(member) = self.victims.mark_busy(container.id()) {
            let function = member.function;
            self.expiry.mark_busy(container.id());
            self.unlist(function, container.id());
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

    fn on_evicted(&mut self, container: &Container, _remaining: usize, _now: SimTime) {
        self.index_remove(container.id());
    }

    fn prewarm_due(&mut self, now: SimTime) -> Vec<FunctionId> {
        let mut due = Vec::new();
        while let Some(&(at, fid)) = self.prewarms.first() {
            if at > now {
                break;
            }
            self.prewarms.pop_first();
            due.push(fid);
        }
        for &fid in &due {
            if let Some(Some(f)) = self.funcs.get_mut(fid) {
                f.pending_prewarm = None;
            }
        }
        // Ascending function-id order, whatever order they fell due in
        // (it is the order downstream container ids are assigned in).
        due.sort();
        // Consuming a pre-warm changes the release-early deadline of
        // the function's idle containers.
        for &fid in &due {
            self.rekey_function(fid, false);
        }
        due
    }

    fn pop_victim(&mut self) -> Option<ContainerId> {
        // Evict the container whose next invocation is predicted farthest
        // in the future ("evicted when the policy predicts it will not have
        // an invocation in the near future").
        let id = self.victims.pop(|member| member.predicted)?;
        // Forgetting the container retires its entry in the other order.
        self.index_remove(id);
        Some(id)
    }

    fn pop_expired(&mut self, now: SimTime) -> Option<ContainerId> {
        let id = self
            .expiry
            .pop_if(|&deadline| deadline, |&deadline, _| now >= deadline)?;
        self.index_remove(id);
        Some(id)
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
    use faascache_util::MemMb;

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
            now,
        )
    }

    /// The carried cursors against the scan, settled after every record
    /// and only now and then (an unpredictable stretch), over clustered
    /// IATs with empty runs between them and an overflow share.
    #[test]
    fn cursors_settle_where_the_scan_lands() {
        let mut rng = faascache_util::Pcg64::seed_from_u64(23);
        for round in 0..50u64 {
            let mut hist = Histogram::new(1.0, 240);
            let quantiles = [0.0, 0.05, 0.5, 0.99, 1.0];
            let mut cursors = [Cursor::default(); 5];
            // Nothing in range yet: the last bucket, as the scan says.
            for (cursor, q) in cursors.iter_mut().zip(quantiles) {
                let rank = hist.percentile_rank(q);
                assert_eq!(cursor.settle(hist.counts(), rank), 239);
            }
            for step in 0..400 {
                let iat = match rng.next_below(4) {
                    0 => rng.range_f64(0.0, 3.0),
                    1 => rng.range_f64(100.0, 104.0),
                    2 => rng.range_f64(0.0, 240.0),
                    _ => rng.range_f64(230.0, 300.0),
                };
                if let Some(bucket) = hist.record(iat) {
                    cursors.iter_mut().for_each(|c| c.recorded(bucket));
                }
                if round % 2 == 0 || step % 37 == 0 {
                    for (cursor, q) in cursors.iter_mut().zip(quantiles) {
                        let rank = hist.percentile_rank(q);
                        assert_eq!(
                            cursor.settle(hist.counts(), rank),
                            hist.percentile_bucket(q),
                            "round {round} step {step} q {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn becomes_predictable_with_regular_iats() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "regular");
        let mut hist = Hist::new(HistConfig::default());
        assert!(!hist.stats(s.id()).is_some_and(|f| f.predictable));
        // Invocations every 10 minutes, like clockwork.
        for i in 0..10u64 {
            hist.on_request(&s, SimTime::from_mins(i * 10));
        }
        assert!(hist.stats(s.id()).is_some_and(|f| f.predictable));
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
        assert!(!hist.stats(s2.id()).is_some_and(|f| f.predictable));
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
        assert!(hist.stats(s.id()).is_some_and(|f| f.predictable));
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
        // Prewarmed or released, an idle container is kept two hours.
        let c = container_of(&s, 1, SimTime::ZERO);
        hist.on_container_created(&c, SimTime::ZERO, true);
        assert!(hist.pop_expired(SimTime::from_mins(119)).is_none());
        assert_eq!(hist.pop_expired(SimTime::from_mins(121)), Some(c.id()));
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
        hist.on_finish(&old, last);
        assert!(hist.pop_expired(SimTime::from_secs(45 * 60 + 30)).is_none());
        assert_eq!(hist.pop_expired(SimTime::from_mins(46)), Some(old.id()));
        // Phase 2: the pre-warm fires (head ≈ 5.5 min − margin before the
        // predicted invocation); the fresh container survives until
        // last + tail (≈5.5) + margin (1).
        let due = hist.prewarm_due(SimTime::from_secs((45 * 60) + 270));
        assert_eq!(due, vec![s.id()]);
        let fresh = container_of(&s, 2, SimTime::from_secs((45 * 60) + 270));
        hist.on_container_created(&fresh, fresh.last_used(), true);
        assert!(hist.pop_expired(SimTime::from_mins(50)).is_none());
        assert_eq!(hist.pop_expired(SimTime::from_mins(52)), Some(fresh.id()));
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
        // Prewarmed rather than released: ranked the same way.
        hist.on_container_created(&c_soon, SimTime::from_mins(18), true);
        hist.on_container_created(&c_late, SimTime::from_mins(540), true);
        assert_eq!(hist.pop_victim(), Some(ContainerId::from_raw(2)));
    }
}
