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
//! ~0.56 % of invocations); such IATs are counted as overflow and push the
//! function toward the unpredictable/generic-TTL path.

use crate::container::{Container, ContainerId};
use crate::fn_table::FnTable;
use crate::function::{FunctionId, FunctionSpec};
use crate::policy::index::Resident;
use crate::policy::KeepAlivePolicy;
use crate::pool::IdleView;
use faascache_util::stats::Welford;
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

impl HistConfig {
    /// The in-range bucket an IAT of `iat_mins` minutes is counted in (a
    /// negative one in bucket 0), or `None` past the last one: overflow.
    fn bucket_of(&self, iat_mins: f64) -> Option<usize> {
        let bucket = if iat_mins < 0.0 {
            0
        } else {
            (iat_mins / self.bucket_width.as_mins_f64()) as usize
        };
        (bucket < self.num_buckets).then_some(bucket)
    }

    /// The IAT bucket `bucket` stands for: its midpoint.
    fn window(&self, bucket: usize) -> SimDuration {
        let mins = (bucket as f64 + 0.5) * self.bucket_width.as_mins_f64();
        SimDuration::from_secs_f64(mins * 60.0)
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
    /// `rank`, or to `last` when none does, and returns it. `counts` is a
    /// prefix of the buckets `0..=last`: the ones past it hold nothing.
    /// With [`FnHist::rank`] of a quantile for `rank`, that is the
    /// quantile's percentile bucket.
    fn settle(&mut self, counts: &[u64], last: usize, rank: u64) -> usize {
        if self.below >= rank {
            // The empty buckets past the prefix leave `below` as it is.
            self.bucket = self.bucket.min(counts.len());
            while self.below >= rank {
                self.bucket -= 1;
                self.below -= counts[self.bucket];
            }
        }
        while self.bucket < last {
            let Some(&count) = counts.get(self.bucket) else {
                // Nothing is counted from here on: the rank is out of reach.
                self.bucket = last;
                break;
            };
            if self.below + count >= rank {
                break;
            }
            self.below += count;
            self.bucket += 1;
        }
        self.bucket
    }
}

/// One function's IAT statistics, inline in [`Hist`]'s table, plus what
/// the keys of its idle containers are derived from. The derived fields
/// change only where the statistics do — in `on_request` — so they are
/// computed there once instead of per idle container per request. The
/// default record is a function never requested here, and its keys are
/// the generic TTL's.
#[derive(Debug, Default)]
struct FnHist {
    /// IAT counts by bucket, up to the highest bucket an IAT has landed
    /// in; the buckets past it hold 0. A function whose IATs stay short
    /// keeps a short prefix, and one never requested none at all.
    counts: Vec<u64>,
    /// IATs past the last bucket.
    overflow: u64,
    /// Every IAT, in range or not: their count, mean and CoV.
    welford: Welford,
    /// Where the head and tail percentiles of `counts` stood when last read.
    head: Cursor,
    tail: Cursor,
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
    /// Counts one inter-arrival time, in minutes.
    fn record(&mut self, cfg: &HistConfig, iat_mins: f64) {
        match cfg.bucket_of(iat_mins) {
            Some(bucket) => {
                if bucket >= self.counts.len() {
                    self.counts.reserve_exact(bucket + 1 - self.counts.len());
                    self.counts.resize(bucket + 1, 0);
                }
                self.counts[bucket] += 1;
                self.head.recorded(bucket);
                self.tail.recorded(bucket);
            }
            None => self.overflow += 1,
        }
        self.welford.push(iat_mins);
    }

    /// How many in-range IATs, counted from bucket 0, the bucket of the
    /// `q`-th percentile (0 ≤ q ≤ 1) must reach: `q` of them, rounded
    /// up, and at least one.
    fn rank(&self, q: f64) -> u64 {
        let in_range = self.welford.count() - self.overflow;
        (q.clamp(0.0, 1.0) * in_range as f64).ceil().max(1.0) as u64
    }

    /// Recomputes the derived fields after the statistics changed. Nobody
    /// reads the windows of an unpredictable function, so its percentile
    /// cursors stay where they are.
    fn refresh_derived(&mut self, cfg: &HistConfig) {
        let total = self.welford.count();
        // Under half the IATs past the range (vacuously so with none yet).
        self.predictable = total >= cfg.min_samples
            && self.welford.coefficient_of_variation() <= cfg.cov_threshold
            && 2 * self.overflow < total.max(1);
        if self.predictable {
            let last = cfg.num_buckets - 1;
            let (head, tail) = (self.rank(cfg.head_quantile), self.rank(cfg.tail_quantile));
            self.head_window = cfg.window(self.head.settle(&self.counts, last, head));
            self.tail_window = cfg.window(self.tail.settle(&self.counts, last, tail));
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

/// Stores `key`, the key container `id` is idle at now, in its record
/// in `order` and files it there: [`Resident::file`] with the record as
/// the key, pushing when the key fell below the one stored.
fn file_at<K: Ord + Copy>(order: &mut Resident<K, K>, id: ContainerId, last_used: SimTime, key: K) {
    order.file(
        id,
        last_used,
        || key,
        |stored| {
            let fell = key < *stored;
            *stored = key;
            fell
        },
        |&stored| stored,
    );
}

/// The HIST histogram/prefetching keep-alive policy.
///
/// Its two keys — predicted next invocation and expiry deadline — are
/// derived from per-function histogram state, which changes at exactly two
/// points: a request to the function (`on_request`) and the consumption of
/// a pending pre-warm (`prewarm_due`). Both re-key that function's idle
/// containers on the spot, found in the pool's [`IdleView`], and a release
/// re-keys the released one; each re-key is a [`Resident::file`], which
/// pushes a superseding entry only for a key that moved *down* (see
/// [`crate::policy::index`]). The victim key — predicted next use,
/// descending — moves down with every hit, so a release pushes there; the
/// deadline moves up with a hit, and down only when a pre-warm is
/// scheduled (release early).
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
    /// Statistics per function, inline: a function's only heap block is
    /// its counts prefix, and one never requested has none.
    funcs: FnTable<FnHist>,
    /// Eviction order: predicted next use descending (farthest first),
    /// then `last_used` ascending, then id ascending. The record is the
    /// predicted next use as of the last release or re-key.
    pub(super) victims: Resident<Reverse<SimTime>, Reverse<SimTime>>,
    /// Expiry order: deadline ascending, then `last_used`, then id. The
    /// record is the deadline; every container filed here is filed in
    /// `victims` too.
    pub(super) expiry: Resident<SimTime, SimTime>,
    /// Pending pre-warms ordered by fire time.
    prewarms: BTreeSet<(SimTime, FunctionId)>,
}

impl Hist {
    /// Creates the policy with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has no bucket or a zero bucket width.
    pub fn new(cfg: HistConfig) -> Self {
        assert!(
            cfg.num_buckets > 0 && cfg.bucket_width > SimDuration::ZERO,
            "HIST needs at least one bucket of positive width"
        );
        Hist {
            cfg,
            funcs: FnTable::default(),
            victims: Resident::new(),
            expiry: Resident::new(),
            prewarms: BTreeSet::new(),
        }
    }

    fn stats(&self, function: FunctionId) -> Option<&FnHist> {
        self.funcs.get(function)
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

    /// Container `id` of `function` is idle at `last_used`: files it in
    /// both orders at the keys its function's statistics give it now.
    fn file(&mut self, id: ContainerId, function: FunctionId, last_used: SimTime) {
        let (predicted, deadline) = keys_at(&self.cfg, self.stats(function), last_used);
        file_at(&mut self.victims, id, last_used, Reverse(predicted));
        file_at(&mut self.expiry, id, last_used, deadline);
    }

    /// Forgets `id`; a no-op when it is not indexed. Its heap entries are
    /// discarded when they surface.
    fn index_remove(&mut self, id: ContainerId) {
        self.victims.forget(id);
        self.expiry.forget(id);
    }

    /// Re-keys `idle`, idle containers of `function`, pushing a
    /// superseding entry for every key that moved down. Called after the
    /// two events that can change the function's histogram state (a
    /// request, or a pre-warm firing).
    fn rekey(&mut self, function: FunctionId, idle: &[(SimTime, ContainerId)]) {
        for &(last_used, id) in idle {
            self.file(id, function, last_used);
        }
    }
}

impl KeepAlivePolicy for Hist {
    fn name(&self) -> &'static str {
        "HIST"
    }

    fn on_request(&mut self, spec: &FunctionSpec, now: SimTime, idle: IdleView<'_>) {
        let cfg = &self.cfg;
        let f = self.funcs.slot(spec.id());
        let old_pending = f.pending_prewarm;
        if let Some(last) = f.last_invocation {
            f.record(cfg, now.since(last).as_mins_f64());
        }
        f.refresh_derived(cfg);
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
        // are stale: recompute them now — except the warm pick's, the
        // last, which its release will recompute before anyone reads it.
        let idle = idle.of(spec.id());
        self.rekey(spec.id(), &idle[..idle.len().saturating_sub(1)]);
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        // Out of both orders until it is filed again, without either heap
        // hearing of it. A no-op when it is not indexed.
        self.victims.mark_busy(container.id());
        self.expiry.mark_busy(container.id());
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
        if prewarm {
            self.file(container.id(), container.function(), container.last_used());
        }
    }

    fn on_finish(&mut self, container: &Container, _now: SimTime) {
        self.file(container.id(), container.function(), container.last_used());
    }

    fn on_evicted(&mut self, container: &Container, _remaining: usize, _now: SimTime) {
        self.index_remove(container.id());
    }

    fn prewarm_due(&mut self, now: SimTime, idle: IdleView<'_>) -> Vec<FunctionId> {
        let mut due = Vec::new();
        while let Some(&(at, fid)) = self.prewarms.first() {
            if at > now {
                break;
            }
            self.prewarms.pop_first();
            self.funcs.slot(fid).pending_prewarm = None;
            due.push(fid);
        }
        // Ascending function-id order, whatever order they fell due in
        // (it is the order downstream container ids are assigned in).
        due.sort();
        // Consuming a pre-warm changes the release-early deadline of
        // the function's idle containers.
        for &fid in &due {
            self.rekey(fid, idle.of(fid));
        }
        due
    }

    fn pop_victim(&mut self) -> Option<ContainerId> {
        // Evict the container whose next invocation is predicted farthest
        // in the future ("evicted when the policy predicts it will not have
        // an invocation in the near future").
        let id = self.victims.pop(|&predicted| predicted)?;
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

/// One function's IAT record alone, for the crate's property tests: IATs
/// counted as [`Hist`] counts them, percentile buckets read where a fresh
/// cursor settles.
#[cfg(test)]
pub(crate) struct IatHistogram {
    cfg: HistConfig,
    f: FnHist,
}

#[cfg(test)]
impl IatHistogram {
    pub(crate) fn new(cfg: HistConfig) -> Self {
        IatHistogram {
            cfg,
            f: FnHist::default(),
        }
    }

    /// Counts one IAT, in minutes.
    pub(crate) fn record(&mut self, iat_mins: f64) {
        self.f.record(&self.cfg, iat_mins);
    }

    /// The bucket of the `q`-th percentile of the in-range IATs.
    pub(crate) fn percentile_bucket(&self, q: f64) -> usize {
        Cursor::default().settle(&self.f.counts, self.cfg.num_buckets - 1, self.f.rank(q))
    }

    /// In-range counts up to the highest bucket counted; the rest are 0.
    pub(crate) fn counts(&self) -> &[u64] {
        &self.f.counts
    }

    /// Every IAT counted, in range or not.
    pub(crate) fn count(&self) -> u64 {
        self.f.welford.count()
    }

    /// IATs past the last bucket.
    pub(crate) fn overflow_count(&self) -> u64 {
        self.f.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionRegistry;
    use faascache_util::MemMb;
    use proptest::prelude::*;

    /// A pool with no idle container.
    fn none() -> IdleView<'static> {
        IdleView::default()
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
            now,
        )
    }

    /// Cases of the cursor property: `FAASCACHE_HIST_CASES`, or 64.
    fn hist_cases() -> u32 {
        match std::env::var("FAASCACHE_HIST_CASES") {
            Ok(v) => v
                .parse()
                .expect("FAASCACHE_HIST_CASES must be a case count"),
            Err(_) => 64,
        }
    }

    /// The percentile bucket by its definition, from the counts alone:
    /// the first bucket whose cumulative in-range count reaches
    /// ceil(q × in-range), and at least 1; else the last bucket.
    fn by_definition(counts: &[u64], num_buckets: usize, q: f64) -> usize {
        let in_range: u64 = counts.iter().sum();
        let target = (q * in_range as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        counts
            .iter()
            .position(|&c| {
                cum += c;
                cum >= target
            })
            .unwrap_or(num_buckets - 1)
    }

    /// Where a fresh cursor settles for the `q`-th percentile of `f`.
    fn percentile(cfg: &HistConfig, f: &FnHist, q: f64) -> usize {
        Cursor::default().settle(&f.counts, cfg.num_buckets - 1, f.rank(q))
    }

    /// IAT shapes in minutes: short, clustered, anywhere in range,
    /// straddling its end, and past it.
    const SHAPES: [(f64, f64); 5] = [
        (0.0, 3.0),
        (100.0, 104.0),
        (0.0, 240.0),
        (230.0, 300.0),
        (240.0, 400.0),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(hist_cases()))]

        /// The carried cursors against the definition, over IAT sequences
        /// drawn from the `shapes` subset of [`SHAPES`]: nothing in range
        /// (no IAT yet, or overflow only), IATs past the counts prefix, and
        /// overflow. Settled after every IAT or only now and then (an
        /// unpredictable stretch); the buckets are monotone in q, and the
        /// prefix ends at the highest bucket counted.
        #[test]
        fn cursors_settle_where_the_scan_lands(
            shapes in 1u8..32,
            draws in prop::collection::vec((0usize..5, 0.0f64..1.0), 0..300),
            mut quantiles in prop::collection::vec(0.0f64..1.0, 1..6),
            settle_every in 1usize..40,
        ) {
            let cfg = HistConfig::default();
            quantiles.extend([0.0, 1.0]);
            quantiles.sort_by(f64::total_cmp);
            let mut f = FnHist::default();
            let mut cursors = vec![Cursor::default(); quantiles.len()];
            let mut highest = None;
            for step in 0..=draws.len() {
                if step % settle_every == 0 || step == draws.len() {
                    let mut previous = 0;
                    for (cursor, &q) in cursors.iter_mut().zip(&quantiles) {
                        let bucket = cursor.settle(&f.counts, cfg.num_buckets - 1, f.rank(q));
                        let want = by_definition(&f.counts, cfg.num_buckets, q);
                        prop_assert_eq!(bucket, want, "step {} q {}", step, q);
                        prop_assert!(bucket >= previous, "step {} q {}: not monotone", step, q);
                        previous = bucket;
                    }
                }
                let Some(&(shape, at)) = draws.get(step) else {
                    break;
                };
                let shape = if shapes & (1 << shape) != 0 {
                    shape
                } else {
                    shapes.trailing_zeros() as usize
                };
                let (lo, hi) = SHAPES[shape];
                let iat = lo + at * (hi - lo);
                f.record(&cfg, iat);
                if let Some(bucket) = cfg.bucket_of(iat) {
                    cursors.iter_mut().for_each(|c| c.recorded(bucket));
                    highest = highest.max(Some(bucket));
                }
                prop_assert_eq!(f.counts.len(), highest.map_or(0, |b| b + 1));
            }
        }
    }

    /// A function's counts reach only as far as its longest in-range IAT:
    /// IATs of at most k minutes hold at most k + 1 counters, and an IAT
    /// past the last bucket adds none.
    #[test]
    fn counts_reach_only_the_longest_gap() {
        let mut reg = FunctionRegistry::new();
        let short = spec(&mut reg, "short");
        let long = spec(&mut reg, "long");
        let mut hist = Hist::new(HistConfig::default());
        // IATs of 30 s to 3 min: k = 3.
        let mut at = SimTime::ZERO;
        for i in 0..200u64 {
            at += SimDuration::from_secs([30, 60, 150, 180][(i % 4) as usize]);
            hist.on_request(&short, at, none());
        }
        let counts = &hist.stats(short.id()).unwrap().counts;
        assert_eq!(counts.len(), 4);
        assert!(counts.capacity() <= 4, "{} counters", counts.capacity());
        // 5 min, then 300 (overflow), then 10, then 500 (overflow).
        let held = |hist: &Hist| hist.stats(long.id()).map_or(0, |f| f.counts.len());
        for (mins, counters) in [(0, 0), (5, 6), (305, 6), (315, 11), (815, 11)] {
            hist.on_request(&long, SimTime::from_mins(mins), none());
            assert_eq!(held(&hist), counters, "at {mins} min");
        }
        let f = hist.stats(long.id()).unwrap();
        assert_eq!((f.overflow, f.welford.count()), (2, 4));
        assert!(
            f.counts.capacity() <= 11,
            "{} counters",
            f.counts.capacity()
        );
    }

    #[test]
    fn histogram_percentiles() {
        let cfg = HistConfig {
            num_buckets: 10,
            ..HistConfig::default()
        };
        let mut f = FnHist::default();
        // 10 observations in bucket 2, 10 in bucket 7.
        for _ in 0..10 {
            f.record(&cfg, 2.5);
            f.record(&cfg, 7.5);
        }
        assert_eq!(percentile(&cfg, &f, 0.05), 2);
        assert_eq!(percentile(&cfg, &f, 0.5), 2);
        assert_eq!(percentile(&cfg, &f, 0.51), 7);
        assert_eq!(percentile(&cfg, &f, 0.99), 7);
    }

    /// Half the IATs past the range: counted as overflow, left out of the
    /// percentiles, and enough to make the function unpredictable.
    #[test]
    fn histogram_overflow_tracked() {
        let cfg = HistConfig {
            num_buckets: 4,
            ..HistConfig::default()
        };
        let mut f = FnHist::default();
        f.record(&cfg, 100.0);
        f.record(&cfg, 1.0);
        assert_eq!((f.overflow, &f.counts[..]), (1, &[0, 1][..]));
        assert_eq!(percentile(&cfg, &f, 1.0), 1);
        f.refresh_derived(&cfg);
        assert!(f.welford.coefficient_of_variation() <= cfg.cov_threshold);
        assert!(!f.predictable);
    }

    #[test]
    fn histogram_negative_clamps_to_zero_bucket() {
        let mut f = FnHist::default();
        f.record(&HistConfig::default(), -3.0);
        assert_eq!(f.counts, [1]);
    }

    #[test]
    fn histogram_empty_percentile_is_last_bucket() {
        let cfg = HistConfig {
            bucket_width: SimDuration::from_mins(2),
            num_buckets: 5,
            ..HistConfig::default()
        };
        let f = FnHist::default();
        assert_eq!(percentile(&cfg, &f, 0.5), 4);
        assert_eq!(cfg.window(4), SimDuration::from_mins(9));
    }

    #[test]
    fn becomes_predictable_with_regular_iats() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "regular");
        let mut hist = Hist::new(HistConfig::default());
        assert!(!hist.stats(s.id()).is_some_and(|f| f.predictable));
        // Invocations every 10 minutes, like clockwork.
        for i in 0..10u64 {
            hist.on_request(&s, SimTime::from_mins(i * 10), none());
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
            hist.on_request(&s, SimTime::from_mins(t), none());
        }
        // CoV of {1,200,1,200,1,200} ≈ 0.99 — actually predictable by CoV;
        // use something with CoV > 2 instead.
        let s2 = spec(&mut reg, "erratic2");
        let times2 = [0u64, 1, 2, 3, 4, 5, 230];
        for &t in &times2 {
            hist.on_request(&s2, SimTime::from_mins(t), none());
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
            hist.on_request(&s, SimTime::from_mins(i * 30), none());
        }
        // A pre-warm should be due before the next expected invocation at
        // t = 180 min, but not immediately.
        assert!(hist.prewarm_due(SimTime::from_mins(151), none()).is_empty());
        let due = hist.prewarm_due(SimTime::from_mins(180), none());
        assert_eq!(due, vec![s.id()]);
        // Consumed: not reported twice.
        assert!(hist.prewarm_due(SimTime::from_mins(181), none()).is_empty());
    }

    #[test]
    fn sub_minute_iats_do_not_prewarm() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "hot");
        let mut hist = Hist::new(HistConfig::default());
        for i in 0..20u64 {
            hist.on_request(&s, SimTime::from_secs(i * 10), none());
        }
        assert!(hist.stats(s.id()).is_some_and(|f| f.predictable));
        // Head bucket is 0 (< 1 min): the container never gets released, so
        // there is nothing to pre-warm.
        assert!(hist.prewarm_due(SimTime::from_mins(60), none()).is_empty());
    }

    #[test]
    fn unpredictable_uses_generic_ttl() {
        let mut reg = FunctionRegistry::new();
        let s = spec(&mut reg, "once");
        let mut hist = Hist::new(HistConfig::default());
        hist.on_request(&s, SimTime::ZERO, none());
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
            hist.on_request(&s, SimTime::from_mins(i * 5), none());
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
        let due = hist.prewarm_due(SimTime::from_secs((45 * 60) + 270), none());
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
            hist.on_request(&soon, SimTime::from_mins(i * 2), none());
            hist.on_request(&late, SimTime::from_mins(i * 60), none());
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
        hist.on_request(&s, SimTime::ZERO, none());
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
            hist.on_request(&s, SimTime::from_mins(i * 5), none());
        }
        // An idle container of the steady function, last used at the last
        // invocation: a pre-warm is pending, so it is released after the
        // 1-minute margin (deadline ≈ 46 min).
        let c = container_of(&s, 1, SimTime::from_mins(45));
        hist.on_finish(&c, SimTime::from_mins(45));
        assert!(hist.pop_expired(SimTime::from_secs(45 * 60 + 30)).is_none());
        // The pre-warm fires: the container is re-keyed to the tail
        // horizon (≈ 45 + 5.5 + 1 min) instead of expiring at 46 min.
        let mut idle = vec![Vec::new(); s.id().index() + 1];
        idle[s.id().index()].push((c.last_used(), c.id()));
        let due = hist.prewarm_due(SimTime::from_secs(45 * 60 + 270), IdleView::new(&idle));
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
            hist.on_request(&soon, SimTime::from_mins(i * 2), none());
            hist.on_request(&late, SimTime::from_mins(i * 60), none());
        }
        let c_soon = container_of(&soon, 1, SimTime::from_mins(18));
        let c_late = container_of(&late, 2, SimTime::from_mins(540));
        // Prewarmed rather than released: ranked the same way.
        hist.on_container_created(&c_soon, SimTime::from_mins(18), true);
        hist.on_container_created(&c_late, SimTime::from_mins(540), true);
        assert_eq!(hist.pop_victim(), Some(ContainerId::from_raw(2)));
    }
}
