//! Tiered weight storage: prefetch policies and the per-token tier walk.
//!
//! When a model's weights live on flash ([`zllm_ddr::FlashDevice`]) and
//! only a DDR budget's worth of layers is resident
//! ([`zllm_layout::WeightCache`]), every decode token must answer: *is the
//! next layer in DDR, and if not, how long does the pipeline stall?* This
//! module prices that question. [`crate::DecodeEngine`] first prices the
//! token's schedule exactly as before, then walks the schedule's layer
//! segments against the flash timeline: a layer's decode occupies its
//! byte-share of the token wall, prefetches issue while earlier layers
//! decode, and a layer that is not ready when the walk reaches it stalls
//! the pipeline for exactly the remaining fetch time.
//!
//! Two policies drive the walk behind one trait:
//!
//! * [`BlindLru`] — the FlashLLM/FlexGen-style strawman: aggressively
//!   prefetch the next `PREFETCH_WINDOW` layers in address order and
//!   evict least-recently-used to make room. Semantic-blind: at tight
//!   budgets the window's own fetches evict each other (and layers about
//!   to be used), so most flash traffic is wasted and nearly every layer
//!   becomes a demand miss behind a backed-up link.
//! * [`ScheduleAware`] — the co-designed policy: decode replays the exact
//!   same layer sequence every token and the schedule builder knows it,
//!   so the policy splits the budget into a *pinned* set (never evicted)
//!   and a small *streamed* set spread evenly across the cycle, fetched
//!   just-in-time into the remaining slot(s). Per token it fetches each
//!   non-resident layer exactly once, overlapped with decode — the
//!   minimum traffic any policy can achieve at that budget.
//!
//! Initial residency is free: the boot-time model load is not part of
//! decode throughput, so the cache starts warm in the policy's preferred
//! order.

use zllm_ddr::{stage_fetch, FlashConfig, FlashDevice, FlashStats, MemorySystem};
use zllm_layout::{BurstDescriptor, WeightCache};
use zllm_telemetry::{Counter, Gauge, MetricsRegistry};

use crate::image::ModelImage;
use crate::spec::SpecError;

/// The strawman's fixed lookahead (SNIPPETS §1: FlashLLM's aggressive
/// sequential pipelining).
pub const PREFETCH_WINDOW: usize = 4;

/// A layer-granular prefetch-and-eviction policy over a [`WeightCache`].
///
/// The engine's tier walk calls `prefetch_targets` after each layer it
/// decodes and `victim` whenever an incoming layer needs room; `plan`
/// runs once, before the first token, with the budget's layer capacity.
pub trait PrefetchPolicy: std::fmt::Debug {
    /// Short policy name for reports and telemetry.
    fn name(&self) -> &'static str;

    /// One-time planning hook: the number of layers in the cycle and how
    /// many the budget can hold at once.
    fn plan(&mut self, _n_layers: usize, _capacity_layers: usize) {}

    /// The order to warm the cache in at load time; the engine inserts
    /// layers in this order until the budget is full.
    fn warm_order(&self, n_layers: usize) -> Vec<usize> {
        (0..n_layers).collect()
    }

    /// Layers to try to prefetch while `current` decodes, in issue
    /// order. Already-resident targets are skipped by the walk.
    fn prefetch_targets(&self, current: usize, n_layers: usize, cache: &WeightCache) -> Vec<usize>;

    /// The layer to evict to make room for `incoming` while `current`
    /// decodes, or `None` to decline (the walk then skips the prefetch;
    /// for a demand fetch the walk falls back to LRU so forward progress
    /// never depends on the policy).
    fn victim(
        &self,
        incoming: usize,
        current: usize,
        n_layers: usize,
        cache: &WeightCache,
    ) -> Option<usize>;
}

/// Cyclic distance from `current` to the next use of `layer` (layers are
/// visited in index order every token). `0` means "needed right now".
fn next_use_distance(current: usize, layer: usize, n_layers: usize) -> usize {
    (layer + n_layers - current) % n_layers
}

/// The semantic-blind strawman: sequential window prefetch + LRU
/// eviction (FlashLLM / FlexGen style, `PREFETCH_WINDOW` lookahead).
#[derive(Debug, Clone)]
pub struct BlindLru {
    /// Lookahead depth in layers.
    pub window: usize,
}

impl Default for BlindLru {
    fn default() -> BlindLru {
        BlindLru {
            window: PREFETCH_WINDOW,
        }
    }
}

impl PrefetchPolicy for BlindLru {
    fn name(&self) -> &'static str {
        "blind-lru"
    }

    fn prefetch_targets(&self, current: usize, n_layers: usize, cache: &WeightCache) -> Vec<usize> {
        (1..=self.window.min(n_layers.saturating_sub(1)))
            .map(|j| (current + j) % n_layers)
            .filter(|&l| !cache.resident(l))
            .collect()
    }

    fn victim(
        &self,
        incoming: usize,
        current: usize,
        _n_layers: usize,
        cache: &WeightCache,
    ) -> Option<usize> {
        // Blind: whoever is least-recently used, even if it is a layer
        // the window just fetched or one about to be decoded.
        cache.lru(&[current, incoming])
    }
}

/// The schedule-aware policy: pin all but the streamed remainder, spread
/// the streamed layers evenly across the cycle, fetch them just-in-time.
#[derive(Debug, Clone, Default)]
pub struct ScheduleAware {
    streamed: Vec<bool>,
}

impl ScheduleAware {
    fn is_streamed(&self, layer: usize) -> bool {
        self.streamed.get(layer).copied().unwrap_or(true)
    }
}

impl PrefetchPolicy for ScheduleAware {
    fn name(&self) -> &'static str {
        "schedule-aware"
    }

    fn plan(&mut self, n_layers: usize, capacity_layers: usize) {
        self.streamed = vec![false; n_layers];
        if capacity_layers >= n_layers {
            return; // everything resident, nothing streams
        }
        // Pin capacity−1 layers, stream the other m through the last
        // slot. Spreading the streamed layers evenly maximizes the gap
        // between consecutive fetches, so each has the most decode time
        // to hide behind on the serialized flash link.
        let m = n_layers - capacity_layers + 1;
        for j in 0..m {
            self.streamed[j * n_layers / m] = true;
        }
    }

    fn warm_order(&self, n_layers: usize) -> Vec<usize> {
        // Pinned layers first (they must never lose their slot to a
        // warm-up fill), then streamed layers in cycle order.
        let mut order: Vec<usize> = (0..n_layers).filter(|&l| !self.is_streamed(l)).collect();
        order.extend((0..n_layers).filter(|&l| self.is_streamed(l)));
        order
    }

    fn prefetch_targets(&self, current: usize, n_layers: usize, cache: &WeightCache) -> Vec<usize> {
        // Upcoming streamed layers in next-use order; the walk issues
        // them while victims exist, so issuance is just-in-time.
        (1..n_layers)
            .map(|j| (current + j) % n_layers)
            .filter(|&l| self.is_streamed(l) && !cache.resident(l))
            .collect()
    }

    fn victim(
        &self,
        incoming: usize,
        current: usize,
        n_layers: usize,
        cache: &WeightCache,
    ) -> Option<usize> {
        // Evict the resident *streamed* layer whose next use is farthest,
        // and only if it is farther than the incoming layer's — pinned
        // layers are untouchable and a sooner-needed layer never yields
        // to a later-needed one (Belady's rule on the known cycle).
        let d_in = next_use_distance(current, incoming, n_layers).max(1);
        (0..n_layers)
            .filter(|&l| l != current && l != incoming && cache.resident(l) && self.is_streamed(l))
            .max_by_key(|&l| next_use_distance(current, l, n_layers))
            .filter(|&l| incoming == current || next_use_distance(current, l, n_layers) > d_in)
    }
}

/// Configuration of a tiered engine: the flash device, the DDR byte
/// budget for *layer* weights (embedding and LM head stay pinned outside
/// it), and the policy that drives the cache.
#[derive(Debug)]
pub struct TierConfig {
    /// The flash device the weights live on.
    pub flash: FlashConfig,
    /// DDR bytes available to cache layer weights.
    pub weight_budget_bytes: u64,
    /// The prefetch/eviction policy.
    pub policy: Box<dyn PrefetchPolicy>,
}

impl TierConfig {
    /// The blind strawman behind the given flash device and budget.
    pub fn blind_lru(flash: FlashConfig, weight_budget_bytes: u64) -> TierConfig {
        TierConfig {
            flash,
            weight_budget_bytes,
            policy: Box::new(BlindLru::default()),
        }
    }

    /// The schedule-aware policy behind the given device and budget.
    pub fn schedule_aware(flash: FlashConfig, weight_budget_bytes: u64) -> TierConfig {
        TierConfig {
            flash,
            weight_budget_bytes,
            policy: Box::new(ScheduleAware::default()),
        }
    }
}

/// Cumulative tier activity, kept as plain totals so nothing is
/// registered in the metrics registry until the tier actually does
/// something (the zero-cost-when-unused guarantee).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TierTally {
    pub hits: u64,
    pub demand_misses: u64,
    pub late_prefetches: u64,
    pub evictions: u64,
    pub prefetch_issued: u64,
    pub prefetch_wasted: u64,
    pub demand_bytes: u64,
    pub prefetch_bytes: u64,
    pub stall_ns: f64,
    pub staging_ddr_ns: f64,
}

impl TierTally {
    fn fetched(&self) -> bool {
        self.demand_misses + self.prefetch_issued > 0
    }
}

/// Pre-resolved registry handles, created lazily on the first fetch so
/// an all-resident tiered engine's snapshot is key-identical to a plain
/// engine's.
#[derive(Debug)]
struct TierMetrics {
    hits: Counter,
    misses: Counter,
    late_prefetches: Counter,
    evictions: Counter,
    prefetch_issued: Counter,
    prefetch_wasted: Counter,
    stall_cycles: Counter,
    flash_reads: Counter,
    flash_busy_ns: Counter,
    flash_bytes_demand: Counter,
    flash_bytes_prefetch: Counter,
    resident_layers: Gauge,
    /// Totals already flushed into the counters.
    published: TierTally,
    published_flash: FlashStats,
    published_stall_cycles: u64,
}

impl TierMetrics {
    fn register(reg: &mut MetricsRegistry) -> TierMetrics {
        TierMetrics {
            hits: reg.counter("tier.hits"),
            misses: reg.counter("tier.misses"),
            late_prefetches: reg.counter("tier.late_prefetches"),
            evictions: reg.counter("tier.evictions"),
            prefetch_issued: reg.counter("tier.prefetch.issued"),
            prefetch_wasted: reg.counter("tier.prefetch.wasted"),
            stall_cycles: reg.counter("tier.stall_cycles"),
            flash_reads: reg.counter("flash.reads"),
            flash_busy_ns: reg.counter("flash.busy_ns"),
            flash_bytes_demand: reg.counter("flash.bytes.demand"),
            flash_bytes_prefetch: reg.counter("flash.bytes.prefetch"),
            resident_layers: reg.gauge("tier.resident_layers"),
            published: TierTally::default(),
            published_flash: FlashStats::default(),
            published_stall_cycles: 0,
        }
    }
}

/// The engine-side state of the weight tier.
#[derive(Debug)]
pub(crate) struct TierState {
    pub(crate) cache: WeightCache,
    pub(crate) policy: Box<dyn PrefetchPolicy>,
    /// The flash device the layers stream from (staging writes go
    /// through the engine's own DDR system, passed into the walk).
    pub(crate) flash: FlashDevice,
    /// Ready time of an issued-but-possibly-unfinished fetch, per layer.
    in_flight: Vec<Option<f64>>,
    /// The decode timeline horizon (ns): where the previous token ended,
    /// including its stalls. Prefetch overlap is priced against it.
    clock_ns: f64,
    pub(crate) tally: TierTally,
    metrics: Option<TierMetrics>,
    /// Staging write bursts per layer (the layer's canonical addresses).
    layer_bursts: Vec<Vec<BurstDescriptor>>,
}

impl TierState {
    /// Builds the tier over an image: per-layer byte accounting, the
    /// policy's plan, and a warm cache (boot-time load is free).
    ///
    /// # Errors
    ///
    /// [`SpecError::TierBudgetTooSmall`] if the budget cannot hold the
    /// largest single layer.
    pub(crate) fn new(image: &ModelImage, mut cfg: TierConfig) -> Result<TierState, SpecError> {
        let n_layers = image.model().n_layers;
        let layer_bytes: Vec<u64> = (0..n_layers).map(|l| image.layer_weight_bytes(l)).collect();
        let largest_layer_bytes = layer_bytes.iter().copied().max().unwrap_or(0);
        if cfg.weight_budget_bytes < largest_layer_bytes {
            return Err(SpecError::TierBudgetTooSmall {
                budget_bytes: cfg.weight_budget_bytes,
                largest_layer_bytes,
            });
        }
        let layer_bursts: Vec<Vec<BurstDescriptor>> = (0..n_layers)
            .map(|l| {
                image
                    .layer_projections(l)
                    .iter()
                    .map(|p| BurstDescriptor {
                        write: true,
                        ..p.burst()
                    })
                    .collect()
            })
            .collect();
        let mut cache = WeightCache::new(layer_bytes, cfg.weight_budget_bytes);
        cfg.policy.plan(n_layers, cache.capacity_layers());
        for l in cfg.policy.warm_order(n_layers) {
            if !cache.resident(l) && cache.can_fit(l) {
                cache.insert(l);
            }
        }
        Ok(TierState {
            cache,
            policy: cfg.policy,
            flash: FlashDevice::new(cfg.flash),
            in_flight: vec![None; n_layers],
            clock_ns: 0.0,
            tally: TierTally::default(),
            metrics: None,
            layer_bursts,
        })
    }

    /// Evicts `victim`, counting a wasted prefetch if it was in flight.
    fn evict(&mut self, victim: usize) {
        self.cache.evict(victim);
        self.tally.evictions += 1;
        if self.in_flight[victim].take().is_some() {
            self.tally.prefetch_wasted += 1;
        }
    }

    /// Makes room for `incoming` (needed while `current` decodes) via the
    /// policy, falling back to LRU for demand fetches so progress never
    /// depends on the policy. Returns whether the layer now fits.
    fn make_room(&mut self, incoming: usize, current: usize, demand: bool) -> bool {
        let n = self.cache.n_layers();
        while !self.cache.can_fit(incoming) {
            let victim = self
                .policy
                .victim(incoming, current, n, &self.cache)
                .or_else(|| {
                    if demand {
                        self.cache.lru(&[current, incoming])
                    } else {
                        None
                    }
                })
                .filter(|&v| v != current && v != incoming && self.cache.resident(v));
            match victim {
                Some(v) => self.evict(v),
                None => return false,
            }
        }
        true
    }

    /// Walks one priced token: `segments` are `(layer, bytes)` runs of
    /// the schedule in op order, `base_wall_ns` the token's wall before
    /// tier effects. Prices demand stalls and prefetch overlap against
    /// the flash link; staging writes go through `tiered`'s shared DDR
    /// controller. Returns `(stall_ns, staging_ddr_ns)` for this token.
    pub(crate) fn walk_token(
        &mut self,
        mem: &mut MemorySystem,
        segments: &[(Option<usize>, u64)],
        total_bytes: u64,
        base_wall_ns: f64,
    ) -> (f64, f64) {
        let n = self.cache.n_layers();
        let mut t = self.clock_ns;
        let mut stall_ns = 0.0;
        let mut staging_ns = 0.0;
        for &(layer, seg_bytes) in segments {
            if let Some(l) = layer {
                // 1. The layer must be resident (and its fetch finished)
                //    before its first burst issues.
                if let Some(ready) = self.in_flight[l].take() {
                    self.tally.hits += 1;
                    if ready > t {
                        self.tally.late_prefetches += 1;
                        stall_ns += ready - t;
                        t = ready;
                    }
                } else if self.cache.resident(l) {
                    self.tally.hits += 1;
                } else {
                    // Demand miss: fetch now, stall until ready.
                    assert!(
                        self.make_room(l, l, true),
                        "demand fetch of layer {l} found no victim"
                    );
                    let f = stage_fetch(mem, &mut self.flash, &self.layer_bursts[l], t);
                    self.cache.insert(l);
                    self.tally.demand_misses += 1;
                    self.tally.demand_bytes += f.bytes;
                    staging_ns += f.ddr_wall_ns;
                    stall_ns += f.ready_ns - t;
                    t = f.ready_ns;
                }
                self.cache.touch(l);

                // 2. Issue prefetches to overlap with this layer's decode.
                for tgt in self.policy.prefetch_targets(l, n, &self.cache) {
                    if !self.make_room(tgt, l, false) {
                        break;
                    }
                    let f = stage_fetch(mem, &mut self.flash, &self.layer_bursts[tgt], t);
                    self.cache.insert(tgt);
                    self.in_flight[tgt] = Some(f.ready_ns);
                    self.tally.prefetch_issued += 1;
                    self.tally.prefetch_bytes += f.bytes;
                    staging_ns += f.ddr_wall_ns;
                }
            }
            // The segment's decode occupies its byte-share of the token's
            // tier-free wall; prefetches issued above overlap with it.
            t += base_wall_ns * seg_bytes as f64 / total_bytes.max(1) as f64;
        }
        self.clock_ns = t;
        self.tally.stall_ns += stall_ns;
        self.tally.staging_ddr_ns += staging_ns;
        (stall_ns, staging_ns)
    }

    /// Publishes tier telemetry. Registers the key set on the first
    /// fetch only, so an all-resident tier never perturbs the snapshot.
    pub(crate) fn publish(&mut self, registry: &mut MetricsRegistry, ns_per_cycle: f64) {
        let flash = self.flash.stats();
        if self.metrics.is_none() {
            if !self.tally.fetched() {
                return;
            }
            self.metrics = Some(TierMetrics::register(registry));
        }
        let m = self.metrics.as_mut().expect("registered above");
        let t = &self.tally;
        m.hits.add(t.hits - m.published.hits);
        m.misses.add(t.demand_misses - m.published.demand_misses);
        m.late_prefetches
            .add(t.late_prefetches - m.published.late_prefetches);
        m.evictions.add(t.evictions - m.published.evictions);
        m.prefetch_issued
            .add(t.prefetch_issued - m.published.prefetch_issued);
        m.prefetch_wasted
            .add(t.prefetch_wasted - m.published.prefetch_wasted);
        m.flash_bytes_demand
            .add(t.demand_bytes - m.published.demand_bytes);
        m.flash_bytes_prefetch
            .add(t.prefetch_bytes - m.published.prefetch_bytes);
        m.flash_reads.add(flash.reads - m.published_flash.reads);
        m.flash_busy_ns
            .add(flash.busy_ns - m.published_flash.busy_ns);
        let stall_cycles = (t.stall_ns / ns_per_cycle).round() as u64;
        m.stall_cycles.add(stall_cycles - m.published_stall_cycles);
        m.resident_layers.set(self.cache.resident_count() as f64);
        m.published = *t;
        m.published_flash = flash;
        m.published_stall_cycles = stall_cycles;
    }

    /// The current [`TierReport`] view.
    pub(crate) fn report(&self) -> TierReport {
        let f = self.flash.stats();
        let t = &self.tally;
        TierReport {
            policy: self.policy.name(),
            budget_bytes: self.cache.budget_bytes(),
            capacity_layers: self.cache.capacity_layers(),
            resident_layers: self.cache.resident_count(),
            hits: t.hits,
            demand_misses: t.demand_misses,
            late_prefetches: t.late_prefetches,
            prefetch_issued: t.prefetch_issued,
            prefetch_wasted: t.prefetch_wasted,
            evictions: t.evictions,
            flash_bytes: f.bytes,
            flash_reads: f.reads,
            stall_ns: t.stall_ns,
            staging_ddr_ns: t.staging_ddr_ns,
        }
    }
}

/// A value-type view of the tier for reports and sweeps.
#[derive(Debug, Clone)]
pub struct TierReport {
    /// Policy name.
    pub policy: &'static str,
    /// DDR byte budget for layer weights.
    pub budget_bytes: u64,
    /// Whole layers the budget can hold.
    pub capacity_layers: usize,
    /// Layers resident right now.
    pub resident_layers: usize,
    /// Layer uses served from DDR (no demand fetch).
    pub hits: u64,
    /// Demand fetches (layer absent at use time).
    pub demand_misses: u64,
    /// Prefetches that finished after the layer was needed.
    pub late_prefetches: u64,
    /// Prefetches issued.
    pub prefetch_issued: u64,
    /// Prefetches evicted before use (wasted flash traffic).
    pub prefetch_wasted: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Flash bytes moved (demand + prefetch).
    pub flash_bytes: u64,
    /// Flash requests issued (after request splitting).
    pub flash_reads: u64,
    /// Total pipeline stall waiting on the tier, ns.
    pub stall_ns: f64,
    /// DDR bus time consumed by staging writes, ns.
    pub staging_ddr_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(n: usize, cap: usize) -> WeightCache {
        WeightCache::new(vec![100; n], 100 * cap as u64)
    }

    #[test]
    fn blind_lru_prefetches_a_sequential_window() {
        let c = cache(8, 4);
        let p = BlindLru::default();
        assert_eq!(p.prefetch_targets(0, 8, &c), vec![1, 2, 3, 4]);
        // Wraps around the cycle.
        assert_eq!(p.prefetch_targets(6, 8, &c), vec![7, 0, 1, 2]);
    }

    #[test]
    fn blind_lru_evicts_soon_needed_layers() {
        let mut c = cache(8, 2);
        c.insert(0);
        c.insert(1);
        // Fetching layer 2 while decoding 0: the only candidate is 1 —
        // the very next layer. That is the strawman's flaw.
        let p = BlindLru::default();
        assert_eq!(p.victim(2, 0, 8, &c), Some(1));
    }

    #[test]
    fn schedule_aware_pins_and_spreads() {
        let mut p = ScheduleAware::default();
        p.plan(8, 6); // m = 3 streamed
        let streamed: Vec<usize> = (0..8).filter(|&l| p.is_streamed(l)).collect();
        assert_eq!(streamed.len(), 3);
        // Evenly spread: gaps of at least 2 layers.
        assert_eq!(streamed, vec![0, 2, 5]);
    }

    #[test]
    fn schedule_aware_never_evicts_pinned_or_sooner_needed() {
        let mut p = ScheduleAware::default();
        p.plan(4, 3); // streamed = {0, 2}, pinned = {1, 3}
        let mut c = cache(4, 3);
        c.insert(1);
        c.insert(3);
        c.insert(2);
        // While decoding 2, the next streamed need is 0 (distance 2);
        // resident streamed is 2 itself (current, excluded) — decline.
        assert_eq!(p.victim(0, 2, 4, &c), None);
        // While decoding 3, streamed 2 was just consumed (distance 3 >
        // 0's distance 1): evict it.
        assert_eq!(p.victim(0, 3, 4, &c), Some(2));
    }

    #[test]
    fn schedule_aware_all_resident_streams_nothing() {
        let mut p = ScheduleAware::default();
        p.plan(4, 4);
        let mut c = cache(4, 4);
        for l in p.warm_order(4) {
            c.insert(l);
        }
        assert!(p.prefetch_targets(0, 4, &c).is_empty());
    }
}
