//! The virtual-time serving simulator.
//!
//! [`Server`] replays a request trace against a [`DecodeEngine`],
//! advancing a virtual clock by each priced step's wall time. Two
//! batching disciplines are modeled:
//!
//! * **Continuous** — sequences join and leave between steps; every
//!   decode step is a *ragged* batch where each sequence is priced at
//!   its own context length, and prompts are prefilled in shared chunks
//!   that fan one weight stream across all prompt tokens.
//! * **Lockstep** — the classic gang-scheduling baseline: a batch is
//!   formed only when the machine is idle, every member is padded to
//!   the longest prompt, nobody joins mid-gang, and slots drain idle as
//!   short members finish.
//!
//! Both run behind the same KV-capacity admission controller, so the
//! comparison isolates the scheduling discipline. All latencies are
//! virtual seconds derived from the DDR/VPU pricing model — the same
//! trace on the same configuration reproduces bit-identical reports.

use crate::admission::{AdmissionConfig, AdmissionController, Rejection};
use crate::request::{DropReason, Request, RequestOutcome};
use zllm_accel::{
    AccelConfig, DecodeEngine, DraftCost, EngineSpec, PrefillChunk, SpecError, SpecWindow,
};
use zllm_layout::kv_page::PagedKvAllocator;
use zllm_model::ModelConfig;
use zllm_rng::StdRng;

/// The batching discipline the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchingMode {
    /// Continuous batching: ragged per-sequence contexts, join/leave
    /// between steps, chunked shared prefill.
    Continuous,
    /// Gang scheduling: batches form only on an idle machine, members
    /// pad to the longest prompt, and no one joins mid-gang.
    Lockstep,
}

impl BatchingMode {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BatchingMode::Continuous => "continuous",
            BatchingMode::Lockstep => "lockstep",
        }
    }
}

/// Paged-KV serving configuration: the image is built with fixed-size
/// KV pages and admission charges **actual growth** (the prompt's pages
/// at admit time, one page at a time as the sequence decodes) instead
/// of the worst-case footprint. Reclaim keeps optimistic admission
/// safe: finished sequences return their pages immediately, and a
/// high-class request that would otherwise starve preempts the
/// newest-admitted lower-class sequence (preempt-and-recompute).
#[derive(Debug, Clone)]
pub struct PagedConfig {
    /// Tokens per KV page — a positive multiple of the pack quantum
    /// ([`zllm_layout::kv_page::PAGE_TOKEN_QUANTUM`]) that divides the
    /// context capacity.
    pub page_tokens: usize,
    /// Fraction of the page pool **new admissions** may fill; the rest
    /// is headroom reserved for in-flight growth (growth itself may use
    /// the full pool). In `(0, 1]`.
    ///
    /// The default of 0.5 paces admission against future growth: a
    /// sequence admits holding only its prompt pages and then roughly
    /// doubles its footprint over its decode life, so filling half the
    /// pool with (mostly young) residents leaves about the headroom
    /// their remaining growth needs. Higher watermarks admit more
    /// eagerly but collide in-flight growth with the pool limit, and
    /// every collision is a preempt-and-recompute that throws away a
    /// sequence's progress — at 0.9 the thrash costs more goodput than
    /// the extra admissions earn.
    pub watermark: f64,
}

impl Default for PagedConfig {
    fn default() -> PagedConfig {
        PagedConfig {
            page_tokens: 16,
            watermark: 0.5,
        }
    }
}

/// Speculative-decoding configuration for the continuous decode loop.
///
/// Each decode step becomes a *verify window*: `k` draft tokens are
/// proposed per sequence and the target model verifies all `k + 1`
/// positions in one weight stream, committing between 1 and `k + 1`
/// tokens. The serving layer does not simulate the draft model token by
/// token — acceptance is drawn i.i.d. per drafted token at
/// `accept_rate` from a seeded generator, and the draft's cost is
/// priced as a flat per-token latency folded into the step's wall time
/// (see [`zllm_accel::DraftCost`]). Under the paged allocator the
/// window's up-to-`k`-token KV overhang is charged to admission before
/// the step and the rejected tokens' pages are uncharged after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// Draft tokens proposed per verify window (`K`).
    pub k: usize,
    /// Per-token probability a drafted token survives verification.
    pub accept_rate: f64,
    /// Flat draft cost per drafted token, nanoseconds.
    pub draft_ns_per_token: f64,
    /// Seed for the acceptance draws.
    pub seed: u64,
}

impl SpeculationConfig {
    /// A window of `k` draft tokens at the given accept rate, with a
    /// free draft and a fixed default seed.
    pub fn new(k: usize, accept_rate: f64) -> SpeculationConfig {
        SpeculationConfig {
            k,
            accept_rate,
            draft_ns_per_token: 0.0,
            seed: 0x5eed,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-sequence context capacity the image is built for.
    pub ctx_capacity: usize,
    /// Concurrent KV slots the image provisions.
    pub slots: usize,
    /// Batching discipline.
    pub mode: BatchingMode,
    /// Maximum prompt tokens a single chunked-prefill step may carry
    /// (across all sequences sharing the step).
    pub prefill_chunk: usize,
    /// Admission wait-queue capacity.
    pub queue_cap: usize,
    /// Anti-starvation bound for the admission queues, seconds.
    pub starvation_bound_s: f64,
    /// Overrides the KV byte budget (defaults to the image's own
    /// [`kv_budget_bytes`](zllm_accel::ModelImage::kv_budget_bytes);
    /// tighten it to study admission behaviour under capacity pressure).
    pub kv_budget_bytes: Option<u64>,
    /// Multiplier on the class deadline budgets (small models / fast
    /// memory parts tighten deadlines proportionally).
    pub deadline_scale: f64,
    /// When set, the KV cache is paged and admission charges actual
    /// growth instead of the worst case. Continuous batching only.
    pub paged: Option<PagedConfig>,
    /// When set, continuous decode steps are speculative verify windows
    /// instead of single-token steps. Continuous batching only.
    pub speculative: Option<SpeculationConfig>,
}

impl ServerConfig {
    /// A continuous-batching configuration with sensible defaults for
    /// the given geometry.
    pub fn continuous(ctx_capacity: usize, slots: usize) -> ServerConfig {
        ServerConfig {
            ctx_capacity,
            slots,
            mode: BatchingMode::Continuous,
            prefill_chunk: 32,
            queue_cap: 64,
            starvation_bound_s: 60.0,
            kv_budget_bytes: None,
            deadline_scale: 1.0,
            paged: None,
            speculative: None,
        }
    }

    /// The same defaults under the lockstep baseline discipline.
    pub fn lockstep(ctx_capacity: usize, slots: usize) -> ServerConfig {
        ServerConfig {
            mode: BatchingMode::Lockstep,
            ..ServerConfig::continuous(ctx_capacity, slots)
        }
    }

    /// Enables paged-KV serving with actual-growth admission.
    pub fn paged(mut self, paged: PagedConfig) -> ServerConfig {
        self.paged = Some(paged);
        self
    }

    /// Enables speculative decoding on the continuous decode loop.
    pub fn speculative(mut self, spec: SpeculationConfig) -> ServerConfig {
        self.speculative = Some(spec);
        self
    }
}

/// An in-flight sequence: the admitted request plus its progress.
/// Shared with the cluster layer, whose pipelines track the same
/// lifecycle.
#[derive(Debug, Clone)]
pub(crate) struct Active {
    pub(crate) request: Request,
    pub(crate) slot: usize,
    pub(crate) bytes: u64,
    pub(crate) admitted_s: f64,
    pub(crate) prefilled: usize,
    pub(crate) generated: usize,
    pub(crate) first_token_s: Option<f64>,
    pub(crate) token_latency_sum_s: f64,
    pub(crate) token_latency_max_s: f64,
}

impl Active {
    pub(crate) fn needs_prefill(&self) -> bool {
        self.prefilled < self.request.prompt_tokens
    }

    pub(crate) fn ctx(&self) -> usize {
        self.request.prompt_tokens + self.generated
    }

    pub(crate) fn done(&self) -> bool {
        self.generated >= self.request.decode_tokens()
    }

    pub(crate) fn finish(self, now: f64) -> RequestOutcome {
        RequestOutcome {
            request: self.request,
            admitted_s: Some(self.admitted_s),
            first_token_s: self.first_token_s,
            finish_s: Some(now),
            generated: self.generated,
            token_latency_sum_s: self.token_latency_sum_s,
            token_latency_max_s: self.token_latency_max_s,
            dropped: None,
        }
    }
}

/// The aggregate result of replaying one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Discipline that produced this report.
    pub mode: BatchingMode,
    /// Per-request audit records, in request-id order.
    pub outcomes: Vec<RequestOutcome>,
    /// Virtual seconds from first arrival to last completion.
    pub sim_seconds: f64,
    /// Requests offered to admission.
    pub offered: u64,
    /// Requests granted a slot.
    pub admitted: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Rejections because the wait queue was full.
    pub rejected_queue_full: u64,
    /// Rejections because the request could never fit.
    pub rejected_infeasible: u64,
    /// Completed requests that met their class deadlines.
    pub deadline_met: u64,
    /// New tokens generated across all requests.
    pub generated_tokens: u64,
    /// Prompt tokens prefilled across all requests.
    pub prompt_tokens: u64,
    /// Ragged / gang decode steps priced.
    pub decode_steps: u64,
    /// Chunked prefill steps priced.
    pub prefill_steps: u64,
    /// Aggregate decode throughput: generated tokens over sim seconds.
    pub tokens_per_s: f64,
    /// Goodput: tokens of deadline-meeting requests over sim seconds.
    pub goodput_tokens_per_s: f64,
    /// Time-to-first-token percentiles over completed requests, ms.
    pub ttft_p50_ms: f64,
    /// 95th-percentile TTFT, ms.
    pub ttft_p95_ms: f64,
    /// 99th-percentile TTFT, ms.
    pub ttft_p99_ms: f64,
    /// Median of per-request mean decode-token latency, ms.
    pub token_p50_ms: f64,
    /// 95th percentile of per-request mean token latency, ms.
    pub token_p95_ms: f64,
    /// 99th percentile of per-request mean token latency, ms.
    pub token_p99_ms: f64,
    /// Peak KV bytes reserved at any instant.
    pub kv_peak_bytes: u64,
    /// The KV budget admissions were priced against.
    pub kv_budget_bytes: u64,
    /// Peak admission-queue depth.
    pub queue_peak: usize,
    /// Peak concurrently admitted sequences — the users-per-board
    /// headline paged admission lifts.
    pub concurrent_peak: usize,
    /// Sequences preempted (evicted and requeued for recompute) by the
    /// paged reclaim policy. Always zero under worst-case reservation.
    pub preempted: u64,
    /// Draft tokens proposed across all verify windows. Always zero
    /// when speculation is off.
    pub spec_drafted: u64,
    /// Draft tokens accepted by verification (the committed tokens
    /// beyond the one-per-window baseline).
    pub spec_accepted: u64,
}

/// Index of the newest-admitted active sequence whose class priority is
/// strictly lower (numerically greater) than `than_priority` — the
/// deadline-aware preemption victim. Ties break toward the higher id.
pub(crate) fn newest_lower_class(active: &[Active], than_priority: usize) -> Option<usize> {
    active
        .iter()
        .enumerate()
        .filter(|(_, a)| a.request.class.priority() > than_priority)
        .max_by(|(_, x), (_, y)| {
            x.admitted_s
                .partial_cmp(&y.admitted_s)
                .expect("finite")
                .then(x.request.id.cmp(&y.request.id))
        })
        .map(|(i, _)| i)
}

/// Evicts an active sequence for reclaim: frees its pages and charge,
/// and puts the request back at the **head** of its class queue quoted
/// at its page-rounded worst case. Preempt-and-recompute: the sequence
/// restarts from prefill when re-admitted.
fn preempt(
    active: &mut Vec<Active>,
    idx: usize,
    pool: &mut PagedKvAllocator,
    admission: &mut AdmissionController,
    worst_bytes: u64,
    now: f64,
) {
    let a = active.remove(idx);
    pool.release(a.slot);
    admission.release(a.slot, a.bytes);
    admission.requeue_front(a.request, worst_bytes, now);
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The serving simulator: a decode engine plus admission control and a
/// virtual clock.
pub struct Server {
    engine: DecodeEngine,
    cfg: ServerConfig,
    budget_bytes: u64,
}

impl Server {
    /// Builds the engine image for the configured geometry and wraps it
    /// in a server.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeEngine::new`] error — typically the
    /// allocation failure when the weights plus the provisioned KV slots
    /// do not fit the accelerator's DDR map.
    pub fn new(
        accel: AccelConfig,
        model: &ModelConfig,
        cfg: ServerConfig,
    ) -> Result<Server, SpecError> {
        assert!(
            cfg.prefill_chunk > 0,
            "prefill chunk must cover at least one token"
        );
        assert!(cfg.deadline_scale > 0.0, "deadline scale must be positive");
        if let Some(s) = &cfg.speculative {
            assert!(
                cfg.mode == BatchingMode::Continuous,
                "speculative decoding requires continuous batching"
            );
            assert!(s.k > 0, "speculation needs at least one draft token");
            assert!(
                (0.0..=1.0).contains(&s.accept_rate),
                "accept rate is a probability"
            );
            assert!(
                s.draft_ns_per_token >= 0.0,
                "draft cost must be nonnegative"
            );
        }
        if let Some(p) = &cfg.paged {
            assert!(
                cfg.mode == BatchingMode::Continuous,
                "paged serving requires continuous batching"
            );
            assert!(
                p.watermark > 0.0 && p.watermark <= 1.0,
                "watermark must be in (0, 1]"
            );
        }
        let spec = EngineSpec {
            batch: cfg.slots,
            page_tokens: cfg.paged.as_ref().map(|p| p.page_tokens),
            ..EngineSpec::from(cfg.ctx_capacity)
        };
        let engine = DecodeEngine::new(accel, model, spec)?;
        let budget_bytes = cfg
            .kv_budget_bytes
            .unwrap_or_else(|| engine.image().kv_budget_bytes());
        Ok(Server {
            engine,
            cfg,
            budget_bytes,
        })
    }

    /// The engine (image, metrics registry) backing this server.
    pub fn engine(&self) -> &DecodeEngine {
        &self.engine
    }

    /// Mutable engine access (snapshotting, registry resets).
    pub fn engine_mut(&mut self) -> &mut DecodeEngine {
        &mut self.engine
    }

    /// The KV byte budget admissions are priced against.
    pub fn kv_budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Page-pool geometry under paged serving: `(page bytes, total
    /// pages, watermark pages new admissions may fill)`.
    fn pool_geometry(&self) -> Option<(u64, usize, usize)> {
        let p = self.cfg.paged.as_ref()?;
        let page_bytes = self.engine.image().kv_page_bytes();
        let total = (self.budget_bytes / page_bytes) as usize;
        assert!(total > 0, "KV budget holds less than one page");
        let wm = (p.watermark * total as f64).floor() as usize;
        Some((page_bytes, total, wm))
    }

    /// Replays a trace (must be sorted by arrival time) to completion
    /// and returns the aggregate report. Also publishes `serve.*`
    /// counters and gauges into the engine's metrics registry; counters
    /// accumulate across runs, so use one server per measured scenario.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time.
    pub fn run(&mut self, trace: &[Request]) -> ServeReport {
        assert!(
            trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
            "trace must be sorted by arrival time"
        );
        let mut admission = AdmissionController::new(AdmissionConfig {
            slots: self.cfg.slots,
            budget_bytes: self.budget_bytes,
            queue_cap: self.cfg.queue_cap,
            starvation_bound_s: self.cfg.starvation_bound_s,
        });
        let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(trace.len());
        let mut active: Vec<Active> = Vec::new();
        let geometry = self.pool_geometry();
        let mut pool = geometry.map(|(_, total, _)| {
            let p = self.cfg.paged.as_ref().expect("paged geometry");
            PagedKvAllocator::new(total, self.cfg.slots, p.page_tokens)
        });
        let mut preempted = 0u64;
        let mut next = 0usize; // next trace entry to ingest
        let mut now = 0.0f64;
        // Lockstep gang state: the padded prompt length of the current
        // gang (None when the machine is between gangs).
        let mut gang_pad: Option<usize> = None;
        let mut decode_steps = 0u64;
        let mut prefill_steps = 0u64;
        let mut generated_tokens = 0u64;
        let mut prompt_tokens = 0u64;
        // Speculation state: the seeded acceptance generator plus the
        // drafted/accepted tallies for the report.
        let mut spec_rng = self.cfg.speculative.map(|s| StdRng::seed_from_u64(s.seed));
        let mut spec_drafted = 0u64;
        let mut spec_accepted = 0u64;

        loop {
            // Ingest every arrival due by now.
            while next < trace.len() && trace[next].arrival_s <= now {
                let r = trace[next].clone();
                next += 1;
                self.ingest(r, &mut admission, &mut outcomes);
            }
            // Admit from the queues under the discipline's rules.
            match self.cfg.mode {
                BatchingMode::Continuous => {
                    if let (Some(pool), Some((page_bytes, _, wm_pages))) = (pool.as_mut(), geometry)
                    {
                        // Actual-growth admission: charge the prompt's
                        // pages, gated by the watermark; an Interactive
                        // head blocked on pages preempts the newest
                        // lower-class sequence rather than waiting.
                        let pt = pool.page_tokens();
                        while active.len() < self.cfg.slots {
                            let used = pool.used_pages();
                            let free = pool.free_pages();
                            let granted = admission.try_admit_charged(
                                now,
                                |r| r.prompt_tokens.div_ceil(pt) as u64 * page_bytes,
                                |r, _| {
                                    let need = r.prompt_tokens.div_ceil(pt);
                                    used + need <= wm_pages && need <= free
                                },
                            );
                            match granted {
                                Some(g) => {
                                    assert!(
                                        pool.grow_to(g.slot, g.request.prompt_tokens),
                                        "accept gate reserved the prompt pages"
                                    );
                                    active.push(Active {
                                        request: g.request,
                                        slot: g.slot,
                                        bytes: g.bytes,
                                        admitted_s: g.admitted_s,
                                        prefilled: 0,
                                        generated: 0,
                                        first_token_s: None,
                                        token_latency_sum_s: 0.0,
                                        token_latency_max_s: 0.0,
                                    });
                                }
                                None => {
                                    let (head_prio, head_prompt) = match admission.peek_head(now) {
                                        Some(h) => (h.class.priority(), h.prompt_tokens),
                                        None => break,
                                    };
                                    if head_prio != 0 || admission.free_slots() == 0 {
                                        break;
                                    }
                                    let need = head_prompt.div_ceil(pt);
                                    if used + need <= wm_pages && need <= free {
                                        break; // blocked elsewhere; reclaim cannot help
                                    }
                                    match newest_lower_class(&active, head_prio) {
                                        Some(i) => {
                                            let worst =
                                                self.engine.image().page_rounded_request_bytes(
                                                    active[i].request.total_tokens(),
                                                    pt,
                                                );
                                            preempt(
                                                &mut active,
                                                i,
                                                pool,
                                                &mut admission,
                                                worst,
                                                now,
                                            );
                                            preempted += 1;
                                        }
                                        None => break,
                                    }
                                }
                            }
                        }
                    } else {
                        while active.len() < self.cfg.slots {
                            match admission.try_admit(now) {
                                Some(g) => active.push(Active {
                                    request: g.request,
                                    slot: g.slot,
                                    bytes: g.bytes,
                                    admitted_s: g.admitted_s,
                                    prefilled: 0,
                                    generated: 0,
                                    first_token_s: None,
                                    token_latency_sum_s: 0.0,
                                    token_latency_max_s: 0.0,
                                }),
                                None => break,
                            }
                        }
                    }
                }
                BatchingMode::Lockstep => {
                    // A gang forms only on an idle machine and pads every
                    // member to the longest prompt; the padded context
                    // must still fit the image for the slowest member.
                    if active.is_empty() {
                        gang_pad = None;
                        let (mut pad, mut longest_tail) = (0usize, 0usize);
                        let cap = self.cfg.ctx_capacity;
                        while active.len() < self.cfg.slots {
                            let g = admission.try_admit_where(now, |r| {
                                pad.max(r.prompt_tokens) + longest_tail.max(r.max_new_tokens) <= cap
                            });
                            match g {
                                Some(g) => {
                                    pad = pad.max(g.request.prompt_tokens);
                                    longest_tail = longest_tail.max(g.request.max_new_tokens);
                                    active.push(Active {
                                        request: g.request,
                                        slot: g.slot,
                                        bytes: g.bytes,
                                        admitted_s: g.admitted_s,
                                        prefilled: 0,
                                        generated: 0,
                                        first_token_s: None,
                                        token_latency_sum_s: 0.0,
                                        token_latency_max_s: 0.0,
                                    });
                                }
                                None => break,
                            }
                        }
                        if !active.is_empty() {
                            gang_pad = Some(pad);
                        }
                    }
                }
            }
            if active.is_empty() {
                // Idle: jump to the next arrival, or stop when both the
                // trace and the queues are exhausted (an empty machine
                // always admits the head, so an idle machine with no
                // future arrivals means nothing is left).
                if next < trace.len() {
                    now = now.max(trace[next].arrival_s);
                    continue;
                }
                break;
            }

            if active.iter().any(Active::needs_prefill) {
                // One shared chunked-prefill step: highest class first,
                // then admission order, bounded by the chunk budget.
                let mut order: Vec<usize> = (0..active.len())
                    .filter(|&i| active[i].needs_prefill())
                    .collect();
                order.sort_by(|&a, &b| {
                    let ka = (active[a].request.class.priority(), active[a].request.id);
                    let kb = (active[b].request.class.priority(), active[b].request.id);
                    ka.cmp(&kb)
                });
                let mut budget = self.cfg.prefill_chunk;
                let mut chunks = Vec::new();
                let mut owners = Vec::new();
                for i in order {
                    if budget == 0 {
                        break;
                    }
                    let a = &active[i];
                    let len = (a.request.prompt_tokens - a.prefilled).min(budget);
                    chunks.push(PrefillChunk {
                        slot: a.slot,
                        start: a.prefilled,
                        len,
                    });
                    owners.push((i, len));
                    budget -= len;
                }
                let r = self.engine.prefill_chunked(&chunks);
                now += r.wall_ns * 1e-9;
                prefill_steps += 1;
                for (i, len) in owners {
                    active[i].prefilled += len;
                    prompt_tokens += len as u64;
                }
                continue;
            }

            // Page growth: the decode step writes each participant's
            // next token, so every participant must own the page that
            // token lands in. Starved sequences reclaim via
            // deadline-aware preemption, else sit the step out; if
            // nobody can move, the newest admission is force-evicted so
            // the machine keeps making progress.
            let mut ready = vec![true; active.len()];
            if let (Some(pool), Some((page_bytes, _, _))) = (pool.as_mut(), geometry) {
                loop {
                    ready = vec![false; active.len()];
                    let mut starved: Vec<usize> = Vec::new();
                    for i in 0..active.len() {
                        let want = active[i].ctx() + 1;
                        let have = pool.pages_of(active[i].slot).len();
                        let need = pool.pages_needed(want);
                        if need <= have {
                            ready[i] = true;
                        } else if pool.grow_to(active[i].slot, want) {
                            let delta = (need - have) as u64 * page_bytes;
                            admission.charge(delta);
                            active[i].bytes += delta;
                            ready[i] = true;
                        } else {
                            starved.push(i);
                        }
                    }
                    if starved.is_empty() {
                        break;
                    }
                    let urgent = starved
                        .iter()
                        .map(|&i| active[i].request.class.priority())
                        .min()
                        .expect("starved nonempty");
                    let victim = match newest_lower_class(&active, urgent) {
                        Some(i) => Some(i),
                        // Zero progress: force-evict the newest
                        // admission regardless of class. (Unreachable
                        // with one sequence — ingest guarantees a lone
                        // sequence's total pages fit the pool.)
                        None if starved.len() == active.len() => {
                            (0..active.len()).max_by(|&x, &y| {
                                active[x]
                                    .admitted_s
                                    .partial_cmp(&active[y].admitted_s)
                                    .expect("finite")
                                    .then(active[x].request.id.cmp(&active[y].request.id))
                            })
                        }
                        None => None, // the starved minority sits this step out
                    };
                    match victim {
                        Some(i) => {
                            let worst = self.engine.image().page_rounded_request_bytes(
                                active[i].request.total_tokens(),
                                pool.page_tokens(),
                            );
                            preempt(&mut active, i, pool, &mut admission, worst, now);
                            preempted += 1;
                        }
                        None => break,
                    }
                }
            }

            // One decode step for every page-ready active sequence.
            // `committed[i]` is how many tokens participant `i` banked
            // this step: 1 on a plain step, `accepted + 1` on a
            // speculative verify window, 0 for a sequence sitting the
            // step out.
            let mut committed = vec![0usize; active.len()];
            let step_s = match self.cfg.mode {
                BatchingMode::Continuous => match self.cfg.speculative {
                    Some(spec) => {
                        let mut windows: Vec<SpecWindow> = Vec::new();
                        let mut owners: Vec<usize> = Vec::new();
                        for i in 0..active.len() {
                            if !ready[i] {
                                continue;
                            }
                            let ctx = active[i].ctx();
                            let remaining = active[i].request.decode_tokens() - active[i].generated;
                            // Never draft past the request's remaining
                            // tokens or the context capacity: a window
                            // commits at most `k + 1` tokens and writes
                            // KV for `k + 1` positions.
                            let mut k = spec
                                .k
                                .min(remaining - 1)
                                .min(self.cfg.ctx_capacity - 1 - ctx);
                            // The transient overhang: the verify window
                            // writes up to `k` tokens past the next
                            // committed position, so those pages must
                            // be owned — and charged — before the step.
                            // If the pool cannot host the overhang the
                            // window degrades to the plain one-token
                            // verify rather than stealing pages.
                            if k > 0 {
                                if let (Some(pool), Some((page_bytes, _, _))) =
                                    (pool.as_mut(), geometry)
                                {
                                    let have = pool.pages_of(active[i].slot).len();
                                    let need = pool.pages_needed(ctx + 1 + k);
                                    if need > have {
                                        if pool.grow_to(active[i].slot, ctx + 1 + k) {
                                            let delta = (need - have) as u64 * page_bytes;
                                            admission.charge(delta);
                                            active[i].bytes += delta;
                                        } else {
                                            k = 0;
                                        }
                                    }
                                }
                            }
                            let rng = spec_rng.as_mut().expect("speculative rng");
                            let mut accepted = 0;
                            for _ in 0..k {
                                if rng.gen_bool(spec.accept_rate) {
                                    accepted += 1;
                                } else {
                                    break;
                                }
                            }
                            windows.push(SpecWindow {
                                slot: active[i].slot,
                                ctx,
                                drafted: k,
                                accepted,
                            });
                            owners.push(i);
                        }
                        let draft = DraftCost::FlatNs {
                            ns_per_token: spec.draft_ns_per_token,
                        };
                        let r = self.engine.decode_speculative(&windows, &draft);
                        for (w, &i) in windows.iter().zip(&owners) {
                            committed[i] = w.accepted + 1;
                            spec_drafted += w.drafted as u64;
                            spec_accepted += w.accepted as u64;
                            // Rejected tokens uncharge: shrink back to
                            // the committed context and return the
                            // overhang pages to the pool.
                            if let (Some(pool), Some((page_bytes, _, _))) =
                                (pool.as_mut(), geometry)
                            {
                                let freed = pool.shrink_to(active[i].slot, w.keep()).len() as u64;
                                if freed > 0 {
                                    let delta = freed * page_bytes;
                                    admission.uncharge(delta);
                                    active[i].bytes -= delta;
                                }
                            }
                        }
                        r.wall_ns * 1e-9
                    }
                    None => {
                        let slots: Vec<(usize, usize)> = active
                            .iter()
                            .zip(&ready)
                            .filter(|(_, r)| **r)
                            .map(|(a, _)| (a.slot, a.ctx()))
                            .collect();
                        for (c, r) in committed.iter_mut().zip(&ready) {
                            if *r {
                                *c = 1;
                            }
                        }
                        self.engine.decode_token_ragged(&slots).wall_ns * 1e-9
                    }
                },
                BatchingMode::Lockstep => {
                    // All alive members have generated the same count;
                    // everyone is priced at the padded context.
                    let pad = gang_pad.expect("gang in progress");
                    let ctx = pad + active[0].generated;
                    committed.fill(1);
                    self.engine.decode_token_batch(ctx, active.len()).wall_ns * 1e-9
                }
            };
            now += step_s;
            decode_steps += 1;
            generated_tokens += committed.iter().map(|&c| c as u64).sum::<u64>();
            for (a, &c) in active.iter_mut().zip(&committed) {
                if c == 0 {
                    continue;
                }
                // A verify window lands all its tokens at once; each is
                // booked at the window's amortized per-token latency.
                let per_token_s = step_s / c as f64;
                for _ in 0..c {
                    a.generated += 1;
                    if a.generated == 1 {
                        a.first_token_s = Some(now);
                    } else {
                        a.token_latency_sum_s += per_token_s;
                        a.token_latency_max_s = a.token_latency_max_s.max(per_token_s);
                    }
                }
            }
            // Retire finished sequences (preserving step order for the
            // survivors keeps the ragged slot vectors deterministic).
            // Evict-on-finish: a paged sequence returns its pages the
            // instant it completes.
            let mut i = 0;
            while i < active.len() {
                if active[i].done() {
                    let a = active.remove(i);
                    if let Some(pool) = pool.as_mut() {
                        pool.release(a.slot);
                    }
                    admission.release(a.slot, a.bytes);
                    outcomes.push(a.finish(now));
                } else {
                    i += 1;
                }
            }
        }

        outcomes.sort_by_key(|o| o.request.id);
        let report = self.summarize(
            outcomes,
            now,
            &admission,
            decode_steps,
            prefill_steps,
            generated_tokens,
            prompt_tokens,
            preempted,
            spec_drafted,
            spec_accepted,
        );
        self.publish(&report);
        report
    }

    /// Offers one arrival to admission, recording a drop outcome when it
    /// is turned away.
    fn ingest(
        &self,
        r: Request,
        admission: &mut AdmissionController,
        outcomes: &mut Vec<RequestOutcome>,
    ) {
        let dropped = if r.total_tokens() > self.cfg.ctx_capacity {
            admission.note_infeasible();
            Some(DropReason::Infeasible)
        } else if let Some((page_bytes, total, wm)) = self.pool_geometry() {
            // Paged feasibility: the prompt must clear the admission
            // watermark and the whole sequence must fit the pool alone
            // (which guarantees growth can always be force-evicted back
            // to progress). Quoted at the page-rounded worst case.
            let pt = self.cfg.paged.as_ref().expect("paged geometry").page_tokens;
            let prompt_pages = r.prompt_tokens.div_ceil(pt);
            let total_pages = r.total_tokens().div_ceil(pt);
            if prompt_pages > wm || total_pages > total {
                admission.note_infeasible();
                Some(DropReason::Infeasible)
            } else {
                let bytes = total_pages as u64 * page_bytes;
                match admission.offer(r.clone(), bytes, r.arrival_s) {
                    Ok(()) => None,
                    Err(Rejection::Infeasible) => Some(DropReason::Infeasible),
                    Err(Rejection::QueueFull) => Some(DropReason::QueueFull),
                }
            }
        } else {
            let bytes = self.engine.image().kv_request_bytes(r.total_tokens());
            match admission.offer(r.clone(), bytes, r.arrival_s) {
                Ok(()) => None,
                Err(Rejection::Infeasible) => Some(DropReason::Infeasible),
                Err(Rejection::QueueFull) => Some(DropReason::QueueFull),
            }
        };
        if let Some(reason) = dropped {
            outcomes.push(RequestOutcome {
                request: r,
                admitted_s: None,
                first_token_s: None,
                finish_s: None,
                generated: 0,
                token_latency_sum_s: 0.0,
                token_latency_max_s: 0.0,
                dropped: Some(reason),
            });
        }
    }

    /// Folds outcomes and admission state into the aggregate report.
    #[allow(clippy::too_many_arguments)]
    fn summarize(
        &self,
        outcomes: Vec<RequestOutcome>,
        sim_seconds: f64,
        admission: &AdmissionController,
        decode_steps: u64,
        prefill_steps: u64,
        generated_tokens: u64,
        prompt_tokens: u64,
        preempted: u64,
        spec_drafted: u64,
        spec_accepted: u64,
    ) -> ServeReport {
        let (offered, admitted, rejected_queue_full, rejected_infeasible) = admission.counts();
        let (kv_peak_bytes, queue_peak) = admission.peaks();
        let completed = outcomes.iter().filter(|o| o.finish_s.is_some()).count() as u64;
        let met: Vec<&RequestOutcome> = outcomes
            .iter()
            .filter(|o| o.deadline_met(self.cfg.deadline_scale))
            .collect();
        let good_tokens: u64 = met.iter().map(|o| o.generated as u64).sum();
        let mut ttfts: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.ttft_s())
            .map(|t| t * 1e3)
            .collect();
        ttfts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut token_means: Vec<f64> = outcomes
            .iter()
            .filter_map(|o| o.mean_token_latency_s())
            .map(|t| t * 1e3)
            .collect();
        token_means.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let per_s = |tokens: u64| {
            if sim_seconds > 0.0 {
                tokens as f64 / sim_seconds
            } else {
                0.0
            }
        };
        ServeReport {
            mode: self.cfg.mode,
            sim_seconds,
            offered,
            admitted,
            completed,
            rejected_queue_full,
            rejected_infeasible,
            deadline_met: met.len() as u64,
            generated_tokens,
            prompt_tokens,
            decode_steps,
            prefill_steps,
            tokens_per_s: per_s(generated_tokens),
            goodput_tokens_per_s: per_s(good_tokens),
            ttft_p50_ms: percentile(&ttfts, 0.50),
            ttft_p95_ms: percentile(&ttfts, 0.95),
            ttft_p99_ms: percentile(&ttfts, 0.99),
            token_p50_ms: percentile(&token_means, 0.50),
            token_p95_ms: percentile(&token_means, 0.95),
            token_p99_ms: percentile(&token_means, 0.99),
            kv_peak_bytes,
            kv_budget_bytes: self.budget_bytes,
            queue_peak,
            concurrent_peak: admission.peak_concurrent(),
            preempted,
            spec_drafted,
            spec_accepted,
            outcomes,
        }
    }

    /// Publishes the report into the engine's metrics registry under the
    /// `serve.` namespace.
    fn publish(&mut self, report: &ServeReport) {
        let m = self.engine.metrics_mut();
        m.counter("serve.requests.offered").add(report.offered);
        m.counter("serve.requests.admitted").add(report.admitted);
        m.counter("serve.requests.completed").add(report.completed);
        m.counter("serve.requests.rejected_queue_full")
            .add(report.rejected_queue_full);
        m.counter("serve.requests.rejected_infeasible")
            .add(report.rejected_infeasible);
        m.counter("serve.deadline.met").add(report.deadline_met);
        m.counter("serve.tokens.generated")
            .add(report.generated_tokens);
        m.counter("serve.tokens.prompt").add(report.prompt_tokens);
        m.counter("serve.steps.decode").add(report.decode_steps);
        m.counter("serve.steps.prefill").add(report.prefill_steps);
        m.gauge("serve.sim_seconds").set(report.sim_seconds);
        m.gauge("serve.tokens_per_s").set(report.tokens_per_s);
        m.gauge("serve.goodput_tokens_per_s")
            .set(report.goodput_tokens_per_s);
        m.gauge("serve.ttft_p50_ms").set(report.ttft_p50_ms);
        m.gauge("serve.ttft_p95_ms").set(report.ttft_p95_ms);
        m.gauge("serve.ttft_p99_ms").set(report.ttft_p99_ms);
        m.gauge("serve.token_p50_ms").set(report.token_p50_ms);
        m.gauge("serve.token_p95_ms").set(report.token_p95_ms);
        m.gauge("serve.token_p99_ms").set(report.token_p99_ms);
        m.gauge("serve.kv_peak_bytes")
            .set(report.kv_peak_bytes as f64);
        m.gauge("serve.queue_peak").set(report.queue_peak as f64);
        // Paged-only keys, so contiguous scenarios keep their exact
        // baseline key sets.
        if self.cfg.paged.is_some() {
            m.counter("serve.paged.preempted").add(report.preempted);
            m.gauge("serve.paged.concurrent_peak")
                .set(report.concurrent_peak as f64);
        }
        // Speculation-only keys, gated the same way.
        if self.cfg.speculative.is_some() {
            m.counter("serve.spec.drafted").add(report.spec_drafted);
            m.counter("serve.spec.accepted").add(report.spec_accepted);
            let rate = if report.spec_drafted > 0 {
                report.spec_accepted as f64 / report.spec_drafted as f64
            } else {
                0.0
            };
            m.gauge("serve.spec.accept_rate").set(rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, ArrivalModel, TrafficConfig};
    use zllm_model::ModelConfig;

    fn trace(requests: usize, rate: f64) -> Vec<Request> {
        generate(&TrafficConfig {
            requests,
            seed: 11,
            arrivals: ArrivalModel::Poisson { rate_per_s: rate },
            prompt_tokens: (8, 48),
            new_tokens: (4, 16),
            class_mix: [0.5, 0.3, 0.2],
            eos_early_fraction: 0.0,
        })
    }

    fn server(mode: BatchingMode) -> Server {
        let cfg = match mode {
            BatchingMode::Continuous => ServerConfig::continuous(128, 4),
            BatchingMode::Lockstep => ServerConfig::lockstep(128, 4),
        };
        Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg).expect("image fits")
    }

    #[test]
    fn continuous_run_completes_every_request_deterministically() {
        let t = trace(12, 0.5);
        let a = server(BatchingMode::Continuous).run(&t);
        let b = server(BatchingMode::Continuous).run(&t);
        assert_eq!(a, b, "bit-identical replay");
        assert_eq!(a.outcomes.len(), 12);
        assert_eq!(a.completed, 12);
        assert_eq!(a.rejected_queue_full + a.rejected_infeasible, 0);
        for o in &a.outcomes {
            assert_eq!(o.generated, o.request.max_new_tokens);
            assert!(o.ttft_s().expect("served") > 0.0);
            assert!(o.finish_s.expect("finished") >= o.request.arrival_s);
        }
        assert_eq!(
            a.generated_tokens,
            t.iter().map(|r| r.max_new_tokens as u64).sum::<u64>()
        );
        assert_eq!(
            a.prompt_tokens,
            t.iter().map(|r| r.prompt_tokens as u64).sum::<u64>()
        );
        assert!(a.prefill_steps > 0 && a.decode_steps > 0);
        assert!(a.tokens_per_s > 0.0);
    }

    #[test]
    fn continuous_beats_lockstep_on_aggregate_throughput() {
        // Load heavy enough that batching matters: the gang baseline
        // pays padded contexts and drains to idle slots, continuous
        // backfills immediately.
        let t = trace(24, 2.0);
        let cont = server(BatchingMode::Continuous).run(&t);
        let lock = server(BatchingMode::Lockstep).run(&t);
        assert_eq!(cont.completed, 24);
        assert_eq!(lock.completed, 24);
        assert!(
            cont.tokens_per_s > lock.tokens_per_s,
            "continuous {:.3} tok/s must beat lockstep {:.3} tok/s",
            cont.tokens_per_s,
            lock.tokens_per_s
        );
        assert!(cont.sim_seconds < lock.sim_seconds);
    }

    #[test]
    fn kv_occupancy_never_exceeds_budget_even_when_tightened() {
        let model = ModelConfig::tiny_llama_1_1b();
        let mut cfg = ServerConfig::continuous(128, 4);
        // Tighten the budget to roughly two max-size sequences so the
        // byte budget (not the slot count) is what binds.
        let full = Server::new(AccelConfig::kv260(), &model, cfg.clone())
            .expect("image fits")
            .kv_budget_bytes();
        cfg.kv_budget_bytes = Some(full / 2);
        let mut srv = Server::new(AccelConfig::kv260(), &model, cfg).expect("image fits");
        let report = srv.run(&trace(16, 2.0));
        assert!(report.kv_peak_bytes <= report.kv_budget_bytes);
        assert_eq!(report.kv_budget_bytes, full / 2);
        assert_eq!(
            report.completed + report.rejected_queue_full + report.rejected_infeasible,
            16
        );
        // The tight budget must actually have throttled concurrency.
        assert!(report.queue_peak > 0, "tight budget should queue requests");
    }

    #[test]
    fn oversized_and_overflow_requests_are_dropped_with_reasons() {
        let mut t = trace(4, 10.0);
        // An impossible request: prompt beyond the context capacity.
        t[0].prompt_tokens = 4096;
        let report = server(BatchingMode::Continuous).run(&t);
        let dropped = &report.outcomes[0];
        assert_eq!(dropped.dropped, Some(DropReason::Infeasible));
        assert!(dropped.finish_s.is_none());
        assert_eq!(report.rejected_infeasible, 1);
        assert_eq!(report.completed, 3);
    }

    #[test]
    fn queue_overflow_rejects_with_queue_full() {
        let model = ModelConfig::tiny_llama_1_1b();
        let mut cfg = ServerConfig::continuous(128, 1);
        cfg.queue_cap = 1;
        let mut srv = Server::new(AccelConfig::kv260(), &model, cfg).expect("image fits");
        // A burst of simultaneous arrivals: 1 runs, 1 queues, rest drop.
        let mut t = trace(6, 100.0);
        for r in &mut t {
            r.arrival_s = 0.0;
        }
        let report = srv.run(&t);
        assert!(report.rejected_queue_full >= 1);
        assert!(report
            .outcomes
            .iter()
            .any(|o| o.dropped == Some(DropReason::QueueFull)));
        assert_eq!(
            report.completed + report.rejected_queue_full + report.rejected_infeasible,
            6
        );
    }

    fn decode_heavy_trace(requests: usize, rate: f64) -> Vec<Request> {
        generate(&TrafficConfig {
            requests,
            seed: 7,
            arrivals: ArrivalModel::Poisson { rate_per_s: rate },
            prompt_tokens: (8, 16),
            new_tokens: (48, 96),
            class_mix: [0.5, 0.3, 0.2],
            eos_early_fraction: 0.0,
        })
    }

    fn paged_server(slots: usize, budget: Option<u64>) -> Server {
        let mut cfg = ServerConfig::continuous(128, slots).paged(PagedConfig::default());
        cfg.kv_budget_bytes = budget;
        Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg).expect("image fits")
    }

    #[test]
    fn paged_run_completes_deterministically_within_budget() {
        let t = decode_heavy_trace(12, 1.0);
        let a = paged_server(4, None).run(&t);
        let b = paged_server(4, None).run(&t);
        assert_eq!(a, b, "bit-identical replay");
        assert_eq!(a.completed, 12);
        assert!(a.kv_peak_bytes <= a.kv_budget_bytes);
        assert!(a.concurrent_peak >= 1);
        assert_eq!(
            a.generated_tokens,
            t.iter().map(|r| r.max_new_tokens as u64).sum::<u64>(),
            "an unpressured pool never recomputes"
        );
        assert_eq!(a.preempted, 0);
    }

    #[test]
    fn paged_admission_lifts_concurrency_at_the_same_budget() {
        // Budget for three worst-case sequences, slots for eight:
        // worst-case reservation pins concurrency at three, while
        // actual-growth charging packs the slots because decode-heavy
        // requests use a fraction of their quote early in life.
        let model = ModelConfig::tiny_llama_1_1b();
        let probe = paged_server(8, None);
        let worst = probe.engine().image().page_rounded_request_bytes(112, 16);
        let budget = Some(3 * worst);
        let t = decode_heavy_trace(16, 50.0);
        let paged = paged_server(8, budget).run(&t);
        let mut wc_cfg = ServerConfig::continuous(128, 8);
        wc_cfg.kv_budget_bytes = budget;
        let wc = Server::new(AccelConfig::kv260(), &model, wc_cfg)
            .expect("image fits")
            .run(&t);
        assert!(
            paged.concurrent_peak > wc.concurrent_peak,
            "paged peak {} must beat worst-case peak {}",
            paged.concurrent_peak,
            wc.concurrent_peak
        );
        assert!(paged.kv_peak_bytes <= paged.kv_budget_bytes);
        assert_eq!(
            paged.completed + paged.rejected_queue_full + paged.rejected_infeasible,
            16
        );
    }

    #[test]
    fn starved_interactive_preempts_the_newest_batch_sequence() {
        use crate::request::DeadlineClass;
        // A six-page pool: both sequences admit at one page each, then
        // their growth collides. The interactive sequence must win the
        // pages; the batch one is evicted, requeued, and recomputed.
        let model = ModelConfig::tiny_llama_1_1b();
        let mut cfg = ServerConfig::continuous(128, 4).paged(PagedConfig {
            page_tokens: 16,
            watermark: 1.0,
        });
        let probe = Server::new(AccelConfig::kv260(), &model, cfg.clone()).expect("image fits");
        cfg.kv_budget_bytes = Some(6 * probe.engine().image().kv_page_bytes());
        let mut srv = Server::new(AccelConfig::kv260(), &model, cfg).expect("image fits");
        let req = |id, class| Request {
            id,
            arrival_s: 0.0,
            prompt_tokens: 16,
            max_new_tokens: 64,
            eos_tokens: None,
            class,
        };
        let report = srv.run(&[
            req(0, DeadlineClass::Interactive),
            req(1, DeadlineClass::Batch),
        ]);
        assert!(report.preempted >= 1, "growth collision must preempt");
        assert_eq!(report.completed, 2, "the victim recomputes and finishes");
        assert!(report.outcomes.iter().all(|o| o.finish_s.is_some()));
        assert!(report.kv_peak_bytes <= report.kv_budget_bytes);
        let snap = srv.engine().metrics_snapshot();
        assert_eq!(
            snap.counter("serve.paged.preempted"),
            Some(report.preempted)
        );
    }

    fn spec_server(k: usize, alpha: f64) -> Server {
        let cfg = ServerConfig::continuous(128, 4).speculative(SpeculationConfig::new(k, alpha));
        Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg).expect("image fits")
    }

    #[test]
    fn speculative_run_completes_deterministically_in_fewer_steps() {
        let t = decode_heavy_trace(10, 1.0);
        let a = spec_server(4, 0.8).run(&t);
        let b = spec_server(4, 0.8).run(&t);
        assert_eq!(a, b, "bit-identical replay");
        assert_eq!(a.completed, 10);
        // Every request generates exactly its budget: verify windows
        // never overshoot max_new_tokens.
        for o in &a.outcomes {
            assert_eq!(o.generated, o.request.max_new_tokens);
        }
        assert_eq!(
            a.generated_tokens,
            t.iter().map(|r| r.max_new_tokens as u64).sum::<u64>()
        );
        assert!(a.spec_drafted > 0, "windows must draft");
        assert!(a.spec_accepted <= a.spec_drafted);
        let plain = server(BatchingMode::Continuous).run(&t);
        assert!(
            a.decode_steps < plain.decode_steps,
            "accepted drafts must collapse steps: {} vs {}",
            a.decode_steps,
            plain.decode_steps
        );
    }

    #[test]
    fn speculation_lifts_throughput_on_a_compute_rich_engine() {
        // The stock KV260 is exactly bandwidth/compute balanced, so a
        // verify window's fanout costs as many cycles as it saves in
        // weight traffic; widening the VPU exposes the amortization.
        // Four concurrent sequences at K = 4 fan one weight beat out
        // 20 ways, so the lanes must cover 20 x 128 weights per beat.
        let mut accel = AccelConfig::kv260();
        accel.lanes = 4096;
        let model = ModelConfig::tiny_llama_1_1b();
        let t = decode_heavy_trace(8, 50.0);
        let base = Server::new(accel.clone(), &model, ServerConfig::continuous(128, 4))
            .expect("image fits")
            .run(&t);
        let cfg = ServerConfig::continuous(128, 4).speculative(SpeculationConfig::new(4, 0.9));
        let spec = Server::new(accel, &model, cfg).expect("image fits").run(&t);
        assert_eq!(spec.completed, base.completed);
        assert_eq!(spec.generated_tokens, base.generated_tokens);
        assert!(
            spec.tokens_per_s > 1.5 * base.tokens_per_s,
            "speculation {:.1} tok/s must clear 1.5x baseline {:.1} tok/s",
            spec.tokens_per_s,
            base.tokens_per_s
        );
    }

    #[test]
    fn paged_speculation_charges_the_overhang_and_uncharges_rejects() {
        let t = decode_heavy_trace(12, 2.0);
        let mk = || {
            let cfg = ServerConfig::continuous(128, 4)
                .paged(PagedConfig::default())
                .speculative(SpeculationConfig::new(4, 0.5));
            Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg)
                .expect("image fits")
        };
        let a = mk().run(&t);
        let b = mk().run(&t);
        assert_eq!(a, b, "bit-identical replay");
        assert_eq!(a.completed, 12);
        assert!(a.kv_peak_bytes <= a.kv_budget_bytes);
        assert_eq!(
            a.generated_tokens,
            t.iter().map(|r| r.max_new_tokens as u64).sum::<u64>()
        );
        // At alpha = 0.5 rejects are plentiful, so the transient
        // overhang must have been charged above the plain paged peak
        // and fully returned by completion (admission's release assert
        // would fire on any leak).
        let plain = paged_server(4, None).run(&t);
        assert!(
            a.kv_peak_bytes >= plain.kv_peak_bytes,
            "the K-token overhang shows up in the reserved peak"
        );
        assert!(a.spec_drafted > a.spec_accepted, "rejects must occur");
    }

    #[test]
    #[should_panic(expected = "speculative decoding requires continuous batching")]
    fn lockstep_rejects_speculation() {
        let cfg = ServerConfig::lockstep(128, 4).speculative(SpeculationConfig::new(2, 0.5));
        let _ = Server::new(AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg);
    }

    #[test]
    fn spec_metrics_are_published_only_when_configured() {
        let t = trace(6, 1.0);
        let mut plain = server(BatchingMode::Continuous);
        plain.run(&t);
        let snap = plain.engine().metrics_snapshot();
        assert_eq!(snap.counter("serve.spec.drafted"), None);
        let mut spec = spec_server(2, 0.7);
        let report = spec.run(&t);
        let snap = spec.engine().metrics_snapshot();
        assert_eq!(
            snap.counter("serve.spec.drafted"),
            Some(report.spec_drafted)
        );
        assert_eq!(
            snap.counter("serve.spec.accepted"),
            Some(report.spec_accepted)
        );
        let rate = report.spec_accepted as f64 / report.spec_drafted as f64;
        assert_eq!(snap.gauge("serve.spec.accept_rate"), Some(rate));
    }

    #[test]
    fn metrics_registry_carries_serve_namespace() {
        let mut srv = server(BatchingMode::Continuous);
        let report = srv.run(&trace(8, 1.0));
        let snap = srv.engine().metrics_snapshot();
        assert_eq!(
            snap.counter("serve.requests.completed"),
            Some(report.completed)
        );
        assert_eq!(
            snap.counter("serve.tokens.generated"),
            Some(report.generated_tokens)
        );
        assert_eq!(snap.gauge("serve.tokens_per_s"), Some(report.tokens_per_s));
    }
}
