//! The cluster serving simulator: N pipelines on one virtual clock.
//!
//! [`ClusterServer`] replays a request trace against a fleet of
//! [`ShardedEngine`] pipelines. A [`PlacementPolicy`] routes each
//! arrival to one pipeline; that pipeline's own
//! [`AdmissionController`] then enforces slots, KV bytes and per-class
//! FIFO exactly as the single-board [`crate::Server`] does. The
//! pipelines share one discrete-event clock: the simulator always
//! advances to the earliest pending event (a step completing on some
//! pipeline, or the next arrival), so pipelines interleave
//! deterministically — completions before arrivals on ties, lower
//! pipeline index first.
//!
//! Step timing uses the pipeline cadence (stages overlapped on
//! successive micro-batches): each step occupies its pipeline for
//! [`ClusterStepReport::cadence_ns`](super::ClusterStepReport::cadence_ns), and a sequence's *first* token
//! additionally pays the fill residual — the cost of filling the
//! pipeline behind it — without holding the machine.

use crate::admission::{AdmissionConfig, AdmissionController, Rejection};
use crate::cluster::engine::ShardedEngine;
use crate::cluster::interconnect::InterconnectConfig;
use crate::cluster::router::{PipelineLoad, PlacementPolicy};
use crate::request::{DropReason, Request, RequestOutcome};
use crate::server::{newest_lower_class, percentile, Active, PagedConfig};
use zllm_accel::{AccelConfig, EngineSpec, PrefillChunk, SpecError};
use zllm_layout::kv_page::PagedKvAllocator;
use zllm_model::ModelConfig;

/// Cluster configuration: fleet geometry plus per-pipeline serving
/// parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Replica pipelines the router spreads requests over.
    pub pipelines: usize,
    /// Boards per pipeline (pipeline-parallel stages).
    pub depth: usize,
    /// Per-sequence context capacity each stage image is built for.
    pub ctx_capacity: usize,
    /// Concurrent KV slots per pipeline.
    pub slots: usize,
    /// Maximum prompt tokens one chunked-prefill step may carry.
    pub prefill_chunk: usize,
    /// Admission wait-queue capacity per pipeline.
    pub queue_cap: usize,
    /// Anti-starvation bound for the admission queues, seconds.
    pub starvation_bound_s: f64,
    /// Multiplier on the class deadline budgets.
    pub deadline_scale: f64,
    /// Request placement policy.
    pub policy: PlacementPolicy,
    /// The board-to-board link between pipeline stages.
    pub interconnect: InterconnectConfig,
    /// When set, every stage's KV space is paged and each pipeline's
    /// admission charges actual growth at its bottleneck stage instead
    /// of the worst case (see [`PagedConfig`]).
    pub paged: Option<PagedConfig>,
}

impl ClusterConfig {
    /// Defaults matching [`crate::ServerConfig::continuous`] for the
    /// given fleet geometry: join-shortest-KV placement over 10 GbE.
    pub fn new(pipelines: usize, depth: usize, ctx_capacity: usize, slots: usize) -> ClusterConfig {
        ClusterConfig {
            pipelines,
            depth,
            ctx_capacity,
            slots,
            prefill_chunk: 32,
            queue_cap: 64,
            starvation_bound_s: 60.0,
            deadline_scale: 1.0,
            policy: PlacementPolicy::JoinShortestKv,
            interconnect: InterconnectConfig::ethernet_10g(),
            paged: None,
        }
    }

    /// Enables paged-KV serving with actual-growth admission on every
    /// pipeline.
    pub fn paged(mut self, paged: PagedConfig) -> ClusterConfig {
        self.paged = Some(paged);
        self
    }

    /// Total simulated boards in the fleet.
    pub fn boards(&self) -> usize {
        self.pipelines * self.depth
    }
}

/// What a pipeline is currently busy doing.
enum StepKind {
    /// Chunked prefill: `(active index, tokens)` per advanced sequence.
    Prefill(Vec<(usize, usize)>),
    /// One ragged decode step over the listed active indices (every
    /// active sequence, minus any page-starved ones sitting it out).
    Decode(Vec<usize>),
}

/// A step in flight on one pipeline.
struct StepInFlight {
    kind: StepKind,
    /// When the step completes (virtual seconds).
    complete_s: f64,
    /// The cadence this step occupied the pipeline for, seconds.
    step_s: f64,
    /// Fill latency beyond the cadence, charged to first tokens.
    fill_residual_s: f64,
}

/// One pipeline: a sharded engine, its admission controller, and its
/// in-flight state.
struct Pipeline {
    engine: ShardedEngine,
    admission: AdmissionController,
    active: Vec<Active>,
    /// KV bytes queued-but-unadmitted requests will reserve (router
    /// visibility into demand the controller has accepted).
    pending_bytes: u64,
    /// Bottleneck-stage page pool under paged serving.
    pool: Option<PagedKvAllocator>,
    preempted: u64,
    step: Option<StepInFlight>,
    decode_steps: u64,
    prefill_steps: u64,
    generated_tokens: u64,
    prompt_tokens: u64,
}

impl Pipeline {
    fn load(&self) -> PipelineLoad {
        PipelineLoad {
            reserved_bytes: self.admission.reserved_bytes(),
            pending_bytes: self.pending_bytes,
            budget_bytes: self.admission.budget_bytes(),
            queue_depth: self.admission.queued(),
            active: self.active.len(),
        }
    }

    /// Evicts `active[idx]` for reclaim: frees its pages and charge and
    /// requeues the request at the head of its class, quoted back at
    /// its page-rounded worst case (preempt-and-recompute).
    fn preempt(&mut self, idx: usize, now: f64) {
        let pool = self.pool.as_mut().expect("paged pipeline");
        let a = self.active.remove(idx);
        let worst = self
            .engine
            .page_rounded_request_bytes(a.request.total_tokens(), pool.page_tokens());
        pool.release(a.slot);
        self.admission.release(a.slot, a.bytes);
        self.admission.requeue_front(a.request, worst, now);
        self.pending_bytes += worst;
        self.preempted += 1;
    }
}

/// The aggregate result of replaying one trace against the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Replica pipelines.
    pub pipelines: usize,
    /// Boards per pipeline.
    pub depth: usize,
    /// Total boards (`pipelines × depth`).
    pub boards: usize,
    /// Placement policy name.
    pub policy: &'static str,
    /// Per-request audit records, in request-id order.
    pub outcomes: Vec<RequestOutcome>,
    /// Virtual seconds from first arrival to last completion.
    pub sim_seconds: f64,
    /// Requests offered to the cluster.
    pub offered: u64,
    /// Requests granted a slot on some pipeline.
    pub admitted: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Rejections because a wait queue was full.
    pub rejected_queue_full: u64,
    /// Rejections because the request could never fit.
    pub rejected_infeasible: u64,
    /// Completed requests that met their class deadlines.
    pub deadline_met: u64,
    /// New tokens generated across the fleet.
    pub generated_tokens: u64,
    /// Prompt tokens prefilled across the fleet.
    pub prompt_tokens: u64,
    /// Ragged decode steps priced across all pipelines.
    pub decode_steps: u64,
    /// Chunked prefill steps priced across all pipelines.
    pub prefill_steps: u64,
    /// Aggregate decode throughput, tokens per virtual second.
    pub tokens_per_s: f64,
    /// Goodput: tokens of deadline-meeting requests per second.
    pub goodput_tokens_per_s: f64,
    /// Median time to first token, ms.
    pub ttft_p50_ms: f64,
    /// 95th-percentile TTFT, ms.
    pub ttft_p95_ms: f64,
    /// 99th-percentile TTFT, ms.
    pub ttft_p99_ms: f64,
    /// Median of per-request mean decode-token latency, ms.
    pub token_p50_ms: f64,
    /// 95th percentile of per-request mean token latency, ms.
    pub token_p95_ms: f64,
    /// Sum over pipelines of peak KV bytes reserved.
    pub kv_peak_bytes: u64,
    /// Sum over pipelines of the KV budgets admissions price against.
    pub kv_budget_bytes: u64,
    /// Largest admission-queue depth seen on any pipeline.
    pub queue_peak: usize,
    /// Hidden-state bytes moved over the interconnect.
    pub activation_bytes: u64,
    /// Token-id return bytes moved over the interconnect.
    pub token_id_bytes: u64,
    /// Sum over pipelines of peak concurrently admitted sequences —
    /// the fleet's users-per-board headline.
    pub concurrent_peak: usize,
    /// Sequences preempted (evicted and requeued for recompute) by the
    /// paged reclaim policy across the fleet. Always zero under
    /// worst-case reservation.
    pub preempted: u64,
}

/// The fleet simulator.
pub struct ClusterServer {
    cfg: ClusterConfig,
    pipes: Vec<Pipeline>,
}

impl ClusterServer {
    /// Builds `pipelines × depth` shard images and wraps them in a
    /// cluster.
    ///
    /// # Errors
    ///
    /// Returns the [`ShardedEngine::new`] error — typically the
    /// allocation failure when a stage's shard does not fit its board's
    /// DDR map, or [`SpecError::ZeroBatch`] on zero slots.
    ///
    /// # Panics
    ///
    /// Panics on a zero-pipeline geometry, a depth outside
    /// `1..=n_layers`, or a zero prefill chunk.
    pub fn new(
        accel: &AccelConfig,
        model: &ModelConfig,
        cfg: ClusterConfig,
    ) -> Result<ClusterServer, SpecError> {
        assert!(cfg.pipelines > 0, "at least one pipeline required");
        assert!(cfg.prefill_chunk > 0, "prefill chunk must cover a token");
        assert!(cfg.deadline_scale > 0.0, "deadline scale must be positive");
        if let Some(p) = &cfg.paged {
            assert!(
                p.watermark > 0.0 && p.watermark <= 1.0,
                "watermark must be in (0, 1]"
            );
        }
        let mut pipes = Vec::with_capacity(cfg.pipelines);
        for _ in 0..cfg.pipelines {
            let spec = EngineSpec {
                batch: cfg.slots,
                page_tokens: cfg.paged.as_ref().map(|p| p.page_tokens),
                ..EngineSpec::from(cfg.ctx_capacity)
            };
            let engine = ShardedEngine::new(accel, model, spec, cfg.depth, cfg.interconnect)?;
            let admission = AdmissionController::new(AdmissionConfig {
                slots: cfg.slots,
                budget_bytes: engine.kv_budget_bytes(),
                queue_cap: cfg.queue_cap,
                starvation_bound_s: cfg.starvation_bound_s,
            });
            let pool = cfg.paged.as_ref().map(|p| {
                let total = (engine.kv_budget_bytes() / engine.kv_page_bytes()) as usize;
                PagedKvAllocator::new(total, cfg.slots, p.page_tokens)
            });
            pipes.push(Pipeline {
                engine,
                admission,
                active: Vec::new(),
                pending_bytes: 0,
                pool,
                preempted: 0,
                step: None,
                decode_steps: 0,
                prefill_steps: 0,
                generated_tokens: 0,
                prompt_tokens: 0,
            });
        }
        Ok(ClusterServer { cfg, pipes })
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The sharded engine behind pipeline `pipe` (telemetry access:
    /// `cluster.bytes.*` live in its registry).
    pub fn engine(&self, pipe: usize) -> &ShardedEngine {
        &self.pipes[pipe].engine
    }

    /// Replays a trace (sorted by arrival time) to completion.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time.
    pub fn run(&mut self, trace: &[Request]) -> ClusterReport {
        assert!(
            trace.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
            "trace must be sorted by arrival time"
        );
        let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(trace.len());
        let mut next = 0usize;
        let mut now = 0.0f64;
        loop {
            let arrival = trace.get(next).map(|r| r.arrival_s);
            let completion = self
                .pipes
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.step.as_ref().map(|s| (s.complete_s, i)))
                .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
            match (completion, arrival) {
                (None, None) => break,
                // Completions win ties so a freed slot is visible to the
                // simultaneous arrival's placement decision.
                (Some((t, pipe)), arrival) if arrival.is_none_or(|a| t <= a) => {
                    now = t;
                    self.complete_step(pipe, now, &mut outcomes);
                }
                (_, Some(a)) => {
                    now = now.max(a);
                    while next < trace.len() && trace[next].arrival_s <= now {
                        let r = trace[next].clone();
                        next += 1;
                        self.ingest(r, &mut outcomes);
                    }
                    for pipe in 0..self.pipes.len() {
                        if self.pipes[pipe].step.is_none() {
                            self.start_step(pipe, now);
                        }
                    }
                }
                (Some(_), None) => unreachable!("the guard accepts every completion-only case"),
            }
        }
        outcomes.sort_by_key(|o| o.request.id);
        self.summarize(outcomes, now)
    }

    /// Routes one arrival to a pipeline and offers it to that pipeline's
    /// admission controller.
    fn ingest(&mut self, r: Request, outcomes: &mut Vec<RequestOutcome>) {
        let loads: Vec<PipelineLoad> = self.pipes.iter().map(Pipeline::load).collect();
        let pipe = self.cfg.policy.place(&loads, &r);
        let p = &mut self.pipes[pipe];
        let dropped = if r.total_tokens() > self.cfg.ctx_capacity {
            p.admission.note_infeasible();
            Some(DropReason::Infeasible)
        } else if let (Some(pool), Some(pc)) = (&p.pool, &self.cfg.paged) {
            // Paged feasibility at the bottleneck stage: the prompt must
            // clear the watermark and the whole sequence must fit the
            // pool alone. Quoted at the page-rounded worst case.
            let pt = pc.page_tokens;
            let wm = (pc.watermark * pool.total_pages() as f64).floor() as usize;
            let prompt_pages = r.prompt_tokens.div_ceil(pt);
            let total_pages = r.total_tokens().div_ceil(pt);
            if prompt_pages > wm || total_pages > pool.total_pages() {
                p.admission.note_infeasible();
                Some(DropReason::Infeasible)
            } else {
                let bytes = p.engine.page_rounded_request_bytes(r.total_tokens(), pt);
                match p.admission.offer(r.clone(), bytes, r.arrival_s) {
                    Ok(()) => {
                        p.pending_bytes += bytes;
                        None
                    }
                    Err(Rejection::Infeasible) => Some(DropReason::Infeasible),
                    Err(Rejection::QueueFull) => Some(DropReason::QueueFull),
                }
            }
        } else {
            let bytes = p.engine.kv_request_bytes(r.total_tokens());
            match p.admission.offer(r.clone(), bytes, r.arrival_s) {
                Ok(()) => {
                    p.pending_bytes += bytes;
                    None
                }
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

    /// Applies the effects of pipeline `pipe`'s finished step, retires
    /// completed sequences, and starts its next step.
    fn complete_step(&mut self, pipe: usize, now: f64, outcomes: &mut Vec<RequestOutcome>) {
        let p = &mut self.pipes[pipe];
        let step = p.step.take().expect("a step was in flight");
        match step.kind {
            StepKind::Prefill(owners) => {
                for (i, len) in owners {
                    p.active[i].prefilled += len;
                    p.prompt_tokens += len as u64;
                }
            }
            StepKind::Decode(part) => {
                p.generated_tokens += part.len() as u64;
                for &i in &part {
                    let a = &mut p.active[i];
                    a.generated += 1;
                    if a.generated == 1 {
                        a.first_token_s = Some(now + step.fill_residual_s);
                    } else {
                        a.token_latency_sum_s += step.step_s;
                        a.token_latency_max_s = a.token_latency_max_s.max(step.step_s);
                    }
                }
                // Evict-on-finish: a paged sequence returns its pages
                // the instant it completes.
                let mut i = 0;
                while i < p.active.len() {
                    if p.active[i].done() {
                        let a = p.active.remove(i);
                        if let Some(pool) = p.pool.as_mut() {
                            pool.release(a.slot);
                        }
                        p.admission.release(a.slot, a.bytes);
                        outcomes.push(a.finish(now));
                    } else {
                        i += 1;
                    }
                }
            }
        }
        self.start_step(pipe, now);
    }

    /// Admits what fits, then launches the next step on pipeline `pipe`
    /// (prefill while any active sequence still owes prompt tokens, else
    /// one ragged decode step). Leaves the pipeline idle when nothing is
    /// active.
    fn start_step(&mut self, pipe: usize, now: f64) {
        let p = &mut self.pipes[pipe];
        if let Some(pc) = self.cfg.paged.clone() {
            // Actual-growth admission at the bottleneck stage, with
            // deadline-aware preemption for a blocked Interactive head —
            // the same policy as the single-board paged server.
            let page_bytes = p.engine.kv_page_bytes();
            let pt = pc.page_tokens;
            while p.active.len() < p.engine.slots() {
                let pool = p.pool.as_ref().expect("paged pipeline");
                let wm_pages = (pc.watermark * pool.total_pages() as f64).floor() as usize;
                let used = pool.used_pages();
                let free = pool.free_pages();
                let granted = p.admission.try_admit_charged(
                    now,
                    |r| r.prompt_tokens.div_ceil(pt) as u64 * page_bytes,
                    |r, _| {
                        let need = r.prompt_tokens.div_ceil(pt);
                        used + need <= wm_pages && need <= free
                    },
                );
                match granted {
                    Some(g) => {
                        let pool = p.pool.as_mut().expect("paged pipeline");
                        assert!(
                            pool.grow_to(g.slot, g.request.prompt_tokens),
                            "accept gate reserved the prompt pages"
                        );
                        p.pending_bytes -= p
                            .engine
                            .page_rounded_request_bytes(g.request.total_tokens(), pt);
                        p.active.push(Active {
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
                        let (head_prio, head_prompt) = match p.admission.peek_head(now) {
                            Some(h) => (h.class.priority(), h.prompt_tokens),
                            None => break,
                        };
                        if head_prio != 0 || p.admission.free_slots() == 0 {
                            break;
                        }
                        let need = head_prompt.div_ceil(pt);
                        if used + need <= wm_pages && need <= free {
                            break; // blocked elsewhere; reclaim cannot help
                        }
                        match newest_lower_class(&p.active, head_prio) {
                            Some(i) => p.preempt(i, now),
                            None => break,
                        }
                    }
                }
            }
        } else {
            while p.active.len() < p.engine.slots() {
                match p.admission.try_admit(now) {
                    Some(g) => {
                        p.pending_bytes -= g.bytes;
                        p.active.push(Active {
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
        }
        if p.active.is_empty() {
            return;
        }
        let report;
        let kind;
        if p.active.iter().any(Active::needs_prefill) {
            let mut order: Vec<usize> = (0..p.active.len())
                .filter(|&i| p.active[i].needs_prefill())
                .collect();
            order.sort_by_key(|&i| (p.active[i].request.class.priority(), p.active[i].request.id));
            let mut budget = self.cfg.prefill_chunk;
            let mut chunks = Vec::new();
            let mut owners = Vec::new();
            for i in order {
                if budget == 0 {
                    break;
                }
                let a = &p.active[i];
                let len = (a.request.prompt_tokens - a.prefilled).min(budget);
                chunks.push(PrefillChunk {
                    slot: a.slot,
                    start: a.prefilled,
                    len,
                });
                owners.push((i, len));
                budget -= len;
            }
            report = p.engine.prefill_step(&chunks);
            p.prefill_steps += 1;
            kind = StepKind::Prefill(owners);
        } else {
            // Page growth: every participant must own the page its next
            // token writes into; starved sequences reclaim via
            // deadline-aware preemption, else sit the step out, and a
            // fully wedged pipeline force-evicts its newest admission.
            let mut ready = vec![true; p.active.len()];
            if p.pool.is_some() {
                let page_bytes = p.engine.kv_page_bytes();
                loop {
                    let pool = p.pool.as_mut().expect("paged pipeline");
                    ready = vec![false; p.active.len()];
                    let mut starved: Vec<usize> = Vec::new();
                    for (i, ok) in ready.iter_mut().enumerate() {
                        let want = p.active[i].ctx() + 1;
                        let have = pool.pages_of(p.active[i].slot).len();
                        let need = pool.pages_needed(want);
                        if need <= have {
                            *ok = true;
                        } else if pool.grow_to(p.active[i].slot, want) {
                            let delta = (need - have) as u64 * page_bytes;
                            p.admission.charge(delta);
                            p.active[i].bytes += delta;
                            *ok = true;
                        } else {
                            starved.push(i);
                        }
                    }
                    if starved.is_empty() {
                        break;
                    }
                    let urgent = starved
                        .iter()
                        .map(|&i| p.active[i].request.class.priority())
                        .min()
                        .expect("starved nonempty");
                    let victim = match newest_lower_class(&p.active, urgent) {
                        Some(i) => Some(i),
                        None if starved.len() == p.active.len() => {
                            (0..p.active.len()).max_by(|&x, &y| {
                                p.active[x]
                                    .admitted_s
                                    .partial_cmp(&p.active[y].admitted_s)
                                    .expect("finite")
                                    .then(p.active[x].request.id.cmp(&p.active[y].request.id))
                            })
                        }
                        None => None, // the starved minority sits this step out
                    };
                    match victim {
                        Some(i) => p.preempt(i, now),
                        None => break,
                    }
                }
            }
            let part: Vec<usize> = (0..p.active.len()).filter(|&i| ready[i]).collect();
            let slots: Vec<(usize, usize)> = part
                .iter()
                .map(|&i| (p.active[i].slot, p.active[i].ctx()))
                .collect();
            report = p.engine.decode_step(&slots);
            p.decode_steps += 1;
            kind = StepKind::Decode(part);
        }
        let step_s = report.cadence_ns * 1e-9;
        p.step = Some(StepInFlight {
            kind,
            complete_s: now + step_s,
            step_s,
            fill_residual_s: report.fill_residual_ns() * 1e-9,
        });
    }

    /// Folds outcomes and fleet state into the aggregate report.
    fn summarize(&self, outcomes: Vec<RequestOutcome>, sim_seconds: f64) -> ClusterReport {
        let mut offered = 0;
        let mut admitted = 0;
        let mut rejected_queue_full = 0;
        let mut rejected_infeasible = 0;
        let mut kv_peak_bytes = 0;
        let mut kv_budget_bytes = 0;
        let mut queue_peak = 0;
        let mut activation_bytes = 0;
        let mut token_id_bytes = 0;
        let mut concurrent_peak = 0;
        let mut preempted = 0;
        for p in &self.pipes {
            let (o, a, q, i) = p.admission.counts();
            offered += o;
            admitted += a;
            rejected_queue_full += q;
            rejected_infeasible += i;
            let (peak, depth) = p.admission.peaks();
            kv_peak_bytes += peak;
            queue_peak = queue_peak.max(depth);
            kv_budget_bytes += p.admission.budget_bytes();
            activation_bytes += p.engine.activation_bytes();
            token_id_bytes += p.engine.token_id_bytes();
            concurrent_peak += p.admission.peak_concurrent();
            preempted += p.preempted;
        }
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
        ClusterReport {
            pipelines: self.cfg.pipelines,
            depth: self.cfg.depth,
            boards: self.cfg.boards(),
            policy: self.cfg.policy.name(),
            sim_seconds,
            offered,
            admitted,
            completed,
            rejected_queue_full,
            rejected_infeasible,
            deadline_met: met.len() as u64,
            generated_tokens: self.pipes.iter().map(|p| p.generated_tokens).sum(),
            prompt_tokens: self.pipes.iter().map(|p| p.prompt_tokens).sum(),
            decode_steps: self.pipes.iter().map(|p| p.decode_steps).sum(),
            prefill_steps: self.pipes.iter().map(|p| p.prefill_steps).sum(),
            tokens_per_s: per_s(self.pipes.iter().map(|p| p.generated_tokens).sum()),
            goodput_tokens_per_s: per_s(good_tokens),
            ttft_p50_ms: percentile(&ttfts, 0.50),
            ttft_p95_ms: percentile(&ttfts, 0.95),
            ttft_p99_ms: percentile(&ttfts, 0.99),
            token_p50_ms: percentile(&token_means, 0.50),
            token_p95_ms: percentile(&token_means, 0.95),
            kv_peak_bytes,
            kv_budget_bytes,
            queue_peak,
            activation_bytes,
            token_id_bytes,
            concurrent_peak,
            preempted,
            outcomes,
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

    fn cluster(pipelines: usize, depth: usize) -> ClusterServer {
        ClusterServer::new(
            &AccelConfig::kv260(),
            &ModelConfig::tiny_llama_1_1b(),
            ClusterConfig::new(pipelines, depth, 128, 4),
        )
        .expect("shards fit")
    }

    #[test]
    fn replay_is_deterministic_and_complete() {
        let t = trace(12, 0.5);
        let a = cluster(2, 2).run(&t);
        let b = cluster(2, 2).run(&t);
        assert_eq!(a, b, "bit-identical replay");
        assert_eq!(a.outcomes.len(), 12);
        assert_eq!(a.completed, 12);
        assert_eq!(a.boards, 4);
        for o in &a.outcomes {
            assert_eq!(o.generated, o.request.max_new_tokens);
            assert!(o.ttft_s().expect("served") > 0.0);
        }
        assert_eq!(
            a.generated_tokens,
            t.iter().map(|r| r.max_new_tokens as u64).sum::<u64>()
        );
    }

    #[test]
    fn depth_two_itemizes_interconnect_traffic() {
        let t = trace(8, 1.0);
        let shallow = cluster(1, 1).run(&t);
        let deep = cluster(1, 2).run(&t);
        assert_eq!(shallow.activation_bytes, 0);
        assert_eq!(shallow.token_id_bytes, 0);
        assert!(deep.activation_bytes > 0, "hops must be priced");
        assert!(deep.token_id_bytes > 0);
        // The engine registry itemizes the same bytes.
        let srv = {
            let mut c = cluster(1, 2);
            c.run(&t);
            c
        };
        let snap = srv.engine(0).metrics_snapshot();
        assert_eq!(
            snap.counter("cluster.bytes.activation"),
            Some(deep.activation_bytes)
        );
        assert_eq!(
            snap.counter("cluster.bytes.token_ids"),
            Some(deep.token_id_bytes)
        );
    }

    #[test]
    fn deeper_pipelines_decode_faster_per_step() {
        // Same trace, same single pipeline, more boards: the per-step
        // cadence shrinks with the per-stage layer count, so the run
        // finishes sooner even after paying the hops.
        let t = trace(12, 5.0);
        let one = cluster(1, 1).run(&t);
        let four = cluster(1, 4).run(&t);
        assert_eq!(one.completed, 12);
        assert_eq!(four.completed, 12);
        assert!(
            four.sim_seconds < one.sim_seconds,
            "4-deep {:.3}s must beat 1-board {:.3}s",
            four.sim_seconds,
            one.sim_seconds
        );
        assert!(four.tokens_per_s > one.tokens_per_s);
    }

    #[test]
    fn more_pipelines_absorb_more_load() {
        // Saturating burst: one pipeline queues and serves serially; two
        // pipelines split the stream and finish sooner.
        let t = trace(24, 50.0);
        let one = cluster(1, 1).run(&t);
        let two = cluster(2, 1).run(&t);
        assert_eq!(two.offered, 24);
        assert!(two.completed >= one.completed);
        assert!(
            two.sim_seconds < one.sim_seconds,
            "two pipelines {:.3}s vs one {:.3}s",
            two.sim_seconds,
            one.sim_seconds
        );
        assert!(two.ttft_p95_ms < one.ttft_p95_ms);
    }

    #[test]
    fn kv_accounting_holds_per_pipeline() {
        let t = trace(20, 10.0);
        let mut c = cluster(2, 2);
        let report = c.run(&t);
        assert!(report.kv_peak_bytes <= report.kv_budget_bytes);
        assert_eq!(
            report.completed + report.rejected_queue_full + report.rejected_infeasible,
            20
        );
        for pipe in 0..2 {
            let (peak, _) = c.pipes[pipe].admission.peaks();
            assert!(peak <= c.pipes[pipe].admission.budget_bytes());
        }
    }

    #[test]
    fn paged_cluster_replay_is_deterministic_and_complete() {
        let t = generate(&TrafficConfig {
            requests: 16,
            seed: 7,
            arrivals: ArrivalModel::Poisson { rate_per_s: 20.0 },
            prompt_tokens: (8, 16),
            new_tokens: (48, 96),
            class_mix: [0.5, 0.3, 0.2],
            eos_early_fraction: 0.0,
        });
        let cfg = ClusterConfig::new(2, 2, 128, 4).paged(PagedConfig::default());
        let mut a = ClusterServer::new(
            &AccelConfig::kv260(),
            &ModelConfig::tiny_llama_1_1b(),
            cfg.clone(),
        )
        .expect("shards fit");
        let mut b = ClusterServer::new(&AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg)
            .expect("shards fit");
        let ra = a.run(&t);
        let rb = b.run(&t);
        assert_eq!(ra, rb, "bit-identical replay");
        assert_eq!(
            ra.completed + ra.rejected_queue_full + ra.rejected_infeasible,
            16
        );
        assert!(ra.kv_peak_bytes <= ra.kv_budget_bytes);
        assert!(ra.concurrent_peak >= 1);
        // Every served request ran to completion even if it was
        // preempted and recomputed along the way.
        for o in ra.outcomes.iter().filter(|o| o.dropped.is_none()) {
            assert_eq!(o.generated, o.request.max_new_tokens);
        }
    }

    #[test]
    fn policies_agree_on_totals_under_light_load() {
        let t = trace(10, 0.2);
        let mut cfg = ClusterConfig::new(2, 2, 128, 4);
        cfg.policy = PlacementPolicy::DeadlineAware;
        let mut aware =
            ClusterServer::new(&AccelConfig::kv260(), &ModelConfig::tiny_llama_1_1b(), cfg)
                .expect("shards fit");
        let a = aware.run(&t);
        let b = cluster(2, 2).run(&t);
        assert_eq!(a.completed, 10);
        assert_eq!(b.completed, 10);
        assert_eq!(a.policy, "deadline-aware");
        assert_eq!(b.policy, "join-shortest-kv");
    }
}
