//! The four workloads. Each one builds its inputs from the seed once,
//! then runs repetitions: a fresh set-up (timed as `setup_s`), the
//! measured phase (timed as `host_s`), and output checks. Every call
//! into a layer's public API sits inside a span, which the tracer
//! records only on traced repetitions.

use crate::stats::{median, percentile, Percentile, Tracer};
use std::time::Instant;
use zllm_accel::functional::QuantizedMatrix;
use zllm_accel::schedule::token_schedule;
use zllm_accel::vpu::Vpu;
use zllm_accel::{AccelBatchDecoder, AccelConfig, AccelDecoder, DecodeEngine, QuantizedModel};
use zllm_ddr::MemorySystem;
use zllm_fp16::F16;
use zllm_model::sampler::argmax;
use zllm_model::{ModelConfig, ModelWeights};
use zllm_quant::group::GroupQuantConfig;
use zllm_rng::StdRng;
use zllm_serve::cluster::{ClusterConfig, ClusterServer};
use zllm_serve::{
    generate, ArrivalModel, PagedConfig, Request, RequestOutcome, Server, ServerConfig,
};
use zllm_telemetry::Snapshot;

/// An engine, server or cluster builds in well under a millisecond, so
/// one build's time is mostly timer and allocator noise. Each repetition
/// times `SETUP_BLOCKS` blocks of `SETUP_BLOCK_BUILDS` fresh builds; a
/// block gives one `setup_s` sample, its seconds per build. The last
/// build is the one measured.
const SETUP_BLOCKS: usize = 4;
const SETUP_BLOCK_BUILDS: usize = 100;

/// Contexts `decode-7b` prices per repetition, evenly spaced across
/// the paper's 1024-token generation (Table II's measurement).
const DECODE_CONTEXTS: usize = 32;
/// The paper's generation length.
const GEN_TOKENS: usize = 1024;

/// `serve-paged`: requests arriving in the first `SERVE_WINDOW_S`
/// virtual seconds, at least 100 of which complete. A fixed window, not
/// a fixed count, keeps the simulated (and so the host) work of a run
/// steady across seeds, and a long one keeps the drain after the window,
/// when a few sequences stream the whole weight set per step, a small
/// part of it; `SERVE_MAX_REQUESTS` only bounds generation.
const SERVE_WINDOW_S: f64 = 250.0;
const SERVE_MAX_REQUESTS: usize = 2000;
/// Offered load, requests per second, in bursts of two: about four times
/// the ~1 req/s the paged TinyLlama board drains on this mix, so the
/// batch fills within seconds and the ragged schedules the engine keeps
/// (its first 64) are alike from seed to seed.
const SERVE_RATE: f64 = 4.0;
const SERVE_BURST: usize = 2;
/// Generation caps: `decode_heavy_traffic`'s (48, 96) halved, so that
/// 100 completions fit the run budget; prompts stay 8–16 tokens.
const SERVE_NEW_TOKENS: (usize, usize) = (24, 48);
const SERVE_CTX: usize = 64;
const SERVE_SLOTS: usize = 32;
const SERVE_QUEUE_CAP: usize = 6;
/// The KV budget holds this many page-rounded worst-case sequences:
/// tight enough that admission rejects and preempts.
const SERVE_WORST_CASE_SEQS: u64 = 20;
const PAGE_TOKENS: usize = 16;

/// `fleet-2x2`: 2 replica pipelines × 2 boards.
const FLEET_PIPELINES: usize = 2;
const FLEET_DEPTH: usize = 2;
/// Enough requests that the drain at the end of the trace, and so the
/// seed, moves the simulated tokens per second little.
const FLEET_REQUESTS: usize = 200;
/// Poisson offered load, requests per second, past saturation.
const FLEET_RATE: f64 = 10.0;
const FLEET_CTX: usize = 256;
const FLEET_SLOTS: usize = 16;
/// Prompt tokens one prefill step may carry: every `sweep_traffic`
/// prompt (at most 96 tokens) prefills in one step.
const FLEET_PREFILL_CHUNK: usize = 128;

/// `functional`: sequences decoded together.
const FUNC_BATCH: usize = 4;
/// Prompt lengths the seed picks from, in tokens.
const FUNC_PROMPT: (usize, usize) = (4, 8);
/// Batched steps per repetition, prompt and greedy decode together, so
/// every seed does the same host work.
const FUNC_STEPS: usize = 18;
/// Fresh `functional` builds per repetition, each one `setup_s` sample:
/// generating and quantizing the weights takes long enough to time alone.
const FUNC_SETUP_BUILDS: usize = 5;
/// `QuantizedMatrix::matvec` calls timed by the kernel probe.
const MATVEC_CALLS: usize = 16;

/// A ~10 M-parameter LLaMA-shaped model: its ~5 MB of 4-bit weights
/// exceed a 2 MiB per-core L2, as a real model's do.
fn functional_model() -> ModelConfig {
    ModelConfig {
        name: "synthetic-10m".to_owned(),
        n_layers: 4,
        d_model: 384,
        n_heads: 6,
        n_kv_heads: 6,
        d_ff: 1024,
        vocab_size: 4096,
        max_seq_len: GEN_TOKENS,
        norm_eps: 1e-5,
        rope_base: 10000.0,
    }
}

/// Every per-layer metric, with its unit. A layer that a workload does
/// not exercise reads 0 there.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("ddr.host_s", "s"),
    ("ddr.host_ns_per_kib", "ns/KiB"),
    ("ddr.bursts", "count"),
    ("ddr.write_share", "ratio"),
    ("ddr.row_hit_rate", "ratio"),
    ("ddr.row_misses", "count"),
    ("ddr.row_conflicts", "count"),
    ("ddr.refreshes", "count"),
    ("ddr.turnarounds", "count"),
    ("schedule.host_s", "s"),
    ("schedule.ops_per_token", "count"),
    ("schedule.bursts_per_token", "count"),
    ("schedule.ragged_hit_rate", "ratio"),
    ("trace.host_s", "s"),
    ("trace.self_s", "s"),
    ("trace.host_ms_per_token_p50", "ms"),
    ("trace.vpu_cycles", "count"),
    ("trace.bubble_cycles", "count"),
    ("trace.exposed_misc_cycles", "count"),
    ("trace.weight_share", "ratio"),
    ("serve.run_host_s", "s"),
    ("serve.host_ns_per_kib", "ns/KiB"),
    ("serve.steps_decode", "count"),
    ("serve.steps_prefill", "count"),
    ("serve.batch_mean", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.preempted", "count"),
    ("serve.rejected", "count"),
    ("serve.deadline_missed", "count"),
    ("serve.kv_peak_frac", "ratio"),
    ("serve.concurrent_peak", "count"),
    ("cluster.run_host_s", "s"),
    ("cluster.host_ns_per_kib", "ns/KiB"),
    ("cluster.steps_decode", "count"),
    ("cluster.steps_prefill", "count"),
    ("cluster.batch_mean", "count"),
    ("cluster.queue_wait_p90_ms", "ms"),
    ("cluster.link_bytes", "bytes"),
    ("cluster.rejected", "count"),
    ("cluster.kv_peak_frac", "ratio"),
    ("functional.prefill_host_s", "s"),
    ("functional.decode_host_s", "s"),
    ("functional.host_ms_per_step_p50", "ms"),
    ("functional.matvec_host_us", "us"),
    ("functional.weight_bytes_per_token", "bytes"),
    ("functional.macs_per_token", "count"),
    ("functional.quantize_s", "s"),
    ("image.build_s", "s"),
    ("bench.input_gen_s", "s"),
    ("bench.calibration_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Decode7b,
    ServePaged,
    Fleet2x2,
    Functional,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Decode7b,
        Workload::ServePaged,
        Workload::Fleet2x2,
        Workload::Functional,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Decode7b => "decode-7b",
            Workload::ServePaged => "serve-paged",
            Workload::Fleet2x2 => "fleet-2x2",
            Workload::Functional => "functional",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's inputs from `seed`; the program under
    /// test receives only these.
    pub fn prepare(self, seed: u64) -> Box<dyn Bench> {
        match self {
            Workload::Decode7b => Box::new(Decode7b::new(seed)),
            Workload::ServePaged => Box::new(ServePaged::new(seed)),
            Workload::Fleet2x2 => Box::new(Fleet::new(seed)),
            Workload::Functional => Box::new(Functional::new(seed)),
        }
    }
}

/// One repetition's results.
#[derive(Debug, Default)]
pub struct Rep {
    /// Seconds of each fresh build.
    pub setup_s: Vec<f64>,
    /// Host seconds of the measured phase.
    pub host_s: f64,
    /// Simulated outcomes, which must repeat bit for bit.
    pub sim: Vec<(&'static str, f64)>,
    /// `(attempted, failed)` behind `ok_rate`: requests on the serving
    /// workloads, output checks elsewhere.
    pub ok: (u64, u64),
    /// Named output checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: Vec<(&'static str, f64)>,
    /// Human-readable lines the report prints once.
    pub notes: Vec<String>,
}

impl Rep {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// `ok_rate` counted over this repetition's own output checks.
    fn ok_from_checks(&mut self) {
        let failed = self.checks.iter().filter(|(_, ok)| !ok).count() as u64;
        self.ok = (self.checks.len() as u64, failed);
    }

    /// The value of a simulated outcome by name.
    pub fn sim(&self, name: &str) -> f64 {
        self.sim
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no simulated outcome {name}"))
    }
}

pub trait Bench {
    /// Runs one repetition. `first` is true once per run, for checks
    /// too costly to repeat.
    fn rep(&mut self, t: &mut Tracer, first: bool) -> Rep;
}

/// Times `SETUP_BLOCKS` blocks of `SETUP_BLOCK_BUILDS` calls of `build`,
/// each call in an `image.build` span, pushes each block's seconds per
/// build to `rep.setup_s` and returns the last build. Each build is
/// dropped before the next starts, inside the block's time, so no two
/// are alive at once.
fn build_blocks<T>(t: &mut Tracer, rep: &mut Rep, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_BLOCKS {
        let start = Instant::now();
        for _ in 0..SETUP_BLOCK_BUILDS {
            drop(last.take());
            last = Some(t.span("image.build", |_| build()));
        }
        rep.setup_s
            .push(start.elapsed().as_secs_f64() / SETUP_BLOCK_BUILDS as f64);
    }
    last.expect("at least one build")
}

/// Runs `f` inside a span and returns its result with its wall seconds.
fn timed<T>(t: &mut Tracer, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
    t.span(name, |t| {
        let start = Instant::now();
        let out = f(t);
        (out, start.elapsed().as_secs_f64())
    })
}

fn pct_value(p: Percentile) -> f64 {
    p.value.unwrap_or(f64::NAN)
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// Sums a counter over several engines' snapshots.
fn counter_sum(snaps: &[Snapshot], name: &str) -> u64 {
    snaps.iter().map(|s| counter(s, name)).sum()
}

/// `decode.bytes` equals the sum of its `decode.bytes.{kind}` parts.
fn bytes_conserved(snap: &Snapshot) -> bool {
    let parts: u64 = snap
        .entries()
        .filter(|(name, _, _)| name.starts_with("decode.bytes."))
        .map(|(_, _, v)| v as u64)
        .sum();
    parts == counter(snap, "decode.bytes")
}

/// Simulated counts of the engines a workload drove: DDR controller
/// counters, trace-engine cycles and the weight share of DDR bytes.
fn engine_counts(snaps: &[Snapshot]) -> Vec<(&'static str, f64)> {
    let c = |name: &str| counter_sum(snaps, name) as f64;
    let reads = c("ddr.port0.reads");
    let writes = c("ddr.port0.writes");
    let accesses = reads + writes;
    let bytes = c("decode.bytes");
    let kv_bytes: f64 = snaps
        .iter()
        .flat_map(|s| s.entries())
        .filter(|(name, _, _)| name.starts_with("decode.bytes.kv"))
        .map(|(_, _, v)| v)
        .sum();
    vec![
        ("ddr.bursts", accesses),
        ("ddr.write_share", writes / accesses),
        ("ddr.row_hit_rate", c("ddr.port0.row_hits") / accesses),
        ("ddr.row_misses", c("ddr.port0.row_misses")),
        ("ddr.row_conflicts", c("ddr.port0.row_conflicts")),
        ("ddr.refreshes", c("ddr.port0.refreshes")),
        ("ddr.turnarounds", c("ddr.port0.turnarounds")),
        ("trace.vpu_cycles", c("vpu.cycles")),
        ("trace.bubble_cycles", c("pipeline.bubble_cycles")),
        (
            "trace.exposed_misc_cycles",
            c("pipeline.exposed_misc_cycles"),
        ),
        ("trace.weight_share", (bytes - kv_bytes) / bytes),
        ("schedule.ragged_hit_rate", {
            let hits = c("decode.ragged_cache.hits");
            let misses = c("decode.ragged_cache.misses");
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            }
        }),
    ]
}

/// Evenly spaced contexts across the 1024-token generation, phase-shifted
/// by the seed. Every context lies below `GEN_TOKENS`, the capacity the
/// engines are built with.
fn probe_contexts(seed: u64) -> Vec<usize> {
    let stride = GEN_TOKENS / DECODE_CONTEXTS;
    let offset = (seed % stride as u64) as usize;
    (0..DECODE_CONTEXTS).map(|k| offset + k * stride).collect()
}

/// The `trace`, `schedule` and `ddr` layers, timed from outside on a
/// fresh engine for `model`; the workloads that price DDR run it. At each context it prices `decode_token`,
/// then re-derives the same `token_schedule` and streams its bursts
/// through one fresh `MemorySystem`, the way the engine prices a run of
/// tokens. Interleaving the three per context keeps them under the same
/// machine state, so `trace.self_s` is the engine's own remainder.
fn decode_probe(
    t: &mut Tracer,
    model: &ModelConfig,
    contexts: &[usize],
) -> Vec<(&'static str, f64)> {
    let mut engine = t.span("probe.engine", |_| {
        DecodeEngine::new(AccelConfig::kv260(), model, GEN_TOKENS).expect("model fits the 4 GB map")
    });
    let accel = engine.accel().clone();
    let mut mem = MemorySystem::new(accel.ddr.clone(), accel.axi, accel.mem_lookahead);
    let (mut sched_s, mut ddr_s) = (0.0, 0.0);
    let (mut ops, mut descriptors, mut bytes) = (0usize, 0usize, 0u64);
    let mut token_ms = Vec::with_capacity(contexts.len());
    for &ctx in contexts {
        let (_, s) = timed(t, "trace.decode_token", |_| engine.decode_token(ctx));
        token_ms.push(s * 1e3);
        let (sched, s) = timed(t, "schedule.token_schedule", |_| {
            token_schedule(engine.image(), ctx, accel.pipeline)
        });
        sched_s += s;
        ops += sched.ops.len();
        descriptors += sched.ops.iter().map(|o| o.bursts.len()).sum::<usize>();
        let (report, s) = timed(t, "ddr.transfer_iter", |_| {
            mem.transfer_iter(sched.ops.iter().flat_map(|o| o.bursts.iter().copied()))
        });
        ddr_s += s;
        bytes += report.bytes;
    }
    let trace_s = token_ms.iter().sum::<f64>() / 1e3;
    let n = contexts.len() as f64;
    vec![
        ("trace.host_s", trace_s),
        ("trace.self_s", trace_s - sched_s - ddr_s),
        (
            "trace.host_ms_per_token_p50",
            pct_value(percentile(&token_ms, 0.5)),
        ),
        ("schedule.host_s", sched_s),
        ("schedule.ops_per_token", ops as f64 / n),
        ("schedule.bursts_per_token", descriptors as f64 / n),
        ("ddr.host_s", ddr_s),
        ("ddr.host_ns_per_kib", ddr_s * 1e9 / (bytes as f64 / 1024.0)),
    ]
}

/// The `QuantizedMatrix::matvec` kernel probe on the functional model's
/// largest projection (its LM head), median microseconds per call.
fn matvec_probe(t: &mut Tracer, seed: u64) -> f64 {
    let cfg = functional_model();
    let (rows, cols) = (cfg.vocab_size, cfg.d_model);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d61_7476);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| rng.gen_range(-0.05f32..0.05))
        .collect();
    let m = QuantizedMatrix::quantize(&data, rows, cols, GroupQuantConfig::w4_g128());
    let x: Vec<F16> = (0..cols)
        .map(|_| F16::from_f32(rng.gen_range(-1.0f32..1.0)))
        .collect();
    let vpu = Vpu::kv260();
    let calls: Vec<f64> = (0..MATVEC_CALLS)
        .map(|_| {
            timed(t, "functional.matvec", |_| {
                std::hint::black_box(m.matvec(&vpu, std::hint::black_box(&x)))
            })
            .1
        })
        .collect();
    median(&calls) * 1e6
}

// ---------------------------------------------------------------- decode-7b

struct Decode7b {
    contexts: Vec<usize>,
}

impl Decode7b {
    fn new(seed: u64) -> Decode7b {
        Decode7b {
            contexts: probe_contexts(seed),
        }
    }
}

impl Bench for Decode7b {
    fn rep(&mut self, t: &mut Tracer, _first: bool) -> Rep {
        let model = ModelConfig::llama2_7b();
        let mut rep = Rep::default();
        let mut engine = build_blocks(t, &mut rep, || {
            DecodeEngine::new(AccelConfig::kv260(), &model, GEN_TOKENS)
                .expect("LLaMA2-7B fits the KV260's 4 GB map")
        });
        let (reports, host_s) = timed(t, "measure", |t| {
            self.contexts
                .iter()
                .map(|&ctx| t.span("trace.decode_token", |_| engine.decode_token(ctx)))
                .collect::<Vec<_>>()
        });
        rep.host_s = host_s;
        let wall_ns: f64 = reports.iter().map(|r| r.wall_ns).sum();
        let tok_s = reports.len() as f64 * 1e9 / wall_ns;
        let roofline = engine.roofline_tokens_per_s();
        let bw_util = tok_s / roofline;
        let snap = engine.metrics_snapshot();
        rep.sim = vec![
            ("sim_tok_s", tok_s),
            ("sim_bw_util", bw_util),
            ("sim_decode_bytes", counter(&snap, "decode.bytes") as f64),
        ];
        rep.check(
            "decode.bytes equals the sum of decode.bytes.{kind}",
            bytes_conserved(&snap),
        );
        rep.check("sim_tok_s <= roofline_tokens_per_s()", tok_s <= roofline);
        rep.ok_from_checks();
        let published = zllm_baselines::published::ours_reported::TOKENS_PER_S;
        let published_util = zllm_baselines::published::ours_reported::UTILIZATION;
        rep.notes = vec![
            format!(
                "sim_tok_s {tok_s:.4} tok/s over {} contexts; published {published} tok/s, error {:+.1}%",
                reports.len(),
                (tok_s / published - 1.0) * 100.0
            ),
            format!(
                "sim_bw_util {:.2}% of the {roofline:.3} tok/s roofline; published {:.1}%, error {:+.1} points",
                bw_util * 100.0,
                published_util * 100.0,
                (bw_util - published_util) * 100.0
            ),
            "the DDR model omits PS interconnect contention, so the model is otherwise unvalidated".to_owned(),
        ];
        if t.enabled() {
            let mut layers = decode_probe(t, &model, &self.contexts);
            layers.extend(engine_counts(&[snap]));
            rep.layers = layers;
        }
        rep
    }
}

// ------------------------------------------------------- serving workloads

/// Request-level outcomes shared by `serve-paged` and `fleet-2x2`.
struct Outcomes {
    ttft_ms: Vec<f64>,
    tpot_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
}

impl Outcomes {
    fn of(outcomes: &[RequestOutcome]) -> Outcomes {
        let completed = || outcomes.iter().filter(|o| o.finish_s.is_some());
        Outcomes {
            ttft_ms: completed()
                .filter_map(|o| o.ttft_s())
                .map(|s| s * 1e3)
                .collect(),
            tpot_ms: completed()
                .filter_map(|o| o.mean_token_latency_s())
                .map(|s| s * 1e3)
                .collect(),
            queue_wait_ms: outcomes
                .iter()
                .filter_map(|o| o.admitted_s.map(|a| (a - o.request.arrival_s) * 1e3))
                .collect(),
        }
    }
}

/// The request totals `ServeReport` and `ClusterReport` both carry.
struct Served<'a> {
    outcomes: &'a [RequestOutcome],
    offered: u64,
    completed: u64,
    rejected: u64,
    deadline_met: u64,
    tok_s: f64,
    goodput: f64,
}

/// Simulated outcomes, checks and notes common to both serving
/// workloads.
fn serving_outcomes(rep: &mut Rep, served: &Served) -> Outcomes {
    let Served {
        outcomes,
        offered,
        completed,
        rejected,
        deadline_met,
        tok_s,
        goodput,
    } = *served;
    let o = Outcomes::of(outcomes);
    let ttft50 = percentile(&o.ttft_ms, 0.5);
    let ttft90 = percentile(&o.ttft_ms, 0.9);
    let tpot50 = percentile(&o.tpot_ms, 0.5);
    let tpot90 = percentile(&o.tpot_ms, 0.9);
    rep.sim = vec![
        ("sim_tok_s", tok_s),
        ("sim_goodput_tok_s", goodput),
        ("sim_ttft_p50_ms", pct_value(ttft50)),
        ("sim_ttft_p90_ms", pct_value(ttft90)),
        ("sim_tpot_p50_ms", pct_value(tpot50)),
        ("sim_tpot_p90_ms", pct_value(tpot90)),
    ];
    rep.ok = (offered, offered - deadline_met);
    rep.check(
        "offered = completed + rejected + dropped",
        offered == completed + rejected && outcomes.len() as u64 == offered,
    );
    rep.check(
        "every completed request has a first token",
        outcomes
            .iter()
            .filter(|o| o.finish_s.is_some())
            .all(|o| o.first_token_s.is_some()),
    );
    rep.notes = vec![
        format!(
            "requests: {offered} offered, {completed} completed, {rejected} rejected, {deadline_met} met their class deadline"
        ),
        format!("sim_goodput_tok_s {goodput:.4} tok/s"),
        format!("sim_ttft_p50_ms {}", ttft50.describe(1)),
        format!("sim_ttft_p90_ms {}", ttft90.describe(1)),
        format!("sim_tpot_p50_ms {}", tpot50.describe(2)),
        format!("sim_tpot_p90_ms {}", tpot90.describe(2)),
    ];
    o
}

struct ServePaged {
    trace: Vec<Request>,
    budget: u64,
    contexts: Vec<usize>,
}

impl ServePaged {
    fn new(seed: u64) -> ServePaged {
        let mut cfg = zllm_bench::decode_heavy_traffic(
            SERVE_MAX_REQUESTS,
            seed,
            ArrivalModel::Bursty {
                rate_per_s: SERVE_RATE,
                burst: SERVE_BURST,
            },
        );
        cfg.new_tokens = SERVE_NEW_TOKENS;
        let worst_tokens = cfg.prompt_tokens.1 + cfg.new_tokens.1;
        // The budget is derived from the engine's own KV pricing, so it
        // tracks the model geometry.
        let probe = Server::new(
            AccelConfig::kv260(),
            &ModelConfig::tiny_llama_1_1b(),
            ServerConfig::continuous(SERVE_CTX, SERVE_SLOTS),
        )
        .expect("TinyLlama-1.1B fits the 4 GB map");
        let budget = SERVE_WORST_CASE_SEQS
            * probe
                .engine()
                .image()
                .page_rounded_request_bytes(worst_tokens, PAGE_TOKENS);
        let trace: Vec<Request> = generate(&cfg)
            .into_iter()
            .take_while(|r| r.arrival_s < SERVE_WINDOW_S)
            .collect();
        assert!(
            trace.len() < SERVE_MAX_REQUESTS,
            "SERVE_MAX_REQUESTS must outlast the arrival window"
        );
        ServePaged {
            trace,
            budget,
            contexts: probe_contexts(seed),
        }
    }

    fn config(&self) -> ServerConfig {
        let mut cfg = ServerConfig::continuous(SERVE_CTX, SERVE_SLOTS).paged(PagedConfig {
            page_tokens: PAGE_TOKENS,
            ..PagedConfig::default()
        });
        cfg.kv_budget_bytes = Some(self.budget);
        cfg.queue_cap = SERVE_QUEUE_CAP;
        cfg
    }
}

impl Bench for ServePaged {
    fn rep(&mut self, t: &mut Tracer, _first: bool) -> Rep {
        let model = ModelConfig::tiny_llama_1_1b();
        let mut rep = Rep::default();
        let config = self.config();
        let mut server = build_blocks(t, &mut rep, || {
            Server::new(AccelConfig::kv260(), &model, config.clone()).expect("image fits")
        });
        let (r, host_s) = timed(t, "serve.run", |_| server.run(&self.trace));
        rep.host_s = host_s;
        let rejected = r.rejected_queue_full + r.rejected_infeasible;
        let o = serving_outcomes(
            &mut rep,
            &Served {
                outcomes: &r.outcomes,
                offered: r.offered,
                completed: r.completed,
                rejected,
                deadline_met: r.deadline_met,
                tok_s: r.tokens_per_s,
                goodput: r.goodput_tokens_per_s,
            },
        );
        rep.check("at least 100 requests complete", r.completed >= 100);
        rep.check("admission rejects requests", rejected > 0);
        rep.check("the scheduler preempts sequences", r.preempted > 0);
        let snap = server.engine().metrics_snapshot();
        rep.check(
            "decode.bytes equals the sum of decode.bytes.{kind}",
            bytes_conserved(&snap),
        );
        rep.sim
            .push(("sim_decode_bytes", counter(&snap, "decode.bytes") as f64));
        rep.notes.push(format!(
            "preempted {}, concurrent peak {}",
            r.preempted, r.concurrent_peak
        ));
        if t.enabled() {
            let kib = counter(&snap, "decode.bytes") as f64 / 1024.0;
            let mut layers = vec![
                ("serve.run_host_s", host_s),
                ("serve.host_ns_per_kib", host_s * 1e9 / kib),
                ("serve.steps_decode", r.decode_steps as f64),
                ("serve.steps_prefill", r.prefill_steps as f64),
                (
                    "serve.batch_mean",
                    r.generated_tokens as f64 / r.decode_steps as f64,
                ),
                (
                    "serve.queue_wait_p50_ms",
                    pct_value(percentile(&o.queue_wait_ms, 0.5)),
                ),
                (
                    "serve.queue_wait_p90_ms",
                    pct_value(percentile(&o.queue_wait_ms, 0.9)),
                ),
                ("serve.preempted", r.preempted as f64),
                ("serve.rejected", rejected as f64),
                (
                    "serve.deadline_missed",
                    (r.completed - r.deadline_met) as f64,
                ),
                (
                    "serve.kv_peak_frac",
                    r.kv_peak_bytes as f64 / r.kv_budget_bytes as f64,
                ),
                ("serve.concurrent_peak", r.concurrent_peak as f64),
            ];
            layers.extend(engine_counts(&[snap]));
            layers.extend(decode_probe(t, &model, &self.contexts));
            rep.layers = layers;
        }
        rep
    }
}

struct Fleet {
    trace: Vec<Request>,
    contexts: Vec<usize>,
}

impl Fleet {
    fn new(seed: u64) -> Fleet {
        Fleet {
            trace: generate(&zllm_bench::sweep_traffic(
                FLEET_REQUESTS,
                seed,
                ArrivalModel::Poisson {
                    rate_per_s: FLEET_RATE,
                },
            )),
            contexts: probe_contexts(seed),
        }
    }
}

impl Bench for Fleet {
    fn rep(&mut self, t: &mut Tracer, _first: bool) -> Rep {
        let model = ModelConfig::tiny_llama_1_1b();
        let accel = AccelConfig::kv260();
        let mut rep = Rep::default();
        let mut cluster = build_blocks(t, &mut rep, || {
            let mut cfg = ClusterConfig::new(FLEET_PIPELINES, FLEET_DEPTH, FLEET_CTX, FLEET_SLOTS);
            cfg.prefill_chunk = FLEET_PREFILL_CHUNK;
            ClusterServer::new(&accel, &model, cfg).expect("every shard fits a 4 GB board")
        });
        let (r, host_s) = timed(t, "cluster.run", |_| cluster.run(&self.trace));
        rep.host_s = host_s;
        let rejected = r.rejected_queue_full + r.rejected_infeasible;
        let o = serving_outcomes(
            &mut rep,
            &Served {
                outcomes: &r.outcomes,
                offered: r.offered,
                completed: r.completed,
                rejected,
                deadline_met: r.deadline_met,
                tok_s: r.tokens_per_s,
                goodput: r.goodput_tokens_per_s,
            },
        );
        let snaps: Vec<Snapshot> = (0..FLEET_PIPELINES)
            .flat_map(|p| {
                cluster
                    .engine(p)
                    .stages()
                    .iter()
                    .map(|e| e.metrics_snapshot())
            })
            .collect();
        rep.check(
            "decode.bytes equals the sum of decode.bytes.{kind} on every stage",
            snaps.iter().all(bytes_conserved),
        );
        let bytes = counter_sum(&snaps, "decode.bytes");
        rep.sim.push(("sim_decode_bytes", bytes as f64));
        if t.enabled() {
            let mut layers = vec![
                ("cluster.run_host_s", host_s),
                (
                    "cluster.host_ns_per_kib",
                    host_s * 1e9 / (bytes as f64 / 1024.0),
                ),
                ("cluster.steps_decode", r.decode_steps as f64),
                ("cluster.steps_prefill", r.prefill_steps as f64),
                (
                    "cluster.batch_mean",
                    r.generated_tokens as f64 / r.decode_steps as f64,
                ),
                (
                    "cluster.queue_wait_p90_ms",
                    pct_value(percentile(&o.queue_wait_ms, 0.9)),
                ),
                (
                    "cluster.link_bytes",
                    (r.activation_bytes + r.token_id_bytes) as f64,
                ),
                ("cluster.rejected", rejected as f64),
                (
                    "cluster.kv_peak_frac",
                    r.kv_peak_bytes as f64 / r.kv_budget_bytes as f64,
                ),
            ];
            layers.extend(engine_counts(&snaps));
            layers.extend(decode_probe(t, &model, &self.contexts));
            rep.layers = layers;
        }
        rep
    }
}

// --------------------------------------------------------------- functional

struct Functional {
    weight_seed: u64,
    /// Step-major prompts: `prompts[step][seq]`.
    prompts: Vec<Vec<usize>>,
    /// Greedy decode steps after the prompt.
    decode_steps: usize,
}

impl Functional {
    fn new(seed: u64) -> Functional {
        let vocab = functional_model().vocab_size;
        let mut rng = StdRng::seed_from_u64(seed);
        let prompt_len = rng.gen_range(FUNC_PROMPT.0..=FUNC_PROMPT.1);
        let prompts = (0..prompt_len)
            .map(|_| (0..FUNC_BATCH).map(|_| rng.gen_range(0..vocab)).collect())
            .collect();
        Functional {
            weight_seed: rng.next_u64(),
            prompts,
            decode_steps: FUNC_STEPS - prompt_len,
        }
    }

    /// Weight generation plus W4 quantization: the functional set-up.
    fn quantized(&self, t: &mut Tracer) -> (QuantizedModel, f64) {
        timed(t, "functional.quantize", |_| {
            let weights = ModelWeights::generate(&functional_model(), self.weight_seed);
            QuantizedModel::quantize(&weights, GroupQuantConfig::w4_g128())
        })
    }

    /// Greedy tokens of each sequence decoded alone by `AccelDecoder`.
    fn reference_tokens(&self, model: &QuantizedModel) -> Vec<Vec<usize>> {
        (0..FUNC_BATCH)
            .map(|seq| {
                let mut dec = AccelDecoder::new(model);
                let mut logits = Vec::new();
                for step in &self.prompts {
                    logits = dec.forward(step[seq]);
                }
                let mut tokens = vec![argmax(&logits)];
                for _ in 0..self.decode_steps {
                    let next = dec.forward(*tokens.last().expect("non-empty"));
                    tokens.push(argmax(&next));
                }
                tokens
            })
            .collect()
    }
}

/// Weight bytes one token streams, from tensor sizes: every projection
/// and the LM head as 4-bit codes plus an FP16 scale and zero per
/// 128-weight group, and one FP16 embedding row.
fn weight_bytes_per_token(cfg: &ModelConfig) -> f64 {
    let group = GroupQuantConfig::w4_g128();
    let per_weight = group.bits as f64 / 8.0 + 4.0 / group.group_size as f64;
    projection_macs(cfg) * per_weight + cfg.d_model as f64 * 2.0
}

/// Multiply-accumulates of one token's projections and LM head, from
/// tensor sizes (attention over the context is excluded).
fn projection_macs(cfg: &ModelConfig) -> f64 {
    (cfg.n_layers as u64 * cfg.params_per_layer() + (cfg.vocab_size * cfg.d_model) as u64) as f64
}

impl Bench for Functional {
    fn rep(&mut self, t: &mut Tracer, first: bool) -> Rep {
        let cfg = functional_model();
        let mut rep = Rep::default();
        // Each build quantizes a fresh model and stands a decoder up on
        // it; only the last build is kept for the measured phase.
        let mut quantize_s = Vec::new();
        for _ in 0..FUNC_SETUP_BUILDS - 1 {
            let (model, q) = self.quantized(t);
            let mut reg = zllm_telemetry::MetricsRegistry::new();
            let (_, b) = timed(t, "image.build", |_| {
                AccelBatchDecoder::with_metrics(&model, FUNC_BATCH, &mut reg)
            });
            quantize_s.push(q);
            rep.setup_s.push(q + b);
        }
        let (model, q) = self.quantized(t);
        let mut reg = zllm_telemetry::MetricsRegistry::new();
        let (mut dec, b) = timed(t, "image.build", |_| {
            AccelBatchDecoder::with_metrics(&model, FUNC_BATCH, &mut reg)
        });
        quantize_s.push(q);
        rep.setup_s.push(q + b);

        let (prompts, steps) = (&self.prompts, self.decode_steps);
        let ((tokens, step_s, prefill_s, beats), host_s) = timed(t, "measure", |t| {
            let (logits, prefill_s) =
                timed(t, "functional.prefill", |_| dec.prefill_batch(prompts));
            let prefill_beats = reg.counter_value("vpu.dot_beats").unwrap_or(0);
            let mut tokens: Vec<Vec<usize>> = logits.iter().map(|l| vec![argmax(l)]).collect();
            let mut step_s = Vec::with_capacity(steps);
            t.span("functional.decode", |t| {
                for _ in 0..steps {
                    let last: Vec<usize> = tokens
                        .iter()
                        .map(|s| *s.last().expect("non-empty"))
                        .collect();
                    let (logits, s) =
                        timed(t, "functional.decode_step", |_| dec.decode_batch(&last));
                    step_s.push(s);
                    for (seq, l) in tokens.iter_mut().zip(&logits) {
                        seq.push(argmax(l));
                    }
                }
            });
            let decode_beats = reg.counter_value("vpu.dot_beats").unwrap_or(0) - prefill_beats;
            (tokens, step_s, prefill_s, decode_beats)
        });
        rep.host_s = host_s;
        // The functional path prices no DDR: its simulated clock is the
        // VPU's, one 128-lane dot beat per PL cycle.
        let hz = AccelConfig::kv260().freq_mhz * 1e6;
        let tok_s = (FUNC_BATCH * steps) as f64 * hz / beats as f64;
        let checksum = tokens
            .iter()
            .flatten()
            .enumerate()
            .map(|(i, &tok)| ((i + 1) * tok) as f64)
            .sum();
        rep.sim = vec![
            ("sim_tok_s", tok_s),
            ("sim_dot_beats", beats as f64),
            ("sim_token_checksum", checksum),
        ];
        rep.check(
            "decode produced a token per sequence per step",
            tokens.iter().all(|s| s.len() == steps + 1),
        );
        if first {
            // Outside the timed phase: the reference decodes each
            // sequence on its own.
            let reference = t.span("functional.reference", |_| self.reference_tokens(&model));
            rep.check(
                "batched greedy tokens equal per-sequence AccelDecoder tokens",
                reference == tokens,
            );
        }
        rep.ok_from_checks();
        rep.notes = vec![format!(
            "sim_tok_s {tok_s:.2} tok/s on the VPU clock ({beats} dot beats at {:.0} MHz for {} tokens)",
            hz / 1e6,
            FUNC_BATCH * steps
        )];
        if t.enabled() {
            let ms: Vec<f64> = step_s.iter().map(|s| s * 1e3).collect();
            let mut layers = vec![
                ("functional.prefill_host_s", prefill_s),
                ("functional.decode_host_s", step_s.iter().sum()),
                (
                    "functional.host_ms_per_step_p50",
                    pct_value(percentile(&ms, 0.5)),
                ),
                ("functional.quantize_s", median(&quantize_s)),
                (
                    "functional.weight_bytes_per_token",
                    weight_bytes_per_token(&cfg),
                ),
                ("functional.macs_per_token", projection_macs(&cfg)),
            ];
            layers.push((
                "functional.matvec_host_us",
                matvec_probe(t, self.weight_seed),
            ));
            rep.layers = layers;
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every seed's contexts are evenly spaced and lie inside the
    /// capacity the engines are built with.
    #[test]
    fn probe_contexts_stay_below_capacity() {
        for seed in [0, 1, 30, 31, 32, 63, 7919, u64::MAX] {
            let ctx = probe_contexts(seed);
            assert_eq!(ctx.len(), DECODE_CONTEXTS);
            assert!(ctx.iter().all(|&c| c < GEN_TOKENS), "seed {seed}: {ctx:?}");
            assert!(ctx.windows(2).all(|w| w[1] - w[0] == GEN_TOKENS / DECODE_CONTEXTS));
        }
    }
}
