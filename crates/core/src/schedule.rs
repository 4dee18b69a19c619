//! The per-token memory/compute operation schedule.
//!
//! For each decoded token the MCU issues a fixed sequence of bursts:
//! the embedding row, then per layer the seven projections interleaved
//! with the KV-cache history reads and the current token's KV write-back,
//! then the LM head. Every operation carries its VPU beat count and — for
//! the coarse-pipeline baseline — the miscellaneous SPU cycles that would
//! be *exposed* without operator fusion (§V-A).

use crate::config::PipelineMode;
use crate::image::ModelImage;
use zllm_layout::BurstDescriptor;

/// One scheduled operation.
#[derive(Debug, Clone)]
pub struct MemOp {
    /// Human-readable label ("L3.w_gate", "L3.kv_read.K", …).
    pub label: String,
    /// The bursts this operation issues.
    pub bursts: Vec<BurstDescriptor>,
    /// Beats the VPU consumes (one per cycle at fanout 1).
    pub vpu_beats: u64,
    /// SPU cycles serialized after this op in the coarse pipeline
    /// (zero in the fused pipeline, where they hide under the next dense
    /// stream).
    pub exposed_misc: u64,
    /// Sequences whose activations multiply against this stream's beats.
    /// Shared weight streams carry the whole batch (`fanout = B`, each
    /// beat's codes retire against `B` activation vectors); per-sequence
    /// streams (KV history, embedding rows) feed only their own sequence
    /// (`fanout = 1`).
    pub compute_fanout: u32,
}

impl MemOp {
    fn new(label: String, bursts: Vec<BurstDescriptor>) -> MemOp {
        let vpu_beats = bursts
            .iter()
            .filter(|b| !b.write)
            .map(|b| b.beats as u64)
            .sum();
        MemOp {
            label,
            bursts,
            vpu_beats,
            exposed_misc: 0,
            compute_fanout: 1,
        }
    }

    fn fanned(label: String, bursts: Vec<BurstDescriptor>, fanout: u32) -> MemOp {
        let mut op = MemOp::new(label, bursts);
        op.compute_fanout = fanout;
        op
    }

    /// A metadata operation (page-table lookups and flushes): its bursts
    /// are priced as real DDR traffic but feed no VPU compute.
    fn meta(label: String, bursts: Vec<BurstDescriptor>) -> MemOp {
        MemOp {
            label,
            bursts,
            vpu_beats: 0,
            exposed_misc: 0,
            compute_fanout: 1,
        }
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bursts.iter().map(BurstDescriptor::bytes).sum()
    }
}

/// The complete schedule of one decode step.
#[derive(Debug, Clone)]
pub struct TokenSchedule {
    /// Operations in issue order.
    pub ops: Vec<MemOp>,
    /// The highest context length this schedule serves (for a lockstep
    /// batch, every sequence's shared context; for a ragged step, the
    /// longest sequence's).
    pub ctx: usize,
    /// Tokens this step produces: the number of concurrent sequences for
    /// a decode step (1 = the single-sequence schedule), or the total
    /// prompt tokens for a chunked-prefill step.
    pub batch: usize,
    /// The `(slot, context)` pair of every sequence taking part, in issue
    /// order. Uniform lockstep schedules carry `(0, ctx) .. (B-1, ctx)`;
    /// ragged schedules carry each sequence's own position; prefill
    /// schedules carry each chunk's last written position.
    pub slots: Vec<(usize, usize)>,
}

impl TokenSchedule {
    /// Total bytes moved in this step.
    pub fn total_bytes(&self) -> u64 {
        self.ops.iter().map(MemOp::bytes).sum()
    }

    /// Total VPU beats.
    pub fn total_vpu_beats(&self) -> u64 {
        self.ops.iter().map(|o| o.vpu_beats).sum()
    }

    /// Total exposed miscellaneous cycles (coarse mode only).
    pub fn total_exposed_misc(&self) -> u64 {
        self.ops.iter().map(|o| o.exposed_misc).sum()
    }
}

/// Builds the schedule for decoding one token with `ctx` tokens already
/// cached (position `ctx` is being produced; its KV is written back).
///
/// Single-sequence convenience over [`batched_token_schedule`] at
/// `batch = 1` (same ops, same labels, same bursts).
///
/// # Panics
///
/// Panics if `ctx >= image.ctx_capacity()`.
pub fn token_schedule(image: &ModelImage, ctx: usize, mode: PipelineMode) -> TokenSchedule {
    batched_token_schedule(image, ctx, 1, mode)
}

/// Builds the schedule for decoding one token for each of `batch`
/// lockstep sequences, all at context length `ctx`.
///
/// Dense weight streams (embedding table rows aside) appear **once** and
/// fan their compute out to all `batch` sequences
/// ([`MemOp::compute_fanout`]); per-sequence traffic — the embedding row
/// of each sequence's token, the KV history reads, the KV write-backs,
/// and the scale-zero metadata flushes — is emitted per sequence against
/// that sequence's own cache region. This is the batched-serving memory
/// model: weight bytes are independent of `batch`, KV bytes linear in it.
///
/// # Panics
///
/// Panics if `ctx >= image.ctx_capacity()`, if `batch == 0`, or if
/// `batch > image.batch()` (the image does not provision KV space for
/// that many sequences).
pub fn batched_token_schedule(
    image: &ModelImage,
    ctx: usize,
    batch: usize,
    mode: PipelineMode,
) -> TokenSchedule {
    assert!(ctx < image.ctx_capacity(), "context beyond image capacity");
    assert!(batch > 0, "batch must be at least one sequence");
    assert!(
        batch <= image.batch(),
        "batch beyond image batch provisioning"
    );
    let slots: Vec<(usize, usize)> = (0..batch).map(|s| (s, ctx)).collect();
    ragged_token_schedule(image, &slots, mode)
}

/// Builds the schedule for decoding one token for each sequence in
/// `slots`, where each `(slot, ctx)` pair names the KV slot a sequence
/// occupies and *that sequence's own* context length — the continuous-
/// batching step. [`batched_token_schedule`] is the uniform special case
/// (`slots = [(0, ctx), …, (B-1, ctx)]`, op-for-op identical).
///
/// Shared weight streams still appear once with their compute fanned out
/// to all participants; per-sequence traffic (embedding row, KV history
/// read, KV write-back, metadata flush) is sized by each sequence's own
/// position, so a step may mix a 3-token-old joiner with a 200-token
/// veteran without padding either.
///
/// # Panics
///
/// Panics if `slots` is empty, contains a duplicate slot, a slot at or
/// beyond `image.batch()`, or a context at or beyond
/// `image.ctx_capacity()`.
pub fn ragged_token_schedule(
    image: &ModelImage,
    slots: &[(usize, usize)],
    mode: PipelineMode,
) -> TokenSchedule {
    assert!(!slots.is_empty(), "batch must be at least one sequence");
    for (i, &(slot, ctx)) in slots.iter().enumerate() {
        assert!(ctx < image.ctx_capacity(), "context beyond image capacity");
        assert!(
            slot < image.batch(),
            "batch beyond image batch provisioning"
        );
        assert!(
            !slots[..i].iter().any(|&(s, _)| s == slot),
            "duplicate slot in ragged schedule"
        );
    }
    let model = image.model();
    let d = model.d_model;
    let hd = model.head_dim();
    let heads = model.n_heads;
    let batch = slots.len();
    let b = batch as u64;
    let fanout = batch as u32;
    let mut ops: Vec<MemOp> = Vec::with_capacity(model.n_layers * (4 + 2 * batch) + 2);

    // Miscellaneous SPU latencies, exposed only in coarse mode. The SPU
    // works per activation vector, so in a batch each sequence pays its
    // own pass. Softmax cost depends on each sequence's own position.
    let rmsnorm = 2 * d as u64;
    let rope_all = (heads + model.n_kv_heads) as u64 * hd as u64;
    let softmax_all = |ctx: usize| 3 * (ctx as u64 + 1) * heads as u64;
    let quant_all = 2 * 2 * model.kv_dim() as u64; // K and V, two passes
    let silu = model.d_ff as u64;

    // One embedding row per sequence (each decodes its own token). A
    // shard image without the table receives hidden states over the
    // interconnect instead — that traffic is priced by the cluster layer,
    // not as DDR.
    if image.owns_embedding() {
        ops.push(MemOp::new(
            "embedding".into(),
            slots.iter().map(|_| image.embedding_row_burst(0)).collect(),
        ));
    }

    // A paged image pays one page-table lookup per participating
    // sequence before any fragmented KV burst can be issued — real
    // metadata DDR traffic, not free bookkeeping.
    if image.is_paged() {
        ops.push(MemOp::meta(
            "kv_pt_read".into(),
            slots
                .iter()
                .map(|&(slot, _)| image.kv_page_table_read_burst(slot))
                .collect(),
        ));
    }

    for layer in 0..model.n_layers {
        let projs = image.layer_projections(layer);
        let find = |name: &str| {
            projs
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("projection {name} missing"))
        };

        // Pre-attention RMSNorm exposes before Q in the coarse pipeline.
        // Sequences with no history have no kv_read op to carry their
        // softmax, so it serializes here instead.
        let mut qkv = MemOp::fanned(
            format!("L{layer}.qkv"),
            vec![find("wq").burst(), find("wk").burst(), find("wv").burst()],
            fanout,
        );
        if mode == PipelineMode::Coarse {
            qkv.exposed_misc = (rmsnorm + rope_all + quant_all) * b
                + slots
                    .iter()
                    .filter(|&&(_, ctx)| ctx == 0)
                    .map(|&(_, ctx)| softmax_all(ctx))
                    .sum::<u64>();
        }
        ops.push(qkv);

        // KV history reads (the attention DOT and weighted-value sums):
        // one stream per sequence, each over its own cache region at its
        // own length.
        for &(slot, ctx) in slots {
            if ctx == 0 {
                continue;
            }
            let mut bursts = image.kv_read_bursts_seq(layer, false, ctx, slot);
            bursts.extend(image.kv_read_bursts_seq(layer, true, ctx, slot));
            let mut kv_read = MemOp::new(format!("L{layer}.kv_read"), bursts);
            if mode == PipelineMode::Coarse {
                kv_read.exposed_misc = softmax_all(ctx);
            }
            ops.push(kv_read);
        }

        // Current tokens' KV write-backs (codes; metadata amortized).
        for &(slot, ctx) in slots {
            ops.push(MemOp::new(
                format!("L{layer}.kv_write"),
                vec![
                    image.kv_write_burst_seq(layer, false, ctx, slot),
                    image.kv_write_burst_seq(layer, true, ctx, slot),
                ],
            ));
        }

        ops.push(MemOp::fanned(
            format!("L{layer}.wo"),
            vec![find("wo").burst()],
            fanout,
        ));

        let mut mlp = MemOp::fanned(
            format!("L{layer}.mlp"),
            vec![
                find("w_gate").burst(),
                find("w_up").burst(),
                find("w_down").burst(),
            ],
            fanout,
        );
        if mode == PipelineMode::Coarse {
            mlp.exposed_misc = (rmsnorm + silu) * b;
        }
        ops.push(mlp);
    }

    // Scale-zero FIFO flush: a sequence crossing a 16-token window
    // boundary this step writes one beat per stream into its own
    // metadata block. In a ragged step only the crossing sequences pay.
    let streams = model.n_layers * model.n_kv_heads * 2;
    let flush_bursts: Vec<BurstDescriptor> = slots
        .iter()
        .filter(|&&(_, ctx)| (ctx + 1).is_multiple_of(16))
        .flat_map(|&(slot, ctx)| {
            let window = (ctx as u64 + 1) / 16 - 1;
            (0..streams).map(move |s| image.kv_meta_write_burst_seq(s, window, slot))
        })
        .collect();
    if !flush_bursts.is_empty() {
        ops.push(MemOp::new("kv_meta_flush".into(), flush_bursts));
    }

    // A sequence whose write-back lands on a fresh page appends one
    // page-table entry — the one-beat allocation cost of on-demand
    // paging, paid exactly when a page boundary is crossed.
    if let Some(pt) = image.page_tokens() {
        let pt_bursts: Vec<BurstDescriptor> = slots
            .iter()
            .filter(|&&(_, ctx)| ctx.is_multiple_of(pt))
            .map(|&(slot, ctx)| image.kv_page_table_write_burst(slot, ctx / pt))
            .collect();
        if !pt_bursts.is_empty() {
            ops.push(MemOp::meta("kv_pt_write".into(), pt_bursts));
        }
    }

    // Only the stage owning the head prices a logits pass.
    if image.owns_head() {
        let mut head = MemOp::fanned("lm_head".into(), vec![image.lm_head().burst()], fanout);
        if mode == PipelineMode::Coarse {
            head.exposed_misc = rmsnorm * b;
        }
        ops.push(head);
    }

    TokenSchedule {
        ops,
        ctx: slots.iter().map(|&(_, ctx)| ctx).max().unwrap_or(0),
        batch,
        slots: slots.to_vec(),
    }
}

/// One contiguous span of a sequence's prompt processed in a single
/// chunked-prefill step: tokens `start .. start + len` of the sequence
/// occupying KV slot `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefillChunk {
    /// KV slot the sequence occupies.
    pub slot: usize,
    /// First prompt position this chunk covers (tokens `0..start` are
    /// already cached from earlier chunks).
    pub start: usize,
    /// Tokens in this chunk (> 0).
    pub len: usize,
}

/// Builds the schedule for one chunked-prefill step: each weight stream
/// is fetched **once** and its compute fanned out across every prompt
/// token of every chunk (`fanout = Σ len`), the defining win of prefill
/// over token-by-token decode. Per chunk the step reads that sequence's
/// cached history `[0, start)` once per layer (the chunk's own K/V stay
/// on-chip and never round-trip through DDR), writes back `len` new KV
/// positions, and flushes the scale-zero metadata of every 16-token
/// window the chunk completes. Only one LM-head pass per *chunk* is
/// scheduled — prefill discards intermediate logits.
///
/// # Panics
///
/// Panics if `chunks` is empty, a chunk is empty, a slot repeats or lies
/// beyond `image.batch()`, or `start + len` exceeds
/// `image.ctx_capacity()`.
pub fn chunked_prefill_schedule(
    image: &ModelImage,
    chunks: &[PrefillChunk],
    mode: PipelineMode,
) -> TokenSchedule {
    assert!(!chunks.is_empty(), "prefill needs at least one chunk");
    for (i, c) in chunks.iter().enumerate() {
        assert!(c.len > 0, "prefill chunk must cover at least one token");
        assert!(
            c.start + c.len <= image.ctx_capacity(),
            "context beyond image capacity"
        );
        assert!(
            c.slot < image.batch(),
            "batch beyond image batch provisioning"
        );
        assert!(
            !chunks[..i].iter().any(|p| p.slot == c.slot),
            "duplicate slot in prefill schedule"
        );
    }
    let model = image.model();
    let d = model.d_model;
    let hd = model.head_dim();
    let heads = model.n_heads;
    let total: usize = chunks.iter().map(|c| c.len).sum();
    let t = total as u64;
    let fanout = total as u32;
    let head_fanout = chunks.len() as u32;
    let mut ops: Vec<MemOp> = Vec::with_capacity(model.n_layers * (4 + 2 * chunks.len()) + 2);

    let rmsnorm = 2 * d as u64;
    let rope_all = (heads + model.n_kv_heads) as u64 * hd as u64;
    // Token at position p attends to p + 1 keys; sum over the chunk.
    let softmax_chunk = |c: &PrefillChunk| {
        (c.start..c.start + c.len)
            .map(|p| 3 * (p as u64 + 1) * heads as u64)
            .sum::<u64>()
    };
    let quant_all = 2 * 2 * model.kv_dim() as u64;
    let silu = model.d_ff as u64;

    // Every prompt token fetches its embedding row (first stage only —
    // later shards receive hidden states over the interconnect).
    if image.owns_embedding() {
        ops.push(MemOp::new(
            "embedding".into(),
            chunks
                .iter()
                .flat_map(|c| (0..c.len).map(|_| image.embedding_row_burst(0)))
                .collect(),
        ));
    }

    // Paged images: one page-table lookup per chunk before its
    // fragmented history reads and page-mapped writes can be issued.
    if image.is_paged() {
        ops.push(MemOp::meta(
            "kv_pt_read".into(),
            chunks
                .iter()
                .map(|c| image.kv_page_table_read_burst(c.slot))
                .collect(),
        ));
    }

    for layer in 0..model.n_layers {
        let projs = image.layer_projections(layer);
        let find = |name: &str| {
            projs
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("projection {name} missing"))
        };

        let mut qkv = MemOp::fanned(
            format!("L{layer}.qkv"),
            vec![find("wq").burst(), find("wk").burst(), find("wv").burst()],
            fanout,
        );
        if mode == PipelineMode::Coarse {
            qkv.exposed_misc = (rmsnorm + rope_all + quant_all) * t
                + chunks
                    .iter()
                    .filter(|c| c.start == 0)
                    .map(softmax_chunk)
                    .sum::<u64>();
        }
        ops.push(qkv);

        // Each chunk reads its sequence's cached history [0, start) once
        // per layer; attention among the chunk's own tokens uses the K/V
        // still resident on-chip.
        for c in chunks {
            if c.start == 0 {
                continue;
            }
            let mut bursts = image.kv_read_bursts_seq(layer, false, c.start, c.slot);
            bursts.extend(image.kv_read_bursts_seq(layer, true, c.start, c.slot));
            let mut kv_read = MemOp::new(format!("L{layer}.kv_read"), bursts);
            kv_read.compute_fanout = c.len as u32;
            if mode == PipelineMode::Coarse {
                kv_read.exposed_misc = softmax_chunk(c);
            }
            ops.push(kv_read);
        }

        // Every chunk token's K/V codes are written back.
        for c in chunks {
            ops.push(MemOp::new(
                format!("L{layer}.kv_write"),
                (c.start..c.start + c.len)
                    .flat_map(|p| {
                        [
                            image.kv_write_burst_seq(layer, false, p, c.slot),
                            image.kv_write_burst_seq(layer, true, p, c.slot),
                        ]
                    })
                    .collect(),
            ));
        }

        ops.push(MemOp::fanned(
            format!("L{layer}.wo"),
            vec![find("wo").burst()],
            fanout,
        ));

        let mut mlp = MemOp::fanned(
            format!("L{layer}.mlp"),
            vec![
                find("w_gate").burst(),
                find("w_up").burst(),
                find("w_down").burst(),
            ],
            fanout,
        );
        if mode == PipelineMode::Coarse {
            mlp.exposed_misc = (rmsnorm + silu) * t;
        }
        ops.push(mlp);
    }

    // Metadata flush for every 16-token window a chunk completes.
    let streams = model.n_layers * model.n_kv_heads * 2;
    let flush_bursts: Vec<BurstDescriptor> = chunks
        .iter()
        .flat_map(|c| {
            (c.start..c.start + c.len)
                .filter(|p| (p + 1).is_multiple_of(16))
                .flat_map(move |p| {
                    let window = (p as u64 + 1) / 16 - 1;
                    (0..streams).map(move |s| image.kv_meta_write_burst_seq(s, window, c.slot))
                })
        })
        .collect();
    if !flush_bursts.is_empty() {
        ops.push(MemOp::new("kv_meta_flush".into(), flush_bursts));
    }

    // Page-table appends for every page boundary a chunk crosses.
    if let Some(pt) = image.page_tokens() {
        let pt_bursts: Vec<BurstDescriptor> = chunks
            .iter()
            .flat_map(|c| {
                (c.start..c.start + c.len)
                    .filter(|p| p.is_multiple_of(pt))
                    .map(move |p| image.kv_page_table_write_burst(c.slot, p / pt))
            })
            .collect();
        if !pt_bursts.is_empty() {
            ops.push(MemOp::meta("kv_pt_write".into(), pt_bursts));
        }
    }

    // Only each chunk's last token needs logits, and only on the stage
    // that owns the head.
    if image.owns_head() {
        let mut head = MemOp::fanned("lm_head".into(), vec![image.lm_head().burst()], head_fanout);
        if mode == PipelineMode::Coarse {
            head.exposed_misc = rmsnorm * chunks.len() as u64;
        }
        ops.push(head);
    }

    TokenSchedule {
        ops,
        ctx: chunks
            .iter()
            .map(|c| c.start + c.len - 1)
            .max()
            .unwrap_or(0),
        batch: total,
        slots: chunks
            .iter()
            .map(|c| (c.slot, c.start + c.len - 1))
            .collect(),
    }
}

/// One sequence's speculative verify window: `ctx` tokens are already
/// committed to the KV cache, a draft model proposed `drafted` tokens,
/// and the target verifies positions `ctx ..= ctx + drafted` in one
/// batched pass (the last committed token plus every draft). `accepted`
/// of the drafts survived greedy accept/reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecWindow {
    /// KV slot the sequence occupies.
    pub slot: usize,
    /// Tokens already committed (the first verify position).
    pub ctx: usize,
    /// Draft tokens proposed (K); zero degenerates to a plain decode
    /// step.
    pub drafted: usize,
    /// Drafts accepted (≤ `drafted`).
    pub accepted: usize,
}

impl SpecWindow {
    /// Tokens the window commits: the accepted drafts plus the bonus
    /// token the target emits at the first non-accepted position.
    pub fn committed(&self) -> usize {
        self.accepted + 1
    }

    /// First position past the committed prefix — the rollback
    /// boundary. Positions `keep() ..= end()` wrote KV that must be
    /// invalidated.
    pub fn keep(&self) -> usize {
        self.ctx + self.accepted + 1
    }

    /// Last verify position.
    pub fn end(&self) -> usize {
        self.ctx + self.drafted
    }
}

/// Builds the schedule for one speculative verify step over `windows`.
///
/// The verify pass is memory-wise a chunked prefill over each window's
/// `drafted + 1` positions — every weight stream is fetched **once**
/// with `compute_fanout = Σ (K+1)` ([`chunked_prefill_schedule`]'s
/// amortization applied to the decode loop), each window reads its
/// cached history `[0, ctx)` once per layer, and every verify position
/// writes its KV back. Two things differ from prefill:
///
/// * **every** verify position needs logits (each one is compared
///   against a draft), so the LM head fans out across all Σ (K+1)
///   positions instead of once per chunk;
/// * the rejected suffix `keep() ..= end()` must be *rolled back*:
///   every 16-token scale-zero window it flushed is re-written to
///   invalidate the dead packs (`kv_meta_rollback`), and — on a paged
///   image — every page-table entry it appended is truncated away
///   (`kv_pt_rollback`). Both are metadata-only DDR traffic, priced
///   like their forward twins (`kv_meta_flush` / `kv_pt_write`) but
///   feeding no VPU compute.
///
/// The returned schedule's `batch` is the number of tokens the step
/// *commits* (Σ accepted + 1 — accepted drafts plus one bonus token per
/// window), so pricing it yields honest tokens-per-second: rejected
/// positions cost bytes and cycles but produce nothing.
///
/// # Panics
///
/// Panics if `windows` is empty, a window has `accepted > drafted`, a
/// slot repeats or lies beyond `image.batch()`, or `ctx + drafted`
/// reaches `image.ctx_capacity()`.
pub fn speculative_verify_schedule(
    image: &ModelImage,
    windows: &[SpecWindow],
    mode: PipelineMode,
) -> TokenSchedule {
    assert!(!windows.is_empty(), "verify step needs at least one window");
    for w in windows {
        assert!(
            w.accepted <= w.drafted,
            "cannot accept more drafts than were proposed"
        );
    }
    let chunks: Vec<PrefillChunk> = windows
        .iter()
        .map(|w| PrefillChunk {
            slot: w.slot,
            start: w.ctx,
            len: w.drafted + 1,
        })
        .collect();
    let mut sched = chunked_prefill_schedule(image, &chunks, mode);

    let model = image.model();
    let total: usize = windows.iter().map(|w| w.drafted + 1).sum();
    // Unlike prefill, every verify position's logits are consumed by
    // accept/reject — the head's compute fans across all of them.
    if let Some(head) = sched.ops.iter_mut().find(|o| o.label == "lm_head") {
        head.compute_fanout = total as u32;
        if mode == PipelineMode::Coarse {
            head.exposed_misc = 2 * model.d_model as u64 * total as u64;
        }
    }

    // Rollback: re-write every scale-zero window the rejected suffix
    // flushed, invalidating the dead packs in place.
    let streams = model.n_layers * model.n_kv_heads * 2;
    let meta_bursts: Vec<BurstDescriptor> = windows
        .iter()
        .flat_map(|w| {
            (w.keep()..=w.end())
                .filter(|p| (p + 1).is_multiple_of(16))
                .flat_map(move |p| {
                    let window = (p as u64 + 1) / 16 - 1;
                    (0..streams).map(move |s| image.kv_meta_write_burst_seq(s, window, w.slot))
                })
        })
        .collect();
    if !meta_bursts.is_empty() {
        // Write bursts carry no VPU beats, so `MemOp::new` prices this
        // as pure metadata traffic — same shape as `kv_meta_flush`.
        sched
            .ops
            .push(MemOp::new("kv_meta_rollback".into(), meta_bursts));
    }

    // Rollback on a paged image: truncate every page-table entry the
    // rejected suffix appended (the allocator hands the pages back).
    if let Some(pt) = image.page_tokens() {
        let pt_bursts: Vec<BurstDescriptor> = windows
            .iter()
            .flat_map(|w| {
                (w.keep()..=w.end())
                    .filter(|p| p.is_multiple_of(pt))
                    .map(move |p| image.kv_page_table_write_burst(w.slot, p / pt))
            })
            .collect();
        if !pt_bursts.is_empty() {
            sched
                .ops
                .push(MemOp::meta("kv_pt_rollback".into(), pt_bursts));
        }
    }

    sched.batch = windows.iter().map(SpecWindow::committed).sum();
    sched.slots = windows
        .iter()
        .map(|w| (w.slot, w.ctx + w.accepted))
        .collect();
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ImageSpec;
    use zllm_layout::weight::WeightFormat;
    use zllm_model::ModelConfig;

    fn image() -> ModelImage {
        ModelImage::build(&ModelConfig::test_small(), WeightFormat::kv260(), 32)
            .expect("test model fits")
    }

    fn batched_image(batch: usize) -> ModelImage {
        ModelImage::build(
            &ModelConfig::test_small(),
            WeightFormat::kv260(),
            ImageSpec {
                batch,
                ..ImageSpec::from(32)
            },
        )
        .expect("test model fits")
    }

    /// Bytes split into the two halves of the batched memory model:
    /// `(shared weight-stream bytes, per-sequence bytes)`.
    fn split_bytes(sched: &TokenSchedule) -> (u64, u64) {
        let per_seq: u64 = sched
            .ops
            .iter()
            .filter(|o| {
                o.label.contains("kv_read")
                    || o.label.contains("kv_write")
                    || o.label == "kv_meta_flush"
                    || o.label == "embedding"
            })
            .map(MemOp::bytes)
            .sum();
        (sched.total_bytes() - per_seq, per_seq)
    }

    #[test]
    fn schedule_covers_all_weights() {
        let image = image();
        let sched = token_schedule(&image, 4, PipelineMode::Fused);
        // Every projection byte appears exactly once.
        let weight_bytes: u64 = image.weight_stream_bytes();
        let sched_weight_bytes: u64 = sched
            .ops
            .iter()
            .filter(|o| {
                o.label.contains(".qkv")
                    || o.label.contains(".wo")
                    || o.label.contains(".mlp")
                    || o.label == "lm_head"
            })
            .map(MemOp::bytes)
            .sum();
        assert_eq!(sched_weight_bytes, weight_bytes);
    }

    #[test]
    fn fused_mode_exposes_nothing() {
        let sched = token_schedule(&image(), 4, PipelineMode::Fused);
        assert_eq!(sched.total_exposed_misc(), 0);
    }

    #[test]
    fn coarse_mode_exposure_grows_with_context() {
        let image = image();
        let short = token_schedule(&image, 2, PipelineMode::Coarse);
        let long = token_schedule(&image, 30, PipelineMode::Coarse);
        assert!(short.total_exposed_misc() > 0);
        assert!(long.total_exposed_misc() > short.total_exposed_misc());
    }

    #[test]
    fn kv_reads_scale_with_context() {
        let image = image();
        let b4 = token_schedule(&image, 4, PipelineMode::Fused).total_bytes();
        let b16 = token_schedule(&image, 16, PipelineMode::Fused).total_bytes();
        assert!(b16 > b4);
    }

    #[test]
    fn zero_context_schedules_no_history_reads() {
        let sched = token_schedule(&image(), 0, PipelineMode::Fused);
        assert!(!sched.ops.iter().any(|o| o.label.contains("kv_read")));
        // But KV write-back still happens.
        assert!(sched.ops.iter().any(|o| o.label.contains("kv_write")));
    }

    #[test]
    fn meta_flush_every_16_tokens() {
        let image = image();
        let s15 = token_schedule(&image, 15, PipelineMode::Fused);
        assert!(s15.ops.iter().any(|o| o.label == "kv_meta_flush"));
        let s14 = token_schedule(&image, 14, PipelineMode::Fused);
        assert!(!s14.ops.iter().any(|o| o.label == "kv_meta_flush"));
    }

    #[test]
    fn writes_do_not_count_as_vpu_beats() {
        let sched = token_schedule(&image(), 4, PipelineMode::Fused);
        let write_op = sched
            .ops
            .iter()
            .find(|o| o.label.contains("kv_write"))
            .expect("has write op");
        assert_eq!(write_op.vpu_beats, 0);
        assert!(write_op.bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "context beyond image capacity")]
    fn capacity_checked() {
        let image = image();
        let _ = token_schedule(&image, 32, PipelineMode::Fused);
    }

    #[test]
    #[should_panic(expected = "batch beyond image batch provisioning")]
    fn batch_provisioning_checked() {
        let image = image();
        let _ = batched_token_schedule(&image, 4, 2, PipelineMode::Fused);
    }

    #[test]
    fn batch_of_one_is_the_single_sequence_schedule() {
        let image = batched_image(4);
        for mode in [PipelineMode::Fused, PipelineMode::Coarse] {
            for ctx in [0, 4, 15, 31] {
                let single = token_schedule(&image, ctx, mode);
                let batched = batched_token_schedule(&image, ctx, 1, mode);
                assert_eq!(single.batch, 1);
                assert_eq!(single.ops.len(), batched.ops.len());
                for (a, b) in single.ops.iter().zip(&batched.ops) {
                    assert_eq!(a.label, b.label);
                    assert_eq!(a.bytes(), b.bytes());
                    assert_eq!(a.vpu_beats, b.vpu_beats);
                    assert_eq!(a.exposed_misc, b.exposed_misc);
                    assert_eq!(a.compute_fanout, 1);
                    assert_eq!(b.compute_fanout, 1);
                    assert_eq!(a.bursts.len(), b.bursts.len());
                    for (ba, bb) in a.bursts.iter().zip(&b.bursts) {
                        assert_eq!(ba.addr, bb.addr);
                        assert_eq!(ba.beats, bb.beats);
                        assert_eq!(ba.write, bb.write);
                    }
                }
            }
        }
    }

    #[test]
    fn weight_bytes_amortize_kv_bytes_scale() {
        let image = batched_image(8);
        let (w1, s1) = split_bytes(&batched_token_schedule(&image, 16, 1, PipelineMode::Fused));
        for batch in [2usize, 4, 8] {
            let sched = batched_token_schedule(&image, 16, batch, PipelineMode::Fused);
            let (w, s) = split_bytes(&sched);
            assert_eq!(w, w1, "weight bytes must not scale with batch");
            assert_eq!(s, s1 * batch as u64, "per-seq bytes must scale linearly");
        }
    }

    #[test]
    fn shared_streams_fan_out_per_sequence_streams_do_not() {
        let sched = batched_token_schedule(&batched_image(4), 16, 4, PipelineMode::Fused);
        for op in &sched.ops {
            let per_seq =
                op.label.contains("kv_") || op.label == "kv_meta_flush" || op.label == "embedding";
            let expect = if per_seq { 1 } else { 4 };
            assert_eq!(op.compute_fanout, expect, "fanout of {}", op.label);
        }
    }

    #[test]
    fn uniform_ragged_schedule_matches_batched() {
        let image = batched_image(4);
        for mode in [PipelineMode::Fused, PipelineMode::Coarse] {
            for ctx in [0, 4, 15, 31] {
                let batched = batched_token_schedule(&image, ctx, 4, mode);
                let slots: Vec<(usize, usize)> = (0..4).map(|s| (s, ctx)).collect();
                let ragged = ragged_token_schedule(&image, &slots, mode);
                assert_eq!(batched.ops.len(), ragged.ops.len());
                assert_eq!(batched.slots, ragged.slots);
                for (a, b) in batched.ops.iter().zip(&ragged.ops) {
                    assert_eq!(a.label, b.label);
                    assert_eq!(a.bytes(), b.bytes());
                    assert_eq!(a.vpu_beats, b.vpu_beats);
                    assert_eq!(a.exposed_misc, b.exposed_misc);
                    assert_eq!(a.compute_fanout, b.compute_fanout);
                }
            }
        }
    }

    #[test]
    fn ragged_per_sequence_bytes_sum_per_slot_costs() {
        let image = batched_image(4);
        let slots = [(0usize, 3usize), (1, 17), (3, 0)];
        let sched = ragged_token_schedule(&image, &slots, PipelineMode::Fused);
        let (shared, per_seq) = split_bytes(&sched);
        let (shared1, _) = split_bytes(&batched_token_schedule(&image, 3, 1, PipelineMode::Fused));
        assert_eq!(shared, shared1, "weight bytes independent of raggedness");
        let expect: u64 = slots
            .iter()
            .map(|&(_, ctx)| {
                let s = batched_token_schedule(&image, ctx, 1, PipelineMode::Fused);
                split_bytes(&s).1
            })
            .sum();
        assert_eq!(per_seq, expect, "each sequence pays its own KV traffic");
    }

    #[test]
    fn ragged_meta_flush_only_for_crossing_sequences() {
        let image = batched_image(4);
        // Slot 1 crosses the 16-token window; slot 0 does not.
        let sched = ragged_token_schedule(&image, &[(0, 4), (1, 15)], PipelineMode::Fused);
        let flush = sched
            .ops
            .iter()
            .find(|o| o.label == "kv_meta_flush")
            .expect("crossing sequence flushes");
        let single = token_schedule(&image, 15, PipelineMode::Fused);
        let single_flush = single
            .ops
            .iter()
            .find(|o| o.label == "kv_meta_flush")
            .unwrap();
        assert_eq!(flush.bytes(), single_flush.bytes());
        let none = ragged_token_schedule(&image, &[(0, 4), (1, 14)], PipelineMode::Fused);
        assert!(!none.ops.iter().any(|o| o.label == "kv_meta_flush"));
    }

    #[test]
    #[should_panic(expected = "duplicate slot in ragged schedule")]
    fn ragged_rejects_duplicate_slots() {
        let image = batched_image(4);
        let _ = ragged_token_schedule(&image, &[(2, 4), (2, 9)], PipelineMode::Fused);
    }

    #[test]
    fn prefill_fans_weights_across_prompt_tokens() {
        let image = batched_image(2);
        let chunks = [
            PrefillChunk {
                slot: 0,
                start: 0,
                len: 8,
            },
            PrefillChunk {
                slot: 1,
                start: 4,
                len: 4,
            },
        ];
        let sched = chunked_prefill_schedule(&image, &chunks, PipelineMode::Fused);
        assert_eq!(sched.batch, 12);
        // Weight streams appear once, fanned to the 12 prompt tokens.
        let qkv = sched.ops.iter().find(|o| o.label == "L0.qkv").unwrap();
        assert_eq!(qkv.compute_fanout, 12);
        let single = token_schedule(&image, 0, PipelineMode::Fused);
        let sq = single.ops.iter().find(|o| o.label == "L0.qkv").unwrap();
        assert_eq!(qkv.bytes(), sq.bytes(), "weights fetched once per step");
        // LM head runs once per chunk, not per token.
        let head = sched.ops.iter().find(|o| o.label == "lm_head").unwrap();
        assert_eq!(head.compute_fanout, 2);
        // Only slot 1 reads history (slot 0 starts from scratch).
        let reads: Vec<_> = sched
            .ops
            .iter()
            .filter(|o| o.label == "L0.kv_read")
            .collect();
        assert_eq!(reads.len(), 1);
        // Every chunk token writes its KV back.
        let writes: u64 = sched
            .ops
            .iter()
            .filter(|o| o.label == "L0.kv_write")
            .map(|o| o.bursts.len() as u64)
            .sum();
        assert_eq!(writes, 2 * 12);
    }

    #[test]
    fn prefill_chunks_of_one_token_match_decode_bytes() {
        // A one-token chunk at position p moves the same bytes as the
        // decode step at ctx = p, modulo the LM head fanout.
        let image = batched_image(2);
        let chunk = [PrefillChunk {
            slot: 0,
            start: 9,
            len: 1,
        }];
        let pre = chunked_prefill_schedule(&image, &chunk, PipelineMode::Fused);
        let dec = token_schedule(&image, 9, PipelineMode::Fused);
        assert_eq!(pre.total_bytes(), dec.total_bytes());
        assert_eq!(pre.batch, 1);
    }

    #[test]
    #[should_panic(expected = "context beyond image capacity")]
    fn prefill_capacity_checked() {
        let image = batched_image(2);
        let _ = chunked_prefill_schedule(
            &image,
            &[PrefillChunk {
                slot: 0,
                start: 16,
                len: 17,
            }],
            PipelineMode::Fused,
        );
    }

    #[test]
    fn batched_kv_reads_touch_distinct_regions() {
        let image = batched_image(2);
        let sched = batched_token_schedule(&image, 8, 2, PipelineMode::Fused);
        let reads: Vec<_> = sched
            .ops
            .iter()
            .filter(|o| o.label == "L0.kv_read")
            .collect();
        assert_eq!(reads.len(), 2);
        assert_ne!(reads[0].bursts[0].addr, reads[1].bursts[0].addr);
        assert_eq!(reads[0].bytes(), reads[1].bytes());
    }

    fn paged_image(batch: usize) -> ModelImage {
        ModelImage::build(
            &ModelConfig::test_small(),
            WeightFormat::kv260(),
            ImageSpec {
                batch,
                page_tokens: Some(16),
                ..ImageSpec::from(32)
            },
        )
        .expect("test model fits")
    }

    /// Bytes in the page-table metadata ops alone.
    fn pt_bytes(sched: &TokenSchedule) -> u64 {
        sched
            .ops
            .iter()
            .filter(|o| o.label.starts_with("kv_pt_"))
            .map(MemOp::bytes)
            .sum()
    }

    #[test]
    fn paged_schedule_adds_only_page_table_traffic() {
        let flat = batched_image(4);
        let paged = paged_image(4);
        let slots = [(0usize, 3usize), (1, 17), (2, 16), (3, 0)];
        for mode in [PipelineMode::Fused, PipelineMode::Coarse] {
            let f = ragged_token_schedule(&flat, &slots, mode);
            let p = ragged_token_schedule(&paged, &slots, mode);
            // The same KV/weight bytes move; paging adds metadata bursts.
            assert_eq!(p.total_bytes() - pt_bytes(&p), f.total_bytes());
            assert!(pt_bytes(&p) > 0);
            assert_eq!(pt_bytes(&f), 0, "contiguous schedules have no tables");
            // The compute side is untouched: page tables feed no VPU.
            assert_eq!(p.total_vpu_beats(), f.total_vpu_beats());
            assert_eq!(p.total_exposed_misc(), f.total_exposed_misc());
        }
        // One lookup per sequence; appends only for boundary-crossing
        // writes (ctx 16 starts logical page 1, ctx 0 page 0).
        let p = ragged_token_schedule(&paged, &slots, PipelineMode::Fused);
        let read = p.ops.iter().find(|o| o.label == "kv_pt_read").unwrap();
        assert_eq!(read.bursts.len(), 4);
        let write = p.ops.iter().find(|o| o.label == "kv_pt_write").unwrap();
        assert_eq!(write.bursts.len(), 2);
        let none = ragged_token_schedule(&paged, &[(0, 3), (1, 17)], PipelineMode::Fused);
        assert!(!none.ops.iter().any(|o| o.label == "kv_pt_write"));
    }

    #[test]
    fn paged_reads_fragment_into_per_page_bursts() {
        let paged = paged_image(2);
        let sched = ragged_token_schedule(&paged, &[(0, 31)], PipelineMode::Fused);
        let read = sched.ops.iter().find(|o| o.label == "L0.kv_read").unwrap();
        // 31 tokens span two 16-token pages, K and V each: 4 bursts.
        assert_eq!(read.bursts.len(), 4);
        let flat = batched_image(2);
        let fsched = ragged_token_schedule(&flat, &[(0, 31)], PipelineMode::Fused);
        let fread = fsched.ops.iter().find(|o| o.label == "L0.kv_read").unwrap();
        assert_eq!(fread.bursts.len(), 2);
        assert_eq!(read.bytes(), fread.bytes());
        assert_eq!(read.vpu_beats, fread.vpu_beats);
    }

    #[test]
    fn paged_prefill_prices_page_table_appends() {
        let flat = batched_image(2);
        let paged = paged_image(2);
        let chunks = [
            PrefillChunk {
                slot: 0,
                start: 0,
                len: 20,
            },
            PrefillChunk {
                slot: 1,
                start: 16,
                len: 8,
            },
        ];
        let f = chunked_prefill_schedule(&flat, &chunks, PipelineMode::Fused);
        let p = chunked_prefill_schedule(&paged, &chunks, PipelineMode::Fused);
        assert_eq!(p.total_bytes() - pt_bytes(&p), f.total_bytes());
        // Chunk 0 crosses positions 0 and 16 (2 appends); chunk 1
        // crosses position 16 (1 append).
        let write = p.ops.iter().find(|o| o.label == "kv_pt_write").unwrap();
        assert_eq!(write.bursts.len(), 3);
        let read = p.ops.iter().find(|o| o.label == "kv_pt_read").unwrap();
        assert_eq!(read.bursts.len(), 2, "one lookup per chunk");
    }

    #[test]
    fn spec_window_of_zero_drafts_matches_decode_bytes() {
        // drafted = 0, accepted = 0: the verify window is one position —
        // a plain decode step, byte for byte.
        let image = batched_image(2);
        let w = [SpecWindow {
            slot: 0,
            ctx: 9,
            drafted: 0,
            accepted: 0,
        }];
        let spec = speculative_verify_schedule(&image, &w, PipelineMode::Fused);
        let dec = token_schedule(&image, 9, PipelineMode::Fused);
        assert_eq!(spec.total_bytes(), dec.total_bytes());
        assert_eq!(spec.batch, 1);
        assert_eq!(spec.slots, vec![(0, 9)]);
        assert!(!spec.ops.iter().any(|o| o.label.ends_with("_rollback")));
    }

    #[test]
    fn spec_verify_streams_weights_once_with_k_plus_1_fanout() {
        let image = batched_image(2);
        let w = [SpecWindow {
            slot: 0,
            ctx: 8,
            drafted: 4,
            accepted: 2,
        }];
        let spec = speculative_verify_schedule(&image, &w, PipelineMode::Fused);
        // The dense streams appear once, at the bytes of a single decode
        // step, with compute fanned across the K + 1 verify positions.
        let qkv = spec.ops.iter().find(|o| o.label == "L0.qkv").unwrap();
        assert_eq!(qkv.compute_fanout, 5);
        let single = token_schedule(&image, 8, PipelineMode::Fused);
        let sq = single.ops.iter().find(|o| o.label == "L0.qkv").unwrap();
        assert_eq!(qkv.bytes(), sq.bytes(), "weights fetched once per window");
        // Unlike prefill, every verify position needs logits.
        let head = spec.ops.iter().find(|o| o.label == "lm_head").unwrap();
        assert_eq!(head.compute_fanout, 5);
        // The step commits accepted + 1 tokens, not K + 1.
        assert_eq!(spec.batch, 3);
        assert_eq!(spec.slots, vec![(0, 10)]);
        // Coarse mode exposes one final RMSNorm per verify position.
        let coarse = speculative_verify_schedule(&image, &w, PipelineMode::Coarse);
        let head = coarse.ops.iter().find(|o| o.label == "lm_head").unwrap();
        assert_eq!(
            head.exposed_misc,
            2 * image.model().d_model as u64 * 5,
            "head norm exposed per verify position"
        );
    }

    #[test]
    fn spec_multi_window_fans_weights_across_all_verify_positions() {
        let image = batched_image(2);
        let ws = [
            SpecWindow {
                slot: 0,
                ctx: 4,
                drafted: 3,
                accepted: 3,
            },
            SpecWindow {
                slot: 1,
                ctx: 9,
                drafted: 2,
                accepted: 0,
            },
        ];
        let spec = speculative_verify_schedule(&image, &ws, PipelineMode::Fused);
        let qkv = spec.ops.iter().find(|o| o.label == "L0.qkv").unwrap();
        assert_eq!(qkv.compute_fanout, 4 + 3);
        let head = spec.ops.iter().find(|o| o.label == "lm_head").unwrap();
        assert_eq!(head.compute_fanout, 4 + 3);
        assert_eq!(spec.batch, 4 + 1, "committed = Σ (accepted + 1)");
        assert_eq!(spec.slots, vec![(0, 7), (1, 9)]);
    }

    #[test]
    fn spec_rollback_prices_rejected_meta_windows() {
        let image = batched_image(2);
        // Verify positions 10..=18; keep = 12, so the rejected span
        // 12..=18 contains the window flush at p = 15 — one stream set
        // of invalidation bursts comes back out.
        let w = [SpecWindow {
            slot: 0,
            ctx: 10,
            drafted: 8,
            accepted: 1,
        }];
        let spec = speculative_verify_schedule(&image, &w, PipelineMode::Fused);
        let rb = spec
            .ops
            .iter()
            .find(|o| o.label == "kv_meta_rollback")
            .expect("rejected window flush is rolled back");
        let m = image.model();
        assert_eq!(rb.bursts.len(), m.n_layers * m.n_kv_heads * 2);
        assert_eq!(rb.vpu_beats, 0, "metadata feeds no compute");
        // Fully accepted windows roll nothing back.
        let all = [SpecWindow {
            slot: 0,
            ctx: 10,
            drafted: 8,
            accepted: 8,
        }];
        let spec = speculative_verify_schedule(&image, &all, PipelineMode::Fused);
        assert!(!spec.ops.iter().any(|o| o.label.ends_with("_rollback")));
        // A rejected span that crosses no flush boundary costs nothing.
        let cheap = [SpecWindow {
            slot: 0,
            ctx: 16,
            drafted: 8,
            accepted: 2,
        }];
        let spec = speculative_verify_schedule(&image, &cheap, PipelineMode::Fused);
        assert!(!spec.ops.iter().any(|o| o.label == "kv_meta_rollback"));
    }

    #[test]
    fn spec_rollback_prices_page_table_truncation_only_when_paged() {
        let flat = batched_image(2);
        let paged = paged_image(2);
        // Verify positions 14..=22 append the page-table entry at
        // p = 16; rejecting everything past position 14 truncates it.
        let w = [SpecWindow {
            slot: 0,
            ctx: 14,
            drafted: 8,
            accepted: 0,
        }];
        let p = speculative_verify_schedule(&paged, &w, PipelineMode::Fused);
        let rb = p
            .ops
            .iter()
            .find(|o| o.label == "kv_pt_rollback")
            .expect("paged rollback truncates the table");
        assert_eq!(rb.bursts.len(), 1);
        assert_eq!(rb.vpu_beats, 0);
        let f = speculative_verify_schedule(&flat, &w, PipelineMode::Fused);
        assert!(!f.ops.iter().any(|o| o.label == "kv_pt_rollback"));
        // Modulo rollback + page-table metadata, both images move the
        // same verify bytes.
        let meta: u64 = p
            .ops
            .iter()
            .filter(|o| o.label.starts_with("kv_pt_") || o.label == "kv_meta_rollback")
            .map(MemOp::bytes)
            .sum();
        let f_meta: u64 = f
            .ops
            .iter()
            .filter(|o| o.label == "kv_meta_rollback")
            .map(MemOp::bytes)
            .sum();
        assert_eq!(p.total_bytes() - meta, f.total_bytes() - f_meta);
    }

    #[test]
    #[should_panic(expected = "cannot accept more drafts")]
    fn spec_rejects_overaccepted_window() {
        let image = batched_image(2);
        let _ = speculative_verify_schedule(
            &image,
            &[SpecWindow {
                slot: 0,
                ctx: 0,
                drafted: 2,
                accepted: 3,
            }],
            PipelineMode::Fused,
        );
    }

    #[test]
    fn shard_schedules_partition_full_ddr_traffic() {
        let cfg = ModelConfig::test_small();
        let full = ModelImage::build(
            &cfg,
            WeightFormat::kv260(),
            ImageSpec {
                batch: 2,
                ..ImageSpec::from(32)
            },
        )
        .expect("fits");
        let mid = cfg.n_layers / 2;
        let first = ModelImage::build(
            &cfg,
            WeightFormat::kv260(),
            ImageSpec {
                batch: 2,
                layers: Some(0..mid),
                ..ImageSpec::from(32)
            },
        )
        .expect("fits");
        let last = ModelImage::build(
            &cfg,
            WeightFormat::kv260(),
            ImageSpec {
                batch: 2,
                layers: Some(mid..cfg.n_layers),
                ..ImageSpec::from(32)
            },
        )
        .expect("fits");
        let slots = [(0usize, 15usize), (1, 7)];
        for mode in [PipelineMode::Fused, PipelineMode::Coarse] {
            let whole = ragged_token_schedule(&full, &slots, mode);
            let a = ragged_token_schedule(&first, &slots, mode);
            let b = ragged_token_schedule(&last, &slots, mode);
            // Every DDR byte of the single-board step lands on exactly
            // one shard: embedding on the first, head on the last, each
            // layer's weights/KV/metadata on its owner.
            assert_eq!(a.total_bytes() + b.total_bytes(), whole.total_bytes());
            assert!(a.ops.iter().any(|o| o.label == "embedding"));
            assert!(a.ops.iter().all(|o| o.label != "lm_head"));
            assert!(b.ops.iter().all(|o| o.label != "embedding"));
            assert!(b.ops.iter().any(|o| o.label == "lm_head"));
        }
        // Prefill conserves bytes across the split too.
        let chunks = [
            PrefillChunk {
                slot: 0,
                start: 0,
                len: 16,
            },
            PrefillChunk {
                slot: 1,
                start: 8,
                len: 8,
            },
        ];
        let whole = chunked_prefill_schedule(&full, &chunks, PipelineMode::Fused);
        let a = chunked_prefill_schedule(&first, &chunks, PipelineMode::Fused);
        let b = chunked_prefill_schedule(&last, &chunks, PipelineMode::Fused);
        assert_eq!(a.total_bytes() + b.total_bytes(), whole.total_bytes());
    }
}

#[cfg(all(test, feature = "proptest"))]
mod properties {
    use super::*;
    use crate::spec::ImageSpec;
    use proptest::prelude::*;
    use zllm_layout::weight::WeightFormat;
    use zllm_model::ModelConfig;

    fn split(sched: &TokenSchedule) -> (u64, u64) {
        let per_seq: u64 = sched
            .ops
            .iter()
            .filter(|o| {
                o.label.contains("kv_read")
                    || o.label.contains("kv_write")
                    || o.label == "kv_meta_flush"
                    || o.label == "embedding"
            })
            .map(MemOp::bytes)
            .sum();
        (sched.total_bytes() - per_seq, per_seq)
    }

    proptest! {
        /// Weight bytes are independent of B; per-sequence bytes (KV plus
        /// embedding rows) are exactly linear in B.
        #[test]
        fn batched_schedules_conserve_bytes(
            ctx in 0usize..32,
            batch in 1usize..=6,
            coarse in proptest::bool::ANY,
        ) {
            let mode = if coarse { PipelineMode::Coarse } else { PipelineMode::Fused };
            let image = ModelImage::build(&ModelConfig::test_small(), WeightFormat::kv260(), ImageSpec { batch: 6, ..ImageSpec::from(32) })
            .expect("test model fits");
            let (w1, s1) = split(&batched_token_schedule(&image, ctx, 1, mode));
            let sched = batched_token_schedule(&image, ctx, batch, mode);
            let (w, s) = split(&sched);
            prop_assert_eq!(w, w1);
            prop_assert_eq!(s, s1 * batch as u64);
            prop_assert_eq!(sched.total_bytes(), w1 + s1 * batch as u64);
        }
    }
}
