//! Whole-stack determinism: identical inputs must give bit-identical
//! outputs across independent runs — the property that makes every
//! experiment in `EXPERIMENTS.md` reproducible.

use std::sync::Mutex;
use zllm::accel::converter::{convert, PtqMethod};
use zllm::accel::{
    greedy_accept, AccelBatchDecoder, AccelConfig, AccelDecoder, DecodeEngine, EngineSpec,
    ShardedBatchDecoder,
};
use zllm::fp16::set_fast_kernels;
use zllm::model::calibration::capture;
use zllm::model::generate::{generate, GenerateOptions, Sampling};
use zllm::model::{ModelConfig, ModelWeights};
use zllm::par::set_max_threads;
use zllm::quant::awq::{quantize_awq, AwqConfig};
use zllm::quant::gptq::{quantize_gptq, GptqConfig};
use zllm::quant::group::GroupQuantConfig;

/// Serializes the tests that flip the global fast-kernel toggle or the
/// thread cap, so each one observes the configuration it set. (A race
/// would still be *correct* — both kernel paths are bit-identical — but
/// the slow path must actually run to be exercised.)
static KERNEL_CONFIG: Mutex<()> = Mutex::new(());

#[test]
fn trace_engine_runs_are_bit_identical() {
    let run = || {
        let mut engine =
            DecodeEngine::new(AccelConfig::kv260(), &ModelConfig::test_small(), 32).expect("fits");
        let r = engine.decode_run(0, 6);
        (
            r.tokens_per_s.to_bits(),
            r.steps
                .iter()
                .map(|s| s.wall_ns.to_bits())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn converter_outputs_are_bit_identical() {
    let cfg = ModelConfig::test_small();
    let w = ModelWeights::generate(&cfg, 55);
    let calib_tokens = [3usize, 9, 27, 81];
    let run = |method| {
        let calib = capture(&w, &calib_tokens);
        let qm = convert(&w, &calib, GroupQuantConfig::w4_g128(), method);
        let mut dec = AccelDecoder::new(&qm);
        dec.prefill(&[1, 2, 3])
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    for method in [PtqMethod::Rtn, PtqMethod::Awq, PtqMethod::Gptq] {
        assert_eq!(run(method), run(method), "{method} is nondeterministic");
    }
}

/// Deterministic pseudo-random weights for the kernel-equivalence tests.
fn noise(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f32 / 1000.0 - 1.0
        })
        .collect()
}

#[test]
fn functional_decode_is_identical_with_fast_kernels_on_and_off() {
    let _guard = KERNEL_CONFIG.lock().unwrap();
    let cfg = ModelConfig::test_small();
    let w = ModelWeights::generate(&cfg, 77);
    let calib = capture(&w, &[2, 4, 8]);
    let qm = convert(&w, &calib, GroupQuantConfig::w4_g128(), PtqMethod::Rtn);
    let run = |fast| {
        set_fast_kernels(fast);
        let mut dec = AccelDecoder::new(&qm);
        let mut logits = Vec::new();
        for &t in &[1usize, 5, 9, 3] {
            logits.extend(dec.forward(t).iter().map(|v| v.to_bits()));
        }
        logits
    };
    let slow = run(false);
    let fast = run(true);
    assert_eq!(slow, fast, "fast kernels changed functional decode logits");
}

#[test]
fn batched_functional_decode_matches_independent_decodes() {
    // The batched decoder shares each group's dequantization across the
    // batch; every sequence must still be bit-identical to a lone
    // AccelDecoder fed the same tokens, on both kernel paths and at any
    // thread cap.
    let _guard = KERNEL_CONFIG.lock().unwrap();
    let cfg = ModelConfig::test_small();
    let w = ModelWeights::generate(&cfg, 123);
    let calib = capture(&w, &[6, 12, 18]);
    let qm = convert(&w, &calib, GroupQuantConfig::w4_g128(), PtqMethod::Rtn);
    // steps[t] holds step t's token for each of the three sequences.
    let steps: [[usize; 3]; 4] = [[1, 50, 7], [9, 2, 101], [30, 30, 4], [8, 8, 8]];
    for fast in [false, true] {
        for threads in [Some(1), Some(3), None] {
            set_fast_kernels(fast);
            set_max_threads(threads);
            let mut batch = AccelBatchDecoder::new(&qm, 3);
            let batched: Vec<Vec<u32>> = steps
                .iter()
                .flat_map(|tokens| batch.decode_batch(tokens))
                .map(|logits| logits.iter().map(|v| v.to_bits()).collect())
                .collect();
            let mut independent = Vec::new();
            for seq in 0..3 {
                let mut dec = AccelDecoder::new(&qm);
                for tokens in &steps {
                    independent.push(
                        dec.forward(tokens[seq])
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<u32>>(),
                    );
                }
            }
            // Batched output is step-major; independent is sequence-major.
            for seq in 0..3 {
                for t in 0..steps.len() {
                    assert_eq!(
                        batched[t * 3 + seq],
                        independent[seq * steps.len() + t],
                        "batched decode diverged at fast={fast} threads={threads:?} \
                         seq={seq} step={t}"
                    );
                }
            }
        }
    }
    set_max_threads(None);
}

#[test]
fn ragged_continuous_batch_join_and_leave_is_bit_identical() {
    // Continuous batching correctness: sequences join mid-run, step at
    // their own positions, leave, and hand their slot to a successor —
    // and every sequence's logits must stay bit-identical to a lone
    // AccelDecoder fed the same tokens, on both kernel paths.
    let _guard = KERNEL_CONFIG.lock().unwrap();
    let cfg = ModelConfig::test_small();
    let w = ModelWeights::generate(&cfg, 321);
    let calib = capture(&w, &[5, 10, 15]);
    let qm = convert(&w, &calib, GroupQuantConfig::w4_g128(), PtqMethod::Rtn);
    let a_tokens = [3usize, 11, 40, 2];
    let b_tokens = [70usize, 70, 5];
    let c_tokens = [1usize, 2];
    let bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    for fast in [false, true] {
        set_fast_kernels(fast);
        let mut batch = AccelBatchDecoder::new(&qm, 2);
        let (mut got_a, mut got_b, mut got_c) = (Vec::new(), Vec::new(), Vec::new());
        // A runs alone in slot 0 for two steps.
        got_a.push(bits(&batch.decode_at(&[(0, a_tokens[0])])[0]));
        got_a.push(bits(&batch.decode_at(&[(0, a_tokens[1])])[0]));
        // B joins in slot 1 at its own position 0; two ragged steps.
        for i in 0..2 {
            let step = batch.decode_at(&[(0, a_tokens[2 + i]), (1, b_tokens[i])]);
            got_a.push(bits(&step[0]));
            got_b.push(bits(&step[1]));
        }
        // A is done; its slot is recycled for C while B keeps going.
        batch.reset_seq(0);
        assert_eq!(batch.seq_pos(0), 0);
        assert_eq!(batch.seq_pos(1), 2);
        let step = batch.decode_at(&[(0, c_tokens[0]), (1, b_tokens[2])]);
        got_c.push(bits(&step[0]));
        got_b.push(bits(&step[1]));
        got_c.push(bits(&batch.decode_at(&[(0, c_tokens[1])])[0]));
        // Reference: each sequence decoded independently.
        let solo = |tokens: &[usize]| {
            let mut dec = AccelDecoder::new(&qm);
            tokens
                .iter()
                .map(|&t| bits(&dec.forward(t)))
                .collect::<Vec<_>>()
        };
        assert_eq!(got_a, solo(&a_tokens), "seq A diverged, fast={fast}");
        assert_eq!(got_b, solo(&b_tokens), "joined seq B diverged, fast={fast}");
        assert_eq!(
            got_c,
            solo(&c_tokens),
            "successor seq C diverged, fast={fast}"
        );
    }
}

#[test]
fn paged_kv_decode_is_bit_identical_to_contiguous() {
    // The paged-KV claim that makes actual-growth admission safe to
    // ship: paging changes WHERE each sequence's KV codes live (shared
    // physical pages, scattered and reused as slots churn), never what
    // is computed — so logits must match the contiguous decoder bit for
    // bit through joins, leaves, slot recycling, and page-boundary
    // crossings, on both kernel paths.
    let _guard = KERNEL_CONFIG.lock().unwrap();
    let cfg = ModelConfig::test_small();
    let w = ModelWeights::generate(&cfg, 404);
    let calib = capture(&w, &[4, 8, 16]);
    let qm = convert(&w, &calib, GroupQuantConfig::w4_g128(), PtqMethod::Rtn);
    let bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    for fast in [false, true] {
        set_fast_kernels(fast);
        // 5 pages of 16 tokens shared by 3 slots — tight enough that
        // released pages must be reused mid-run.
        let mut paged = AccelBatchDecoder::new_paged(&qm, 3, 5, 16);
        let mut flat = AccelBatchDecoder::new(&qm, 3);
        let step = |p: &mut AccelBatchDecoder, f: &mut AccelBatchDecoder, s: &[(usize, usize)]| {
            let got: Vec<Vec<u32>> = p.decode_at(s).iter().map(|l| bits(l)).collect();
            let want: Vec<Vec<u32>> = f.decode_at(s).iter().map(|l| bits(l)).collect();
            assert_eq!(
                got, want,
                "paged decode diverged at fast={fast}, step {s:?}"
            );
        };
        // Two sequences decode across a page boundary together.
        for i in 0..18 {
            step(&mut paged, &mut flat, &[(0, 5 + i), (2, 9 + i)]);
        }
        // Slot 2 finishes; its pages return to the pool and a successor
        // reuses them while slot 0's history stays scattered.
        paged.reset_seq(2);
        flat.reset_seq(2);
        for i in 0..4 {
            step(
                &mut paged,
                &mut flat,
                &[(0, 30 + i), (2, 50 + i), (1, 2 + i)],
            );
        }
    }
}

#[test]
fn speculative_decode_is_bit_identical_to_sequential_decode() {
    // The claim that makes speculative decoding safe to ship: a verify
    // window changes WHEN positions run (batched behind one weight
    // stream) and a rollback changes WHAT the cache retains, but the
    // committed tokens and their logits must match a decoder that never
    // speculated, bit for bit, on both kernel paths and at any thread
    // cap — for the contiguous KV layout and the paged one.
    let _guard = KERNEL_CONFIG.lock().unwrap();
    let cfg = ModelConfig::test_small();
    let w = ModelWeights::generate(&cfg, 777);
    let calib = capture(&w, &[4, 8, 12]);
    let qm = convert(&w, &calib, GroupQuantConfig::w4_g128(), PtqMethod::Rtn);
    let bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    const START: usize = 5;
    const STEPS: usize = 20;
    const K: usize = 3;

    // Greedy sequential reference: one-token verify windows (no drafts)
    // through the same accept path, so token selection ties break
    // identically by construction.
    set_fast_kernels(false);
    set_max_threads(None);
    let mut seq = AccelBatchDecoder::new(&qm, 1);
    let mut ref_tokens = vec![START];
    let mut ref_logits = Vec::new();
    for i in 0..STEPS {
        let logits = seq.verify_window(0, &[ref_tokens[i]]);
        let (accepted, next) = greedy_accept(&logits, &[]);
        assert_eq!(accepted, 0);
        ref_logits.push(bits(&logits[0]));
        ref_tokens.push(next);
    }

    // Speculative run: drafts are the true greedy continuation,
    // deliberately corrupted at a rotating offset so every window shape
    // occurs — full accept, reject-at-0 (rollback of the whole draft
    // suffix), and partial accepts in between.
    let spec_run = |batch: &mut AccelBatchDecoder| {
        let mut got_tokens = vec![START];
        let mut got_logits = Vec::new();
        let mut done = 0;
        let mut window_idx = 0usize;
        while done < STEPS {
            let k = K.min(STEPS - done - 1);
            let mut drafts = ref_tokens[done + 1..done + 1 + k].to_vec();
            if !window_idx.is_multiple_of(K + 1) && !drafts.is_empty() {
                let c = (window_idx % (K + 1) - 1).min(drafts.len() - 1);
                drafts[c] = (drafts[c] + 1) % cfg.vocab_size;
            }
            let mut window = vec![got_tokens[done]];
            window.extend(&drafts);
            let logits = batch.verify_window(0, &window);
            let (accepted, next) = greedy_accept(&logits, &drafts);
            for l in &logits[..accepted + 1] {
                got_logits.push(bits(l));
            }
            got_tokens.extend(&drafts[..accepted]);
            got_tokens.push(next);
            done += accepted + 1;
            if accepted + 1 < window.len() {
                batch.rollback_seq(0, done);
            }
            assert_eq!(batch.seq_pos(0), done);
            window_idx += 1;
        }
        (got_tokens, got_logits)
    };
    for fast in [false, true] {
        for threads in [Some(1), Some(3), None] {
            set_fast_kernels(fast);
            set_max_threads(threads);
            // 2 pages of 16 tokens: the run crosses the page boundary
            // and rollbacks near it return a partially-filled page.
            for paged in [false, true] {
                let mut batch = if paged {
                    AccelBatchDecoder::new_paged(&qm, 1, 2, 16)
                } else {
                    AccelBatchDecoder::new(&qm, 1)
                };
                let (got_tokens, got_logits) = spec_run(&mut batch);
                assert_eq!(
                    got_tokens, ref_tokens,
                    "speculative tokens diverged at fast={fast} threads={threads:?} paged={paged}"
                );
                assert_eq!(
                    got_logits, ref_logits,
                    "speculative logits diverged at fast={fast} threads={threads:?} paged={paged}"
                );
            }
        }
    }
    set_max_threads(None);
}

#[test]
fn sharded_pipeline_decode_is_bit_identical_to_single_board() {
    // The cluster claim that makes pipeline-parallel serving safe to
    // ship: splitting the layers across N stage decoders changes WHERE
    // each layer runs, never WHAT it computes. Every stage count must
    // reproduce the single-board batched decoder's logits bit for bit,
    // on both kernel paths.
    let _guard = KERNEL_CONFIG.lock().unwrap();
    let cfg = ModelConfig {
        n_layers: 4,
        ..ModelConfig::test_small()
    };
    let w = ModelWeights::generate(&cfg, 212);
    let calib = capture(&w, &[3, 6, 9]);
    let qm = convert(&w, &calib, GroupQuantConfig::w4_g128(), PtqMethod::Rtn);
    let steps: [[usize; 2]; 3] = [[7, 90], [14, 3], [51, 51]];
    for fast in [false, true] {
        set_fast_kernels(fast);
        let mut single = AccelBatchDecoder::new(&qm, 2);
        let want: Vec<Vec<u32>> = steps
            .iter()
            .flat_map(|tokens| single.decode_batch(tokens))
            .map(|logits| logits.iter().map(|v| v.to_bits()).collect())
            .collect();
        for stages in 1..=4 {
            let mut sharded = ShardedBatchDecoder::new(&qm, 2, stages);
            let got: Vec<Vec<u32>> = steps
                .iter()
                .flat_map(|tokens| sharded.decode_batch(tokens))
                .map(|logits| logits.iter().map(|v| v.to_bits()).collect())
                .collect();
            assert_eq!(
                got, want,
                "sharded decode diverged at stages={stages} fast={fast}"
            );
        }
    }
}

#[test]
fn reference_decode_is_identical_with_fast_kernels_on_and_off() {
    let _guard = KERNEL_CONFIG.lock().unwrap();
    let cfg = ModelConfig::test_small();
    let w = ModelWeights::generate(&cfg, 31);
    let run = |fast, threads| {
        set_fast_kernels(fast);
        set_max_threads(threads);
        let mut dec =
            zllm::model::reference::Decoder::new(&w, zllm::model::kv_cache::KvCacheF32::new(&cfg));
        let mut logits = Vec::new();
        for &t in &[4usize, 2, 7] {
            logits.extend(dec.forward(t).iter().map(|v| v.to_bits()));
        }
        logits
    };
    let slow = run(false, None);
    for threads in [Some(1), Some(3), None] {
        assert_eq!(
            slow,
            run(true, threads),
            "blocked matvec changed reference logits at threads={threads:?}"
        );
    }
    set_max_threads(None);
}

#[test]
fn quantization_search_is_identical_with_fast_kernels_on_and_off() {
    // The accuracy_study scenario shape: AWQ alpha grid + GPTQ row sweep
    // over the same layer, compared pick-for-pick and code-for-code.
    let _guard = KERNEL_CONFIG.lock().unwrap();
    let (rows, cols) = (12, 256);
    let weights = noise(91, rows * cols);
    let calib = noise(17, 3 * cols);
    let run = |fast, threads| {
        set_fast_kernels(fast);
        set_max_threads(threads);
        let awq = quantize_awq(&weights, rows, cols, &calib, &AwqConfig::default());
        let gptq = quantize_gptq(&weights, rows, cols, &calib, GptqConfig::default());
        let mut fingerprint: Vec<u8> = Vec::new();
        fingerprint.extend(awq.alpha().to_bits().to_le_bytes());
        for s in awq.channel_scales() {
            fingerprint.extend(s.to_bits().to_le_bytes());
        }
        for row in awq.rows_q().iter().chain(gptq.rows_q()) {
            fingerprint.extend(row.codes());
            for s in row.scales() {
                fingerprint.extend(s.to_bits().to_le_bytes());
            }
            fingerprint.extend(row.zeros());
        }
        fingerprint
    };
    let slow = run(false, None);
    for threads in [Some(1), Some(4), None] {
        assert_eq!(
            slow,
            run(true, threads),
            "parallel search changed quantization picks at threads={threads:?}"
        );
    }
    set_max_threads(None);
}

#[test]
fn compressed_decode_is_bit_identical_to_compression_off() {
    // The compression claim that makes the inline DDR (de)compression
    // stage safe to ship: it reprices what bursts COST on the bus,
    // never what is computed. A full generation priced step-by-step
    // through a compressed trace engine must produce bit-identical
    // logits and sampled tokens to compression-off, across kernel paths
    // and thread caps — and the stage's logical traffic must equal the
    // uncompressed engine's bytes exactly.
    let _guard = KERNEL_CONFIG.lock().unwrap();
    let cfg = ModelConfig::test_small();
    let w = ModelWeights::generate(&cfg, 909);
    let calib = capture(&w, &[3, 9, 27]);
    let qm = convert(&w, &calib, GroupQuantConfig::w4_g128(), PtqMethod::Rtn);
    let ratios = zllm::quant::entropy::measured_stream_ratios(7);
    let comp_cfg = zllm::ddr::CompressionConfig::with_ratios(
        zllm::ddr::StreamRatio::from_ratio(ratios.weight.achievable_ratio),
        zllm::ddr::StreamRatio::from_ratio(ratios.kv.achievable_ratio),
        zllm::ddr::StreamRatio::from_ratio(ratios.activation.achievable_ratio),
    );
    let run = |compressed: bool, fast: bool, threads: Option<usize>| {
        set_fast_kernels(fast);
        set_max_threads(threads);
        let mut engine = if compressed {
            DecodeEngine::new(
                AccelConfig::kv260(),
                &cfg,
                EngineSpec {
                    compression: Some(comp_cfg),
                    ..EngineSpec::from(32)
                },
            )
            .expect("fits")
        } else {
            DecodeEngine::new(AccelConfig::kv260(), &cfg, 32).expect("fits")
        };
        let mut dec = AccelDecoder::new(&qm);
        let mut pos = 0usize;
        let mut logits_bits: Vec<u32> = Vec::new();
        let mut trace_bytes = 0u64;
        let out = generate(
            |t| {
                // Price the step on the trace twin at the position the
                // functional decoder consumes it.
                trace_bytes += engine.decode_token(pos).bytes;
                pos += 1;
                let l = dec.forward(t);
                logits_bits.extend(l.iter().map(|v| v.to_bits()));
                l
            },
            &[10, 11, 4],
            &GenerateOptions {
                max_tokens: 6,
                sampling: Sampling::TopK {
                    k: 4,
                    temperature: 0.8,
                    seed: 33,
                },
                stop_token: None,
            },
        );
        (out, logits_bits, trace_bytes, engine.compression_bytes())
    };
    let (ref_out, ref_logits, ref_bytes, none) = run(false, false, None);
    assert!(none.is_none(), "plain engine has no compression stage");
    for compressed in [false, true] {
        for fast in [false, true] {
            for threads in [Some(1), Some(3), None] {
                let (out, logits, bytes, comp) = run(compressed, fast, threads);
                assert_eq!(
                    out, ref_out,
                    "tokens diverged at compressed={compressed} fast={fast} threads={threads:?}"
                );
                assert_eq!(
                    logits, ref_logits,
                    "logits diverged at compressed={compressed} fast={fast} threads={threads:?}"
                );
                // The trace side reports logical traffic: identical to
                // the uncompressed engine even while the wire shrinks.
                assert_eq!(bytes, ref_bytes, "logical bytes diverged");
                if compressed {
                    let (logical, wire, meta) = comp.expect("compressed engine");
                    assert_eq!(logical, ref_bytes, "stage logical bytes diverged");
                    assert!(
                        wire + meta < logical,
                        "measured ratios must shrink the wire ({wire} + {meta} vs {logical})"
                    );
                }
            }
        }
    }
    set_max_threads(None);
}

#[test]
fn full_generation_pipeline_is_deterministic() {
    let cfg = ModelConfig::test_small();
    let w = ModelWeights::generate(&cfg, 21);
    let calib = capture(&w, &[5, 6, 7]);
    let qm = convert(&w, &calib, GroupQuantConfig::w4_g128(), PtqMethod::Awq);
    let run = || {
        let mut dec = AccelDecoder::new(&qm);
        generate(
            |t| dec.forward(t),
            &[10, 11],
            &GenerateOptions {
                max_tokens: 8,
                sampling: Sampling::TopK {
                    k: 4,
                    temperature: 0.8,
                    seed: 99,
                },
                stop_token: None,
            },
        )
    };
    assert_eq!(run(), run());
}
