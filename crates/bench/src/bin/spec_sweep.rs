//! Speculative-decoding sweep: tok/s uplift and bytes per committed
//! token vs the non-speculative baseline, across accept rate and draft
//! window size.
//!
//! Embedded decode is bandwidth-bound — one full weight stream prices
//! one token — so the remaining lever is spending the same bytes on
//! more tokens. A verify window drafts `K` cheap tokens and verifies
//! all `K + 1` positions in one weight stream; at accept rate α it
//! commits `E[committed] = (1 − α^(K+1)) / (1 − α)` tokens for roughly
//! one token's weight traffic plus the per-position KV streams and a
//! flat draft cost.
//!
//! The sweep prices TinyLlama-1.1B generations (a fixed committed-token
//! budget from a fixed starting context) over α ∈ {0.5, 0.65, 0.8,
//! 0.95} × K ∈ {2, 4, 8} on two memory systems — the KV260's DDR4-2400
//! and the LPDDR5-6400 swap — using the lanes-widened engine
//! ([`zllm_bench::spec_accel`]): the stock KV260 is exactly
//! compute/bandwidth balanced, so verify fanout there costs exactly the
//! cycles it saves. One stock-engine reference row at the
//! representative (α = 0.8, K = 4) point documents that loss: its
//! uplift must stay below 1, which is why speculation is pointless
//! without compute headroom. Acceptance draws are seeded (`--seed`
//! replays a different acceptance path); everything else is
//! deterministic.
//!
//! `perf_gate` pins the representative point under the `spec.*` keys in
//! `bench/baseline.json` and hard-gates its uplift.
//!
//! ```text
//! cargo run --release -p zllm-bench --bin spec_sweep
//! cargo run --release -p zllm-bench --bin spec_sweep -- --json out.json --seed 7
//! ```

use zllm_accel::{AccelConfig, DecodeEngine, DraftCost, SpecWindow};
use zllm_bench::{cli_seed_arg, cli_value_arg, json_report, print_table, spec_accel, JsonField};
use zllm_model::ModelConfig;
use zllm_rng::StdRng;

/// Per-sequence KV provisioning (tokens).
const CTX_CAPACITY: usize = 256;
/// Context the generation starts from (the prompt is already prefilled).
const START_CTX: usize = 64;
/// Committed tokens per run; window boundaries clamp to this budget so
/// every run — speculative or not — prices exactly the same positions.
const TOKENS: usize = 48;
/// Default acceptance-draw seed; override with `--seed`.
const SEED: u64 = 9;
/// Flat draft cost per drafted token, nanoseconds — a small draft model
/// at roughly 7% of the target's DDR4 step time.
const DRAFT_NS_PER_TOKEN: f64 = 2_000_000.0;
/// Accept rates swept.
const ALPHAS: [f64; 4] = [0.5, 0.65, 0.8, 0.95];
/// Draft window sizes swept.
const KS: [usize; 3] = [2, 4, 8];
/// The representative point the hard gates (and `perf_gate`) pin.
const GATE_ALPHA: f64 = 0.8;
const GATE_K: usize = 4;
/// Tok/s uplift the representative point must sustain on DDR4-2400.
const MIN_UPLIFT: f64 = 1.5;

struct Run {
    part: &'static str,
    alpha: f64,
    k: usize,
    windows: u64,
    drafted: u64,
    accepted: u64,
    spec_wall_ns: f64,
    spec_bytes: u64,
    base_wall_ns: f64,
    base_bytes: u64,
}

impl Run {
    fn uplift(&self) -> f64 {
        self.base_wall_ns / self.spec_wall_ns
    }
    fn bytes_per_token(&self) -> f64 {
        self.spec_bytes as f64 / TOKENS as f64
    }
    fn base_bytes_per_token(&self) -> f64 {
        self.base_bytes as f64 / TOKENS as f64
    }
}

fn engine(accel: &AccelConfig) -> DecodeEngine {
    DecodeEngine::new(accel.clone(), &ModelConfig::tiny_llama_1_1b(), CTX_CAPACITY)
        .expect("TinyLlama-1.1B fits the 4GB device")
}

/// Prices one speculative generation: verify windows from `START_CTX`
/// until `TOKENS` tokens are committed, acceptance drawn i.i.d. at
/// `alpha` from the seeded generator. Window size clamps to the
/// remaining budget so the run commits exactly `TOKENS` tokens.
fn run_spec(part: &'static str, accel: &AccelConfig, alpha: f64, k: usize, seed: u64) -> Run {
    let mut eng = engine(accel);
    let mut rng = StdRng::seed_from_u64(seed);
    let draft = DraftCost::FlatNs {
        ns_per_token: DRAFT_NS_PER_TOKEN,
    };
    let (mut ctx, mut committed) = (START_CTX, 0usize);
    let (mut windows, mut drafted, mut accepted) = (0u64, 0u64, 0u64);
    let (mut wall_ns, mut bytes) = (0.0f64, 0u64);
    while committed < TOKENS {
        let remaining = TOKENS - committed;
        let k_eff = k.min(remaining - 1).min(CTX_CAPACITY - 1 - ctx);
        let mut acc = 0;
        for _ in 0..k_eff {
            if rng.gen_bool(alpha) {
                acc += 1;
            } else {
                break;
            }
        }
        let w = SpecWindow {
            slot: 0,
            ctx,
            drafted: k_eff,
            accepted: acc,
        };
        let r = eng.decode_speculative(&[w], &draft);
        wall_ns += r.wall_ns;
        bytes += r.bytes;
        windows += 1;
        drafted += k_eff as u64;
        accepted += acc as u64;
        committed += acc + 1;
        ctx += acc + 1;
    }
    // The non-speculative twin: the same `TOKENS` positions decoded one
    // weight stream each, on a fresh engine so the DDR phase matches.
    let mut base = engine(accel);
    let (mut base_wall_ns, mut base_bytes) = (0.0f64, 0u64);
    for c in START_CTX..START_CTX + TOKENS {
        let r = base.decode_token(c);
        base_wall_ns += r.wall_ns;
        base_bytes += r.bytes;
    }
    Run {
        part,
        alpha,
        k,
        windows,
        drafted,
        accepted,
        spec_wall_ns: wall_ns,
        spec_bytes: bytes,
        base_wall_ns,
        base_bytes,
    }
}

fn to_json(runs: &[Run]) -> String {
    use JsonField::{Fixed3, Fixed6, Num, Str, UInt};
    let rows: Vec<Vec<(&str, JsonField)>> = runs
        .iter()
        .map(|r| {
            vec![
                ("part", Str(r.part.to_string())),
                ("alpha", Num(r.alpha)),
                ("k", UInt(r.k as u64)),
                ("windows", UInt(r.windows)),
                ("drafted", UInt(r.drafted)),
                ("accepted", UInt(r.accepted)),
                ("committed", UInt(TOKENS as u64)),
                ("spec_wall_ms", Fixed3(r.spec_wall_ns / 1e6)),
                ("base_wall_ms", Fixed3(r.base_wall_ns / 1e6)),
                ("uplift", Fixed6(r.uplift())),
                ("bytes_per_committed_token", Fixed3(r.bytes_per_token())),
                ("base_bytes_per_token", Fixed3(r.base_bytes_per_token())),
                (
                    "spec_tokens_per_s",
                    Fixed6(TOKENS as f64 * 1e9 / r.spec_wall_ns),
                ),
                (
                    "base_tokens_per_s",
                    Fixed6(TOKENS as f64 * 1e9 / r.base_wall_ns),
                ),
            ]
        })
        .collect();
    json_report(&rows)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = cli_value_arg("spec_sweep", &args, "--json");
    let seed = cli_seed_arg("spec_sweep", &args, SEED);

    let ddr4 = spec_accel();
    let mut lpddr5 = spec_accel();
    lpddr5.ddr = zllm_ddr::DdrConfig::lpddr5_6400_embedded();
    let parts: [(&'static str, &AccelConfig); 2] =
        [("spec-ddr4-2400", &ddr4), ("spec-lpddr5-6400", &lpddr5)];

    println!(
        "Speculative decoding on the lanes-widened KV260: {TOKENS} committed tokens\n\
         from ctx {START_CTX}, TinyLlama-1.1B, flat draft {:.1} ms/token, seed {seed}\n",
        DRAFT_NS_PER_TOKEN / 1e6
    );

    let mut runs = Vec::new();
    for (part, accel) in parts {
        for alpha in ALPHAS {
            for k in KS {
                runs.push(run_spec(part, accel, alpha, k, seed));
            }
        }
    }
    // The reference row: the stock, exactly balanced KV260 at the
    // representative point — where speculation loses.
    let balanced = run_spec(
        "balanced-kv260",
        &AccelConfig::kv260(),
        GATE_ALPHA,
        GATE_K,
        seed,
    );
    runs.push(balanced);

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.part.to_owned(),
                format!("{:.2}", r.alpha),
                format!("{}", r.k),
                format!("{}", r.windows),
                format!("{}/{}", r.accepted, r.drafted),
                format!("{:.2}x", r.uplift()),
                format!("{:.1}", r.bytes_per_token() / 1e6),
                format!("{:.1}", r.base_bytes_per_token() / 1e6),
                format!("{:.2}", TOKENS as f64 * 1e9 / r.spec_wall_ns),
                format!("{:.2}", TOKENS as f64 * 1e9 / r.base_wall_ns),
            ]
        })
        .collect();
    print_table(
        &[
            "part",
            "alpha",
            "K",
            "windows",
            "acc/drafted",
            "uplift",
            "MB/tok",
            "base MB/tok",
            "tok/s",
            "base tok/s",
        ],
        &rows,
    );
    println!();

    let find = |part: &str, alpha: f64, k: usize| {
        runs.iter()
            .find(|r| r.part == part && r.alpha == alpha && r.k == k)
            .expect("swept point")
    };
    // The headline gate: the representative point on DDR4-2400 must
    // clear the tentpole's uplift. A weight stream amortized across the
    // accepted prefix buys more tokens per byte, and that must survive
    // the per-position KV streams and the draft cost.
    let gate = find("spec-ddr4-2400", GATE_ALPHA, GATE_K);
    let uplift = gate.uplift();
    assert!(
        uplift >= MIN_UPLIFT,
        "speculation sustained {uplift:.2}x at alpha={GATE_ALPHA}, K={GATE_K} on DDR4-2400; \
         the tentpole claims >= {MIN_UPLIFT}x"
    );
    // Speculation spends fewer bytes per committed token than the
    // sequential baseline at the representative point.
    assert!(
        gate.bytes_per_token() < gate.base_bytes_per_token(),
        "verify windows must amortize the weight stream: {:.1} vs {:.1} MB/token",
        gate.bytes_per_token() / 1e6,
        gate.base_bytes_per_token() / 1e6
    );
    // More acceptance means more uplift: the sweep's α axis is the
    // accept-rate sensitivity the docs tabulate.
    for (part, _) in parts {
        let low = find(part, ALPHAS[0], GATE_K).uplift();
        let high = find(part, *ALPHAS.last().expect("nonempty"), GATE_K).uplift();
        assert!(
            high > low,
            "{part}: uplift must grow with accept rate ({low:.2}x at {} vs {high:.2}x at {})",
            ALPHAS[0],
            ALPHAS.last().expect("nonempty")
        );
    }
    // Where speculation loses: the stock KV260 is exactly balanced, so
    // the verify fanout costs as many cycles as the amortization saves
    // and the draft cost makes it a strict loss.
    let balanced = runs.last().expect("reference row");
    assert!(
        balanced.uplift() < 1.0,
        "the balanced engine cannot profit from speculation, got {:.2}x",
        balanced.uplift()
    );
    println!(
        "gate point (alpha={GATE_ALPHA}, K={GATE_K}, DDR4-2400): {uplift:.2}x uplift, \
         {:.1} vs {:.1} MB per committed token; balanced reference {:.2}x",
        gate.bytes_per_token() / 1e6,
        gate.base_bytes_per_token() / 1e6,
        balanced.uplift()
    );

    if let Some(path) = &json_path {
        std::fs::write(path, to_json(&runs)).expect("write spec_sweep JSON");
        eprintln!("spec_sweep: report written to {path}");
    }
}
