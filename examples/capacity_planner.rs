//! Capacity planner: which LLMs fit a 4 GB embedded FPGA, at what context
//! length, and how fast would they decode? The deployment question the
//! paper's Fig. 1 answers for LLaMA2-7B, answered for a model sweep.
//!
//! ```text
//! cargo run --release --example capacity_planner
//! ```

use zllm::accel::{ModelImage, SpecError};
use zllm::layout::weight::WeightFormat;
use zllm::model::memory::{weight_roofline_tokens_per_s, WeightPrecision};
use zllm::model::ModelConfig;

fn llama_like(
    name: &str,
    layers: usize,
    d: usize,
    heads: usize,
    kv: usize,
    ff: usize,
) -> ModelConfig {
    ModelConfig {
        name: name.to_owned(),
        n_layers: layers,
        d_model: d,
        n_heads: heads,
        n_kv_heads: kv,
        d_ff: ff,
        vocab_size: 32000,
        max_seq_len: 4096,
        norm_eps: 1e-5,
        rope_base: 10000.0,
    }
}

fn main() {
    let candidates = vec![
        ModelConfig::tiny_llama_1_1b(),
        llama_like("OpenLLaMA-3B", 26, 3200, 32, 32, 8640),
        ModelConfig::llama2_7b(),
        llama_like("LLaMA2-13B", 40, 5120, 40, 40, 13824),
    ];

    println!("Capacity planning on the KV260 (4 GB, 19.2 GB/s, W4 + KV8):\n");
    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "model", "params", "ctx=1024", "occupancy", "max ctx", "roofline"
    );
    for cfg in candidates {
        let params = cfg.param_count() as f64 / 1e9;
        let roofline = weight_roofline_tokens_per_s(&cfg, WeightPrecision::W4G128, 19.2);
        match ModelImage::build(&cfg, WeightFormat::kv260(), 1024) {
            Ok(image) => {
                // Find the largest context that still places, by bisection.
                let mut lo = 1024usize;
                let mut hi = 65536usize;
                while lo + 1 < hi {
                    let mid = (lo + hi) / 2;
                    if ModelImage::build(&cfg, WeightFormat::kv260(), mid).is_ok() {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                println!(
                    "{:<16} {:>7.2}B {:>10} {:>9.1}% {:>12} {:>8.1}/s",
                    cfg.name,
                    params,
                    "fits",
                    image.occupancy() * 100.0,
                    lo,
                    roofline
                );
            }
            Err(SpecError::Alloc(_)) => {
                println!(
                    "{:<16} {:>7.2}B {:>10} {:>10} {:>12} {:>8.1}/s",
                    cfg.name, params, "TOO BIG", "-", "-", roofline
                );
            }
            Err(e) => println!("{:<16} not placeable: {e}", cfg.name),
        }
    }
    println!("\nLLaMA2-7B is the largest member of the family that places — the");
    println!("paper's 'pushing up to the limit' claim, reproduced by construction.");

    // Extension: what bit-width would it take to fit LLaMA2-13B?
    let thirteen_b = llama_like("LLaMA2-13B", 40, 5120, 40, 40, 13824);
    let params = thirteen_b.param_count() as f64;
    println!(
        "\nWhat would it take to fit LLaMA2-13B ({:.2}B params) in 4 GB?",
        params / 1e9
    );
    for bits in [4.15625f64, 3.5, 3.0, 2.5, 2.0] {
        let weight_gib = params * bits / 8.0 / (1u64 << 30) as f64;
        let kv_gib = zllm::model::memory::kv8_cache_bytes(&thirteen_b, 1024) / (1u64 << 30) as f64;
        let fits = weight_gib + kv_gib < 3.99;
        let roofline = zllm::model::memory::weight_roofline_tokens_per_s(
            &thirteen_b,
            zllm::model::memory::WeightPrecision::Effective(bits),
            19.2,
        );
        println!(
            "  {bits:>7.3} bits/weight → {weight_gib:.2} GiB weights + {kv_gib:.2} GiB KV: {}  ({roofline:.1} tok/s roofline)",
            if fits { "fits" } else { "too big" }
        );
    }
    println!("\nSub-3-bit quantization would be needed — and per §IV-A, accuracy");
    println!("below ~3.5 effective bits degrades sharply. 7B really is the limit.");
}
