//! Tiered-weight sweep: decode throughput vs DDR weight budget when the
//! model streams its layers from flash through a DDR-resident cache.
//!
//! For 7B- and 13B-shape models on both memory systems (KV260
//! DDR4-2400 and the LPDDR5-6400 swap), the budget is swept from
//! "everything resident" down to ~1.5 layers, under both prefetch
//! policies: the schedule-aware pin/stream planner and the blind
//! LRU + fixed-lookahead strawman. The 7B/DDR4 part additionally runs
//! every sub-full budget on both flash presets (eMMC HS400 and NVMe
//! Gen3 x2) so the link-speed sensitivity is visible on one part; the
//! other parts stream from NVMe. The 13B parts add the `board4g`
//! point — the budget left for layer weights after everything else
//! claims its share of a real 4 GiB board — which is the configuration
//! the `tiered.*` perf gates pin.
//!
//! ```text
//! cargo run --release -p zllm-bench --bin tier_sweep
//! cargo run --release -p zllm-bench --bin tier_sweep -- --json out.json
//! ```

use zllm_accel::{
    AccelConfig, DecodeEngine, EngineSpec, ImageSpec, ModelImage, TierConfig, TierReport,
};
use zllm_bench::{cli_seed_arg, cli_value_arg, fmt_mib, json_report, print_table, JsonField};
use zllm_ddr::FlashConfig;
use zllm_model::ModelConfig;

/// Decode context every run prices at (tokens decoded at fixed ctx).
const CTX: usize = 512;
/// Tokens decoded per run; the cache starts warm, so the second token
/// is cyclic steady state and is the one reported.
const TOKENS: usize = 2;
/// A real KV260 carries 4 GiB of DDR.
const BOARD_BYTES: u64 = 4 << 30;

struct Run {
    part: &'static str,
    model: &'static str,
    flash: &'static str,
    budget: &'static str,
    policy: &'static str,
    tokens_per_s: f64,
    physical_bytes: u64,
    /// Tier activity across the whole run (counters are cumulative).
    report: TierReport,
    /// Stall and staging time attributable to the steady-state token.
    stall_ns: f64,
    staging_ns: f64,
}

fn flash_preset(name: &str) -> FlashConfig {
    match name {
        "emmc" => FlashConfig::emmc_hs400(),
        "nvme" => FlashConfig::nvme_gen3(),
        other => unreachable!("unknown flash preset {other}"),
    }
}

fn tier_config(policy: &str, flash: &str, budget_bytes: u64) -> TierConfig {
    match policy {
        "aware" => TierConfig::schedule_aware(flash_preset(flash), budget_bytes),
        "blind" => TierConfig::blind_lru(flash_preset(flash), budget_bytes),
        other => unreachable!("unknown policy {other}"),
    }
}

/// Budget points swept on every part, as `(label, layer-multiples)`:
/// the byte budget is `multiple × max layer bytes`. `all` holds every
/// layer, `cover` exactly one short of that (the gate's "covering"
/// budget — minimum possible streaming), `thrash` is deep into
/// capacity pressure, `floor` barely holds one layer plus headroom.
fn budget_points(n_layers: usize) -> Vec<(&'static str, f64)> {
    vec![
        ("all", n_layers as f64),
        ("cover", n_layers as f64 - 0.5),
        ("thrash", 3.4),
        ("floor", 1.5),
    ]
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    accel: &AccelConfig,
    model: &ModelConfig,
    part: &'static str,
    model_name: &'static str,
    flash: &'static str,
    budget: &'static str,
    budget_bytes: u64,
    policy: &'static str,
) -> Run {
    let tier = tier_config(policy, flash, budget_bytes);
    let mut engine = DecodeEngine::new(
        accel.clone(),
        model,
        EngineSpec {
            tier: Some(tier),
            ..EngineSpec::from(CTX + TOKENS)
        },
    )
    .expect("tiered build fits some virtual map");
    let mut warm = None;
    let mut last = None;
    for t in 0..TOKENS {
        let report = engine.decode_token(CTX);
        if t + 1 == TOKENS {
            last = Some(report);
        } else {
            warm = Some(engine.tier_report().expect("tiered engine"));
        }
    }
    let last = last.expect("at least one token");
    let report = engine.tier_report().expect("tiered engine");
    let (stall_ns, staging_ns) = match &warm {
        Some(w) => (
            report.stall_ns - w.stall_ns,
            report.staging_ddr_ns - w.staging_ddr_ns,
        ),
        None => (report.stall_ns, report.staging_ddr_ns),
    };
    Run {
        part,
        model: model_name,
        flash,
        budget,
        policy,
        tokens_per_s: last.tokens_per_s,
        physical_bytes: engine.tier_physical_bytes().expect("tiered engine"),
        report,
        stall_ns,
        staging_ns,
    }
}

fn sweep(
    part: &'static str,
    model_name: &'static str,
    model: &ModelConfig,
    accel: &AccelConfig,
    flashes: &[&'static str],
    runs: &mut Vec<Run>,
) {
    // Layer geometry comes from the tiered placement alone.
    let probe = ModelImage::build(
        model,
        accel.format,
        ImageSpec {
            tiered: true,
            ..ImageSpec::from(CTX + TOKENS)
        },
    )
    .expect("probe build");
    let n_layers = model.n_layers;
    let layer_bytes: u64 = (0..n_layers)
        .map(|l| probe.layer_weight_bytes(l))
        .max()
        .expect("model has layers");
    let total_layer_bytes: u64 = (0..n_layers).map(|l| probe.layer_weight_bytes(l)).sum();
    let non_layer = probe.non_layer_resident_bytes();

    println!(
        "{part} — {n_layers} layers × {}, non-layer residency {}\n",
        fmt_mib(layer_bytes as f64),
        fmt_mib(non_layer as f64),
    );
    let mut rows = Vec::new();
    let mut points: Vec<(&'static str, u64)> = budget_points(n_layers)
        .into_iter()
        .map(|(label, mult)| (label, (mult * layer_bytes as f64) as u64))
        .collect();
    // The 13B shapes stream because the board is small: add the budget
    // a 4 GiB board actually leaves for layer weights.
    if non_layer + total_layer_bytes > BOARD_BYTES {
        points.push(("board4g", BOARD_BYTES - non_layer));
    }
    for (label, budget_bytes) in points {
        // The full budget fetches nothing, so the flash preset cannot
        // matter; sweep presets only where there is flash traffic.
        let flashes: &[&'static str] = if label == "all" {
            &flashes[..1]
        } else {
            flashes
        };
        for &flash in flashes {
            for policy in ["aware", "blind"] {
                let run = run_one(
                    accel,
                    model,
                    part,
                    model_name,
                    flash,
                    label,
                    budget_bytes,
                    policy,
                );
                let r = &run.report;
                rows.push(vec![
                    label.to_string(),
                    format!("{}", r.capacity_layers),
                    flash.to_string(),
                    policy.to_string(),
                    format!("{:.3}", run.tokens_per_s),
                    format!("{:.1}", run.stall_ns / 1e6),
                    fmt_mib(r.flash_bytes as f64),
                    format!("{}", r.demand_misses),
                    format!("{}", r.late_prefetches),
                    format!("{}", r.prefetch_wasted),
                    fmt_mib(run.physical_bytes as f64),
                ]);
                runs.push(run);
            }
        }
    }
    print_table(
        &[
            "budget", "cap", "flash", "policy", "tok/s", "stall ms", "flash io", "demand", "late",
            "wasted", "phys",
        ],
        &rows,
    );
    println!();
}

fn to_json(runs: &[Run]) -> String {
    use JsonField::{Fixed3, Fixed6, Str, UInt};
    let rows: Vec<Vec<(&str, JsonField)>> = runs
        .iter()
        .map(|run| {
            let r = &run.report;
            vec![
                ("part", Str(run.part.to_string())),
                ("model", Str(run.model.to_string())),
                ("flash", Str(run.flash.to_string())),
                ("budget", Str(run.budget.to_string())),
                ("policy", Str(run.policy.to_string())),
                ("budget_bytes", UInt(r.budget_bytes)),
                ("capacity_layers", UInt(r.capacity_layers as u64)),
                ("physical_bytes", UInt(run.physical_bytes)),
                ("tokens_per_s", Fixed6(run.tokens_per_s)),
                ("stall_ms", Fixed3(run.stall_ns / 1e6)),
                ("staging_ddr_ms", Fixed3(run.staging_ns / 1e6)),
                ("flash_bytes", UInt(r.flash_bytes)),
                ("flash_reads", UInt(r.flash_reads)),
                ("hits", UInt(r.hits)),
                ("demand_misses", UInt(r.demand_misses)),
                ("late_prefetches", UInt(r.late_prefetches)),
                ("prefetch_issued", UInt(r.prefetch_issued)),
                ("prefetch_wasted", UInt(r.prefetch_wasted)),
                ("evictions", UInt(r.evictions)),
            ]
        })
        .collect();
    json_report(&rows)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = cli_value_arg("tier_sweep", &args, "--json");
    // Every sim bin takes the shared `--seed` flag so harness scripts
    // can pass it uniformly; this sweep replays no stochastic trace —
    // it is fully deterministic — so the value is validated (malformed
    // input still exits 2 like everywhere else) but drives nothing.
    let _seed = cli_seed_arg("tier_sweep", &args, 0);

    let ddr4 = AccelConfig::kv260();
    let mut lpddr5 = AccelConfig::kv260();
    lpddr5.ddr = zllm_ddr::DdrConfig::lpddr5_6400_embedded();

    let mut runs = Vec::new();
    let m7 = ModelConfig::llama2_7b();
    let m13 = ModelConfig::llama2_13b();
    sweep(
        "7b-ddr4-2400",
        "llama2-7b",
        &m7,
        &ddr4,
        &["emmc", "nvme"],
        &mut runs,
    );
    sweep(
        "7b-lpddr5-6400",
        "llama2-7b",
        &m7,
        &lpddr5,
        &["nvme"],
        &mut runs,
    );
    sweep(
        "13b-ddr4-2400",
        "llama2-13b",
        &m13,
        &ddr4,
        &["nvme"],
        &mut runs,
    );
    sweep(
        "13b-lpddr5-6400",
        "llama2-13b",
        &m13,
        &lpddr5,
        &["nvme"],
        &mut runs,
    );

    if let Some(path) = &json_path {
        std::fs::write(path, to_json(&runs)).expect("write tier_sweep JSON");
        println!("tier_sweep: report written to {path}");
    }
}
