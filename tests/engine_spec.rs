//! The construction support matrix: every combination of batch, KV
//! layout, layer range, weight tier and compression either builds an
//! engine that prices a token with a consistent byte breakdown, or
//! returns its named `SpecError` — never a panic.

use zllm::accel::telemetry::Snapshot;
use zllm::accel::{AccelConfig, DecodeEngine, EngineSpec, ModelImage, SpecError, TierConfig};
use zllm::ddr::{CompressionConfig, FlashConfig, StreamRatio};
use zllm::model::ModelConfig;
use zllm::serve::cluster::{InterconnectConfig, ShardedEngine};
use zllm::serve::{Server, ServerConfig};

const CTX: usize = 64;

/// Two layers per board on the sharded cells, so a one-layer tier
/// budget forces flash staging on every shape.
fn model() -> ModelConfig {
    ModelConfig {
        n_layers: 4,
        ..ModelConfig::test_small()
    }
}

fn largest_layer_bytes() -> u64 {
    let image = ModelImage::build(&model(), AccelConfig::kv260().format, CTX).expect("fits");
    (0..model().n_layers)
        .map(|l| image.layer_weight_bytes(l))
        .max()
        .expect("model has layers")
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    batch: usize,
    paged: bool,
    tiered: bool,
    compressed: bool,
}

impl Cell {
    fn spec(self) -> EngineSpec {
        EngineSpec {
            batch: self.batch,
            page_tokens: self.paged.then_some(16),
            tier: self.tiered.then(|| {
                TierConfig::schedule_aware(FlashConfig::emmc_hs400(), largest_layer_bytes())
            }),
            compression: self.compressed.then(|| {
                CompressionConfig::with_ratios(
                    StreamRatio::from_ratio(2.0),
                    StreamRatio::from_ratio(1.2),
                    StreamRatio::from_ratio(1.1),
                )
            }),
            ..EngineSpec::from(CTX)
        }
    }
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for batch in [1, 4] {
        for paged in [false, true] {
            for tiered in [false, true] {
                for compressed in [false, true] {
                    cells.push(Cell {
                        batch,
                        paged,
                        tiered,
                        compressed,
                    });
                }
            }
        }
    }
    cells
}

/// Every byte the engine priced is attributed to exactly one op kind.
fn assert_bytes_itemized(snap: &Snapshot, cell: Cell) {
    let total = snap.counter("decode.bytes").expect("a token was priced");
    let kinds: u64 = snap
        .entries()
        .filter(|(name, _, _)| name.starts_with("decode.bytes."))
        .map(|(_, _, v)| v as u64)
        .sum();
    assert!(total > 0, "{cell:?}");
    assert_eq!(total, kinds, "{cell:?}");
}

/// The slots one step decodes: every provisioned sequence, at contexts
/// that straddle the first page boundary.
fn slots(batch: usize) -> Vec<(usize, usize)> {
    (0..batch).map(|s| (s, 15 + s)).collect()
}

#[test]
fn full_model_cells_all_build_and_price() {
    for cell in cells() {
        let mut engine =
            DecodeEngine::new(AccelConfig::kv260(), &model(), cell.spec()).expect("builds");
        let report = engine.decode_token_ragged(&slots(cell.batch));
        assert_eq!(report.batch, cell.batch, "{cell:?}");
        assert_eq!(engine.image().is_paged(), cell.paged, "{cell:?}");
        assert_eq!(engine.tier_report().is_some(), cell.tiered, "{cell:?}");
        if cell.tiered {
            let tier = engine.tier_report().expect("tiered");
            assert!(tier.flash_bytes > 0, "one-layer budget stages: {cell:?}");
        }
        assert_eq!(
            engine.compression_bytes().is_some(),
            cell.compressed,
            "{cell:?}"
        );
        assert_bytes_itemized(&engine.metrics_snapshot(), cell);
    }
}

#[test]
fn two_stage_shard_cells_build_or_name_their_error() {
    for cell in cells() {
        let built = ShardedEngine::new(
            &AccelConfig::kv260(),
            &model(),
            cell.spec(),
            2,
            InterconnectConfig::aurora_x4(),
        );
        if cell.tiered {
            // One tier configuration (and its policy state) cannot be
            // shared across boards.
            assert!(
                matches!(
                    built,
                    Err(SpecError::Unsupported {
                        feature: "tier",
                        ..
                    })
                ),
                "{cell:?}"
            );
            continue;
        }
        let mut pipeline = built.expect("builds");
        let step = pipeline.decode_step(&slots(cell.batch));
        assert!(step.cadence_ns > 0.0, "{cell:?}");
        for stage in pipeline.stages() {
            assert_eq!(stage.image().is_paged(), cell.paged, "{cell:?}");
            assert_eq!(
                stage.compression_bytes().is_some(),
                cell.compressed,
                "{cell:?}"
            );
            assert_bytes_itemized(&stage.metrics_snapshot(), cell);
        }
    }
}

#[test]
fn single_board_shards_compose_with_every_stage() {
    // A layer range is an ordinary spec field on one board: each half of
    // the model builds with every other feature, the tier included.
    for cell in cells() {
        for layers in [0..2, 2..4] {
            let spec = EngineSpec {
                layers: Some(layers.clone()),
                ..cell.spec()
            };
            let mut engine =
                DecodeEngine::new(AccelConfig::kv260(), &model(), spec).expect("builds");
            assert_eq!(engine.image().layer_offset(), layers.start, "{cell:?}");
            engine.decode_token_ragged(&slots(cell.batch));
            assert_bytes_itemized(&engine.metrics_snapshot(), cell);
        }
    }
}

#[test]
fn construction_failures_are_typed_errors() {
    let accel = AccelConfig::kv260;
    let build = |spec: EngineSpec| DecodeEngine::new(accel(), &model(), spec).unwrap_err();
    assert_eq!(
        build(EngineSpec {
            batch: 0,
            ..EngineSpec::from(CTX)
        }),
        SpecError::ZeroBatch
    );
    assert_eq!(
        build(EngineSpec {
            page_tokens: Some(24),
            ..EngineSpec::from(CTX)
        }),
        SpecError::MisalignedPage { page_tokens: 24 }
    );
    assert_eq!(
        build(EngineSpec {
            page_tokens: Some(32),
            ..EngineSpec::from(48)
        }),
        SpecError::ContextNotPageMultiple {
            ctx_capacity: 48,
            page_tokens: 32
        }
    );
    assert_eq!(
        build(EngineSpec {
            layers: Some(3..5),
            ..EngineSpec::from(CTX)
        }),
        SpecError::BadLayerRange {
            layers: 3..5,
            n_layers: 4
        }
    );
    let largest = largest_layer_bytes();
    assert_eq!(
        build(EngineSpec {
            tier: Some(TierConfig::blind_lru(FlashConfig::nvme_gen3(), largest - 1)),
            ..EngineSpec::from(CTX)
        }),
        SpecError::TierBudgetTooSmall {
            budget_bytes: largest - 1,
            largest_layer_bytes: largest
        }
    );
    let mut malformed = model();
    malformed.n_kv_heads = 3;
    assert!(matches!(
        DecodeEngine::new(accel(), &malformed, CTX),
        Err(SpecError::InvalidModel(_))
    ));
    assert!(matches!(
        DecodeEngine::new(accel(), &ModelConfig::llama2_7b(), 1 << 20),
        Err(SpecError::Alloc(_))
    ));
    assert!(matches!(
        Server::new(accel(), &model(), ServerConfig::continuous(CTX, 0)),
        Err(SpecError::ZeroBatch)
    ));
    let sharded = ShardedEngine::new(
        &accel(),
        &model(),
        EngineSpec {
            layers: Some(0..2),
            ..EngineSpec::from(CTX)
        },
        2,
        InterconnectConfig::aurora_x4(),
    );
    assert!(matches!(
        sharded,
        Err(SpecError::Unsupported {
            feature: "layers",
            ..
        })
    ));
}
