//! What to place and how to price it: the one construction spec of
//! [`ModelImage::build`](crate::ModelImage::build) and
//! [`DecodeEngine::new`](crate::DecodeEngine::new), and the typed error
//! every construction failure returns.
//!
//! Each field is independent: any batch, paging, layer range, weight
//! tier and compression stage compose. `From<usize>` is the paper's
//! deployment — one sequence of that many tokens, contiguous KV, the full
//! model, all weights DDR-resident, no compression — so
//! `DecodeEngine::new(accel, &model, 1024)` reads as before; other points
//! override fields with struct-update syntax:
//!
//! ```
//! use zllm_accel::{AccelConfig, DecodeEngine, EngineSpec};
//! use zllm_model::ModelConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = EngineSpec { batch: 4, page_tokens: Some(16), ..EngineSpec::from(64) };
//! let mut engine = DecodeEngine::new(AccelConfig::kv260(), &ModelConfig::test_small(), spec)?;
//! assert!(engine.decode_token_ragged(&[(0, 5), (3, 40)]).bytes > 0);
//! # Ok(())
//! # }
//! ```

use crate::tier::TierConfig;
use std::fmt;
use std::ops::Range;
use zllm_ddr::compress::CompressionConfig;
use zllm_layout::addr_map::AllocError;

/// What a [`ModelImage`](crate::ModelImage) places.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageSpec {
    /// Tokens of KV space per sequence.
    pub ctx_capacity: usize,
    /// Concurrent sequences the KV regions are provisioned for; the
    /// weight streams are shared by all of them.
    pub batch: usize,
    /// `Some(tokens)` carves KV space into pages of that many tokens with
    /// per-sequence page tables in DDR; `None` keeps one contiguous
    /// history per sequence.
    pub page_tokens: Option<usize>,
    /// `Some(range)` places one pipeline-parallel shard: those layers'
    /// weights and KV, the embedding table only if the range starts at
    /// layer 0 and the LM head only if it ends at the last layer.
    /// `None` places the whole model.
    pub layers: Option<Range<usize>>,
    /// Place for flash-backed weights: in the 4 GiB map when the image
    /// fits it, and otherwise in the smallest power-of-two virtual
    /// address space (up to 64 GiB) that holds it.
    pub tiered: bool,
}

impl From<usize> for ImageSpec {
    /// One sequence of `ctx_capacity` tokens, contiguous, full model, flat.
    fn from(ctx_capacity: usize) -> ImageSpec {
        ImageSpec {
            ctx_capacity,
            batch: 1,
            page_tokens: None,
            layers: None,
            tiered: false,
        }
    }
}

/// What a [`DecodeEngine`](crate::DecodeEngine) prices: the image fields
/// of [`ImageSpec`] plus the engine's optional stages. A weight tier
/// implies tiered placement, so the spec carries no separate flag.
#[derive(Debug)]
pub struct EngineSpec {
    /// See [`ImageSpec::ctx_capacity`].
    pub ctx_capacity: usize,
    /// See [`ImageSpec::batch`].
    pub batch: usize,
    /// See [`ImageSpec::page_tokens`].
    pub page_tokens: Option<usize>,
    /// See [`ImageSpec::layers`].
    pub layers: Option<Range<usize>>,
    /// Flash-backed weights with only `weight_budget_bytes` of layers
    /// DDR-resident at a time; `None` keeps every weight in DDR.
    pub tier: Option<TierConfig>,
    /// The inline (de)compression stage in front of the DDR controller;
    /// `None` prices every burst at logical size. Tier staging bypasses
    /// the stage.
    pub compression: Option<CompressionConfig>,
}

impl From<usize> for EngineSpec {
    /// One sequence of `ctx_capacity` tokens, contiguous, full model,
    /// flat, uncompressed.
    fn from(ctx_capacity: usize) -> EngineSpec {
        EngineSpec {
            ctx_capacity,
            batch: 1,
            page_tokens: None,
            layers: None,
            tier: None,
            compression: None,
        }
    }
}

impl EngineSpec {
    /// The image this engine places.
    pub(crate) fn image(&self) -> ImageSpec {
        ImageSpec {
            ctx_capacity: self.ctx_capacity,
            batch: self.batch,
            page_tokens: self.page_tokens,
            layers: self.layers.clone(),
            tiered: self.tier.is_some(),
        }
    }
}

/// Why an image or engine could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The image does not fit its memory map.
    Alloc(AllocError),
    /// The model geometry is malformed (see `ModelConfig::validate`).
    InvalidModel(String),
    /// `batch` is zero.
    ZeroBatch,
    /// `page_tokens` is not a positive multiple of the 16-token KV pack
    /// window.
    MisalignedPage {
        /// The requested page size.
        page_tokens: usize,
    },
    /// `ctx_capacity` is not a whole number of pages.
    ContextNotPageMultiple {
        /// The requested per-sequence capacity.
        ctx_capacity: usize,
        /// The requested page size.
        page_tokens: usize,
    },
    /// The layer range is empty or runs past the model.
    BadLayerRange {
        /// The requested range.
        layers: Range<usize>,
        /// Layers the model has.
        n_layers: usize,
    },
    /// The weight tier's budget cannot hold the largest single layer.
    TierBudgetTooSmall {
        /// The requested budget.
        budget_bytes: u64,
        /// Bytes of the largest layer.
        largest_layer_bytes: u64,
    },
    /// Two requested features that the builder does not combine.
    Unsupported {
        /// The spec field that cannot be honoured.
        feature: &'static str,
        /// What it cannot be combined with.
        with: &'static str,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Alloc(e) => e.fmt(f),
            SpecError::InvalidModel(e) => write!(f, "invalid model: {e}"),
            SpecError::ZeroBatch => f.write_str("batch must be at least 1"),
            SpecError::MisalignedPage { page_tokens } => write!(
                f,
                "page_tokens {page_tokens} must be a positive multiple of {}",
                zllm_layout::kv_page::PAGE_TOKEN_QUANTUM
            ),
            SpecError::ContextNotPageMultiple {
                ctx_capacity,
                page_tokens,
            } => write!(
                f,
                "ctx_capacity {ctx_capacity} must be a multiple of page_tokens {page_tokens}"
            ),
            SpecError::BadLayerRange { layers, n_layers } => write!(
                f,
                "layer range {layers:?} must be a non-empty subrange of 0..{n_layers}"
            ),
            SpecError::TierBudgetTooSmall {
                budget_bytes,
                largest_layer_bytes,
            } => write!(
                f,
                "tier budget {budget_bytes} B cannot hold the largest layer ({largest_layer_bytes} B)"
            ),
            SpecError::Unsupported { feature, with } => {
                write!(f, "{feature} is not supported with {with}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<AllocError> for SpecError {
    fn from(e: AllocError) -> SpecError {
        SpecError::Alloc(e)
    }
}
