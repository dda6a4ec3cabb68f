//! Shared model hyper-parameters (paper Section V-D).
//!
//! The paper trains every individual with the same dropout, temporal
//! kernel and Chebyshev order, and MTGNN with fixed graph-learner and
//! mix-hop settings; those are constants here. [`ModelConfig`] keeps
//! what scales, the hyper-parameter sweep and seeds vary.

/// Dropout rate before every model's output head (paper: 0.3).
pub(crate) const DROPOUT: f64 = 0.3;
/// Temporal kernel size (paper: k = 3); reduced when a window is
/// shorter than the kernel.
pub(crate) const KERNEL: usize = 3;
/// ASTGCN's Chebyshev polynomial order (paper: K = 3).
pub(crate) const CHEB_ORDER: usize = 3;
/// MTGNN saturation coefficient α of the graph learner.
pub(crate) const GRAPH_ALPHA: f64 = 3.0;
/// MTGNN mix-hop retain ratio β (fraction of the input state kept at
/// each propagation step).
pub(crate) const MIXHOP_BETA: f64 = 0.05;
/// MTGNN mix-hop propagation depth.
pub(crate) const MIXHOP_DEPTH: usize = 2;

/// Hyper-parameters common to every model.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Hidden units in every channel/layer (paper: 32).
    pub hidden: usize,
    /// MTGNN graph-learning embedding dimension.
    pub embed_dim: usize,
    /// MTGNN top-k neighbours kept per node in the learned graph.
    pub graph_top_k: usize,
    /// Attention projection width for attention modules.
    pub attn_dim: usize,
    /// Parameter-initialisation seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            embed_dim: 10,
            graph_top_k: 8,
            attn_dim: 16,
            seed: 1,
        }
    }
}

impl ModelConfig {
    /// A smaller configuration for fast tests.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        Self {
            hidden: 8,
            embed_dim: 4,
            graph_top_k: 3,
            attn_dim: 4,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ModelConfig::default();
        assert_eq!(c.hidden, 32);
        assert_eq!(KERNEL, 3);
        assert_eq!(CHEB_ORDER, 3);
        assert_eq!(DROPOUT.to_bits(), 0.3_f64.to_bits());
    }

    #[test]
    fn tiny_is_smaller() {
        let c = ModelConfig::tiny(0);
        assert!(c.hidden < ModelConfig::default().hidden);
    }
}
