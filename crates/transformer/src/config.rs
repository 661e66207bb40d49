/// How a non-causal model pools the sequence for classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pooling {
    /// Mean over all positions (LRA-style).
    #[default]
    Mean,
    /// First position only (BERT `[CLS]`-style — the right choice when the
    /// label hinges on a query placed at the sequence start, as in QA).
    First,
}

/// Longest sequence a front end builds a model for: the position table
/// (`seq_len × d_model` floats) and every per-position buffer are memory a
/// flag chooses before any token runs.
pub const MAX_SEQ_LEN: usize = 1 << 16;

/// Hyperparameters of a Transformer model.
///
/// The same struct describes both the tiny trainable models used for the
/// accuracy experiments and the paper-scale shapes (BERT-large, GPT-2) used
/// for analytic FLOPs and simulator timing.
///
/// # Example
///
/// ```
/// use dota_transformer::TransformerConfig;
///
/// let cfg = TransformerConfig::bert_large(384);
/// assert_eq!(cfg.head_dim(), 64);
/// assert_eq!(cfg.d_model, 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Vocabulary size for token embedding.
    pub vocab_size: usize,
    /// Sequence length the model processes.
    pub seq_len: usize,
    /// Model (embedding) dimension `d`.
    pub d_model: usize,
    /// Number of attention heads per layer.
    pub n_heads: usize,
    /// Number of stacked encoder (or decoder) blocks.
    pub n_layers: usize,
    /// Hidden dimension of the feed-forward network.
    pub d_ff: usize,
    /// Number of output classes (classification heads) or vocabulary size
    /// (language modeling).
    pub n_classes: usize,
    /// `true` for GPT-style causal (decoder) attention.
    pub causal: bool,
    /// Sequence pooling for classification heads (ignored when causal).
    pub pooling: Pooling,
}

impl TransformerConfig {
    /// Per-head dimension `d_model / n_heads`.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads`.
    pub fn head_dim(&self) -> usize {
        assert!(
            self.d_model.is_multiple_of(self.n_heads),
            "d_model {} not divisible by n_heads {}",
            self.d_model,
            self.n_heads
        );
        self.d_model / self.n_heads
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.d_model == 0 || self.n_heads == 0 || self.n_layers == 0 {
            return Err("d_model, n_heads and n_layers must be positive".into());
        }
        if !self.d_model.is_multiple_of(self.n_heads) {
            return Err(format!(
                "d_model {} must be divisible by n_heads {}",
                self.d_model, self.n_heads
            ));
        }
        if self.seq_len == 0 {
            return Err("seq_len must be positive".into());
        }
        if self.vocab_size == 0 || self.n_classes == 0 {
            return Err("vocab_size and n_classes must be positive".into());
        }
        Ok(())
    }

    /// BERT-large shape (24 layers, d=1024, 16 heads, FFN 4096) at the given
    /// sequence length — the paper's QA benchmark model.
    pub fn bert_large(seq_len: usize) -> Self {
        Self {
            vocab_size: 30_522,
            seq_len,
            d_model: 1024,
            n_heads: 16,
            n_layers: 24,
            d_ff: 4096,
            n_classes: 2,
            causal: false,
            pooling: Pooling::First,
        }
    }

    /// GPT-2 (117M) shape (12 layers, d=768, 12 heads) at the given sequence
    /// length — the paper's LM benchmark model.
    pub fn gpt2(seq_len: usize) -> Self {
        Self {
            vocab_size: 50_257,
            seq_len,
            d_model: 768,
            n_heads: 12,
            n_layers: 12,
            d_ff: 3072,
            n_classes: 50_257,
            causal: true,
            pooling: Pooling::Mean,
        }
    }

    /// The LRA-style 4-layer encoder used for the Image/Text/Retrieval
    /// benchmarks in the paper's long-range suite.
    pub fn lra(seq_len: usize, n_classes: usize) -> Self {
        Self {
            vocab_size: 256,
            seq_len,
            d_model: 512,
            n_heads: 8,
            n_layers: 4,
            d_ff: 2048,
            n_classes,
            causal: false,
            pooling: Pooling::Mean,
        }
    }

    /// A tiny trainable encoder for the synthetic accuracy experiments.
    pub fn tiny(seq_len: usize, vocab_size: usize, n_classes: usize) -> Self {
        Self {
            vocab_size,
            seq_len,
            d_model: 32,
            n_heads: 2,
            n_layers: 2,
            d_ff: 64,
            n_classes,
            causal: false,
            pooling: Pooling::Mean,
        }
    }

    /// A tiny trainable causal decoder for the synthetic LM experiment.
    pub fn tiny_causal(seq_len: usize, vocab_size: usize) -> Self {
        Self {
            vocab_size,
            seq_len,
            d_model: 32,
            n_heads: 2,
            n_layers: 2,
            d_ff: 64,
            n_classes: vocab_size,
            causal: true,
            pooling: Pooling::Mean,
        }
    }

    /// Total trainable parameter count of the encoder stack plus embeddings
    /// and classifier (weights only; biases and layer norms included).
    pub fn param_count(&self) -> u64 {
        let d = self.d_model as u64;
        let ff = self.d_ff as u64;
        let per_layer = 4 * d * d          // WQ, WK, WV, WO
            + 4 * d            // attention biases folded (wo bias + ln1 gamma/beta ~ small)
            + d * ff + ff      // FC1
            + ff * d + d       // FC2
            + 4 * d; // two layer norms (gamma+beta each)
        let embed = (self.vocab_size as u64 + self.seq_len as u64) * d;
        let head = d * self.n_classes as u64 + self.n_classes as u64;
        embed + self.n_layers as u64 * per_layer + head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            TransformerConfig::bert_large(384),
            TransformerConfig::gpt2(4096),
            TransformerConfig::lra(1024, 10),
            TransformerConfig::tiny(64, 16, 2),
            TransformerConfig::tiny_causal(64, 16),
        ] {
            assert!(cfg.validate().is_ok(), "{cfg:?}");
        }
    }

    #[test]
    fn head_dim_matches_paper() {
        // The paper's σ example: "floor(64*0.2)=12, compared with the
        // original dimension 64" — LRA head dim is 64.
        assert_eq!(TransformerConfig::lra(2048, 2).head_dim(), 64);
        assert_eq!(TransformerConfig::bert_large(384).head_dim(), 64);
        assert_eq!(TransformerConfig::gpt2(4096).head_dim(), 64);
    }

    #[test]
    fn validate_catches_bad_configs() {
        let mut cfg = TransformerConfig::tiny(64, 16, 2);
        cfg.n_heads = 5; // 32 % 5 != 0
        assert!(cfg.validate().is_err());
        cfg = TransformerConfig::tiny(0, 16, 2);
        assert!(cfg.validate().is_err());
        cfg = TransformerConfig::tiny(64, 16, 2);
        cfg.n_layers = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bert_large_param_count_magnitude() {
        // BERT-large has ~340M parameters; our count (without some bias
        // terms and pooler) must land in the same ballpark.
        let n = TransformerConfig::bert_large(384).param_count();
        assert!(n > 250_000_000 && n < 400_000_000, "{n}");
    }

    #[test]
    fn causal_flag_distinguishes_decoder() {
        assert!(TransformerConfig::gpt2(1024).causal);
        assert!(!TransformerConfig::bert_large(384).causal);
    }
}
