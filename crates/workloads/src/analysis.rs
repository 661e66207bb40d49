//! Attention-distribution analysis (paper §2.2 / Fig. 1 motivation).
//!
//! The paper's premise is that trained attention rows are *concentrated*:
//! a few connections carry almost all probability mass, so most edges can
//! be omitted. These statistics quantify that on real attention matrices:
//! row entropy, the mass captured by the top-k connections, the effective
//! connection count (participation ratio), and positional locality.

use dota_tensor::{topk, Matrix};

/// Summary statistics of one attention matrix (rows = queries, each row a
/// probability distribution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionStats {
    /// Mean row entropy in nats (uniform over `n` keys = `ln n`).
    pub mean_entropy: f64,
    /// Mean fraction of each row's mass captured by its top 10% entries.
    pub top10pct_mass: f64,
    /// Mean participation ratio `1 / Σ p²` — the "effective number" of
    /// attended keys per query.
    pub effective_connections: f64,
    /// Mean attended distance `Σ p·|i - j|` — positional locality.
    pub mean_distance: f64,
}

/// Computes [`AttentionStats`] for a row-stochastic attention matrix.
///
/// # Panics
///
/// Panics if the matrix is empty.
pub fn attention_stats(attn: &Matrix) -> AttentionStats {
    assert!(!attn.is_empty(), "empty attention matrix");
    let n = attn.cols();
    let top_k = (n / 10).max(1);
    let mut entropy = 0.0f64;
    let mut top_mass = 0.0f64;
    let mut eff = 0.0f64;
    let mut dist = 0.0f64;
    for (i, row) in attn.rows_iter().enumerate() {
        let mut h = 0.0f64;
        let mut sq = 0.0f64;
        let mut d = 0.0f64;
        for (j, &p) in row.iter().enumerate() {
            let p = p as f64;
            if p > 1e-12 {
                h -= p * p.ln();
            }
            sq += p * p;
            d += p * (i as f64 - j as f64).abs();
        }
        entropy += h;
        eff += if sq > 0.0 { 1.0 / sq } else { 0.0 };
        dist += d;
        let idx = topk::top_k_indices(row, top_k);
        top_mass += idx.iter().map(|&j| row[j] as f64).sum::<f64>();
    }
    let rows = attn.rows() as f64;
    AttentionStats {
        mean_entropy: entropy / rows,
        top10pct_mass: top_mass / rows,
        effective_connections: eff / rows,
        mean_distance: dist / rows,
    }
}

/// Fraction of total attention mass the strongest `retention` of
/// connections captures, per row (the quantity behind Table 1: if this is
/// near 1, omission is nearly free).
pub fn mass_at_retention(attn: &Matrix, retention: f64) -> f64 {
    assert!(
        retention > 0.0 && retention <= 1.0,
        "retention {retention} out of range"
    );
    let n = attn.cols();
    let k = topk::keep_count(retention, n);
    let mut acc = 0.0f64;
    for row in attn.rows_iter() {
        let idx = topk::top_k_indices(row, k);
        acc += idx.iter().map(|&j| row[j] as f64).sum::<f64>();
    }
    acc / attn.rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_tensor::ops;
    use dota_tensor::rng::SeededRng;

    #[test]
    fn uniform_attention_has_max_entropy_and_full_spread() {
        let n = 16;
        let attn = Matrix::filled(n, n, 1.0 / n as f32);
        let s = attention_stats(&attn);
        assert!((s.mean_entropy - (n as f64).ln()).abs() < 1e-6);
        assert!((s.effective_connections - n as f64).abs() < 1e-3);
        assert!((s.top10pct_mass - 1.0 / 10.0).abs() < 0.05);
    }

    #[test]
    fn one_hot_attention_is_fully_concentrated() {
        let n = 8;
        let attn = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
        let s = attention_stats(&attn);
        assert!(s.mean_entropy < 1e-9);
        assert!((s.effective_connections - 1.0).abs() < 1e-9);
        assert!((s.top10pct_mass - 1.0).abs() < 1e-9);
        assert_eq!(s.mean_distance, 0.0);
    }

    #[test]
    fn peaked_softmax_concentrates_mass() {
        let mut rng = SeededRng::new(1);
        let logits = rng.normal_matrix(32, 32, 1.0);
        let soft = ops::softmax_rows(&logits);
        let sharp = ops::softmax_rows(&logits.scale(8.0));
        let s_soft = attention_stats(&soft);
        let s_sharp = attention_stats(&sharp);
        assert!(s_sharp.mean_entropy < s_soft.mean_entropy);
        assert!(s_sharp.top10pct_mass > s_soft.top10pct_mass);
        assert!(s_sharp.effective_connections < s_soft.effective_connections);
    }

    #[test]
    fn mass_at_retention_monotone() {
        let mut rng = SeededRng::new(2);
        let attn = ops::softmax_rows(&rng.normal_matrix(16, 16, 2.0));
        let m05 = mass_at_retention(&attn, 0.05);
        let m20 = mass_at_retention(&attn, 0.20);
        let m100 = mass_at_retention(&attn, 1.0);
        assert!(m05 < m20 && m20 < m100);
        assert!((m100 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn local_window_attention_has_small_distance() {
        let n = 32;
        let local = Matrix::from_fn(n, n, |i, j| {
            if (i as i64 - j as i64).abs() <= 1 {
                1.0
            } else {
                0.0
            }
        });
        let norm = ops::softmax_rows(&local.scale(100.0));
        let s = attention_stats(&norm);
        assert!(s.mean_distance < 1.5, "distance {}", s.mean_distance);
    }
}
