//! FLOP accounting helpers.
//!
//! Figure 3 of the paper breaks a Transformer encoder's floating-point
//! operations into *attention* (the parameter-free `QK^T` and `A*V` GEMMs)
//! versus *other* (linear transformations and the FFN, whose cost is linear
//! in sequence length). These helpers count multiply-accumulate work so that
//! the figure can be regenerated analytically.

/// FLOPs of a dense `m x k` by `k x n` matrix product, counting one multiply
/// and one add per MAC (`2*m*k*n`).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

/// FLOPs of a GELU over `m x n` elements (tanh approximation ≈ 10 per
/// element).
pub fn gelu_flops(m: usize, n: usize) -> u64 {
    10 * m as u64 * n as u64
}

/// FLOPs of a *sparse* attention aggregation that keeps `kept` connections
/// out of `n^2`, with head dimension `hd`: score computation plus weighted
/// aggregation, `2 * 2 * hd` per kept connection.
pub fn sparse_attention_flops(kept: u64, hd: usize) -> u64 {
    4 * kept * hd as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops_counts_macs_twice() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }

    #[test]
    fn sparse_equals_dense_at_full_retention() {
        let n = 64u64;
        let hd = 64;
        let dense = gemm_flops(64, hd, 64) + gemm_flops(64, 64, hd);
        let sparse = sparse_attention_flops(n * n, hd);
        assert_eq!(dense, sparse);
    }

    #[test]
    fn auxiliary_costs_positive() {
        assert!(gelu_flops(4, 4) > 0);
    }
}
