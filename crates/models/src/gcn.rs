//! Graph-convolution primitives shared by the GNN models.

use crate::config::{MIXHOP_BETA, MIXHOP_DEPTH};
use ema_autodiff::{Tape, Var};

/// A single GCN layer on the tape: `Â · H · Wᵀ + b`, where `a_hat` is a
/// (constant or learned) `[V, V]` propagation matrix, `h` is `[V, F_in]`
/// and `w`/`b` are a `[F_out, F_in]` weight and `[F_out]` bias.
pub fn gcn_layer(tape: &Tape, a_hat: Var, h: Var, w: Var, b: Var) -> Var {
    let propagated = tape.matmul(a_hat, h);
    tape.linear(propagated, w, b)
}

/// [`gcn_layer`] over a window batch: every `[V, F_in]` window block of
/// `h: [W·V, F_in]` propagates through `a_hat` and the one `(w, b)` —
/// bit-identical per window block, in values and gradients, to the
/// per-window layer.
pub fn gcn_layer_grouped(tape: &Tape, a_hat: Var, h: Var, w: Var, b: Var, wins: usize) -> Var {
    let propagated = tape.group_block_lhs_matmul(a_hat, h, wins);
    tape.group_linear(propagated, w, b, wins)
}

/// MTGNN's mix-hop propagation at Wu et al.'s settings
/// (β = [`MIXHOP_BETA`], depth = [`MIXHOP_DEPTH`]):
///
/// ```text
/// H⁽⁰⁾ = H_in
/// H⁽ᵏ⁾ = β·H_in + (1 − β)·Â·H⁽ᵏ⁻¹⁾
/// out  = Σ_k H⁽ᵏ⁾ · W_kᵀ
/// ```
///
/// `hop_weight(k)` is hop `k`'s `[F_out, F_in]` weight var, for
/// `k = 0..=depth`.
pub fn mixhop_propagation(
    tape: &Tape,
    a_hat: Var,
    h_in: Var,
    hop_weight: impl Fn(usize) -> Var,
) -> Var {
    let mut h = h_in;
    let mut out = tape.matmul_nt(h, hop_weight(0));
    for k in 1..=MIXHOP_DEPTH {
        let prop = tape.matmul(a_hat, h);
        let keep = tape.scale(h_in, MIXHOP_BETA);
        let walk = tape.scale(prop, 1.0 - MIXHOP_BETA);
        h = tape.add(keep, walk);
        let term = tape.matmul_nt(h, hop_weight(k));
        out = tape.add(out, term);
    }
    out
}

/// [`mixhop_propagation`] over a window batch: every window block of
/// `h_in: [W·V, F_in]` propagates through `a_hat` and the hop weights;
/// the keep/walk mixing is a dense elementwise op over the stack.
pub fn mixhop_propagation_grouped(
    tape: &Tape,
    a_hat: Var,
    h_in: Var,
    hop_weight: impl Fn(usize) -> Var,
    wins: usize,
) -> Var {
    let mut h = h_in;
    let mut out = tape.group_matmul_nt(h, hop_weight(0), wins);
    for k in 1..=MIXHOP_DEPTH {
        let prop = tape.group_block_lhs_matmul(a_hat, h, wins);
        let keep = tape.scale(h_in, MIXHOP_BETA);
        let walk = tape.scale(prop, 1.0 - MIXHOP_BETA);
        h = tape.add(keep, walk);
        let term = tape.group_matmul_nt(h, hop_weight(k), wins);
        out = tape.add(out, term);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::{Rng64, Tensor};

    #[test]
    fn gcn_layer_shapes() {
        let tape = Tape::new();
        let mut rng = Rng64::seed_from(0);
        let a = tape.leaf(Tensor::eye(4));
        let h = tape.leaf(Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng));
        let w = tape.leaf(Tensor::rand_normal(&[6, 3], 0.0, 1.0, &mut rng));
        let b = tape.leaf(Tensor::zeros(&[6]));
        let out = gcn_layer(&tape, a, h, w, b);
        assert_eq!(tape.dims(out), vec![4, 6]);
    }

    #[test]
    fn identity_propagation_reduces_to_linear() {
        let tape = Tape::new();
        let mut rng = Rng64::seed_from(1);
        let a = tape.leaf(Tensor::eye(3));
        let hv = Tensor::rand_normal(&[3, 2], 0.0, 1.0, &mut rng);
        let wv = Tensor::rand_normal(&[2, 2], 0.0, 1.0, &mut rng);
        let h = tape.leaf(hv.clone());
        let w = tape.leaf(wv.clone());
        let b = tape.leaf(Tensor::zeros(&[2]));
        let out = gcn_layer(&tape, a, h, w, b);
        let expected = hv.matmul(&wv.transpose());
        ema_tensor::assert_tensors_close(&tape.value(out), &expected, 1e-12);
    }

    #[test]
    fn mixhop_with_zero_adjacency_keeps_input_mix() {
        // Â = 0 ⇒ H⁽ᵏ⁾ = β·H_in for k ≥ 1, so with identity hop weights
        // out = (1 + MIXHOP_DEPTH·MIXHOP_BETA)·H_in = 1.1·H_in.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(&[3, 3]));
        let h_in = tape.leaf(Tensor::ones(&[3, 2]));
        let eye = tape.leaf(Tensor::eye(2));
        let out = mixhop_propagation(&tape, a, h_in, |_| eye);
        assert!(tape
            .value(out)
            .data()
            .iter()
            .all(|&v| (v - 1.1).abs() < 1e-12));
    }

    #[test]
    fn mixhop_depth_grows_receptive_field() {
        // Path graph 0→1→2; signal starts at node 0 only. Two hops
        // carry it to node 2.
        let mut adj = Tensor::zeros(&[3, 3]);
        adj.set2(1, 0, 1.0); // node 1 listens to node 0
        adj.set2(2, 1, 1.0); // node 2 listens to node 1
        let tape = Tape::new();
        let a = tape.leaf(adj);
        let mut h0 = Tensor::zeros(&[3, 1]);
        h0.set2(0, 0, 1.0);
        let h_in = tape.leaf(h0);
        let eye = tape.leaf(Tensor::eye(1));
        let out = mixhop_propagation(&tape, a, h_in, |_| eye);
        assert!(tape.value(out).at2(2, 0) > 0.0);
    }
}
