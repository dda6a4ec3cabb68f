//! Graph-convolution primitives shared by the GNN models.

use ema_autodiff::{Tape, Var};

/// A single GCN layer on the tape: `Â · H · Wᵀ + b`, where `a_hat` is a
/// (constant or learned) `[V, V]` propagation matrix, `h` is `[V, F_in]`
/// and `w`/`b` are a `[F_out, F_in]` weight and `[F_out]` bias.
pub fn gcn_layer(tape: &Tape, a_hat: Var, h: Var, w: Var, b: Var) -> Var {
    let propagated = tape.matmul(a_hat, h);
    tape.linear(propagated, w, b)
}

/// Grouped [`gcn_layer`] over a cohort stack: `a_hats` and `params`
/// yield one `[V, V]` propagation matrix and one `(w_b, bias_b)` pair
/// per group, and group `b`'s window blocks of `h: [Σ W_b·V, F_in]`
/// propagate through its *own* — bit-identical per window block to the
/// per-window layer.
pub fn gcn_layer_grouped(
    tape: &Tape,
    a_hats: impl IntoIterator<Item = Var>,
    h: Var,
    params: impl IntoIterator<Item = (Var, Var)>,
    group_wins: &[usize],
    nodes: usize,
) -> Var {
    let propagated = tape.group_block_lhs_matmul(a_hats, h, group_wins);
    tape.group_linear_blocks(propagated, params, group_wins, nodes)
}

/// MTGNN's mix-hop propagation:
///
/// ```text
/// H⁽⁰⁾ = H_in
/// H⁽ᵏ⁾ = β·H_in + (1 − β)·Â·H⁽ᵏ⁻¹⁾
/// out  = Σ_k H⁽ᵏ⁾ · W_kᵀ
/// ```
///
/// `weights` supplies one `[F_out, F_in]` weight var per hop
/// (`depth + 1` of them, including hop 0).
///
/// # Panics
/// Panics if `weights.len() != depth + 1`.
pub fn mixhop_propagation(
    tape: &Tape,
    a_hat: Var,
    h_in: Var,
    weights: &[Var],
    beta: f64,
    depth: usize,
) -> Var {
    assert_eq!(
        weights.len(),
        depth + 1,
        "mix-hop needs depth + 1 weight matrices"
    );
    let mut h = h_in;
    let mut out: Option<Var> = None;
    for (k, &w) in weights.iter().enumerate() {
        if k > 0 {
            let prop = tape.matmul(a_hat, h);
            let keep = tape.scale(h_in, beta);
            let walk = tape.scale(prop, 1.0 - beta);
            h = tape.add(keep, walk);
        }
        let term = tape.matmul_nt(h, w);
        out = Some(match out {
            Some(acc) => tape.add(acc, term),
            None => term,
        });
    }
    out.expect("depth + 1 >= 1")
}

/// Grouped [`mixhop_propagation`] over a cohort stack: group `b`'s
/// window blocks of `h_in: [Σ W_b·V, F_in]` propagate through its
/// *own* adjacency (`a_hats`, one per group) and hop weights
/// (`hop_weights(k)` yields hop `k`'s weight per group); `beta` and
/// `depth` are structural and shared, so the keep/walk mixing stays a
/// dense elementwise op.
#[allow(clippy::too_many_arguments)]
pub fn mixhop_propagation_grouped<I: IntoIterator<Item = Var>>(
    tape: &Tape,
    a_hats: impl Iterator<Item = Var> + Clone,
    h_in: Var,
    hop_weights: impl Fn(usize) -> I,
    beta: f64,
    depth: usize,
    group_wins: &[usize],
    nodes: usize,
) -> Var {
    let mut h = h_in;
    let mut out: Option<Var> = None;
    for k in 0..=depth {
        if k > 0 {
            let prop = tape.group_block_lhs_matmul(a_hats.clone(), h, group_wins);
            let keep = tape.scale(h_in, beta);
            let walk = tape.scale(prop, 1.0 - beta);
            h = tape.add(keep, walk);
        }
        let term = tape.group_matmul_nt(h, hop_weights(k), group_wins, nodes);
        out = Some(match out {
            Some(acc) => tape.add(acc, term),
            None => term,
        });
    }
    out.expect("depth + 1 >= 1")
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
        // Â = 0 ⇒ H⁽ᵏ⁾ = β·H_in for k ≥ 1.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(&[3, 3]));
        let h_in = tape.leaf(Tensor::ones(&[3, 2]));
        let w0 = tape.leaf(Tensor::eye(2));
        let w1 = tape.leaf(Tensor::eye(2));
        let out = mixhop_propagation(&tape, a, h_in, &[w0, w1], 0.25, 1);
        // out = H_in + 0.25·H_in = 1.25 everywhere.
        assert!(tape
            .value(out)
            .data()
            .iter()
            .all(|&v| (v - 1.25).abs() < 1e-12));
    }

    #[test]
    fn mixhop_depth_grows_receptive_field() {
        // Path graph 0→1→2; signal starts at node 0 only. Depth 2
        // reaches node 2, depth 1 does not.
        let mut adj = Tensor::zeros(&[3, 3]);
        adj.set2(1, 0, 1.0); // node 1 listens to node 0
        adj.set2(2, 1, 1.0); // node 2 listens to node 1
        let tape = Tape::new();
        let a = tape.leaf(adj);
        let mut h0 = Tensor::zeros(&[3, 1]);
        h0.set2(0, 0, 1.0);
        let h_in = tape.leaf(h0);
        let eye = Tensor::eye(1);
        let w: Vec<Var> = (0..3).map(|_| tape.leaf(eye.clone())).collect();

        let out1 = mixhop_propagation(&tape, a, h_in, &w[..2], 0.0, 1);
        assert_eq!(tape.value(out1).at2(2, 0), 0.0);
        let out2 = mixhop_propagation(&tape, a, h_in, &w, 0.0, 2);
        assert!(tape.value(out2).at2(2, 0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "depth + 1")]
    fn mixhop_validates_weight_count() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::eye(2));
        let h = tape.leaf(Tensor::ones(&[2, 1]));
        let w = tape.leaf(Tensor::eye(1));
        let _ = mixhop_propagation(&tape, a, h, &[w], 0.1, 2);
    }
}
