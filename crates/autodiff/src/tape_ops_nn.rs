//! Neural-network-specific tape operations (dropout, attention helpers).

use crate::{Op, Tape, Var};
use ema_tensor::{Rng64, Tensor};

impl Tape {
    /// Inverted dropout: zeroes each element with probability `rate` and
    /// scales survivors by `1 / (1 - rate)` so the expectation is
    /// unchanged. When `training` is false this is the identity.
    ///
    /// # Panics
    /// Panics unless `0 <= rate < 1`.
    pub fn dropout(&self, a: Var, rate: f64, training: bool, rng: &mut Rng64) -> Var {
        assert!(
            (0.0..1.0).contains(&rate),
            "dropout rate must be in [0, 1), got {rate}"
        );
        if !training || rate == 0.0 {
            return a;
        }
        let keep = 1.0 - rate;
        let dims = self.dims(a);
        let mut mask = Tensor::zeros(&dims);
        for v in mask.data_mut() {
            if rng.bernoulli(keep) {
                *v = 1.0 / keep;
            }
        }
        let out = self.compute(|v| v[0].mul(&mask), &[a]);
        self.push(out, Op::Dropout(a, mask))
    }

    /// Scaled dot-product attention score matrix:
    /// `softmax((q · kᵀ) / sqrt(d))` for `q: [n, d]`, `k: [m, d]`,
    /// producing `[n, m]` attention weights. The logits use the
    /// transpose-aware kernel, so `kᵀ` is never materialized.
    pub fn attention_scores(&self, q: Var, k: Var) -> Var {
        let d = self.dims(q)[1] as f64;
        let logits = self.matmul_nt(q, k);
        let scaled = self.scale(logits, 1.0 / d.sqrt());
        self.softmax_last(scaled)
    }

    /// Full scaled dot-product attention: `scores(q, k) · v`.
    pub fn attention(&self, q: Var, k: Var, v: Var) -> Var {
        let scores = self.attention_scores(q, k);
        self.matmul(scores, v)
    }

    /// Gated tanh unit used by MTGNN's temporal convolutions:
    /// `tanh(a) ⊙ sigmoid(b)`.
    pub fn gated_tanh(&self, a: Var, b: Var) -> Var {
        let filt = self.tanh(a);
        let gate = self.sigmoid(b);
        self.mul(filt, gate)
    }

    /// Fused LSTM cell step: from pre-activation gates `[n, 4H]`
    /// (i|f|g|o order) and previous cell state `[n, H]`, computes
    ///
    /// ```text
    /// i = σ(pᵢ)  f = σ(p_f)  g̃ = tanh(p_g)  o = σ(p_o)
    /// c' = f ⊙ c + i ⊙ g̃     h' = o ⊙ tanh(c')
    /// ```
    ///
    /// in one pass, recording a single node whose value is `[n, 2H]`
    /// holding `[h' | c']` (slice with [`Tape::slice_cols`]). Replaces
    /// the ~12-node composed graph per timestep with identical math.
    ///
    /// # Panics
    /// Panics on rank or dimension mismatches.
    pub fn lstm_cell(&self, gates_pre: Var, c_prev: Var) -> Var {
        let out = self.compute(|v| lstm_cell_forward(v[0], v[1]), &[gates_pre, c_prev]);
        self.push(out, Op::LstmCell(gates_pre, c_prev))
    }

    /// Fused GRU cell step: from input-side and hidden-side gate
    /// pre-activations (both `[n, 3H]`, r|z|n order) and previous
    /// hidden state `[n, H]`, computes
    ///
    /// ```text
    /// r = σ(gᵢʳ + gₕʳ)   z = σ(gᵢᶻ + gₕᶻ)
    /// ñ = tanh(gᵢⁿ + r ⊙ gₕⁿ)
    /// h' = (ñ - z ⊙ ñ) + z ⊙ h
    /// ```
    ///
    /// in one pass, recording a single node. The hidden-side candidate
    /// pre-activation `gₕⁿ` is gated by `r` *inside* the cell, matching
    /// the standard (PyTorch-style) GRU formulation.
    ///
    /// # Panics
    /// Panics on rank or dimension mismatches.
    pub fn gru_cell(&self, gi: Var, gh: Var, h_prev: Var) -> Var {
        let out = self.compute(|v| gru_cell_forward(v[0], v[1], v[2]), &[gi, gh, h_prev]);
        self.push(out, Op::GruCell(gi, gh, h_prev))
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn lstm_cell_forward(gates: &Tensor, c_prev: &Tensor) -> Tensor {
    assert_eq!(gates.rank(), 2, "lstm_cell gates must be rank 2");
    assert_eq!(c_prev.rank(), 2, "lstm_cell state must be rank 2");
    let (n, g4) = (gates.dims()[0], gates.dims()[1]);
    assert_eq!(
        g4 % 4,
        0,
        "lstm_cell gate width {g4} must be divisible by 4"
    );
    let h = g4 / 4;
    assert_eq!(
        c_prev.dims(),
        &[n, h],
        "lstm_cell state shape mismatch: expected [{n}, {h}]"
    );
    let gd = gates.data();
    let cd = c_prev.data();
    let mut out = ema_tensor::pool::take_uninit(n * 2 * h);
    for r in 0..n {
        for j in 0..h {
            let i = sigmoid(gd[r * g4 + j]);
            let f = sigmoid(gd[r * g4 + h + j]);
            let gt = gd[r * g4 + 2 * h + j].tanh();
            let o = sigmoid(gd[r * g4 + 3 * h + j]);
            let c = f * cd[r * h + j] + i * gt;
            out[r * 2 * h + j] = o * c.tanh();
            out[r * 2 * h + h + j] = c;
        }
    }
    Tensor::from_vec(&[n, 2 * h], out).expect("lstm_cell output")
}

fn gru_cell_forward(gi: &Tensor, gh: &Tensor, h_prev: &Tensor) -> Tensor {
    assert_eq!(gi.rank(), 2, "gru_cell input gates must be rank 2");
    assert_eq!(gh.rank(), 2, "gru_cell hidden gates must be rank 2");
    assert_eq!(h_prev.rank(), 2, "gru_cell state must be rank 2");
    let (n, g3) = (gi.dims()[0], gi.dims()[1]);
    assert_eq!(g3 % 3, 0, "gru_cell gate width {g3} must be divisible by 3");
    let h = g3 / 3;
    assert_eq!(gh.dims(), &[n, g3], "gru_cell gate shape mismatch");
    assert_eq!(
        h_prev.dims(),
        &[n, h],
        "gru_cell state shape mismatch: expected [{n}, {h}]"
    );
    let gid = gi.data();
    let ghd = gh.data();
    let hd = h_prev.data();
    let mut out = ema_tensor::pool::take_uninit(n * h);
    for row in 0..n {
        for j in 0..h {
            let r = sigmoid(gid[row * g3 + j] + ghd[row * g3 + j]);
            let z = sigmoid(gid[row * g3 + h + j] + ghd[row * g3 + h + j]);
            let nn = (gid[row * g3 + 2 * h + j] + r * ghd[row * g3 + 2 * h + j]).tanh();
            let hv = hd[row * h + j];
            out[row * h + j] = (nn - z * nn) + z * hv;
        }
    }
    Tensor::from_vec(&[n, h], out).expect("gru_cell output")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropout_identity_when_not_training() {
        let tape = Tape::new();
        let mut rng = Rng64::seed_from(0);
        let a = tape.leaf(Tensor::ones(&[4, 4]));
        let d = tape.dropout(a, 0.5, false, &mut rng);
        assert_eq!(d, a);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let tape = Tape::new();
        let mut rng = Rng64::seed_from(1);
        let a = tape.leaf(Tensor::ones(&[100, 100]));
        let d = tape.dropout(a, 0.3, true, &mut rng);
        let m = tape.value(d).mean();
        assert!((m - 1.0).abs() < 0.05, "dropout mean {m} drifted from 1");
    }

    #[test]
    fn dropout_zeroes_fraction() {
        let tape = Tape::new();
        let mut rng = Rng64::seed_from(2);
        let a = tape.leaf(Tensor::ones(&[100, 100]));
        let d = tape.dropout(a, 0.3, true, &mut rng);
        let zeros = tape.value(d).data().iter().filter(|&&v| v == 0.0).count();
        let rate = zeros as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "zero rate {rate}");
    }

    #[test]
    fn dropout_grad_matches_mask() {
        let tape = Tape::new();
        let mut rng = Rng64::seed_from(3);
        let a = tape.leaf(Tensor::ones(&[10, 10]));
        let d = tape.dropout(a, 0.5, true, &mut rng);
        let loss = tape.sum_all(d);
        let grads = tape.backward(loss);
        let g = grads.get(a).unwrap();
        // grad equals the mask itself (0 or 2).
        assert!(g
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn attention_rows_are_convex_weights() {
        let tape = Tape::new();
        let mut rng = Rng64::seed_from(4);
        let q = tape.leaf(Tensor::rand_normal(&[3, 8], 0.0, 1.0, &mut rng));
        let k = tape.leaf(Tensor::rand_normal(&[5, 8], 0.0, 1.0, &mut rng));
        let s = tape.attention_scores(q, k);
        let sv = tape.value(s);
        assert_eq!(sv.dims(), &[3, 5]);
        for r in 0..3 {
            assert!((sv.row(r).sum() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn attention_output_shape() {
        let tape = Tape::new();
        let mut rng = Rng64::seed_from(5);
        let q = tape.leaf(Tensor::rand_normal(&[3, 8], 0.0, 1.0, &mut rng));
        let k = tape.leaf(Tensor::rand_normal(&[5, 8], 0.0, 1.0, &mut rng));
        let v = tape.leaf(Tensor::rand_normal(&[5, 6], 0.0, 1.0, &mut rng));
        let out = tape.attention(q, k, v);
        assert_eq!(tape.dims(out), vec![3, 6]);
    }

    #[test]
    fn gated_tanh_bounded() {
        let tape = Tape::new();
        let mut rng = Rng64::seed_from(6);
        let a = tape.leaf(Tensor::rand_normal(&[4, 4], 0.0, 3.0, &mut rng));
        let b = tape.leaf(Tensor::rand_normal(&[4, 4], 0.0, 3.0, &mut rng));
        let g = tape.gated_tanh(a, b);
        assert!(tape.value(g).data().iter().all(|&v| v.abs() <= 1.0));
    }
}
