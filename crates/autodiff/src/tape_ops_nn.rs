//! Neural-network-specific tape operations (dropout, gated tanh, the
//! fused LSTM cell).

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
    fn gated_tanh_bounded() {
        let tape = Tape::new();
        let mut rng = Rng64::seed_from(6);
        let a = tape.leaf(Tensor::rand_normal(&[4, 4], 0.0, 3.0, &mut rng));
        let b = tape.leaf(Tensor::rand_normal(&[4, 4], 0.0, 3.0, &mut rng));
        let g = tape.gated_tanh(a, b);
        assert!(tape.value(g).data().iter().all(|&v| v.abs() <= 1.0));
    }
}
