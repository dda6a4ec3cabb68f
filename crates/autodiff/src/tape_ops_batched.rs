//! Window-block tape operations: ops over a stack of `W` window
//! blocks (`[W·r, c]`, window `w` at row block `w`) recording one node
//! for all windows.
//!
//! The cohort forward (`predict_cohort` in `ema-models`) uses them where
//! an op's structure is shared by every window of every individual —
//! the attention pooling (`stack_window_blocks`, `block_matmul`) and
//! the Chebyshev products (`block_matmul[_nt]`) — and `dropout_masked`
//! for pre-drawn masks. A shared lhs times every window block is the
//! one-group case of `Tape::group_block_lhs_matmul`. Every op here is
//! **bit-identical** to its per-window twin in both directions: the
//! blockwise ops run the per-window kernel per block outright, and
//! gradients along the stacked axis stay dense, so row blocks match
//! per window.

use crate::{Op, Tape, Var};
use ema_tensor::{kernels, pool, Tensor};

impl Tape {
    /// Blockwise product of two window stacks: block `w` of
    /// `x: [W·m, k]` times block `w` of `y: [W·k, n]` -> `[W·m, n]`.
    ///
    /// # Panics
    /// Panics on shape mismatches or when `wins` does not divide the
    /// stacked row counts.
    pub fn block_matmul(&self, x: Var, y: Var, wins: usize) -> Var {
        let out = self.compute(
            |v| {
                let (x, y) = (v[0], v[1]);
                let (m, k) = (block_rows(x, wins, "block_matmul x"), x.dims()[1]);
                let (ky, n) = (block_rows(y, wins, "block_matmul y"), y.dims()[1]);
                assert_eq!(k, ky, "block_matmul inner dimension mismatch");
                let mut out = pool::take_uninit(wins * m * n);
                for w in 0..wins {
                    kernels::matmul_into(
                        &x.data()[w * m * k..(w + 1) * m * k],
                        &y.data()[w * k * n..(w + 1) * k * n],
                        &mut out[w * m * n..(w + 1) * m * n],
                        m,
                        k,
                        n,
                    );
                }
                Tensor::from_vec(&[wins * m, n], out).expect("block_matmul shape")
            },
            &[x, y],
        );
        self.push(out, Op::BlockMatmul(x, y, wins))
    }

    /// Blockwise `x_w · y_wᵀ`: block `w` of `x: [W·m, k]` times the
    /// transpose of block `w` of `y: [W·n, k]` -> `[W·m, n]`.
    ///
    /// # Panics
    /// Panics on shape mismatches or when `wins` does not divide the
    /// stacked row counts.
    pub fn block_matmul_nt(&self, x: Var, y: Var, wins: usize) -> Var {
        let out = self.compute(
            |v| {
                let (x, y) = (v[0], v[1]);
                let (m, k) = (block_rows(x, wins, "block_matmul_nt x"), x.dims()[1]);
                let (n, ky) = (block_rows(y, wins, "block_matmul_nt y"), y.dims()[1]);
                assert_eq!(k, ky, "block_matmul_nt trailing dimension mismatch");
                let mut out = pool::take_uninit(wins * m * n);
                for w in 0..wins {
                    kernels::matmul_nt_into(
                        &x.data()[w * m * k..(w + 1) * m * k],
                        &y.data()[w * n * k..(w + 1) * n * k],
                        &mut out[w * m * n..(w + 1) * m * n],
                        m,
                        k,
                        n,
                    );
                }
                Tensor::from_vec(&[wins * m, n], out).expect("block_matmul_nt shape")
            },
            &[x, y],
        );
        self.push(out, Op::BlockMatmulNT(x, y, wins))
    }

    /// Stacks `T` window-blocked states (each `[W·n, h]`) into
    /// `[W·T, n·h]`: output block `w`, row `t` holds the flattening of
    /// state `t`'s block `w`. The window-stacked twin of flattening
    /// each state and stacking the flattenings per window.
    ///
    /// # Panics
    /// Panics if `states` is empty, shapes differ, or `wins` does not
    /// divide the row counts.
    pub fn stack_window_blocks(&self, states: &[Var], wins: usize) -> Var {
        assert!(!states.is_empty(), "cannot stack zero states");
        let t_count = states.len();
        let out = self.compute(
            |v| {
                let (rows, h) = (v[0].dims()[0], v[0].dims()[1]);
                let n = block_rows(v[0], wins, "stack_window_blocks");
                let block = n * h;
                let mut out = pool::take_uninit(wins * t_count * block);
                for (t, s) in v.iter().enumerate() {
                    assert_eq!(s.dims(), &[rows, h], "state {t} shape mismatch");
                    for w in 0..wins {
                        out[(w * t_count + t) * block..(w * t_count + t + 1) * block]
                            .copy_from_slice(&s.data()[w * block..(w + 1) * block]);
                    }
                }
                Tensor::from_vec(&[wins * t_count, block], out).expect("stack_window_blocks shape")
            },
            states,
        );
        self.push(out, Op::StackWindowBlocks(states.to_vec(), wins))
    }

    /// Applies a pre-drawn inverted-dropout mask (entries `0` or
    /// `1/(1-p)`). The cohort forward draws each individual's masks
    /// up front in window-major order so its RNG consumes draws in
    /// exactly the per-window sequence (see `Tape::dropout`), then
    /// applies each via this op. Backward is identical to
    /// [`Tape::dropout`]'s.
    ///
    /// # Panics
    /// Panics if the mask's shape differs from the input's.
    pub fn dropout_masked(&self, a: Var, mask: Tensor) -> Var {
        let out = self.compute(
            |v| {
                assert_eq!(v[0].dims(), mask.dims(), "dropout mask shape mismatch");
                v[0].mul(&mask)
            },
            &[a],
        );
        self.push(out, Op::Dropout(a, mask))
    }
}

/// Gathers a window stack `[W·r, n]` into the column-concatenated
/// layout `[r, W·n]`: element `(w·r + i, c)` lands at `(i, w·n + c)`.
/// The result is a pooled buffer — recycle it when done. A matmul
/// against this layout computes all `W` per-window products in one
/// call without changing any output element's accumulation sequence.
pub(crate) fn gather_window_cols(x: &[f64], wins: usize, r: usize, n: usize) -> Vec<f64> {
    let mut xhat = pool::take_uninit(r * wins * n);
    for w in 0..wins {
        for i in 0..r {
            xhat[i * wins * n + w * n..i * wins * n + (w + 1) * n]
                .copy_from_slice(&x[(w * r + i) * n..(w * r + i + 1) * n]);
        }
    }
    xhat
}

/// Inverse of [`gather_window_cols`]: scatters `[r, W·n]` back into the
/// window-stacked `[W·r, n]` layout, into a fresh pooled buffer.
pub(crate) fn scatter_window_cols(yhat: &[f64], wins: usize, r: usize, n: usize) -> Vec<f64> {
    let mut out = pool::take_uninit(wins * r * n);
    for w in 0..wins {
        for i in 0..r {
            out[(w * r + i) * n..(w * r + i + 1) * n]
                .copy_from_slice(&yhat[i * wins * n + w * n..i * wins * n + (w + 1) * n]);
        }
    }
    out
}

/// Rows per window block of a stacked operand.
fn block_rows(x: &Tensor, wins: usize, what: &str) -> usize {
    assert!(wins > 0, "{what}: needs at least one window");
    assert_eq!(
        x.dims()[0] % wins,
        0,
        "{what}: stacked rows {} not divisible by window count {wins}",
        x.dims()[0]
    );
    x.dims()[0] / wins
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::Rng64;

    fn rand(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        Tensor::rand_normal(dims, 0.0, 1.0, &mut rng)
    }

    /// A shared lhs times every window block is the one-group case of
    /// `group_block_lhs_matmul`; it matches one `matmul` per window bit
    /// for bit in the loss and the lhs gradient.
    #[test]
    fn block_lhs_matmul_matches_per_window_graph() {
        let wins = 3;
        let (p, q, n) = (4, 4, 2);
        let lhsv = rand(&[p, q], 6);
        let xv = rand(&[wins * q, n], 7);

        let tape = Tape::new();
        let lhs = tape.leaf(lhsv.clone());
        let x = tape.leaf(xv.clone());
        let out = tape.group_block_lhs_matmul([lhs], x, &[wins]);
        let loss = tape.mean_all(tape.square(out));
        let grads = tape.backward(loss);

        let reference = Tape::new();
        let rlhs = reference.leaf(lhsv);
        let mut outs = Vec::new();
        for w in 0..wins {
            let xw = reference.leaf(xv.slice_rows(w * q, (w + 1) * q));
            outs.push(reference.matmul(rlhs, xw));
        }
        // One flattened row per window: the same elements in the same
        // order as the row-stacked `[W·p, n]` output.
        let flat: Vec<Var> = outs.iter().map(|&o| reference.flatten(o)).collect();
        let stacked = reference.stack_rows(&flat);
        let rloss = reference.mean_all(reference.square(stacked));
        let rgrads = reference.backward(rloss);

        assert_eq!(tape.value(out).dims(), &[wins * p, n]);
        assert_eq!(tape.value(loss).data(), reference.value(rloss).data());
        assert_eq!(
            grads.get(lhs).unwrap().data(),
            rgrads.get(rlhs).unwrap().data()
        );
    }

    #[test]
    fn stack_window_blocks_roundtrip() {
        let wins = 2;
        let (n, h) = (3, 2);
        let s0 = rand(&[wins * n, h], 8);
        let s1 = rand(&[wins * n, h], 9);

        let tape = Tape::new();
        let v0 = tape.leaf(s0.clone());
        let v1 = tape.leaf(s1.clone());
        let stacked = tape.stack_window_blocks(&[v0, v1], wins);
        assert_eq!(tape.dims(stacked), vec![wins * 2, n * h]);
        // Block w row t == flattened block w of state t.
        let sv = tape.value(stacked);
        for w in 0..wins {
            assert_eq!(
                &sv.data()[(w * 2) * n * h..(w * 2 + 1) * n * h],
                &s0.data()[w * n * h..(w + 1) * n * h]
            );
            assert_eq!(
                &sv.data()[(w * 2 + 1) * n * h..(w * 2 + 2) * n * h],
                &s1.data()[w * n * h..(w + 1) * n * h]
            );
        }
        // Backward scatters straight back.
        let loss = tape.mean_all(tape.square(stacked));
        let grads = tape.backward(loss);
        assert_eq!(grads.get(v0).unwrap().dims(), &[wins * n, h]);
        assert_eq!(grads.get(v1).unwrap().dims(), &[wins * n, h]);
    }

    #[test]
    fn dropout_masked_matches_dropout_node() {
        let a_val = rand(&[4, 3], 10);
        let mask = {
            let mut rng = Rng64::seed_from(11);
            let mut m = Tensor::zeros(&[4, 3]);
            for v in m.data_mut() {
                if rng.bernoulli(0.8) {
                    *v = 1.0 / 0.8;
                }
            }
            m
        };
        let tape = Tape::new();
        let a = tape.leaf(a_val.clone());
        let d = tape.dropout_masked(a, mask.clone());
        assert_eq!(tape.value(d).data(), a_val.mul(&mask).data());
        let loss = tape.mean_all(tape.square(d));
        let grads = tape.backward(loss);
        assert!(grads.get(a).is_some());
    }
}
