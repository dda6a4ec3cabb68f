//! Temporal convolution over step-indexed feature matrices.
//!
//! The models represent a sequence as a `Vec<Var>` of `[n, channels]`
//! matrices (one per time step). A convolution with kernel `k` maps
//! step `t` to `b + Σ_{j=0..k-1} X_{t − j} · W_jᵀ`, shrinking the
//! sequence by `k − 1` steps (a "valid" causal convolution over
//! consecutive steps, as in MTGNN/TCN).

use crate::{Binding, Initializer, ParamId, ParamStore};
use ema_autodiff::{Tape, Var};
use ema_tensor::Rng64;

/// A causal 1-D convolution along the time axis.
#[derive(Debug, Clone)]
pub struct DilatedTemporalConv {
    taps: Vec<ParamId>, // k matrices of shape [out_c, in_c]
    bias: ParamId,      // [out_c]
    kernel: usize,
    in_channels: usize,
    out_channels: usize,
}

impl DilatedTemporalConv {
    /// Registers a convolution with `kernel` taps.
    ///
    /// # Panics
    /// Panics if `kernel == 0`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut Rng64,
    ) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        let init = Initializer::XavierUniform;
        let taps = (0..kernel)
            .map(|j| {
                store.register(
                    format!("{name}.tap{j}"),
                    init.init(&[out_channels, in_channels], rng),
                )
            })
            .collect();
        let bias = store.register(
            format!("{name}.bias"),
            Initializer::Zeros.init(&[out_channels], rng),
        );
        Self {
            taps,
            bias,
            kernel,
            in_channels,
            out_channels,
        }
    }

    /// Number of steps consumed by the receptive field minus one:
    /// the output is shorter than the input by this amount.
    #[must_use]
    pub fn shrinkage(&self) -> usize {
        self.kernel - 1
    }

    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channel count.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Applies the convolution to a sequence of `[n, in_c]` matrices,
    /// producing `seq.len() − shrinkage()` matrices of `[n, out_c]`.
    ///
    /// # Panics
    /// Panics if the sequence is shorter than the receptive field.
    pub fn forward(&self, tape: &Tape, binding: &Binding, seq: &[Var]) -> Vec<Var> {
        let span = self.shrinkage();
        assert!(
            seq.len() > span,
            "sequence of {} steps is shorter than receptive field {}",
            seq.len(),
            span + 1
        );
        let bias = binding.var(self.bias);
        let mut out = Vec::with_capacity(seq.len() - span);
        for t in span..seq.len() {
            // Tap 0 applies to the newest step; older steps use later
            // taps. X·Wᵀ runs on the transpose-aware kernel so the tap
            // matrix is never materialized transposed.
            let mut acc: Option<Var> = None;
            for (j, &tap) in self.taps.iter().enumerate() {
                let x = seq[t - j];
                let term = tape.matmul_nt(x, binding.var(tap));
                acc = Some(match acc {
                    Some(a) => tape.add(a, term),
                    None => term,
                });
            }
            let summed = acc.expect("kernel > 0");
            out.push(tape.add_row_broadcast(summed, bias));
        }
        out
    }

    /// Grouped [`DilatedTemporalConv::forward`] over a cohort stack:
    /// `members` yields one `(conv, binding)` per group, each step is a
    /// `[Σ W_b·rows, in_c]` individual-major stack of `rows`-row window
    /// blocks, and group `b`'s rows convolve with its *own* taps/bias —
    /// bit-identical per window block to the per-window forward. All
    /// modules must share kernel and widths.
    ///
    /// # Panics
    /// Panics if lengths/shapes mismatch or the sequence is shorter
    /// than the receptive field.
    pub fn forward_grouped<'a>(
        members: impl Iterator<Item = (&'a Self, &'a Binding)> + Clone,
        tape: &Tape,
        seq: &[Var],
        group_wins: &[usize],
        block_rows: usize,
    ) -> Vec<Var> {
        let mut convs = members.clone().map(|(c, _)| c);
        let first = convs.next().expect("at least one conv module");
        let geometry = |c: &Self| (c.kernel, c.in_channels, c.out_channels);
        assert!(
            convs.all(|c| geometry(c) == geometry(first)),
            "grouped conv modules must share kernel/widths"
        );
        let span = first.shrinkage();
        assert!(
            seq.len() > span,
            "sequence of {} steps is shorter than receptive field {}",
            seq.len(),
            span + 1
        );
        let mut out = Vec::with_capacity(seq.len() - span);
        for t in span..seq.len() {
            let mut acc: Option<Var> = None;
            for j in 0..first.kernel {
                let x = seq[t - j];
                let taps = members.clone().map(|(c, bind)| bind.var(c.taps[j]));
                let term = tape.group_matmul_nt(x, taps, group_wins, block_rows);
                acc = Some(match acc {
                    Some(a) => tape.add(a, term),
                    None => term,
                });
            }
            let summed = acc.expect("kernel > 0");
            let biases = members.clone().map(|(c, bind)| bind.var(c.bias));
            out.push(tape.group_add_row_broadcast(summed, biases, group_wins, block_rows));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::Tensor;

    fn seq_of(tape: &Tape, values: &[f64]) -> Vec<Var> {
        values
            .iter()
            .map(|&v| tape.leaf(Tensor::filled(&[1, 1], v)))
            .collect()
    }

    #[test]
    fn output_length_shrinks_by_receptive_field() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(0);
        let conv = DilatedTemporalConv::new(&mut store, "c", 3, 5, 5, &mut rng);
        assert_eq!(conv.shrinkage(), 4);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let seq: Vec<Var> = (0..10)
            .map(|_| tape.leaf(Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut rng)))
            .collect();
        let out = conv.forward(&tape, &binding, &seq);
        assert_eq!(out.len(), 6);
        assert_eq!(tape.dims(out[0]), vec![2, 5]);
    }

    #[test]
    fn identity_kernel_computes_moving_sum() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(1);
        let conv = DilatedTemporalConv::new(&mut store, "c", 1, 1, 2, &mut rng);
        // Force taps to 1 and bias to 0 so out_t = x_t + x_{t-1}.
        for id in store.ids() {
            let dims = store.value(id).dims().to_vec();
            store.load(id, Tensor::ones(&dims));
        }
        store.load(conv.bias, Tensor::zeros(&[1]));
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let seq = seq_of(&tape, &[1.0, 2.0, 3.0, 4.0]);
        let out = conv.forward(&tape, &binding, &seq);
        let vals: Vec<f64> = out.iter().map(|&v| tape.value(v).data()[0]).collect();
        assert_eq!(vals, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "shorter than receptive field")]
    fn rejects_too_short_sequences() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(3);
        let conv = DilatedTemporalConv::new(&mut store, "c", 1, 1, 3, &mut rng);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let seq = seq_of(&tape, &[1.0, 2.0]);
        let _ = conv.forward(&tape, &binding, &seq);
    }

    #[test]
    fn gradients_reach_every_tap() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(4);
        let conv = DilatedTemporalConv::new(&mut store, "c", 2, 3, 3, &mut rng);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let seq: Vec<Var> = (0..5)
            .map(|_| tape.leaf(Tensor::rand_normal(&[2, 2], 0.0, 1.0, &mut rng)))
            .collect();
        let out = conv.forward(&tape, &binding, &seq);
        let mut acc = out[0];
        for &o in &out[1..] {
            acc = tape.add(acc, o);
        }
        let sq = tape.square(acc);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        for (_, var) in binding.iter() {
            assert!(grads.get(var).is_some());
        }
    }
}
