//! Gradient container returned by the backward pass.

use crate::Var;
use ema_tensor::Tensor;

/// How one deferred per-window gradient piece is computed from a
/// window-stacked node's gradient `g` and operand value `x` (both
/// sliced to window `w`'s contiguous row block at replay time).
///
/// Each kind is the exact kernel call the per-window graph's backward
/// pass makes for one use of the shared operand, so replaying pieces in
/// the per-window order reproduces its accumulation bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PendingKind {
    /// `piece_w = x_wᵀ · g_w` — `Op::Matmul`'s rhs gradient.
    XtG,
    /// `piece_w = g_wᵀ · x_w` — `Op::MatmulNT`'s / `Op::Addmm`'s
    /// weight gradient.
    GtX,
    /// `piece_w = g_w · x_wᵀ` — `Op::Matmul`'s lhs gradient.
    GntX,
    /// `piece_w = col_sums(g_w)` — a bias/row gradient.
    ColSums,
}

/// One window-stacked node's deferred gradient contribution to an
/// operand shared by its windows, recorded while the backward pass
/// walks the stacked graph and replayed per window when the pass
/// reaches the operand itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingUse {
    pub kind: PendingKind,
    /// Tape index of the stacked node whose gradient supplies the
    /// per-window `g` blocks (always greater than the operand's index,
    /// so its slot is still alive at finalize time).
    pub g_node: usize,
    /// Tape index of the node whose *value* supplies the per-window
    /// `x` blocks (ignored by [`PendingKind::ColSums`]).
    pub x_node: usize,
    /// Number of window blocks.
    pub wins: usize,
    /// Grouped replay: fold this window's pieces into a temporary
    /// before adding it to the slot (replicating a per-window
    /// intermediate node in the reference graph) instead of adding
    /// each piece directly.
    pub grouped: bool,
    /// Rows per window block of the `g_node` gradient. Window `w`'s
    /// block is `g[(g_off + w·g_rows) .. (g_off + (w+1)·g_rows), :]`:
    /// a grouped op's operand (one individual's parameter inside a
    /// cohort stack) has `g_off` pointing at its group's first row; a
    /// block-lhs op's shared lhs uses offset 0.
    pub g_rows: usize,
    /// Starting row of window 0's `g` block.
    pub g_off: usize,
    /// Rows per window block of the `x_node` value (ignored by
    /// [`PendingKind::ColSums`]).
    pub x_rows: usize,
    /// Starting row of window 0's `x` block.
    pub x_off: usize,
}

impl PendingUse {
    /// A grouped op's use of one group's operand: `wins` windows of
    /// `rows` rows each in both `g` and `x`, starting at stacked row
    /// `off`, replayed ungrouped.
    pub fn group(
        kind: PendingKind,
        g_node: usize,
        x_node: usize,
        wins: usize,
        off: usize,
        rows: usize,
    ) -> Self {
        Self {
            kind,
            g_node,
            x_node,
            wins,
            grouped: false,
            g_rows: rows,
            g_off: off,
            x_rows: rows,
            x_off: off,
        }
    }
}

/// Gradients for every node of a tape, indexed by [`Var`].
///
/// Nodes that did not participate in the loss have no gradient (`None`).
#[derive(Debug)]
pub struct Grads {
    grads: Vec<Option<Tensor>>,
    /// Per-node deferred uses from stacked ops, in arrival (= node
    /// descending) order. Reused across backward passes; every entry
    /// is drained by the pass that filled it.
    pending: Vec<Vec<PendingUse>>,
}

impl Grads {
    /// An empty gradient workspace for [`crate::Tape::backward_into`].
    ///
    /// Create one per training run, reuse it across epochs: the slot
    /// vector (and, via the tensor pool, the gradient buffers) are
    /// recycled instead of reallocated every backward pass.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            grads: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Gradient slots and the pending-use workspace, borrowed together
    /// for the backward pass.
    pub(crate) fn slots_and_pending_mut(
        &mut self,
    ) -> (&mut Vec<Option<Tensor>>, &mut Vec<Vec<PendingUse>>) {
        (&mut self.grads, &mut self.pending)
    }

    /// The gradient of the loss with respect to `v`, if `v` influenced
    /// the loss.
    #[must_use]
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.index()).and_then(|g| g.as_ref())
    }

    /// The gradient of `v`, or a zero tensor of the given shape when `v`
    /// did not influence the loss. Keeps optimizer code branch-free.
    #[must_use]
    pub fn get_or_zeros(&self, v: Var, dims: &[usize]) -> Tensor {
        match self.get(v) {
            Some(g) => g.clone(),
            None => Tensor::zeros(dims),
        }
    }

    /// Number of slots (== tape length at backward time).
    #[must_use]
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// True when the tape was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Global L2 norm across a set of variables' gradients — used for
    /// gradient clipping diagnostics.
    #[must_use]
    pub fn global_norm(&self, vars: &[Var]) -> f64 {
        let mut acc = 0.0;
        for &v in vars {
            if let Some(g) = self.get(v) {
                acc += g.data().iter().map(|&x| x * x).sum::<f64>();
            }
        }
        acc.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    #[test]
    fn get_or_zeros_for_unused_var() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2]));
        let b = tape.leaf(Tensor::ones(&[3]));
        let loss = tape.sum_all(a);
        let grads = tape.backward(loss);
        assert_eq!(grads.get_or_zeros(b, &[3]).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(grads.get_or_zeros(a, &[2]).data(), &[1.0, 1.0]);
    }

    #[test]
    fn global_norm_matches_manual() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec1(vec![3.0]));
        let b = tape.leaf(Tensor::from_vec1(vec![4.0]));
        let s = tape.add(a, b);
        let p = tape.mul(s, s); // d/da = 2s = 14 for both
        let loss = tape.sum_all(p);
        let grads = tape.backward(loss);
        let norm = grads.global_norm(&[a, b]);
        let expected = (14.0f64 * 14.0 * 2.0).sqrt();
        assert!((norm - expected).abs() < 1e-9);
    }
}
