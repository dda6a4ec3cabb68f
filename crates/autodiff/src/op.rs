//! The operation descriptor recorded on the tape for each node.

use crate::Var;
use ema_tensor::Tensor;
use std::ops::Range;

/// Describes how a tape node was produced from its parents.
///
/// The forward value is stored on the node itself; `Op` carries exactly
/// the information needed to route gradients backwards. Ops that need
/// forward-time randomness (dropout) store the sampled mask inline so the
/// backward pass is deterministic.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// An input with no parents (constant, input data or parameter).
    Leaf,
    /// Elementwise sum of two same-shaped nodes.
    Add(Var, Var),
    /// Elementwise difference.
    Sub(Var, Var),
    /// Elementwise (Hadamard) product.
    Mul(Var, Var),
    /// Elementwise quotient.
    Div(Var, Var),
    /// Multiplies by a constant scalar.
    Scale(Var, f64),
    /// Matrix product `[m,k] x [k,n]`.
    Matmul(Var, Var),
    /// Transpose-aware product `a·bᵀ`: `[m,k] x [n,k]ᵀ`.
    MatmulNT(Var, Var),
    /// Fused linear layer `x·wᵀ + bias` for `x: [n,k]`, `w: [out,k]`,
    /// `bias: [out]`. Fields: x, w, bias.
    Addmm(Var, Var, Var),
    /// Fused LSTM cell step. Fields: pre-activation gates `[n, 4H]`
    /// (i|f|g|o order) and previous cell state `[n, H]`; the node value
    /// is `[n, 2H]` holding `[h' | c']`.
    LstmCell(Var, Var),
    /// Matrix transpose.
    Transpose(Var),
    /// Elementwise `tanh`.
    Tanh(Var),
    /// Elementwise logistic sigmoid.
    Sigmoid(Var),
    /// Elementwise `max(0, x)`.
    Relu(Var),
    /// Elementwise square.
    Square(Var),
    /// Softmax over the last axis (rank 1 or 2).
    SoftmaxLast(Var),
    /// Sum of all elements, producing a `[1]` tensor.
    SumAll(Var),
    /// Mean of all elements, producing a `[1]` tensor.
    MeanAll(Var),
    /// `[r,c]` matrix plus a `[c]` row vector broadcast over rows.
    AddRowBroadcast(Var, Var),
    /// Horizontal concatenation of two matrices.
    HCat(Var, Var),
    /// Row range `[start, end)` of a matrix. Fields: input, start, end.
    SliceRows(Var, usize, usize),
    /// Column range `[start, end)` of a matrix.
    SliceCols(Var, usize, usize),
    /// Same data viewed under a different shape.
    Reshape(Var),
    /// Inverted dropout; the stored mask holds `0` or `1/(1-p)` factors.
    Dropout(Var, Tensor),
    /// Stacks rank-1 parents into the rows of a matrix.
    StackRows(Vec<Var>),
    /// Blockwise product of two window stacks: block `w` of
    /// `x: [W·m, k]` times block `w` of `y: [W·k, n]` -> `[W·m, n]`.
    /// Fields: x, y, window count.
    BlockMatmul(Var, Var, usize),
    /// Blockwise `x_w · y_wᵀ`: block `w` of `x: [W·m, k]` times the
    /// transpose of block `w` of `y: [W·n, k]` -> `[W·m, n]`. Fields:
    /// x, y, window count.
    BlockMatmulNT(Var, Var, usize),
    /// Stacks `T` window-blocked states (each `[W·n, h]`) into
    /// `[W·T, n·h]`: output block `w`, row `t` is the flattening of
    /// state `t`'s block `w`. Fields: states, window count.
    StackWindowBlocks(Vec<Var>, usize),
    /// Per-group fused linear layer over a cohort row stack: group `b`
    /// of `x: [Σ wins·rows, k]` (its `wins[b]·rows` contiguous rows)
    /// times its own `w_b: [out, k]ᵀ` plus `bias_b: [out]`, giving
    /// `[Σ wins·rows, out]`. Forward is one `addmm` per group on the
    /// row block; backward keeps the stacked `dx` dense and defers each
    /// group's (w, bias) gradients as per-window pieces of `rows` rows
    /// replayed in the per-individual graph's accumulation order.
    /// Fields: x, groups (operands: `w_b, bias_b` interleaved), rows per
    /// window block.
    GroupLinear(Var, Groups, usize),
    /// Per-group matrix product of a cohort row stack against each
    /// group's own rhs: group `b` of `x: [Σ wins·rows, k]` times its
    /// `rhs_b: [k, n]`, giving `[Σ wins·rows, n]`. Backward keeps the
    /// stacked `dx` dense and defers each group's rhs gradient as
    /// per-window pieces. Fields: x, groups (operands: one rhs per
    /// group), rows per window block, grouped-replay flag (see `Grads`'
    /// pending machinery).
    GroupMatmul(Var, Groups, usize, bool),
    /// Per-group `x · rhsᵀ` against each group's own rhs: group `b` of
    /// `x: [Σ wins·rows, k]` times `rhs_b: [n, k]ᵀ`, giving
    /// `[Σ wins·rows, n]`. Fields: x, groups (one rhs per group), rows
    /// per window block.
    GroupMatmulNT(Var, Groups, usize),
    /// Each group's own `[c]` row added to every row of that group's
    /// block of a `[Σ wins·rows, c]` cohort stack. Fields: m, groups
    /// (one row per group), rows per window block.
    GroupAddRow(Var, Groups, usize),
    /// Per-group block-lhs product: group `b`'s own `lhs_b: [p, q]`
    /// times each `[q, n]` window block of its slice of
    /// `x: [Σ wins·q, n]`, giving `[Σ wins·p, n]`. Forward and the
    /// stacked `dx` run one kernel call per contiguous window block (the
    /// per-window `Matmul`'s own calls); each group's lhs gradient is
    /// deferred as per-window pieces. Fields: x, groups (one lhs per
    /// group).
    GroupBlockLhsMatmul(Var, Groups),
}

/// Where a grouped op's per-group operands live: index ranges into the
/// tape's operand arena (the group operand vars, group-major) and its
/// window-count arena (one count per group). The tape owns both lists,
/// so recording a grouped node allocates nothing once the arenas are
/// warm.
#[derive(Debug, Clone)]
pub(crate) struct Groups {
    pub operands: Range<usize>,
    pub wins: Range<usize>,
}

impl Op {
    /// The arena ranges of a grouped op, `None` for every other op.
    pub(crate) fn groups(&self) -> Option<&Groups> {
        match self {
            Op::GroupLinear(_, g, _)
            | Op::GroupMatmul(_, g, _, _)
            | Op::GroupMatmulNT(_, g, _)
            | Op::GroupAddRow(_, g, _)
            | Op::GroupBlockLhsMatmul(_, g) => Some(g),
            _ => None,
        }
    }
}
