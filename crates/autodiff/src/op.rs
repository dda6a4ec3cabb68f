//! The operation descriptor recorded on the tape for each node.

use crate::Var;
use ema_tensor::Tensor;

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
    /// Stacks parents' rows into one matrix: a rank-1 `[c]` parent is
    /// one row, a `[r, c]` parent its `r` rows, in parent order.
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
    /// Window-group fused linear layer: every window block of
    /// `x: [W·r, k]` times one `w: [out, k]ᵀ` plus `bias: [out]`, giving
    /// `[W·r, out]`. Forward is one `addmm` over the stack; backward
    /// keeps `dx` dense and defers the (w, bias) gradients as
    /// per-window pieces of `r` rows, replayed in the per-window
    /// graph's accumulation order. Fields: x, w, bias, window count.
    GroupLinear(Var, Var, Var, usize),
    /// Window-group matrix product: every window block of
    /// `x: [W·r, k]` times one `rhs: [k, n]`, giving `[W·r, n]`.
    /// Backward keeps `dx` dense and defers the rhs gradient as
    /// per-window pieces. Fields: x, rhs, window count, grouped-replay
    /// flag (see `Grads`' pending machinery).
    GroupMatmul(Var, Var, usize, bool),
    /// Window-group `x · rhsᵀ`: every window block of `x: [W·r, k]`
    /// times one `rhs: [n, k]ᵀ`, giving `[W·r, n]`. Fields: x, rhs,
    /// window count.
    GroupMatmulNT(Var, Var, usize),
    /// One `[c]` row added to every row of `m: [W·r, c]`, its gradient
    /// replayed per window. Fields: m, row, window count.
    GroupAddRow(Var, Var, usize),
    /// Window-group block-lhs product: one `lhs: [p, q]` times each
    /// `[q, n]` window block of `x: [W·q, n]`, giving `[W·p, n]`.
    /// Forward and `dx` run one kernel call per window block (the
    /// per-window `Matmul`'s own calls); the lhs gradient is deferred as
    /// per-window pieces. Fields: lhs, x, window count.
    GroupBlockLhsMatmul(Var, Var, usize),
}

impl Op {
    /// True for the window-group ops, whose operand gradients are
    /// deferred as per-window pieces (and whose own gradient therefore
    /// stays alive until the backward walk ends).
    pub(crate) fn is_group(&self) -> bool {
        matches!(
            self,
            Op::GroupLinear(..)
                | Op::GroupMatmul(..)
                | Op::GroupMatmulNT(..)
                | Op::GroupAddRow(..)
                | Op::GroupBlockLhsMatmul(..)
        )
    }
}
