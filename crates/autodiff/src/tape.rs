//! The tape: node storage, basic elementwise ops and the backward pass.

use crate::grads::{PendingKind, PendingUse};
use crate::op::Groups;
use crate::{tape_ops_batched, Grads, Op};
use ema_tensor::{kernels, pool, Tensor};
use std::cell::RefCell;

/// A handle to a node on a [`Tape`].
///
/// `Var` is a plain index — `Copy`, comparable and hashable — and is only
/// meaningful for the tape that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The raw node index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

pub(crate) struct Node {
    pub value: Tensor,
    pub op: Op,
}

/// A reverse-mode autodiff tape.
///
/// Operations are methods taking `&self`; interior mutability keeps call
/// sites clean. A tape grows monotonically within one step; training
/// loops call [`Tape::reset`] between steps to reuse the node storage
/// (and, through the tensor pool, the value buffers) epoch after epoch.
///
/// Grouped ops (`tape_ops_group`) record their per-group operand vars
/// and window counts in two side arenas owned by the tape; their nodes
/// name index ranges into them. The arenas grow and truncate with the
/// node list, so a steady-state epoch records grouped nodes without
/// allocating.
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
    operands: RefCell<Vec<Var>>,
    group_wins: RefCell<Vec<usize>>,
}

/// The values of one grouped op's per-group operands, in arena order.
pub(crate) struct GroupValues<'a> {
    nodes: &'a [Node],
    vars: &'a [Var],
}

impl<'a> GroupValues<'a> {
    /// The value of the `i`-th operand.
    pub fn get(&self, i: usize) -> &'a Tensor {
        &self.nodes[self.vars[i].0].value
    }

    /// Number of operands.
    pub fn len(&self) -> usize {
        self.vars.len()
    }
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: RefCell::new(Vec::with_capacity(1024)),
            operands: RefCell::new(Vec::new()),
            group_wins: RefCell::new(Vec::new()),
        }
    }

    /// Clears all recorded nodes while keeping the node storage's
    /// capacity (and the grouped-op arenas'). Dropped node values
    /// return their buffers to the tensor pool, so the next step's
    /// forward pass re-uses them — the epoch-persistent-workspace half
    /// of the allocation-free hot path.
    ///
    /// All `Var` handles from before the reset become invalid; rebind
    /// parameters afterwards.
    pub fn reset(&mut self) {
        self.reset_to(0);
    }

    /// [`Tape::reset`] keeping the first `keep` nodes alive — a
    /// persistent prefix for graph parts that are constant across
    /// epochs (e.g. the training target leaf). `Var` handles into the
    /// prefix stay valid; everything after it is dropped (buffers
    /// return to the tensor pool) and must be rebuilt. The grouped-op
    /// arenas are truncated to what the kept nodes reference.
    ///
    /// # Panics
    /// Panics if fewer than `keep` nodes are recorded.
    pub fn reset_to(&mut self, keep: usize) {
        let nodes = self.nodes.get_mut();
        assert!(
            nodes.len() >= keep,
            "reset_to({keep}) on a tape of {} nodes",
            nodes.len()
        );
        nodes.truncate(keep);
        // Arena ranges grow with the node index, so the last kept
        // grouped node marks the end of the kept arena prefix.
        let (operands, wins) = nodes
            .iter()
            .rev()
            .find_map(|n| n.op.groups())
            .map_or((0, 0), |g| (g.operands.end, g.wins.end));
        self.operands.get_mut().truncate(operands);
        self.group_wins.get_mut().truncate(wins);
    }

    /// Number of nodes recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when no nodes have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Inserts a constant/input/parameter node.
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// The forward value of `v` (cloned).
    ///
    /// # Panics
    /// Panics if `v` does not belong to this tape.
    #[must_use]
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// The shape dims of `v` without cloning the buffer.
    #[must_use]
    pub fn dims(&self, v: Var) -> Vec<usize> {
        self.nodes.borrow()[v.0].value.dims().to_vec()
    }

    pub(crate) fn push(&self, value: Tensor, op: Op) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var(nodes.len() - 1)
    }

    /// Applies `f` to the values of `vars` and records the result.
    ///
    /// Every tape op routes through here, so the common small arities
    /// borrow the values through a stack array instead of heap-allocating
    /// a `Vec` of references per recorded node.
    pub(crate) fn compute<R>(&self, f: impl FnOnce(&[&Tensor]) -> R, vars: &[Var]) -> R {
        let nodes = self.nodes.borrow();
        match *vars {
            [] => f(&[]),
            [a] => f(&[&nodes[a.0].value]),
            [a, b] => f(&[&nodes[a.0].value, &nodes[b.0].value]),
            [a, b, c] => f(&[&nodes[a.0].value, &nodes[b.0].value, &nodes[c.0].value]),
            _ => {
                let refs: Vec<&Tensor> = vars.iter().map(|v| &nodes[v.0].value).collect();
                f(&refs)
            }
        }
    }

    /// Records a grouped op's per-group operand vars and window counts
    /// in the tape's arenas and applies `f` to `x`'s value and the
    /// operands' values. A window-count list that matches the arena's
    /// tail — as it does for every grouped op of one forward after the
    /// first, since they share their cohort's counts — is referenced
    /// instead of copied.
    pub(crate) fn compute_group<R>(
        &self,
        x: Var,
        operands: impl IntoIterator<Item = Var>,
        group_wins: &[usize],
        f: impl FnOnce(&Tensor, &GroupValues) -> R,
    ) -> (Groups, R) {
        let groups = {
            let mut vars = self.operands.borrow_mut();
            let start = vars.len();
            vars.extend(operands);
            let mut wins = self.group_wins.borrow_mut();
            if !wins.ends_with(group_wins) {
                wins.extend_from_slice(group_wins);
            }
            Groups {
                operands: start..vars.len(),
                wins: wins.len() - group_wins.len()..wins.len(),
            }
        };
        let nodes = self.nodes.borrow();
        let vars = self.operands.borrow();
        let values = GroupValues {
            nodes: &nodes,
            vars: &vars[groups.operands.clone()],
        };
        let out = f(&nodes[x.0].value, &values);
        (groups, out)
    }

    // ------------------------------------------------------------------
    // Elementwise ops
    // ------------------------------------------------------------------

    /// Elementwise sum.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let out = self.compute(|v| v[0].add(v[1]), &[a, b]);
        self.push(out, Op::Add(a, b))
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let out = self.compute(|v| v[0].sub(v[1]), &[a, b]);
        self.push(out, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let out = self.compute(|v| v[0].mul(v[1]), &[a, b]);
        self.push(out, Op::Mul(a, b))
    }

    /// Elementwise quotient `a / b`.
    pub fn div(&self, a: Var, b: Var) -> Var {
        let out = self.compute(|v| v[0].div(v[1]), &[a, b]);
        self.push(out, Op::Div(a, b))
    }

    /// Multiplies by a constant scalar.
    pub fn scale(&self, a: Var, s: f64) -> Var {
        let out = self.compute(|v| v[0].scale(s), &[a]);
        self.push(out, Op::Scale(a, s))
    }

    /// Elementwise `tanh`.
    pub fn tanh(&self, a: Var) -> Var {
        let out = self.compute(|v| v[0].tanh(), &[a]);
        self.push(out, Op::Tanh(a))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let out = self.compute(|v| v[0].sigmoid(), &[a]);
        self.push(out, Op::Sigmoid(a))
    }

    /// Elementwise ReLU.
    pub fn relu(&self, a: Var) -> Var {
        let out = self.compute(|v| v[0].relu(), &[a]);
        self.push(out, Op::Relu(a))
    }

    /// Elementwise square.
    pub fn square(&self, a: Var) -> Var {
        let out = self.compute(|v| v[0].square(), &[a]);
        self.push(out, Op::Square(a))
    }

    /// Softmax along the last axis.
    pub fn softmax_last(&self, a: Var) -> Var {
        let out = self.compute(|v| v[0].softmax_last(), &[a]);
        self.push(out, Op::SoftmaxLast(a))
    }

    /// Sum of all elements, as a `[1]` tensor.
    pub fn sum_all(&self, a: Var) -> Var {
        let out = self.compute(|v| Tensor::from_vec1(vec![v[0].sum()]), &[a]);
        self.push(out, Op::SumAll(a))
    }

    /// Mean of all elements, as a `[1]` tensor.
    pub fn mean_all(&self, a: Var) -> Var {
        let out = self.compute(|v| Tensor::from_vec1(vec![v[0].mean()]), &[a]);
        self.push(out, Op::MeanAll(a))
    }

    /// Mean-squared-error loss between a prediction and a target,
    /// composed from `sub → square → mean_all`.
    pub fn mse(&self, pred: Var, target: Var) -> Var {
        let diff = self.sub(pred, target);
        let sq = self.square(diff);
        self.mean_all(sq)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from `loss` (which must hold a
    /// single element) and returns gradients for every node.
    ///
    /// # Panics
    /// Panics if `loss` is not scalar-shaped.
    #[must_use]
    pub fn backward(&self, loss: Var) -> Grads {
        let mut grads = Grads::empty();
        self.backward_into(loss, &mut grads);
        grads
    }

    /// [`Tape::backward`] writing into a caller-owned [`Grads`]
    /// workspace. Reusing one workspace across epochs keeps the slot
    /// vector's capacity and recycles last epoch's gradient buffers
    /// through the tensor pool instead of allocating fresh ones.
    ///
    /// # Panics
    /// Panics if `loss` is not scalar-shaped.
    pub fn backward_into(&self, loss: Var, out: &mut Grads) {
        let nodes = self.nodes.borrow();
        let (operands, group_wins) = (self.operands.borrow(), self.group_wins.borrow());
        assert_eq!(
            nodes[loss.0].value.len(),
            1,
            "backward requires a scalar loss, got shape {:?}",
            nodes[loss.0].value.dims()
        );
        let (grads, pending) = out.slots_and_pending_mut();
        grads.clear();
        grads.resize_with(nodes.len(), || None);
        if pending.len() < nodes.len() {
            pending.resize_with(nodes.len(), Vec::new);
        }
        grads[loss.0] = Some(Tensor::from_vec1(vec![1.0]));

        let mut contribs: Vec<(Var, Tensor)> = Vec::new();
        let mut deferred: Vec<(Var, PendingUse)> = Vec::new();
        for i in (0..=loss.0).rev() {
            // The tape is append-only, so every parent index is < i:
            // node i's gradient can be borrowed while the parents'
            // accumulators are written, with no clone of `g` and no
            // reallocation on accumulation.
            let (parents, rest) = grads.split_at_mut(i);
            let (slot_i, later) = rest.split_first_mut().expect("slot exists");
            if !pending[i].is_empty() {
                // Stacked consumers above deposited deferred per-window
                // pieces for this node; replay them into the slot in the
                // per-window graph's accumulation order before this
                // node's own backward step reads it.
                finalize_pending(&nodes, i, &pending[i], slot_i, later);
                pending[i].clear();
            }
            let Some(g) = slot_i.as_ref() else { continue };
            let node = &nodes[i];
            let arenas = (&operands[..], &group_wins[..]);
            backward_one(
                &nodes,
                arenas,
                i,
                &node.op,
                &node.value,
                g,
                &mut contribs,
                &mut deferred,
            );
            for (parent, contrib) in contribs.drain(..) {
                debug_assert!(parent.0 < i, "tape parents must precede children");
                match &mut parents[parent.0] {
                    Some(acc) => acc.add_assign(&contrib),
                    slot @ None => *slot = Some(contrib),
                }
            }
            for (parent, use_) in deferred.drain(..) {
                debug_assert!(parent.0 < i, "tape parents must precede children");
                pending[parent.0].push(use_);
            }
        }
    }
}

/// Replays a shared operand's deferred per-window gradient pieces into
/// its slot, reproducing the per-window reference graph's accumulation
/// exactly: windows in descending order (the order backward visits the
/// per-window subgraphs), and within each window the uses in arrival
/// (= node descending) order. `grouped` uses fold one window's pieces
/// into a temporary first — replicating a per-window intermediate node
/// (e.g. a per-window transpose) that summed its own uses locally
/// before contributing once per window.
fn finalize_pending(
    nodes: &[Node],
    i: usize,
    uses: &[PendingUse],
    slot: &mut Option<Tensor>,
    later: &[Option<Tensor>],
) {
    debug_assert!(
        slot.is_none(),
        "deferred operands must have no dense contributions (node {i})"
    );
    let wins = uses[0].wins;
    let grouped = uses[0].grouped;
    debug_assert!(
        uses.iter().all(|u| u.wins == wins && u.grouped == grouped),
        "all deferred uses of one operand must agree on wins/grouping"
    );
    let piece_dims = nodes[i].value.dims().to_vec();
    let piece_len = nodes[i].value.len();
    let grad_of = |n: usize| -> &Tensor {
        debug_assert!(n > i, "piece gradients must come from later nodes");
        later[n - i - 1]
            .as_ref()
            .expect("stacked node gradient alive at finalize time")
    };
    let mut scratch = pool::take_uninit(piece_len);
    let mut group_tmp = if grouped {
        Some(pool::take_uninit(piece_len))
    } else {
        None
    };
    for w in (0..wins).rev() {
        let mut first_in_group = true;
        for u in uses {
            compute_piece(nodes, u, w, grad_of(u.g_node), &mut scratch);
            match &mut group_tmp {
                Some(tmp) => {
                    if first_in_group {
                        tmp.copy_from_slice(&scratch);
                        first_in_group = false;
                    } else {
                        for (t, &s) in tmp.iter_mut().zip(scratch.iter()) {
                            *t += s;
                        }
                    }
                }
                None => add_piece(slot, &scratch, &piece_dims),
            }
        }
        if let Some(tmp) = &group_tmp {
            add_piece(slot, tmp, &piece_dims);
        }
    }
    pool::recycle(scratch);
    if let Some(tmp) = group_tmp {
        pool::recycle(tmp);
    }
}

/// Adds one replayed piece to the operand's slot with the backward
/// pass's set-or-accumulate semantics.
fn add_piece(slot: &mut Option<Tensor>, piece: &[f64], dims: &[usize]) {
    match slot {
        Some(acc) => {
            for (a, &p) in acc.data_mut().iter_mut().zip(piece) {
                *a += p;
            }
        }
        None => {
            *slot = Some(Tensor::from_vec(dims, piece.to_vec()).expect("piece shape"));
        }
    }
}

/// Computes one per-window gradient piece into `out` — the exact kernel
/// call the per-window reference graph's backward pass makes for this
/// use, on window `w`'s contiguous row blocks.
fn compute_piece(nodes: &[Node], u: &PendingUse, w: usize, g: &Tensor, out: &mut [f64]) {
    let gd = g.data();
    let (g_rows, g_cols) = (u.g_rows, g.dims()[1]);
    let g_start = (u.g_off + w * g_rows) * g_cols;
    let g_w = &gd[g_start..g_start + g_rows * g_cols];
    match u.kind {
        PendingKind::ColSums => kernels::col_sums_into(g_w, out, g_rows, g_cols),
        kind => {
            let x = &nodes[u.x_node].value;
            let xd = x.data();
            let (x_rows, x_cols) = (u.x_rows, x.dims()[1]);
            let x_start = (u.x_off + w * x_rows) * x_cols;
            let x_w = &xd[x_start..x_start + x_rows * x_cols];
            match kind {
                // rhs of Matmul: x_wᵀ [r,k]ᵀ · g_w [r,n] -> [k,n].
                PendingKind::XtG => {
                    kernels::matmul_tn_into(x_w, g_w, out, x_rows, x_cols, g_cols);
                }
                // rhs of MatmulNT / weight of Addmm:
                // g_wᵀ [r,n]ᵀ · x_w [r,k] -> [n,k].
                PendingKind::GtX => {
                    kernels::matmul_tn_into(g_w, x_w, out, g_rows, g_cols, x_cols);
                }
                // lhs of a block matmul: g_w [p,n] · x_wᵀ [q,n]ᵀ -> [p,q].
                PendingKind::GntX => {
                    kernels::matmul_nt_into(g_w, x_w, out, g_rows, g_cols, x_rows);
                }
                PendingKind::ColSums => unreachable!(),
            }
        }
    }
}

/// Computes the gradient contributions of one node to its parents,
/// appending them to the caller's reusable `contribs` buffer. Grouped
/// ops additionally append deferred per-window uses for their
/// per-group operands to `deferred` (finalized when the backward loop
/// reaches the operand); `i` is the node's own tape index, recorded as
/// the gradient source of those pieces. `arenas` holds the tape's
/// grouped-op operand vars and window counts.
#[allow(clippy::too_many_arguments)]
fn backward_one(
    nodes: &[Node],
    (operands, group_wins): (&[Var], &[usize]),
    i: usize,
    op: &Op,
    out_value: &Tensor,
    g: &Tensor,
    contribs: &mut Vec<(Var, Tensor)>,
    deferred: &mut Vec<(Var, PendingUse)>,
) {
    let val = |v: Var| &nodes[v.0].value;
    match *op {
        Op::Leaf => {}
        Op::Add(a, b) => contribs.extend([(a, g.clone()), (b, g.clone())]),
        Op::Sub(a, b) => contribs.extend([(a, g.clone()), (b, g.neg())]),
        Op::Mul(a, b) => contribs.extend([(a, g.mul(val(b))), (b, g.mul(val(a)))]),
        Op::Div(a, b) => {
            let bv = val(b);
            let da = g.div(bv);
            let db = g.mul(val(a)).div(&bv.square()).neg();
            contribs.extend([(a, da), (b, db)]);
        }
        Op::Scale(a, s) => contribs.push((a, g.scale(s))),
        Op::Matmul(a, b) => {
            // da = g·bᵀ, db = aᵀ·g via the transpose-aware kernels —
            // bit-identical to the materialized-transpose formulation
            // (see the kernel contract in ema_tensor's linalg module)
            // without allocating either transpose.
            let da = g.matmul_nt(val(b));
            let db = val(a).matmul_tn(g);
            contribs.extend([(a, da), (b, db)]);
        }
        Op::MatmulNT(a, b) => {
            // out = a·bᵀ with a:[m,k], b:[n,k], g:[m,n].
            // da = g·b : [m,k]; db = gᵀ·a : [n,k].
            let da = g.matmul(val(b));
            let db = g.matmul_tn(val(a));
            contribs.extend([(a, da), (b, db)]);
        }
        Op::Addmm(x, w, bias) => {
            // out = x·wᵀ + bias with x:[n,k], w:[out,k], g:[n,out].
            let dx = g.matmul(val(w));
            let dw = g.matmul_tn(val(x));
            let dbias = g.col_sums();
            contribs.extend([(x, dx), (w, dw), (bias, dbias)]);
        }
        Op::LstmCell(gates, c_prev) => {
            lstm_cell_backward(
                val(gates),
                val(c_prev),
                out_value,
                g,
                gates,
                c_prev,
                contribs,
            );
        }
        Op::Transpose(a) => contribs.push((a, g.transpose())),
        Op::Tanh(a) => {
            // d tanh = 1 - tanh²; out_value already holds tanh(x).
            let d = out_value.map(|y| 1.0 - y * y);
            contribs.push((a, g.mul(&d)));
        }
        Op::Sigmoid(a) => {
            let d = out_value.map(|y| y * (1.0 - y));
            contribs.push((a, g.mul(&d)));
        }
        Op::Relu(a) => {
            let d = val(a).map(|x| if x > 0.0 { 1.0 } else { 0.0 });
            contribs.push((a, g.mul(&d)));
        }
        Op::Square(a) => contribs.push((a, g.mul(&val(a).scale(2.0)))),
        Op::SoftmaxLast(a) => {
            // grad_in = s ⊙ (g - <g, s>_row) per row.
            let s = out_value;
            let (rows, cols) = if s.rank() == 1 {
                (1, s.len())
            } else {
                (s.dims()[0], s.dims()[1])
            };
            let mut out = g.clone();
            for r in 0..rows {
                let mut dot = 0.0;
                for c in 0..cols {
                    dot += g.data()[r * cols + c] * s.data()[r * cols + c];
                }
                for c in 0..cols {
                    let i = r * cols + c;
                    out.data_mut()[i] = s.data()[i] * (g.data()[i] - dot);
                }
            }
            contribs.push((a, out));
        }
        Op::SumAll(a) => {
            let gv = g.data()[0];
            contribs.push((a, Tensor::filled(val(a).dims(), gv)));
        }
        Op::MeanAll(a) => {
            let n = val(a).len() as f64;
            let gv = g.data()[0] / n;
            contribs.push((a, Tensor::filled(val(a).dims(), gv)));
        }
        Op::AddRowBroadcast(m, r) => {
            contribs.extend([(m, g.clone()), (r, g.col_sums())]);
        }
        Op::HCat(a, b) => {
            let ca = val(a).dims()[1];
            let total = out_value.dims()[1];
            contribs.extend([(a, g.slice_cols(0, ca)), (b, g.slice_cols(ca, total))]);
        }
        Op::SliceRows(a, start, end) => {
            let mut da = Tensor::zeros(val(a).dims());
            let n = da.dims()[1];
            da.data_mut()[start * n..end * n].copy_from_slice(g.data());
            contribs.push((a, da));
        }
        Op::SliceCols(a, start, end) => {
            let mut da = Tensor::zeros(val(a).dims());
            let (m, n) = (da.dims()[0], da.dims()[1]);
            let w = end - start;
            for i in 0..m {
                da.data_mut()[i * n + start..i * n + end]
                    .copy_from_slice(&g.data()[i * w..(i + 1) * w]);
            }
            contribs.push((a, da));
        }
        Op::Reshape(a) => contribs.push((a, g.reshaped(val(a).dims()))),
        Op::Dropout(a, ref mask) => contribs.push((a, g.mul(mask))),
        Op::StackRows(ref vars) => {
            contribs.extend(vars.iter().enumerate().map(|(i, &v)| (v, g.row(i))));
        }
        Op::BlockLhsMatmul(lhs, x, wins) => {
            // Per-block dx_w = lhsᵀ · g_w (the per-window Matmul rhs
            // gradient, dense in the stack); shared lhs deferred. Like
            // the forward, all W products share the lhs, so one
            // `lhsᵀ · [g_0 | … | g_{W-1}]` on the column-permuted
            // layout computes them in a single kernel call —
            // bit-identical per element (and the lhsᵀ repack happens
            // once instead of per window).
            let lv = val(lhs);
            let xv = val(x);
            let (p, q) = (lv.dims()[0], lv.dims()[1]);
            let n = xv.dims()[1];
            let ghat = tape_ops_batched::gather_window_cols(g.data(), wins, p, n);
            let mut dxhat = pool::take_uninit(q * wins * n);
            kernels::matmul_tn_into(lv.data(), &ghat, &mut dxhat, p, q, wins * n);
            pool::recycle(ghat);
            let dx = tape_ops_batched::scatter_window_cols(&dxhat, wins, q, n);
            pool::recycle(dxhat);
            contribs.push((x, Tensor::from_vec(xv.dims(), dx).expect("block dx shape")));
            deferred.push((
                lhs,
                PendingUse {
                    kind: PendingKind::GntX,
                    g_node: i,
                    x_node: x.0,
                    wins,
                    grouped: false,
                    g_rows: p,
                    g_off: 0,
                    x_rows: q,
                    x_off: 0,
                },
            ));
        }
        Op::BlockMatmul(x, y, wins) => {
            // Per block: dx_w = g_w · y_wᵀ, dy_w = x_wᵀ · g_w — both
            // operands are window stacks, so both gradients stay dense.
            let xv = val(x);
            let yv = val(y);
            let (m, k) = (xv.dims()[0] / wins, xv.dims()[1]);
            let n = yv.dims()[1];
            let mut dx = pool::take_uninit(xv.len());
            let mut dy = pool::take_uninit(yv.len());
            for w in 0..wins {
                let g_w = &g.data()[w * m * n..(w + 1) * m * n];
                let x_w = &xv.data()[w * m * k..(w + 1) * m * k];
                let y_w = &yv.data()[w * k * n..(w + 1) * k * n];
                kernels::matmul_nt_into(g_w, y_w, &mut dx[w * m * k..(w + 1) * m * k], m, n, k);
                kernels::matmul_tn_into(x_w, g_w, &mut dy[w * k * n..(w + 1) * k * n], m, k, n);
            }
            contribs.extend([
                (x, Tensor::from_vec(xv.dims(), dx).expect("block dx shape")),
                (y, Tensor::from_vec(yv.dims(), dy).expect("block dy shape")),
            ]);
        }
        Op::BlockMatmulNT(x, y, wins) => {
            // Per block: dx_w = g_w · y_w, dy_w = g_wᵀ · x_w.
            let xv = val(x);
            let yv = val(y);
            let (m, k) = (xv.dims()[0] / wins, xv.dims()[1]);
            let n = yv.dims()[0] / wins;
            let mut dx = pool::take_uninit(xv.len());
            let mut dy = pool::take_uninit(yv.len());
            for w in 0..wins {
                let g_w = &g.data()[w * m * n..(w + 1) * m * n];
                let x_w = &xv.data()[w * m * k..(w + 1) * m * k];
                let y_w = &yv.data()[w * n * k..(w + 1) * n * k];
                kernels::matmul_into(g_w, y_w, &mut dx[w * m * k..(w + 1) * m * k], m, n, k);
                kernels::matmul_tn_into(g_w, x_w, &mut dy[w * n * k..(w + 1) * n * k], m, n, k);
            }
            contribs.extend([
                (x, Tensor::from_vec(xv.dims(), dx).expect("block dx shape")),
                (y, Tensor::from_vec(yv.dims(), dy).expect("block dy shape")),
            ]);
        }
        Op::StackWindowBlocks(ref states, wins) => {
            // Scatter the stacked gradient back: state t's block w is
            // output block w's row t.
            let t_count = states.len();
            for (t, &s) in states.iter().enumerate() {
                let sv = val(s);
                let (rows, h) = (sv.dims()[0], sv.dims()[1]);
                let n = rows / wins;
                let block = n * h;
                let mut d = pool::take_uninit(rows * h);
                for w in 0..wins {
                    d[w * block..(w + 1) * block].copy_from_slice(
                        &g.data()[(w * t_count + t) * block..(w * t_count + t + 1) * block],
                    );
                }
                contribs.push((s, Tensor::from_vec(sv.dims(), d).expect("state grad shape")));
            }
        }
        Op::GroupLinear(x, ref groups, block_rows) => {
            // Per group b: dx_b = g_b · w_b (dense in the stack, one
            // kernel call per group with the same (m, k, n) as the
            // per-individual `Op::Addmm` dx rows, so the blocked-path
            // decision — and every bit — matches the oracle), while
            // w_b and bias_b gradients are deferred as per-window
            // pieces of `block_rows` rows anchored at the group's row
            // offset and replayed in the per-individual graph's
            // accumulation order.
            let xv = val(x);
            let k = xv.dims()[1];
            let out_cols = out_value.dims()[1];
            let mut dx = pool::take_uninit(xv.len());
            let mut off = 0usize;
            let params = operands[groups.operands.clone()].chunks_exact(2);
            for (pair, &wb) in params.zip(&group_wins[groups.wins.clone()]) {
                let (w, bias) = (pair[0], pair[1]);
                let r = wb * block_rows;
                let g_b = &g.data()[off * out_cols..(off + r) * out_cols];
                kernels::matmul_into(
                    g_b,
                    val(w).data(),
                    &mut dx[off * k..(off + r) * k],
                    r,
                    out_cols,
                    k,
                );
                deferred.push((
                    w,
                    PendingUse::group(PendingKind::GtX, i, x.0, wb, off, block_rows),
                ));
                deferred.push((
                    bias,
                    PendingUse::group(PendingKind::ColSums, i, i, wb, off, block_rows),
                ));
                off += r;
            }
            contribs.push((x, Tensor::from_vec(xv.dims(), dx).expect("group dx shape")));
        }
        Op::GroupMatmul(x, ref groups, block_rows, grouped) => {
            // Per group b: dx_b = g_b · rhs_bᵀ (dense, same (m, k, n)
            // as the per-individual `Op::Matmul` dx rows); each group's
            // rhs gradient is deferred as per-window XᵀG pieces
            // anchored at the group's row offset.
            let xv = val(x);
            let k = xv.dims()[1];
            let n = out_value.dims()[1];
            let mut dx = pool::take_uninit(xv.len());
            let mut off = 0usize;
            let rhses = &operands[groups.operands.clone()];
            for (&rhs, &wb) in rhses.iter().zip(&group_wins[groups.wins.clone()]) {
                let r = wb * block_rows;
                let g_b = &g.data()[off * n..(off + r) * n];
                kernels::matmul_nt_into(
                    g_b,
                    val(rhs).data(),
                    &mut dx[off * k..(off + r) * k],
                    r,
                    n,
                    k,
                );
                let mut use_ = PendingUse::group(PendingKind::XtG, i, x.0, wb, off, block_rows);
                use_.grouped = grouped;
                deferred.push((rhs, use_));
                off += r;
            }
            contribs.push((x, Tensor::from_vec(xv.dims(), dx).expect("group dx shape")));
        }
        Op::GroupMatmulNT(x, ref groups, block_rows) => {
            // Per group b: dx_b = g_b · rhs_b (dense); each group's rhs
            // gradient is deferred as per-window GᵀX pieces.
            let xv = val(x);
            let k = xv.dims()[1];
            let n = out_value.dims()[1];
            let mut dx = pool::take_uninit(xv.len());
            let mut off = 0usize;
            let rhses = &operands[groups.operands.clone()];
            for (&rhs, &wb) in rhses.iter().zip(&group_wins[groups.wins.clone()]) {
                let r = wb * block_rows;
                let g_b = &g.data()[off * n..(off + r) * n];
                kernels::matmul_into(
                    g_b,
                    val(rhs).data(),
                    &mut dx[off * k..(off + r) * k],
                    r,
                    n,
                    k,
                );
                deferred.push((
                    rhs,
                    PendingUse::group(PendingKind::GtX, i, x.0, wb, off, block_rows),
                ));
                off += r;
            }
            contribs.push((x, Tensor::from_vec(xv.dims(), dx).expect("group dx shape")));
        }
        Op::GroupAddRow(m, ref groups, block_rows) => {
            // dm is the gradient unchanged; each group's row gradient
            // is deferred as per-window column sums over its block.
            contribs.push((m, g.clone()));
            let mut off = 0usize;
            let rows = &operands[groups.operands.clone()];
            for (&row, &wb) in rows.iter().zip(&group_wins[groups.wins.clone()]) {
                deferred.push((
                    row,
                    PendingUse::group(PendingKind::ColSums, i, i, wb, off, block_rows),
                ));
                off += wb * block_rows;
            }
        }
        Op::GroupBlockLhsMatmul(x, ref groups) => {
            // Per group b: the shared-lhs backward restricted to the
            // group's window span — gather its g slice to the
            // column-permuted layout, one lhs_bᵀ · ĝ product, scatter
            // back — so every window block matches the per-individual
            // `Op::BlockLhsMatmul` backward bit for bit. Each group's
            // lhs gradient is deferred as per-window G·Xᵀ pieces at the
            // group's (output, input) row offsets.
            let xv = val(x);
            let n = xv.dims()[1];
            let lhses = &operands[groups.operands.clone()];
            let (p, q) = (val(lhses[0]).dims()[0], val(lhses[0]).dims()[1]);
            let mut dx = pool::take_uninit(xv.len());
            let (mut xoff, mut goff) = (0usize, 0usize);
            for (&lhs, &wb) in lhses.iter().zip(&group_wins[groups.wins.clone()]) {
                let lv = val(lhs);
                let ghat = tape_ops_batched::gather_window_cols(
                    &g.data()[goff * n..(goff + wb * p) * n],
                    wb,
                    p,
                    n,
                );
                let mut dxhat = pool::take_uninit(q * wb * n);
                kernels::matmul_tn_into(lv.data(), &ghat, &mut dxhat, p, q, wb * n);
                pool::recycle(ghat);
                let dx_b = tape_ops_batched::scatter_window_cols(&dxhat, wb, q, n);
                pool::recycle(dxhat);
                dx[xoff * n..(xoff + wb * q) * n].copy_from_slice(&dx_b);
                pool::recycle(dx_b);
                deferred.push((
                    lhs,
                    PendingUse {
                        kind: PendingKind::GntX,
                        g_node: i,
                        x_node: x.0,
                        wins: wb,
                        grouped: false,
                        g_rows: p,
                        g_off: goff,
                        x_rows: q,
                        x_off: xoff,
                    },
                ));
                xoff += wb * q;
                goff += wb * p;
            }
            contribs.push((x, Tensor::from_vec(xv.dims(), dx).expect("group dx shape")));
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Backward pass of the fused LSTM cell step (see [`Op::LstmCell`]).
///
/// Activations are recomputed from the stored pre-activations; `c'` is
/// read back from the node value's second half, so no intermediate
/// tensors from the forward pass need to be kept.
#[allow(clippy::too_many_arguments)]
fn lstm_cell_backward(
    gates: &Tensor,
    c_prev: &Tensor,
    out_value: &Tensor,
    g: &Tensor,
    gates_var: Var,
    c_prev_var: Var,
    contribs: &mut Vec<(Var, Tensor)>,
) {
    let (n, g4) = (gates.dims()[0], gates.dims()[1]);
    let h = g4 / 4;
    let gd = gates.data();
    let cd = c_prev.data();
    let od = out_value.data();
    let gg = g.data();
    let mut d_gates = ema_tensor::pool::take_uninit(n * g4);
    let mut d_cprev = ema_tensor::pool::take_uninit(n * h);
    for r in 0..n {
        for j in 0..h {
            let i = sigmoid(gd[r * g4 + j]);
            let f = sigmoid(gd[r * g4 + h + j]);
            let gt = gd[r * g4 + 2 * h + j].tanh();
            let o = sigmoid(gd[r * g4 + 3 * h + j]);
            let c = od[r * 2 * h + h + j];
            let tc = c.tanh();
            let gh_ = gg[r * 2 * h + j];
            let gc_ = gg[r * 2 * h + h + j];
            let dc = gc_ + gh_ * o * (1.0 - tc * tc);
            d_gates[r * g4 + j] = dc * gt * i * (1.0 - i);
            d_gates[r * g4 + h + j] = dc * cd[r * h + j] * f * (1.0 - f);
            d_gates[r * g4 + 2 * h + j] = dc * i * (1.0 - gt * gt);
            d_gates[r * g4 + 3 * h + j] = gh_ * tc * o * (1.0 - o);
            d_cprev[r * h + j] = dc * f;
        }
    }
    let d_gates = Tensor::from_vec(&[n, g4], d_gates).expect("lstm backward gate grads");
    let d_cprev = Tensor::from_vec(&[n, h], d_cprev).expect("lstm backward cell grads");
    contribs.extend([(gates_var, d_gates), (c_prev_var, d_cprev)]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_backward_distributes() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec1(vec![1.0, 2.0]));
        let b = tape.leaf(Tensor::from_vec1(vec![3.0, 4.0]));
        let s = tape.add(a, b);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn mul_backward_swaps_operands() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec1(vec![2.0, 3.0]));
        let b = tape.leaf(Tensor::from_vec1(vec![5.0, 7.0]));
        let p = tape.mul(a, b);
        let loss = tape.sum_all(p);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn fanout_accumulates() {
        // loss = sum(a + a) → da = 2.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec1(vec![1.0]));
        let s = tape.add(a, a);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[2.0]);
    }

    #[test]
    fn mse_of_equal_inputs_has_zero_grad() {
        let tape = Tape::new();
        let p = tape.leaf(Tensor::from_vec1(vec![1.0, 2.0]));
        let t = tape.leaf(Tensor::from_vec1(vec![1.0, 2.0]));
        let loss = tape.mse(p, t);
        assert_eq!(tape.value(loss).data(), &[0.0]);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(p).unwrap().data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec1(vec![1.0, 2.0]));
        let _ = tape.backward(a);
    }

    /// Arena lengths: (operand vars, window counts).
    fn arena_lens(tape: &Tape) -> (usize, usize) {
        (tape.operands.borrow().len(), tape.group_wins.borrow().len())
    }

    /// Records `x` leaf, two per-group weight leaves and one grouped
    /// matmul; returns (x, weights, output).
    fn grouped_step(tape: &Tape, wins: &[usize]) -> (Var, [Var; 2], Var) {
        let x = tape.leaf(Tensor::ones(&[wins.iter().sum(), 2]));
        let ws = [0.5, -2.0].map(|v| tape.leaf(Tensor::filled(&[2, 3], v)));
        (x, ws, tape.group_matmul(x, ws, wins, 1))
    }

    #[test]
    fn reset_and_reset_to_truncate_group_arenas_to_the_kept_prefix() {
        let mut tape = Tape::new();
        let (_, _, first) = grouped_step(&tape, &[1, 2]);
        let keep = tape.len();
        let after_first = arena_lens(&tape);
        assert_eq!(after_first, (2, 2));
        // A second grouped node with different window counts extends
        // both arenas; the leaf-only tail after it extends neither.
        let _ = grouped_step(&tape, &[2, 1]);
        let _ = tape.leaf(Tensor::ones(&[1]));
        assert_eq!(arena_lens(&tape), (4, 4));

        tape.reset_to(keep);
        assert_eq!(tape.len(), keep);
        assert_eq!(arena_lens(&tape), after_first);
        assert_eq!(tape.dims(first), vec![3, 3]);
        tape.reset_to(keep - 1);
        assert_eq!(arena_lens(&tape), (0, 0));
        let _ = grouped_step(&tape, &[1, 2]);
        tape.reset();
        assert_eq!((tape.len(), arena_lens(&tape)), (0, (0, 0)));
    }

    #[test]
    fn rerecording_a_grouped_epoch_keeps_arena_lengths() {
        let mut tape = Tape::new();
        let keep = {
            let _ = tape.leaf(Tensor::ones(&[1]));
            tape.len()
        };
        let epoch = |tape: &Tape| {
            let (_, _, y) = grouped_step(tape, &[2, 1]);
            // Same window counts again: the counts are shared, the
            // operands are not.
            let ws = [1.0, 3.0].map(|v| tape.leaf(Tensor::filled(&[3, 1], v)));
            let z = tape.group_matmul(y, ws, &[2, 1], 1);
            let loss = tape.sum_all(z);
            let _ = tape.backward(loss);
        };
        epoch(&tape);
        let lens = arena_lens(&tape);
        assert_eq!(lens, (4, 2));
        for _ in 0..3 {
            tape.reset_to(keep);
            epoch(&tape);
            assert_eq!(arena_lens(&tape), lens);
        }
    }

    #[test]
    fn grouped_node_kept_in_the_prefix_still_backpropagates() {
        let loss_grads = |tape: &Tape, y: Var, x: Var, ws: [Var; 2]| {
            let loss = tape.sum_all(tape.square(y));
            let grads = tape.backward(loss);
            [x, ws[0], ws[1]].map(|v| grads.get(v).unwrap().data().to_vec())
        };
        let reference = Tape::new();
        let (x, ws, y) = grouped_step(&reference, &[1, 2]);
        let want = loss_grads(&reference, y, x, ws);

        let mut tape = Tape::new();
        let (x, ws, y) = grouped_step(&tape, &[1, 2]);
        let keep = tape.len();
        let _ = grouped_step(&tape, &[3, 3]);
        tape.reset_to(keep);
        assert_eq!(loss_grads(&tape, y, x, ws), want);
    }

    #[test]
    fn unused_nodes_have_no_grad() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec1(vec![1.0]));
        let b = tape.leaf(Tensor::from_vec1(vec![1.0]));
        let loss = tape.sum_all(a);
        let grads = tape.backward(loss);
        assert!(grads.get(b).is_none());
    }
}
