//! The tape: node storage, basic elementwise ops and the backward pass.

use crate::grads::{PendingKind, PendingUse};
use crate::{Grads, Op};
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
/// Every node names its operands and sizes in its op descriptor, so
/// the node list is the tape's whole state.
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
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
        }
    }

    /// Clears all recorded nodes while keeping the node storage's
    /// capacity. Dropped node values
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
    /// return to the tensor pool) and must be rebuilt.
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
    /// single element) and returns the gradient of every leaf that
    /// influenced it (see [`Grads`]).
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
    /// The pass frees as it goes: a non-leaf node's gradient is released
    /// as soon as its own backward step has run, and the elementwise
    /// steps write one parent's contribution into that released buffer
    /// in place. A window-group node's gradient (`Op::Group*`) stays
    /// until the walk ends, because the deferred per-window pieces of
    /// its operands read it when the walk reaches them. Afterwards the
    /// workspace holds leaf gradients only.
    ///
    /// # Panics
    /// Panics if `loss` is not scalar-shaped.
    pub fn backward_into(&self, loss: Var, out: &mut Grads) {
        let nodes = self.nodes.borrow();
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

        for i in (0..=loss.0).rev() {
            // The tape is append-only, so every parent index is < i:
            // node i's gradient is taken (or borrowed) while the
            // parents' accumulators and pending lists below it are
            // written.
            let (parent_grads, rest) = grads.split_at_mut(i);
            let (slot_i, later) = rest.split_first_mut().expect("slot exists");
            let (parent_pending, rest) = pending.split_at_mut(i);
            let own_pending = &mut rest[0];
            if !own_pending.is_empty() {
                // Stacked consumers above deposited deferred per-window
                // pieces for this node; replay them into the slot in the
                // per-window graph's accumulation order before this
                // node's own backward step reads it.
                finalize_pending(&nodes, i, own_pending, slot_i, later);
                own_pending.clear();
            }
            let node = &nodes[i];
            let mut parents = Parents {
                grads: parent_grads,
                pending: parent_pending,
            };
            match &node.op {
                Op::Leaf => {}
                op if op.is_group() => {
                    if let Some(g) = slot_i.as_ref() {
                        backward_group(&nodes, i, op, g, &mut parents);
                    }
                }
                op => {
                    if let Some(g) = slot_i.take() {
                        backward_one(&nodes, op, &node.value, g, &mut parents);
                    }
                }
            }
        }
        // The window-group nodes' gradients served their operands' pieces;
        // only leaf gradients outlive the pass.
        for (slot, node) in grads.iter_mut().zip(nodes.iter()) {
            if !matches!(node.op, Op::Leaf) {
                *slot = None;
            }
        }
    }
}

/// The gradient slots and pending-use lists of the nodes below the one
/// whose backward step runs — the only ones that step writes.
struct Parents<'a> {
    grads: &'a mut [Option<Tensor>],
    pending: &'a mut [Vec<PendingUse>],
}

impl Parents<'_> {
    /// Accumulates an owned contribution into `v`'s slot: it becomes the
    /// slot when the slot is empty, else it is added in and its buffer
    /// recycled.
    fn add(&mut self, v: Var, contrib: Tensor) {
        match &mut self.grads[v.0] {
            Some(acc) => acc.add_assign(&contrib),
            slot @ None => *slot = Some(contrib),
        }
    }

    /// Accumulates a borrowed contribution, copying it only into an
    /// empty slot.
    fn add_ref(&mut self, v: Var, contrib: &Tensor) {
        match &mut self.grads[v.0] {
            Some(acc) => acc.add_assign(contrib),
            slot @ None => *slot = Some(contrib.clone()),
        }
    }

    /// Records a deferred per-window use of the operand `v`, finalized
    /// when the walk reaches it.
    fn defer(&mut self, v: Var, use_: PendingUse) {
        self.pending[v.0].push(use_);
    }
}

/// `g[i] = f(g[i], x[i])` in place: the in-place twin of `g.zip(x, f)`,
/// with the same per-element arithmetic.
fn zip_in_place(g: &mut Tensor, x: &Tensor, f: impl Fn(f64, f64) -> f64) {
    assert_eq!(g.dims(), x.dims(), "gradient and operand shapes differ");
    for (gv, &xv) in g.data_mut().iter_mut().zip(x.data()) {
        *gv = f(*gv, xv);
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
            let mut data = pool::take_uninit(piece.len());
            data.copy_from_slice(piece);
            *slot = Some(Tensor::from_vec(dims, data).expect("piece shape"));
        }
    }
}

/// Computes one per-window gradient piece into `out` — the exact kernel
/// call the per-window reference graph's backward pass makes for this
/// use, on window `w`'s contiguous row blocks.
fn compute_piece(nodes: &[Node], u: &PendingUse, w: usize, g: &Tensor, out: &mut [f64]) {
    let (g_rows, g_cols) = (u.g_rows, g.dims()[1]);
    let g_w = &g.data()[w * g_rows * g_cols..(w + 1) * g_rows * g_cols];
    match u.kind {
        PendingKind::ColSums => kernels::col_sums_into(g_w, out, g_rows, g_cols),
        kind => {
            let x = &nodes[u.x_node].value;
            let (x_rows, x_cols) = (u.x_rows, x.dims()[1]);
            let x_w = &x.data()[w * x_rows * x_cols..(w + 1) * x_rows * x_cols];
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

/// Runs the backward step of one non-group node, whose gradient `g`
/// the pass has released: accumulates the node's contribution to each
/// parent into `parents`, in parent order. The elementwise steps write
/// one parent's contribution into `g` in place, with the arithmetic of
/// the allocating formula (`g · (1 − y·y)`, `g · mask`, …); the others
/// read `g` and recycle it when they return.
fn backward_one(nodes: &[Node], op: &Op, out_value: &Tensor, mut g: Tensor, parents: &mut Parents) {
    let val = |v: Var| &nodes[v.0].value;
    match *op {
        Op::Add(a, b) => {
            parents.add_ref(a, &g);
            parents.add(b, g);
        }
        Op::Sub(a, b) => {
            parents.add_ref(a, &g);
            g.map_inplace(|v| -v);
            parents.add(b, g);
        }
        Op::Mul(a, b) => {
            let da = g.mul(val(b));
            zip_in_place(&mut g, val(a), |g, a| g * a);
            parents.add(a, da);
            parents.add(b, g);
        }
        Op::Div(a, b) => {
            // da = g / b, db = −((g·a) / (b·b)).
            let (av, bv) = (val(a), val(b));
            let da = g.div(bv);
            assert_eq!(g.dims(), av.dims(), "gradient and operand shapes differ");
            for ((gv, &x), &y) in g.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
                *gv = -((*gv * x) / (y * y));
            }
            parents.add(a, da);
            parents.add(b, g);
        }
        Op::Scale(a, s) => {
            g.map_inplace(|v| v * s);
            parents.add(a, g);
        }
        Op::Matmul(a, b) => {
            // da = g·bᵀ, db = aᵀ·g via the transpose-aware kernels —
            // bit-identical to the materialized-transpose formulation
            // (see the kernel contract in ema_tensor's linalg module)
            // without allocating either transpose.
            let da = g.matmul_nt(val(b));
            let db = val(a).matmul_tn(&g);
            parents.add(a, da);
            parents.add(b, db);
        }
        Op::MatmulNT(a, b) => {
            // out = a·bᵀ with a:[m,k], b:[n,k], g:[m,n].
            // da = g·b : [m,k]; db = gᵀ·a : [n,k].
            let da = g.matmul(val(b));
            let db = g.matmul_tn(val(a));
            parents.add(a, da);
            parents.add(b, db);
        }
        Op::Addmm(x, w, bias) => {
            // out = x·wᵀ + bias with x:[n,k], w:[out,k], g:[n,out].
            let dx = g.matmul(val(w));
            let dw = g.matmul_tn(val(x));
            let dbias = g.col_sums();
            parents.add(x, dx);
            parents.add(w, dw);
            parents.add(bias, dbias);
        }
        Op::LstmCell(gates, c_prev) => {
            lstm_cell_backward(
                val(gates),
                val(c_prev),
                out_value,
                &g,
                gates,
                c_prev,
                parents,
            );
        }
        Op::Transpose(a) => parents.add(a, g.transpose()),
        Op::Tanh(a) => {
            // d tanh = 1 - tanh²; out_value already holds tanh(x).
            zip_in_place(&mut g, out_value, |g, y| g * (1.0 - y * y));
            parents.add(a, g);
        }
        Op::Sigmoid(a) => {
            zip_in_place(&mut g, out_value, |g, y| g * (y * (1.0 - y)));
            parents.add(a, g);
        }
        Op::Relu(a) => {
            zip_in_place(&mut g, val(a), |g, x| g * if x > 0.0 { 1.0 } else { 0.0 });
            parents.add(a, g);
        }
        Op::Square(a) => {
            zip_in_place(&mut g, val(a), |g, x| g * (x * 2.0));
            parents.add(a, g);
        }
        Op::SoftmaxLast(a) => {
            // grad_in = s ⊙ (g - <g, s>_row) per row, in place: each
            // row's dot is taken before the row is overwritten.
            let s = out_value;
            let cols = if s.rank() == 1 { s.len() } else { s.dims()[1] };
            for (g_row, s_row) in g
                .data_mut()
                .chunks_exact_mut(cols)
                .zip(s.data().chunks_exact(cols))
            {
                let mut dot = 0.0;
                for (&gv, &sv) in g_row.iter().zip(s_row) {
                    dot += gv * sv;
                }
                for (gv, &sv) in g_row.iter_mut().zip(s_row) {
                    *gv = sv * (*gv - dot);
                }
            }
            parents.add(a, g);
        }
        Op::SumAll(a) => {
            let gv = g.data()[0];
            parents.add(a, Tensor::filled(val(a).dims(), gv));
        }
        Op::MeanAll(a) => {
            let n = val(a).len() as f64;
            let gv = g.data()[0] / n;
            parents.add(a, Tensor::filled(val(a).dims(), gv));
        }
        Op::AddRowBroadcast(m, r) => {
            let dr = g.col_sums();
            parents.add(m, g);
            parents.add(r, dr);
        }
        Op::HCat(a, b) => {
            let ca = val(a).dims()[1];
            let total = out_value.dims()[1];
            parents.add(a, g.slice_cols(0, ca));
            parents.add(b, g.slice_cols(ca, total));
        }
        Op::SliceRows(a, start, end) => {
            let mut da = Tensor::zeros(val(a).dims());
            let n = da.dims()[1];
            da.data_mut()[start * n..end * n].copy_from_slice(g.data());
            parents.add(a, da);
        }
        Op::SliceCols(a, start, end) => {
            let mut da = Tensor::zeros(val(a).dims());
            let (m, n) = (da.dims()[0], da.dims()[1]);
            let w = end - start;
            for i in 0..m {
                da.data_mut()[i * n + start..i * n + end]
                    .copy_from_slice(&g.data()[i * w..(i + 1) * w]);
            }
            parents.add(a, da);
        }
        Op::Reshape(a) => {
            g.reshape_in_place(val(a).dims());
            parents.add(a, g);
        }
        Op::Dropout(a, ref mask) => {
            zip_in_place(&mut g, mask, |g, m| g * m);
            parents.add(a, g);
        }
        Op::StackRows(ref vars) => {
            // Each node gets its own rows back, in its own shape.
            let mut off = 0;
            for &v in vars {
                let vv = val(v);
                let mut d = pool::take_uninit(vv.len());
                d.copy_from_slice(&g.data()[off..off + vv.len()]);
                off += vv.len();
                parents.add(
                    v,
                    Tensor::from_vec(vv.dims(), d).expect("stacked part shape"),
                );
            }
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
            parents.add(x, Tensor::from_vec(xv.dims(), dx).expect("block dx shape"));
            parents.add(y, Tensor::from_vec(yv.dims(), dy).expect("block dy shape"));
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
            parents.add(x, Tensor::from_vec(xv.dims(), dx).expect("block dx shape"));
            parents.add(y, Tensor::from_vec(yv.dims(), dy).expect("block dy shape"));
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
                parents.add(s, Tensor::from_vec(sv.dims(), d).expect("state grad shape"));
            }
        }
        Op::Leaf
        | Op::GroupLinear(..)
        | Op::GroupMatmul(..)
        | Op::GroupMatmulNT(..)
        | Op::GroupAddRow(..)
        | Op::GroupBlockLhsMatmul(..) => {
            unreachable!("leaves have no step; window-group ops run in backward_group")
        }
    }
}

/// Runs the backward step of one window-group node (`Op::Group*`),
/// whose gradient `g` stays in its slot until the walk ends: the
/// stacked input's gradient is accumulated dense, with the same kernel
/// call as the per-window op over all rows (or, for the block lhs, per
/// window block), and the shared operand's gradient is deferred as
/// per-window pieces, finalized when the walk reaches the operand; `i`
/// is the node's own tape index, recorded as the gradient source of
/// those pieces.
fn backward_group(nodes: &[Node], i: usize, op: &Op, g: &Tensor, parents: &mut Parents) {
    let val = |v: Var| &nodes[v.0].value;
    // The stacked input's value and a dense gradient buffer for it.
    let input = |x: Var| {
        let xv = val(x);
        (xv.dims()[0], xv.dims()[1], pool::take_uninit(xv.len()))
    };
    let dense = |x: Var, dx| Tensor::from_vec(val(x).dims(), dx).expect("group dx shape");
    match *op {
        Op::GroupLinear(x, w, bias, wins) => {
            // dx = g · w over the whole stack (the per-window `Op::Addmm`
            // dx rows' kernel call); w and bias gradients are deferred.
            let (rows, k, mut dx) = input(x);
            let out_cols = g.dims()[1];
            kernels::matmul_into(g.data(), val(w).data(), &mut dx, rows, out_cols, k);
            let r = rows / wins;
            parents.defer(w, PendingUse::group(PendingKind::GtX, i, x.0, wins, r));
            parents.defer(bias, PendingUse::group(PendingKind::ColSums, i, i, wins, r));
            parents.add(x, dense(x, dx));
        }
        Op::GroupMatmul(x, rhs, wins, grouped) => {
            // dx = g · rhsᵀ (the per-window `Op::Matmul` dx rows); the
            // rhs gradient is deferred as per-window XᵀG pieces.
            let (rows, k, mut dx) = input(x);
            let n = g.dims()[1];
            kernels::matmul_nt_into(g.data(), val(rhs).data(), &mut dx, rows, n, k);
            let mut use_ = PendingUse::group(PendingKind::XtG, i, x.0, wins, rows / wins);
            use_.grouped = grouped;
            parents.defer(rhs, use_);
            parents.add(x, dense(x, dx));
        }
        Op::GroupMatmulNT(x, rhs, wins) => {
            // dx = g · rhs; the rhs gradient is deferred as per-window
            // GᵀX pieces.
            let (rows, k, mut dx) = input(x);
            let n = g.dims()[1];
            kernels::matmul_into(g.data(), val(rhs).data(), &mut dx, rows, n, k);
            parents.defer(
                rhs,
                PendingUse::group(PendingKind::GtX, i, x.0, wins, rows / wins),
            );
            parents.add(x, dense(x, dx));
        }
        Op::GroupAddRow(m, row, wins) => {
            // dm is the gradient unchanged; the row gradient is deferred
            // as per-window column sums.
            parents.add_ref(m, g);
            let rows = g.dims()[0] / wins;
            parents.defer(
                row,
                PendingUse::group(PendingKind::ColSums, i, i, wins, rows),
            );
        }
        Op::GroupBlockLhsMatmul(lhs, x, wins) => {
            // Per window block: dx_w = lhsᵀ · g_w, the per-window Matmul
            // rhs gradient's own kernel call on contiguous blocks of g
            // and dx. The lhs gradient is deferred as per-window G·Xᵀ
            // pieces.
            let (_, n, mut dx) = input(x);
            let lv = val(lhs);
            let (p, q) = (lv.dims()[0], lv.dims()[1]);
            let blocks = g.data().chunks_exact(p * n).zip(dx.chunks_exact_mut(q * n));
            for (g_w, dx_w) in blocks {
                kernels::matmul_tn_into(lv.data(), g_w, dx_w, p, q, n);
            }
            parents.defer(
                lhs,
                PendingUse {
                    kind: PendingKind::GntX,
                    g_node: i,
                    x_node: x.0,
                    wins,
                    grouped: false,
                    g_rows: p,
                    x_rows: q,
                },
            );
            parents.add(x, dense(x, dx));
        }
        _ => unreachable!("non-group ops run in backward_one"),
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
    parents: &mut Parents,
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
    parents.add(gates_var, d_gates);
    parents.add(c_prev_var, d_cprev);
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

    /// Records an `x` leaf (3 windows of 2 rows), a weight leaf and one
    /// window-group matmul; returns (x, weight, output).
    fn grouped_step(tape: &Tape, seed: u64) -> (Var, Var, Var) {
        let mut rng = ema_tensor::Rng64::seed_from(seed);
        let x = tape.leaf(Tensor::rand_normal(&[6, 4], 0.0, 1.0, &mut rng));
        let w = tape.leaf(Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng));
        (x, w, tape.group_matmul(x, w, 3))
    }

    #[test]
    fn reset_and_reset_to_truncate_group_arenas_to_the_kept_prefix() {
        let mut tape = Tape::new();
        let (_, _, first) = grouped_step(&tape, 1);
        let keep = tape.len();
        let want = tape.value(first);
        // A second window-group node and a leaf after the prefix.
        let _ = grouped_step(&tape, 2);
        let _ = tape.leaf(Tensor::ones(&[1]));

        tape.reset_to(keep);
        assert_eq!(tape.len(), keep);
        assert_eq!(tape.value(first).data(), want.data());
        // Cutting into the prefix drops the window-group node itself.
        tape.reset_to(keep - 1);
        assert_eq!(tape.len(), keep - 1);
        let _ = grouped_step(&tape, 1);
        tape.reset();
        assert!(tape.is_empty());
    }

    #[test]
    fn rerecording_a_grouped_epoch_keeps_arena_lengths() {
        let mut tape = Tape::new();
        // A persistent prefix leaf used by every epoch's graph.
        let v = tape.leaf(probe(7, 0.0).slice_cols(0, 1).slice_rows(0, 3));
        let keep = tape.len();
        let epoch = |tape: &Tape| {
            let (x, w, y) = grouped_step(tape, 3);
            let z = tape.group_matmul_grouped(y, v, 3);
            let loss = tape.sum_all(tape.square(z));
            let grads = tape.backward(loss);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let values = [tape.value(loss), grads.get(x).unwrap().clone()];
            let leaf_grads = [w, v].map(|p| bits(grads.get(p).unwrap()));
            (tape.len(), values.map(|t| bits(&t)), leaf_grads)
        };
        let first = epoch(&tape);
        for _ in 0..3 {
            tape.reset_to(keep);
            assert_eq!(epoch(&tape), first);
        }
    }

    #[test]
    fn grouped_node_kept_in_the_prefix_still_backpropagates() {
        let loss_grads = |tape: &Tape, y: Var, x: Var, w: Var| {
            let loss = tape.sum_all(tape.square(y));
            let grads = tape.backward(loss);
            [x, w].map(|v| grads.get(v).unwrap().data().to_vec())
        };
        let reference = Tape::new();
        let (x, w, y) = grouped_step(&reference, 1);
        let want = loss_grads(&reference, y, x, w);

        let mut tape = Tape::new();
        let (x, w, y) = grouped_step(&tape, 1);
        let keep = tape.len();
        let _ = grouped_step(&tape, 2);
        tape.reset_to(keep);
        assert_eq!(loss_grads(&tape, y, x, w), want);
    }

    /// A `[3, 4]` probe with both signs and an exact zero (so the ReLU
    /// mask and the zero products are exercised), shifted `away` from
    /// zero when it divides.
    fn probe(seed: u64, away: f64) -> Tensor {
        let mut rng = ema_tensor::Rng64::seed_from(seed);
        let mut t = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        t.data_mut()[5] = 0.0;
        t.map(|v| if v < 0.0 { v - away } else { v + away })
    }

    /// Backpropagates `sum(op(a, b) ⊙ c)`, which hands `op`'s node the
    /// upstream gradient `g = c` exactly, and checks the leaf gradients
    /// bit for bit against `reference(g, a, b, y) = (da, db)` — the
    /// allocating formula the in-place step replaces. It runs with
    /// distinct and aliased (`b = a`) parents, and with `a`'s slot empty
    /// or already holding `d` from a later `sum(a ⊙ d)` term, so both
    /// the move and the accumulate paths run.
    fn assert_in_place_step_matches(
        name: &str,
        op: impl Fn(&Tape, Var, Var) -> Var,
        reference: impl Fn(&Tensor, &Tensor, &Tensor, &Tensor) -> (Tensor, Option<Tensor>),
    ) {
        let (av, bv, dv) = (probe(1, 0.0), probe(2, 0.5), probe(4, 0.0));
        let mut binary = false;
        for alias in [false, true] {
            for prefilled in [false, true] {
                let tape = Tape::new();
                let a = tape.leaf(av.clone());
                let b = if alias { a } else { tape.leaf(bv.clone()) };
                let y = op(&tape, a, b);
                let (yv, c) = (tape.value(y), {
                    let mut rng = ema_tensor::Rng64::seed_from(3);
                    Tensor::rand_normal(tape.value(y).dims(), 0.0, 1.0, &mut rng)
                });
                let c_var = tape.leaf(c.clone());
                let mut loss = tape.sum_all(tape.mul(y, c_var));
                if prefilled {
                    let d = tape.leaf(dv.clone());
                    loss = tape.add(loss, tape.sum_all(tape.mul(a, d)));
                }
                let grads = tape.backward(loss);

                let b_ref = if alias { &av } else { &bv };
                let (da, db) = reference(&c, &av, b_ref, &yv);
                binary |= db.is_some();
                let mut want_a = if prefilled { dv.add(&da) } else { da };
                let mut want_b = db;
                if alias {
                    if let Some(db) = want_b.take() {
                        want_a.add_assign(&db);
                    }
                }
                // Bits, not values: `div(x, x)` meets `x = 0`. Rust
                // leaves a NaN result's sign and payload unspecified, so
                // every NaN reads as one class.
                let bits = |t: &Tensor| {
                    let bits = |v: &f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
                    t.data().iter().map(bits).collect::<Vec<_>>()
                };
                let tag = format!("{name} alias={alias} prefilled={prefilled}");
                assert_eq!(bits(grads.get(a).unwrap()), bits(&want_a), "{tag}: da");
                if let Some(db) = want_b {
                    assert_eq!(bits(grads.get(b).unwrap()), bits(&db), "{tag}: db");
                }
            }
            if !binary {
                break;
            }
        }
    }

    #[test]
    fn in_place_pointwise_steps_match_the_allocating_formulas() {
        assert_in_place_step_matches(
            "add",
            |t, a, b| t.add(a, b),
            |g, _, _, _| (g.clone(), Some(g.clone())),
        );
        assert_in_place_step_matches(
            "sub",
            |t, a, b| t.sub(a, b),
            |g, _, _, _| (g.clone(), Some(g.neg())),
        );
        assert_in_place_step_matches(
            "mul",
            |t, a, b| t.mul(a, b),
            |g, a, b, _| (g.mul(b), Some(g.mul(a))),
        );
        assert_in_place_step_matches(
            "div",
            |t, a, b| t.div(a, b),
            |g, a, b, _| (g.div(b), Some(g.mul(a).div(&b.square()).neg())),
        );
        assert_in_place_step_matches(
            "scale",
            |t, a, _| t.scale(a, -1.7),
            |g, _, _, _| (g.scale(-1.7), None),
        );
        assert_in_place_step_matches(
            "square",
            |t, a, _| t.square(a),
            |g, a, _, _| (g.mul(&a.scale(2.0)), None),
        );
        assert_in_place_step_matches(
            "tanh",
            |t, a, _| t.tanh(a),
            |g, _, _, y| (g.mul(&y.map(|y| 1.0 - y * y)), None),
        );
        assert_in_place_step_matches(
            "sigmoid",
            |t, a, _| t.sigmoid(a),
            |g, _, _, y| (g.mul(&y.map(|y| y * (1.0 - y))), None),
        );
        assert_in_place_step_matches(
            "relu",
            |t, a, _| t.relu(a),
            |g, a, _, _| (g.mul(&a.map(|x| if x > 0.0 { 1.0 } else { 0.0 })), None),
        );
        let mask = probe(5, 0.0).map(|v| if v > 0.0 { 1.0 / 0.7 } else { 0.0 });
        assert_in_place_step_matches(
            "dropout",
            |t, a, _| t.dropout_masked(a, mask.clone()),
            |g, _, _, _| (g.mul(&mask), None),
        );
        assert_in_place_step_matches(
            "reshape",
            |t, a, _| t.reshape(a, &[4, 3]),
            |g, a, _, _| (g.reshaped(a.dims()), None),
        );
        assert_in_place_step_matches(
            "softmax_last",
            |t, a, _| t.softmax_last(a),
            |g, _, _, s| {
                let mut out = g.clone();
                for r in 0..3 {
                    let mut dot = 0.0;
                    for c in 0..4 {
                        dot += g.data()[r * 4 + c] * s.data()[r * 4 + c];
                    }
                    for c in 0..4 {
                        let i = r * 4 + c;
                        out.data_mut()[i] = s.data()[i] * (g.data()[i] - dot);
                    }
                }
                (out, None)
            },
        );
        assert_in_place_step_matches(
            "add_row_broadcast",
            |t, a, b| {
                let row = t.slice_rows(b, 0, 1);
                t.add_row_broadcast(a, t.flatten(row))
            },
            |g, _, _, _| {
                let mut db = Tensor::zeros(&[3, 4]);
                db.data_mut()[..4].copy_from_slice(g.col_sums().data());
                (g.clone(), Some(db))
            },
        );
    }

    /// A small graph over every kind of node: a pointwise chain, a
    /// matmul, a window-group op and a reshape, over leaves `[x, w, lhs]`.
    fn mixed_graph(tape: &Tape) -> (Var, [Var; 3]) {
        let x = tape.leaf(probe(11, 0.0));
        let w = tape.leaf(probe(12, 0.0).transpose());
        let lhs = tape.leaf(probe(13, 0.0).slice_cols(0, 3));
        let h = tape.tanh(tape.matmul(x, w)); // [3, 3]
        let p = tape.group_block_lhs_matmul(lhs, h, 1); // [3, 3]
        let s = tape.sigmoid(tape.add(p, tape.scale(h, 0.5)));
        let r = tape.reshape(tape.mul(s, s), &[9]);
        (tape.mean_all(tape.square(r)), [x, w, lhs])
    }

    #[test]
    fn backward_keeps_leaf_gradients_only() {
        let tape = Tape::new();
        let (loss, leaves) = mixed_graph(&tape);
        let mut grads = Grads::empty();
        tape.backward_into(loss, &mut grads);
        assert_eq!(grads.len(), tape.len());
        for v in (0..tape.len()).map(Var) {
            let leaf = matches!(tape.nodes.borrow()[v.0].op, Op::Leaf);
            assert_eq!(grads.get(v).is_some(), leaf, "node {} gradient", v.0);
        }
        for v in leaves {
            assert!(grads.get(v).is_some());
        }
    }

    #[test]
    fn a_second_pass_on_one_workspace_repeats_the_leaf_gradients() {
        let tape = Tape::new();
        let (loss, leaves) = mixed_graph(&tape);
        let mut grads = Grads::empty();
        let bits = |grads: &Grads| leaves.map(|v| grads.get(v).unwrap().data().to_vec());
        tape.backward_into(loss, &mut grads);
        let first = bits(&grads);
        tape.backward_into(loss, &mut grads);
        assert_eq!(bits(&grads), first);
        assert_eq!(bits(&tape.backward(loss)), first);
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
