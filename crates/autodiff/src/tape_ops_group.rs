//! Window-group tape operations: one operand shared by every window of
//! a window batch.
//!
//! A member forward row-stacks one individual's `W` windows into one
//! operand (`[W·r, c]`, window `w` at row block `w`), and most of its
//! parameters and graph constants are shared by every window. Each op
//! here sends the whole window group through its one weight, rhs, row
//! or block lhs and records one node naming that operand and the window
//! count `W`; the rows per window block are the stack's rows over `W`
//! (1 for window-level stacks such as LSTM hidden rows and attention
//! scores, `V` for the graph models' node-level stacks).
//!
//! Bit-identity contract with the per-window graph: the forward runs
//! the per-window kernel over the whole stack (the kernel contract
//! makes every output row independent of the batch height) or, for the
//! block-lhs product, on each window block, the very call the
//! per-window graph makes. The backward keeps the stacked `dx` dense
//! and defers the shared operand's gradient as per-window pieces,
//! replayed in the per-window graph's accumulation order by the pending
//! machinery in `Grads`/`Tape::backward_into` — the one thing an
//! ordinary op over the stack (one product over all rows) would get
//! wrong.

use crate::tape_ops_batched::block_rows;
use crate::{Op, Tape, Var};
use ema_tensor::{kernels, pool, Tensor};

impl Tape {
    /// Window-group fused linear layer: every window block of
    /// `x: [W·r, k]` times one `w: [out, k]ᵀ` plus `bias: [out]`,
    /// producing `[W·r, out]`.
    ///
    /// # Panics
    /// Panics when `wins` does not divide `x`'s rows or the parameter
    /// shapes mismatch.
    pub fn group_linear(&self, x: Var, w: Var, bias: Var, wins: usize) -> Var {
        let out = self.compute(
            |v| {
                let (xv, wv, bv) = (v[0], v[1], v[2]);
                block_rows(xv, wins, "group_linear");
                let (rows, k) = (xv.dims()[0], xv.dims()[1]);
                let out_cols = wv.dims()[0];
                assert_eq!(
                    wv.dims(),
                    &[out_cols, k],
                    "group_linear: weight shape mismatch"
                );
                assert_eq!(bv.len(), out_cols, "group_linear: bias length mismatch");
                let mut out = pool::take_uninit(rows * out_cols);
                kernels::addmm_into(xv.data(), wv.data(), bv.data(), &mut out, rows, k, out_cols);
                Tensor::from_vec(&[rows, out_cols], out).expect("group_linear shape")
            },
            &[x, w, bias],
        );
        self.push(out, Op::GroupLinear(x, w, bias, wins))
    }

    /// Window-group matrix product: every window block of
    /// `x: [W·r, k]` times one `rhs: [k, n]`, producing `[W·r, n]`.
    ///
    /// # Panics
    /// Panics when `wins` does not divide `x`'s rows or the shapes
    /// mismatch.
    pub fn group_matmul(&self, x: Var, rhs: Var, wins: usize) -> Var {
        self.group_matmul_impl(x, rhs, wins, false)
    }

    /// [`Tape::group_matmul`] whose deferred rhs gradient replays with
    /// window-grouped accumulation — for graphs whose per-window
    /// reference folds one window's pieces before accumulating (e.g.
    /// attention scores against a per-window transpose of `v`).
    pub fn group_matmul_grouped(&self, x: Var, rhs: Var, wins: usize) -> Var {
        self.group_matmul_impl(x, rhs, wins, true)
    }

    fn group_matmul_impl(&self, x: Var, rhs: Var, wins: usize, grouped: bool) -> Var {
        let out = self.compute(
            |v| {
                let (xv, rv) = (v[0], v[1]);
                block_rows(xv, wins, "group_matmul");
                let (rows, k) = (xv.dims()[0], xv.dims()[1]);
                let n = rv.dims()[1];
                assert_eq!(rv.dims(), &[k, n], "group_matmul: rhs shape mismatch");
                let mut out = pool::take_uninit(rows * n);
                kernels::matmul_into(xv.data(), rv.data(), &mut out, rows, k, n);
                Tensor::from_vec(&[rows, n], out).expect("group_matmul shape")
            },
            &[x, rhs],
        );
        self.push(out, Op::GroupMatmul(x, rhs, wins, grouped))
    }

    /// Window-group `x · rhsᵀ`: every window block of `x: [W·r, k]`
    /// times one `rhs: [n, k]ᵀ`, producing `[W·r, n]`.
    ///
    /// # Panics
    /// Panics when `wins` does not divide `x`'s rows or the shapes
    /// mismatch.
    pub fn group_matmul_nt(&self, x: Var, rhs: Var, wins: usize) -> Var {
        let out = self.compute(
            |v| {
                let (xv, rv) = (v[0], v[1]);
                block_rows(xv, wins, "group_matmul_nt");
                let (rows, k) = (xv.dims()[0], xv.dims()[1]);
                let n = rv.dims()[0];
                assert_eq!(rv.dims(), &[n, k], "group_matmul_nt: rhs shape mismatch");
                let mut out = pool::take_uninit(rows * n);
                kernels::matmul_nt_into(xv.data(), rv.data(), &mut out, rows, k, n);
                Tensor::from_vec(&[rows, n], out).expect("group_matmul_nt shape")
            },
            &[x, rhs],
        );
        self.push(out, Op::GroupMatmulNT(x, rhs, wins))
    }

    /// One `[c]` row added to every row of `m: [W·r, c]`, its gradient
    /// replayed per window block.
    ///
    /// # Panics
    /// Panics when `wins` does not divide `m`'s rows or the row length
    /// differs from `c`.
    pub fn group_add_row_broadcast(&self, m: Var, row: Var, wins: usize) -> Var {
        let out = self.compute(
            |v| {
                let (mv, rv) = (v[0], v[1]);
                block_rows(mv, wins, "group_add_row_broadcast");
                let c = mv.dims()[1];
                assert_eq!(rv.len(), c, "group_add_row_broadcast: row length mismatch");
                let mut out = pool::take_uninit(mv.len());
                out.copy_from_slice(mv.data());
                for chunk in out.chunks_exact_mut(c) {
                    for (o, &a) in chunk.iter_mut().zip(rv.data()) {
                        *o += a;
                    }
                }
                Tensor::from_vec(mv.dims(), out).expect("group_add_row_broadcast shape")
            },
            &[m, row],
        );
        self.push(out, Op::GroupAddRow(m, row, wins))
    }

    /// Window-group block-lhs product: one `lhs: [p, q]` (a graph
    /// constant or derived adjacency) times each `[q, n]` window block
    /// of `x: [W·q, n]`, producing `[W·p, n]`. Each window block is
    /// contiguous in both `x` and the output, so the forward runs one
    /// `matmul_into` per window in place — the per-window graph's own
    /// kernel call, bit for bit.
    ///
    /// # Panics
    /// Panics when `x`'s window blocks do not have `q` rows.
    pub fn group_block_lhs_matmul(&self, lhs: Var, x: Var, wins: usize) -> Var {
        let out = self.compute(
            |v| {
                let (lv, xv) = (v[0], v[1]);
                let (p, q) = (lv.dims()[0], lv.dims()[1]);
                let r = block_rows(xv, wins, "group_block_lhs_matmul");
                assert_eq!(
                    r, q,
                    "group_block_lhs_matmul: lhs shape mismatch: {q} lhs columns, window blocks of {r} rows"
                );
                let n = xv.dims()[1];
                let mut out = pool::take_uninit(wins * p * n);
                let blocks = xv.data().chunks_exact(q * n).zip(out.chunks_exact_mut(p * n));
                for (x_w, y_w) in blocks {
                    kernels::matmul_into(lv.data(), x_w, y_w, p, q, n);
                }
                Tensor::from_vec(&[wins * p, n], out).expect("group_block_lhs_matmul shape")
            },
            &[lhs, x],
        );
        self.push(out, Op::GroupBlockLhsMatmul(lhs, x, wins))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::Rng64;

    fn rand(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        Tensor::rand_normal(dims, 0.0, 1.0, &mut rng)
    }

    /// Shared scaffolding for the bit-identity tests below, run at 1–4
    /// windows. The window-group graph built by `grouped` runs over a
    /// `[W·block_rows, k]` stack with one operand set (one tensor per
    /// entry of `shapes`) and an mse-style loss. The reference is the
    /// per-window graph: one leaf per `block_rows`-row window block,
    /// `per_window` applied to each with the same operands, the outputs
    /// flattened and re-stacked one window per row (the stacked rows'
    /// element order). Forward rows, every operand gradient and every
    /// window's input gradient must match bit for bit.
    fn assert_grouped_matches_per_window(
        block_rows: usize,
        k: usize,
        shapes: &[&[usize]],
        seed: u64,
        grouped: impl Fn(&Tape, Var, &[Var], usize) -> Var,
        per_window: impl Fn(&Tape, Var, &[Var]) -> Var,
    ) {
        for wins in 1..=4usize {
            let seed = seed + 100 * wins as u64;
            let xv = rand(&[wins * block_rows, k], seed);
            let operands: Vec<Tensor> = shapes
                .iter()
                .enumerate()
                .map(|(j, dims)| rand(dims, seed + 1 + j as u64))
                .collect();

            let tape = Tape::new();
            let x = tape.leaf(xv.clone());
            let vars: Vec<Var> = operands.iter().map(|t| tape.leaf(t.clone())).collect();
            let y = grouped(&tape, x, &vars, wins);
            let loss = tape.mean_all(tape.square(y));
            let grads = tape.backward(loss);
            let dx = grads.get(x).unwrap();

            let reference = Tape::new();
            let rvars: Vec<Var> = operands.iter().map(|t| reference.leaf(t.clone())).collect();
            let xs: Vec<Var> = (0..wins)
                .map(|w| reference.leaf(xv.slice_rows(w * block_rows, (w + 1) * block_rows)))
                .collect();
            let flat: Vec<Var> = xs
                .iter()
                .map(|&xw| reference.flatten(per_window(&reference, xw, &rvars)))
                .collect();
            let stacked = reference.stack_rows(&flat);
            let rloss = reference.mean_all(reference.square(stacked));
            let rgrads = reference.backward(rloss);

            assert_eq!(
                tape.value(y).data(),
                reference.value(stacked).data(),
                "{wins} windows: forward rows"
            );
            for (j, (&v, &rv)) in vars.iter().zip(&rvars).enumerate() {
                assert_eq!(
                    grads.get(v).unwrap().data(),
                    rgrads.get(rv).unwrap().data(),
                    "{wins} windows: operand {j} grad"
                );
            }
            for (w, &xw) in xs.iter().enumerate() {
                assert_eq!(
                    &dx.data()[w * block_rows * k..(w + 1) * block_rows * k],
                    rgrads.get(xw).unwrap().data(),
                    "{wins} windows: window {w} input grad"
                );
            }
        }
    }

    /// A chain of two window-group layers over window rows (as in an
    /// unrolled RNN) must match the per-window two-layer graphs —
    /// including the deferred replay order of both layers' parameters.
    #[test]
    fn group_linear_matches_per_individual_graphs() {
        let (k, o) = (5, 2);
        assert_grouped_matches_per_window(
            1,
            k,
            &[&[o, k], &[o], &[o, o], &[o]],
            10,
            |tape, x, p, wins| {
                let h = tape.group_linear(x, p[0], p[1], wins);
                tape.group_linear(h, p[2], p[3], wins)
            },
            |tape, xw, p| {
                let h = tape.linear(xw, p[0], p[1]);
                tape.linear(h, p[2], p[3])
            },
        );
    }

    /// `group_matmul` over node-level blocks: a shared rhs constant or
    /// parameter.
    #[test]
    fn group_matmul_matches_per_individual_graphs() {
        let (block_rows, k, n) = (2, 4, 3);
        assert_grouped_matches_per_window(
            block_rows,
            k,
            &[&[k, n]],
            50,
            |tape, x, p, wins| tape.group_matmul(x, p[0], wins),
            |tape, xw, p| tape.matmul(xw, p[0]),
        );
    }

    /// `group_matmul_grouped`: with one use per window the grouped
    /// replay folds a single piece, so it matches the plain per-window
    /// product too.
    #[test]
    fn group_matmul_grouped_matches_per_individual_graphs() {
        let (k, n) = (5, 1);
        assert_grouped_matches_per_window(
            1,
            k,
            &[&[k, n]],
            60,
            |tape, x, p, wins| tape.group_matmul_grouped(x, p[0], wins),
            |tape, xw, p| tape.matmul(xw, p[0]),
        );
    }

    #[test]
    fn group_matmul_nt_matches_per_individual_graphs() {
        let (block_rows, k, n) = (3, 2, 4);
        assert_grouped_matches_per_window(
            block_rows,
            k,
            &[&[n, k]],
            70,
            |tape, x, p, wins| tape.group_matmul_nt(x, p[0], wins),
            |tape, xw, p| tape.matmul_nt(xw, p[0]),
        );
    }

    #[test]
    fn group_add_row_broadcast_matches_per_individual_graphs() {
        let (block_rows, c) = (2, 5);
        assert_grouped_matches_per_window(
            block_rows,
            c,
            &[&[c]],
            80,
            |tape, x, p, wins| tape.group_add_row_broadcast(x, p[0], wins),
            |tape, xw, p| tape.add_row_broadcast(xw, p[0]),
        );
    }

    /// Every window propagates through the member's own graph constant;
    /// a rectangular `[p, q]` lhs maps `q`-row input blocks to `p`-row
    /// output blocks.
    #[test]
    fn group_block_lhs_matmul_matches_per_individual_graphs() {
        let (p, q, n) = (3, 4, 2);
        assert_grouped_matches_per_window(
            q,
            n,
            &[&[p, q]],
            90,
            |tape, x, ops, wins| tape.group_block_lhs_matmul(ops[0], x, wins),
            |tape, xw, ops| tape.matmul(ops[0], xw),
        );
    }

    /// `group_linear` at more than one row per window block: node-level
    /// row blocks.
    #[test]
    fn group_linear_blocks_matches_per_individual_graphs() {
        let (block_rows, k, o) = (3, 4, 2);
        assert_grouped_matches_per_window(
            block_rows,
            k,
            &[&[o, k], &[o]],
            110,
            |tape, x, p, wins| tape.group_linear(x, p[0], p[1], wins),
            |tape, xw, p| tape.linear(xw, p[0], p[1]),
        );
    }

    #[test]
    #[should_panic(expected = "not divisible by window count")]
    fn group_linear_rejects_bad_row_split() {
        let tape = Tape::new();
        let x = tape.leaf(rand(&[5, 3], 1));
        let w = tape.leaf(rand(&[2, 3], 2));
        let b = tape.leaf(rand(&[2], 3));
        let _ = tape.group_linear(x, w, b, 2);
    }

    #[test]
    #[should_panic(expected = "lhs shape mismatch")]
    fn group_block_lhs_matmul_rejects_mismatched_lhs_shapes() {
        let tape = Tape::new();
        let x = tape.leaf(rand(&[10, 2], 1));
        let lhs = tape.leaf(rand(&[3, 3], 2));
        let _ = tape.group_block_lhs_matmul(lhs, x, 2);
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn group_linear_rejects_mismatched_group_widths() {
        let tape = Tape::new();
        let x = tape.leaf(rand(&[4, 3], 1));
        let w = tape.leaf(rand(&[2, 4], 2));
        let b = tape.leaf(rand(&[2], 3));
        let _ = tape.group_linear(x, w, b, 2);
    }
}
