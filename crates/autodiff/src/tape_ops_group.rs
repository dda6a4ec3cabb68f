//! Grouped-operand tape operations for cohort-batched training.
//!
//! A cohort stack row-stacks B individuals' window batches into one
//! operand (`[Σ_b rows_b, c]`, individual-major); each individual keeps
//! its *own* parameters and graph constants, so each op here sends group
//! `b`'s contiguous row block through its own parameter/constant. The
//! per-group operands come in as iterators and are recorded in the
//! tape's operand arena (see [`Tape`]), so a grouped node allocates
//! nothing once the arena is warm.
//!
//! Row geometry: group `b` spans `group_wins[b] · block_rows`
//! contiguous rows — `block_rows` is 1 for window-level stacks (LSTM
//! hidden rows, attention scores) and `V` (nodes per window) for the
//! graph models' node-level stacks.
//!
//! Bit-identity contract with the per-window graph: forward runs the
//! per-window kernel on each group's row block (the kernel contract
//! makes every output row independent of the batch height, and the
//! per-group call repeats the blocked-path decision of a group run
//! alone, since the block's `(m, k, n)` matches) — or, for the
//! block-lhs product, on each window block, the very call the
//! per-window graph makes; backward keeps the
//! stacked `dx` dense and defers each group's weight/bias/constant
//! gradients as per-window pieces anchored at the group's row offset,
//! replayed in the per-window graph's accumulation order by the pending
//! machinery in `Grads`/`Tape::backward_into`.

use crate::{Op, Tape, Var};
use ema_tensor::{kernels, pool, Tensor};

/// Asserts the shared group-geometry preconditions and returns the
/// total row count `Σ group_wins[b] · block_rows`.
fn group_rows_check(name: &str, operands: usize, group_wins: &[usize], block_rows: usize) -> usize {
    assert_eq!(
        operands,
        group_wins.len(),
        "{name}: {operands} per-group operands vs {} window counts",
        group_wins.len()
    );
    assert!(!group_wins.is_empty(), "{name} needs at least one group");
    assert!(block_rows > 0, "{name}: block_rows must be positive");
    for (b, &w) in group_wins.iter().enumerate() {
        assert!(w > 0, "{name}: group {b} has zero windows");
    }
    group_wins.iter().sum::<usize>() * block_rows
}

impl Tape {
    /// Per-group fused linear layer over a window-level cohort stack:
    /// [`Tape::group_linear_blocks`] with one row per window.
    ///
    /// # Panics
    /// Panics when `params` and `group_rows` disagree in length, are
    /// empty, the row counts don't sum to `x`'s rows, a group has zero
    /// rows, or any group's parameter shapes mismatch.
    pub fn group_linear(
        &self,
        x: Var,
        params: impl IntoIterator<Item = (Var, Var)>,
        group_rows: &[usize],
    ) -> Var {
        self.group_linear_blocks(x, params, group_rows, 1)
    }

    /// Per-group fused linear layer over a cohort row stack: group `b`
    /// (its `group_wins[b] · block_rows` contiguous rows of
    /// `x: [Σ wins·rows, k]`) times its own `w_b: [out, k]ᵀ` plus
    /// `bias_b: [out]`, producing `[Σ wins·rows, out]`. `params` yields
    /// one `(w_b, bias_b)` pair per group; all groups must share the
    /// in/out widths.
    ///
    /// # Panics
    /// Panics when `params` and `group_wins` disagree in length, are
    /// empty, the row counts don't sum to `x`'s rows, a group has zero
    /// windows, or any group's parameter shapes mismatch.
    pub fn group_linear_blocks(
        &self,
        x: Var,
        params: impl IntoIterator<Item = (Var, Var)>,
        group_wins: &[usize],
        block_rows: usize,
    ) -> Var {
        let operands = params.into_iter().flat_map(|(w, b)| [w, b]);
        let (groups, out) = self.compute_group(x, operands, group_wins, |xv, params| {
            let total = group_rows_check("group_linear", params.len() / 2, group_wins, block_rows);
            let k = xv.dims()[1];
            assert_eq!(
                total,
                xv.dims()[0],
                "group_linear: group rows must sum to the stacked row count {}",
                xv.dims()[0]
            );
            let out_cols = params.get(0).dims()[0];
            let mut out = pool::take_uninit(total * out_cols);
            let mut off = 0usize;
            for (b, &wins) in group_wins.iter().enumerate() {
                let r = wins * block_rows;
                let (wv, bv) = (params.get(2 * b), params.get(2 * b + 1));
                assert_eq!(
                    wv.dims(),
                    &[out_cols, k],
                    "group_linear: group {b} weight shape mismatch"
                );
                assert_eq!(
                    bv.len(),
                    out_cols,
                    "group_linear: group {b} bias length mismatch"
                );
                kernels::addmm_into(
                    &xv.data()[off * k..(off + r) * k],
                    wv.data(),
                    bv.data(),
                    &mut out[off * out_cols..(off + r) * out_cols],
                    r,
                    k,
                    out_cols,
                );
                off += r;
            }
            Tensor::from_vec(&[total, out_cols], out).expect("group_linear shape")
        });
        self.push(out, Op::GroupLinear(x, groups, block_rows))
    }

    /// Per-group matrix product: group `b`'s row block of
    /// `x: [Σ wins·rows, k]` times its own `rhs_b: [k, n]`, producing
    /// `[Σ wins·rows, n]`.
    ///
    /// # Panics
    /// Panics on length/shape mismatches (see [`Tape::group_linear_blocks`]).
    pub fn group_matmul(
        &self,
        x: Var,
        rhses: impl IntoIterator<Item = Var>,
        group_wins: &[usize],
        block_rows: usize,
    ) -> Var {
        self.group_matmul_impl(x, rhses, group_wins, block_rows, false)
    }

    /// [`Tape::group_matmul`] whose deferred rhs gradients replay with
    /// window-grouped accumulation — for graphs whose per-window
    /// reference folds one window's pieces before accumulating (e.g.
    /// attention scores against a per-window transpose of `v`).
    pub fn group_matmul_grouped(
        &self,
        x: Var,
        rhses: impl IntoIterator<Item = Var>,
        group_wins: &[usize],
        block_rows: usize,
    ) -> Var {
        self.group_matmul_impl(x, rhses, group_wins, block_rows, true)
    }

    fn group_matmul_impl(
        &self,
        x: Var,
        rhses: impl IntoIterator<Item = Var>,
        group_wins: &[usize],
        block_rows: usize,
        grouped: bool,
    ) -> Var {
        let (groups, out) = self.compute_group(x, rhses, group_wins, |xv, rhses| {
            let total = group_rows_check("group_matmul", rhses.len(), group_wins, block_rows);
            let k = xv.dims()[1];
            assert_eq!(
                total,
                xv.dims()[0],
                "group_matmul: group rows must sum to the stacked row count {}",
                xv.dims()[0]
            );
            let n = rhses.get(0).dims()[1];
            let mut out = pool::take_uninit(total * n);
            let mut off = 0usize;
            for (b, &wins) in group_wins.iter().enumerate() {
                let r = wins * block_rows;
                let rv = rhses.get(b);
                assert_eq!(
                    rv.dims(),
                    &[k, n],
                    "group_matmul: group {b} rhs shape mismatch"
                );
                kernels::matmul_into(
                    &xv.data()[off * k..(off + r) * k],
                    rv.data(),
                    &mut out[off * n..(off + r) * n],
                    r,
                    k,
                    n,
                );
                off += r;
            }
            Tensor::from_vec(&[total, n], out).expect("group_matmul shape")
        });
        self.push(out, Op::GroupMatmul(x, groups, block_rows, grouped))
    }

    /// Per-group `x · rhsᵀ`: group `b`'s row block of
    /// `x: [Σ wins·rows, k]` times its own `rhs_b: [n, k]ᵀ`, producing
    /// `[Σ wins·rows, n]`.
    ///
    /// # Panics
    /// Panics on length/shape mismatches (see [`Tape::group_linear_blocks`]).
    pub fn group_matmul_nt(
        &self,
        x: Var,
        rhses: impl IntoIterator<Item = Var>,
        group_wins: &[usize],
        block_rows: usize,
    ) -> Var {
        let (groups, out) = self.compute_group(x, rhses, group_wins, |xv, rhses| {
            let total = group_rows_check("group_matmul_nt", rhses.len(), group_wins, block_rows);
            let k = xv.dims()[1];
            assert_eq!(
                total,
                xv.dims()[0],
                "group_matmul_nt: group rows must sum to the stacked row count {}",
                xv.dims()[0]
            );
            let n = rhses.get(0).dims()[0];
            let mut out = pool::take_uninit(total * n);
            let mut off = 0usize;
            for (b, &wins) in group_wins.iter().enumerate() {
                let r = wins * block_rows;
                let rv = rhses.get(b);
                assert_eq!(
                    rv.dims(),
                    &[n, k],
                    "group_matmul_nt: group {b} rhs shape mismatch"
                );
                kernels::matmul_nt_into(
                    &xv.data()[off * k..(off + r) * k],
                    rv.data(),
                    &mut out[off * n..(off + r) * n],
                    r,
                    k,
                    n,
                );
                off += r;
            }
            Tensor::from_vec(&[total, n], out).expect("group_matmul_nt shape")
        });
        self.push(out, Op::GroupMatmulNT(x, groups, block_rows))
    }

    /// Each group's own `[c]` row added to every row of that group's
    /// block of `m: [Σ wins·rows, c]`.
    ///
    /// # Panics
    /// Panics on length/shape mismatches (see [`Tape::group_linear_blocks`]).
    pub fn group_add_row_broadcast(
        &self,
        m: Var,
        rows: impl IntoIterator<Item = Var>,
        group_wins: &[usize],
        block_rows: usize,
    ) -> Var {
        let (groups, out) = self.compute_group(m, rows, group_wins, |mv, rows| {
            let total = group_rows_check(
                "group_add_row_broadcast",
                rows.len(),
                group_wins,
                block_rows,
            );
            let c = mv.dims()[1];
            assert_eq!(
                total,
                mv.dims()[0],
                "group_add_row_broadcast: group rows must sum to the stacked row count {}",
                mv.dims()[0]
            );
            let mut out = pool::take_uninit(total * c);
            out.copy_from_slice(mv.data());
            let mut off = 0usize;
            for (b, &wins) in group_wins.iter().enumerate() {
                let r = wins * block_rows;
                let rv = rows.get(b);
                assert_eq!(
                    rv.len(),
                    c,
                    "group_add_row_broadcast: group {b} row length mismatch"
                );
                let row = rv.data();
                for chunk in out[off * c..(off + r) * c].chunks_exact_mut(c) {
                    for (o, &a) in chunk.iter_mut().zip(row) {
                        *o += a;
                    }
                }
                off += r;
            }
            Tensor::from_vec(mv.dims(), out).expect("group_add_row_broadcast shape")
        });
        self.push(out, Op::GroupAddRow(m, groups, block_rows))
    }

    /// Per-group block-lhs product: group `b`'s own `lhs_b: [p, q]`
    /// (a per-individual graph constant or derived adjacency) times
    /// each `[q, n]` window block of its slice of `x: [Σ wins·q, n]`,
    /// producing `[Σ wins·p, n]`; all groups must share the lhs shape.
    /// Each window block is contiguous in both `x` and the output, so
    /// the forward runs one `matmul_into` per window in place — the
    /// per-window graph's own kernel call, bit for bit. A single group
    /// is one lhs shared by every window.
    ///
    /// # Panics
    /// Panics on length/shape mismatches (see [`Tape::group_linear_blocks`]).
    pub fn group_block_lhs_matmul(
        &self,
        lhses: impl IntoIterator<Item = Var>,
        x: Var,
        group_wins: &[usize],
    ) -> Var {
        let (groups, out) = self.compute_group(x, lhses, group_wins, |xv, lhses| {
            let total_wins = group_rows_check("group_block_lhs_matmul", lhses.len(), group_wins, 1);
            let n = xv.dims()[1];
            let (p, q) = (lhses.get(0).dims()[0], lhses.get(0).dims()[1]);
            assert_eq!(
                xv.dims()[0],
                total_wins * q,
                "group_block_lhs_matmul: x rows must be Σ wins ({total_wins}) x lhs cols ({q})"
            );
            let mut out = pool::take_uninit(total_wins * p * n);
            // Window blocks run on contiguously across groups: window
            // `w` of the stack is x block `w` and output block `w`.
            let mut blocks = xv
                .data()
                .chunks_exact(q * n)
                .zip(out.chunks_exact_mut(p * n));
            for (b, &wins) in group_wins.iter().enumerate() {
                let lv = lhses.get(b);
                assert_eq!(
                    lv.dims(),
                    &[p, q],
                    "group_block_lhs_matmul: group {b} lhs shape mismatch"
                );
                for (x_w, y_w) in blocks.by_ref().take(wins) {
                    kernels::matmul_into(lv.data(), x_w, y_w, p, q, n);
                }
            }
            Tensor::from_vec(&[total_wins * p, n], out).expect("group_block_lhs_matmul shape")
        });
        self.push(out, Op::GroupBlockLhsMatmul(x, groups))
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

    /// Random per-group operand tensors: `shapes` gives one operand's
    /// dims each, repeated for every group.
    fn group_operands(groups: usize, shapes: &[&[usize]], seed: u64) -> Vec<Vec<Tensor>> {
        (0..groups)
            .map(|b| {
                shapes
                    .iter()
                    .enumerate()
                    .map(|(j, dims)| rand(dims, seed + 10 * b as u64 + j as u64))
                    .collect()
            })
            .collect()
    }

    /// Shared scaffolding for the bit-identity tests below. The cohort
    /// graph built by `grouped` runs over a `[Σ wins·rows, k]` stack
    /// with per-group mse-style losses added pairwise (each group's
    /// loss node then receives exactly the seed gradient 1.0). Each
    /// group's reference is the per-window graph: one leaf per
    /// `block_rows`-row window block, `per_window` applied to each with
    /// the group's own operands, the outputs flattened and re-stacked
    /// one window per row (the stacked rows' element order).
    /// Forward rows, every operand gradient and every window's input
    /// gradient must match bit for bit.
    fn assert_grouped_matches_per_window(
        wins: &[usize],
        block_rows: usize,
        k: usize,
        operands: &[Vec<Tensor>],
        grouped: impl Fn(&Tape, Var, &[Vec<Var>]) -> Var,
        per_window: impl Fn(&Tape, Var, &[Var]) -> Var,
    ) {
        let total: usize = wins.iter().sum::<usize>() * block_rows;
        let xv = rand(&[total, k], 1);

        let tape = Tape::new();
        let x = tape.leaf(xv.clone());
        let vars: Vec<Vec<Var>> = operands
            .iter()
            .map(|group| group.iter().map(|t| tape.leaf(t.clone())).collect())
            .collect();
        let y = grouped(&tape, x, &vars);
        let o = tape.value(y).dims()[1];
        let mut off = 0;
        let mut total_loss = None;
        for &wb in wins {
            let r = wb * block_rows;
            let l_b = tape.mean_all(tape.square(tape.slice_rows(y, off, off + r)));
            total_loss = Some(total_loss.map_or(l_b, |acc| tape.add(acc, l_b)));
            off += r;
        }
        let grads = tape.backward(total_loss.unwrap());
        let dx = grads.get(x).unwrap();

        let mut off = 0;
        for (b, &wb) in wins.iter().enumerate() {
            let reference = Tape::new();
            let rvars: Vec<Var> = operands[b]
                .iter()
                .map(|t| reference.leaf(t.clone()))
                .collect();
            let xs: Vec<Var> = (0..wb)
                .map(|w| {
                    let start = off + w * block_rows;
                    reference.leaf(xv.slice_rows(start, start + block_rows))
                })
                .collect();
            let outs: Vec<Var> = xs
                .iter()
                .map(|&xw| per_window(&reference, xw, &rvars))
                .collect();
            let flat: Vec<Var> = outs.iter().map(|&o| reference.flatten(o)).collect();
            let stacked = reference.stack_rows(&flat);
            let rloss = reference.mean_all(reference.square(stacked));
            let rgrads = reference.backward(rloss);

            let r = wb * block_rows;
            assert_eq!(
                &tape.value(y).data()[off * o..(off + r) * o],
                reference.value(stacked).data(),
                "group {b} forward rows"
            );
            for (j, (&v, &rv)) in vars[b].iter().zip(&rvars).enumerate() {
                assert_eq!(
                    grads.get(v).unwrap().data(),
                    rgrads.get(rv).unwrap().data(),
                    "group {b} operand {j} grad"
                );
            }
            for (w, &xw) in xs.iter().enumerate() {
                let start = off + w * block_rows;
                assert_eq!(
                    &dx.data()[start * k..(start + block_rows) * k],
                    rgrads.get(xw).unwrap().data(),
                    "group {b} window {w} input grad"
                );
            }
            off += r;
        }
    }

    /// A chain of two grouped layers over window rows (as in an
    /// unrolled RNN) must match the per-window two-layer graphs —
    /// including the deferred replay order of both layers' parameters.
    #[test]
    fn group_linear_matches_per_individual_graphs() {
        let rows = [3usize, 1, 4];
        let (k, o) = (5, 2);
        let operands = group_operands(rows.len(), &[&[o, k], &[o], &[o, o], &[o]], 10);
        assert_grouped_matches_per_window(
            &rows,
            1,
            k,
            &operands,
            |tape, x, ops| {
                let h = tape.group_linear(x, ops.iter().map(|p| (p[0], p[1])), &rows);
                tape.group_linear(h, ops.iter().map(|p| (p[2], p[3])), &rows)
            },
            |tape, xw, p| {
                let h = tape.linear(xw, p[0], p[1]);
                tape.linear(h, p[2], p[3])
            },
        );
    }

    /// `group_matmul` over node-level blocks: per-individual rhs
    /// constants/parameters.
    #[test]
    fn group_matmul_matches_per_individual_graphs() {
        let wins = [2usize, 1, 3];
        let (block_rows, k, n) = (2usize, 4usize, 3usize);
        let operands = group_operands(wins.len(), &[&[k, n]], 50);
        assert_grouped_matches_per_window(
            &wins,
            block_rows,
            k,
            &operands,
            |tape, x, ops| tape.group_matmul(x, ops.iter().map(|p| p[0]), &wins, block_rows),
            |tape, xw, p| tape.matmul(xw, p[0]),
        );
    }

    /// `group_matmul_grouped`: with one use per window the grouped
    /// replay folds a single piece, so it matches the plain per-window
    /// product too.
    #[test]
    fn group_matmul_grouped_matches_per_individual_graphs() {
        let wins = [3usize, 2];
        let (block_rows, k, n) = (1usize, 5usize, 1usize);
        let operands = group_operands(wins.len(), &[&[k, n]], 60);
        assert_grouped_matches_per_window(
            &wins,
            block_rows,
            k,
            &operands,
            |tape, x, ops| {
                tape.group_matmul_grouped(x, ops.iter().map(|p| p[0]), &wins, block_rows)
            },
            |tape, xw, p| tape.matmul(xw, p[0]),
        );
    }

    #[test]
    fn group_matmul_nt_matches_per_individual_graphs() {
        let wins = [1usize, 4, 2];
        let (block_rows, k, n) = (3usize, 2usize, 4usize);
        let operands = group_operands(wins.len(), &[&[n, k]], 70);
        assert_grouped_matches_per_window(
            &wins,
            block_rows,
            k,
            &operands,
            |tape, x, ops| tape.group_matmul_nt(x, ops.iter().map(|p| p[0]), &wins, block_rows),
            |tape, xw, p| tape.matmul_nt(xw, p[0]),
        );
    }

    #[test]
    fn group_add_row_broadcast_matches_per_individual_graphs() {
        let wins = [2usize, 3];
        let (block_rows, c) = (2usize, 5usize);
        let operands = group_operands(wins.len(), &[&[c]], 80);
        assert_grouped_matches_per_window(
            &wins,
            block_rows,
            c,
            &operands,
            |tape, x, ops| {
                tape.group_add_row_broadcast(x, ops.iter().map(|p| p[0]), &wins, block_rows)
            },
            |tape, xw, p| tape.add_row_broadcast(xw, p[0]),
        );
    }

    /// Each individual propagates through its *own* graph constant —
    /// the op individual graphs actually break sharing on.
    #[test]
    fn group_block_lhs_matmul_matches_per_individual_graphs() {
        let wins = [3usize, 1, 2];
        let (q, n) = (4usize, 2usize);
        // Square lhs (p == q) so output blocks keep the input geometry.
        let operands = group_operands(wins.len(), &[&[q, q]], 90);
        assert_grouped_matches_per_window(
            &wins,
            q,
            n,
            &operands,
            |tape, x, ops| tape.group_block_lhs_matmul(ops.iter().map(|p| p[0]), x, &wins),
            |tape, xw, p| tape.matmul(p[0], xw),
        );
    }

    /// `group_linear_blocks` at `block_rows > 1`: node-level row blocks.
    #[test]
    fn group_linear_blocks_matches_per_individual_graphs() {
        let wins = [2usize, 3, 1];
        let (block_rows, k, o) = (3usize, 4usize, 2usize);
        let operands = group_operands(wins.len(), &[&[o, k], &[o]], 110);
        assert_grouped_matches_per_window(
            &wins,
            block_rows,
            k,
            &operands,
            |tape, x, ops| {
                tape.group_linear_blocks(x, ops.iter().map(|p| (p[0], p[1])), &wins, block_rows)
            },
            |tape, xw, p| tape.linear(xw, p[0], p[1]),
        );
    }

    #[test]
    #[should_panic(expected = "group rows must sum")]
    fn group_linear_rejects_bad_row_split() {
        let tape = Tape::new();
        let x = tape.leaf(rand(&[4, 3], 1));
        let w = tape.leaf(rand(&[2, 3], 2));
        let b = tape.leaf(rand(&[2], 3));
        let _ = tape.group_linear(x, [(w, b)], &[3]);
    }

    #[test]
    #[should_panic(expected = "lhs shape mismatch")]
    fn group_block_lhs_matmul_rejects_mismatched_lhs_shapes() {
        let tape = Tape::new();
        let x = tape.leaf(rand(&[10, 2], 1));
        let l0 = tape.leaf(rand(&[2, 2], 2));
        let l1 = tape.leaf(rand(&[3, 3], 3));
        let _ = tape.group_block_lhs_matmul([l0, l1], x, &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn group_linear_rejects_mismatched_group_widths() {
        let tape = Tape::new();
        let x = tape.leaf(rand(&[4, 3], 1));
        let w0 = tape.leaf(rand(&[2, 3], 2));
        let b0 = tape.leaf(rand(&[2], 3));
        let w1 = tape.leaf(rand(&[5, 3], 4));
        let b1 = tape.leaf(rand(&[5], 5));
        let _ = tape.group_linear(x, [(w0, b0), (w1, b1)], &[2, 2]);
    }
}
