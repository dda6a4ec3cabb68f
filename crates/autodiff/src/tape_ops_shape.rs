//! Shape-manipulating tape operations: concatenation, slicing, stacking.

use crate::{Op, Tape, Var};
use ema_tensor::{pool, Tensor};

impl Tape {
    /// Horizontal concatenation `[m,a] ++ [m,b] -> [m,a+b]`.
    pub fn hcat(&self, a: Var, b: Var) -> Var {
        let out = self.compute(|v| v[0].hcat(v[1]), &[a, b]);
        self.push(out, Op::HCat(a, b))
    }

    /// Rows `[start, end)` of a matrix node.
    pub fn slice_rows(&self, a: Var, start: usize, end: usize) -> Var {
        let out = self.compute(|v| v[0].slice_rows(start, end), &[a]);
        self.push(out, Op::SliceRows(a, start, end))
    }

    /// Columns `[start, end)` of a matrix node.
    pub fn slice_cols(&self, a: Var, start: usize, end: usize) -> Var {
        let out = self.compute(|v| v[0].slice_cols(start, end), &[a]);
        self.push(out, Op::SliceCols(a, start, end))
    }

    /// Reinterprets a node under a new shape with equal volume.
    ///
    /// # Panics
    /// Panics if the volumes differ.
    pub fn reshape(&self, a: Var, dims: &[usize]) -> Var {
        let out = self.compute(|v| v[0].reshaped(dims), &[a]);
        self.push(out, Op::Reshape(a))
    }

    /// Stacks nodes' rows into one `[Σ r, c]` matrix, in order: a
    /// rank-1 `[c]` node is one row, a `[r, c]` node its `r` rows
    /// (`predict_cohort` joins its members' `[W, V]` prediction blocks
    /// this way). Backward hands each node its own rows.
    ///
    /// # Panics
    /// Panics if `vars` is empty, a node has rank above 2, or the row
    /// lengths differ.
    pub fn stack_rows(&self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "cannot stack zero rows");
        let out = {
            let nodes = self.nodes.borrow();
            let parts = || vars.iter().map(|v| &nodes[v.0].value);
            let cols = *nodes[vars[0].0].value.dims().last().expect("rank ≥ 1");
            let mut rows = 0;
            for (i, t) in parts().enumerate() {
                assert!(t.rank() <= 2, "stack_rows: node {i} has rank {}", t.rank());
                assert_eq!(
                    *t.dims().last().expect("rank ≥ 1"),
                    cols,
                    "stack_rows: node {i} has mismatched row length"
                );
                rows += t.len() / cols;
            }
            let mut data = pool::take_uninit(rows * cols);
            let mut off = 0;
            for t in parts() {
                data[off..off + t.len()].copy_from_slice(t.data());
                off += t.len();
            }
            Tensor::from_vec(&[rows, cols], data).expect("stack_rows shape")
        };
        self.push(out, Op::StackRows(vars.to_vec()))
    }

    /// Flattens a matrix node to rank 1.
    pub fn flatten(&self, a: Var) -> Var {
        let n = self.compute(|v| v[0].len(), &[a]);
        self.reshape(a, &[n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hcat_backward_splits_grad() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2, 2]));
        let b = tape.leaf(Tensor::ones(&[2, 1]));
        let c = tape.hcat(a, b);
        assert_eq!(tape.dims(c), vec![2, 3]);
        // Weight the loss so the two sides see different gradients.
        let w =
            tape.leaf(Tensor::from_vec2(vec![vec![1.0, 1.0, 5.0], vec![1.0, 1.0, 5.0]]).unwrap());
        let weighted = tape.mul(c, w);
        let loss = tape.sum_all(weighted);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[5.0, 5.0]);
    }

    #[test]
    fn slice_rows_backward_zero_pads() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[4, 2]));
        let s = tape.slice_rows(a, 1, 3);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        let g = grads.get(a).unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn slice_cols_backward_zero_pads() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2, 3]));
        let s = tape.slice_cols(a, 2, 3);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        let g = grads.get(a).unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn reshape_round_trips_grad_shape() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[2, 3]));
        let r = tape.reshape(a, &[3, 2]);
        let loss = tape.sum_all(r);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().dims(), &[2, 3]);
    }

    /// `[r, c]` blocks and a rank-1 row stack in order, bit for bit, and
    /// each node gets exactly its own rows of the gradient back, in its
    /// own shape (a reused block accumulates both of its copies).
    #[test]
    fn stack_rows_joins_row_blocks_bit_for_bit() {
        let mut rng = ema_tensor::Rng64::seed_from(4);
        let mut rand = |dims: &[usize]| Tensor::rand_normal(dims, 0.0, 1.0, &mut rng);
        let (a, b, c, w) = (rand(&[3, 2]), rand(&[2]), rand(&[1, 2]), rand(&[8, 2]));
        let tape = Tape::new();
        let (av, bv, cv) = (
            tape.leaf(a.clone()),
            tape.leaf(b.clone()),
            tape.leaf(c.clone()),
        );
        let m = tape.stack_rows(&[av, bv, cv, av]);
        assert_eq!(tape.dims(m), vec![8, 2]);
        let want: Vec<f64> = [&a, &b, &c, &a]
            .iter()
            .flat_map(|t| t.data().iter().copied())
            .collect();
        assert_eq!(tape.value(m).data(), &want[..]);

        let wl = tape.leaf(w.clone());
        let grads = tape.backward(tape.sum_all(tape.mul(m, wl)));
        let da = w.slice_rows(0, 3).add(&w.slice_rows(5, 8));
        assert_eq!(grads.get(av).unwrap().data(), da.data());
        assert_eq!(grads.get(bv).unwrap().dims(), &[2]);
        assert_eq!(grads.get(bv).unwrap().data(), w.row(3).data());
        assert_eq!(grads.get(cv).unwrap().dims(), &[1, 2]);
        assert_eq!(grads.get(cv).unwrap().data(), w.row(4).data());
    }

    #[test]
    fn stack_rows_backward_routes_rows() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec1(vec![1.0, 2.0]));
        let b = tape.leaf(Tensor::from_vec1(vec![3.0, 4.0]));
        let m = tape.stack_rows(&[a, b]);
        assert_eq!(tape.dims(m), vec![2, 2]);
        let w = tape.leaf(Tensor::from_vec2(vec![vec![1.0, 1.0], vec![10.0, 10.0]]).unwrap());
        let weighted = tape.mul(m, w);
        let loss = tape.sum_all(weighted);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[10.0, 10.0]);
    }
}
