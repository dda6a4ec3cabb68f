//! Shape-manipulating tape operations: concatenation, slicing, stacking.

use crate::{Op, Tape, Var};
use ema_tensor::Tensor;

impl Tape {
    /// Horizontal concatenation `[m,a] ++ [m,b] -> [m,a+b]`.
    pub fn hcat(&self, a: Var, b: Var) -> Var {
        let out = self.compute(|v| v[0].hcat(v[1]), &[a, b]);
        self.push(out, Op::HCat(a, b))
    }

    /// Vertical concatenation `[a,n] ++ [b,n] -> [a+b,n]`.
    pub fn vcat(&self, a: Var, b: Var) -> Var {
        let out = self.compute(|v| v[0].vcat(v[1]), &[a, b]);
        self.push(out, Op::VCat(a, b))
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

    /// Stacks rank-1 nodes of equal length into the rows of a matrix.
    ///
    /// # Panics
    /// Panics if `vars` is empty or lengths differ.
    pub fn stack_rows(&self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "cannot stack zero rows");
        let out = {
            let nodes = self.nodes.borrow();
            let rows: Vec<Tensor> = vars.iter().map(|v| nodes[v.0].value.clone()).collect();
            Tensor::stack_rows(&rows)
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
    fn vcat_backward_splits_grad() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[1, 2]));
        let b = tape.leaf(Tensor::ones(&[2, 2]));
        let c = tape.vcat(a, b);
        assert_eq!(tape.dims(c), vec![3, 2]);
        let loss = tape.sum_all(c);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().dims(), &[1, 2]);
        assert_eq!(grads.get(b).unwrap().dims(), &[2, 2]);
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
