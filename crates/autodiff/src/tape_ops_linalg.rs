//! Linear-algebra tape operations.

use crate::{Op, Tape, Var};

impl Tape {
    /// Matrix product `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let out = self.compute(|v| v[0].matmul(v[1]), &[a, b]);
        self.push(out, Op::Matmul(a, b))
    }

    /// Transpose-aware product `a · bᵀ`: `[m,k] x [n,k] -> [m,n]`
    /// without materializing the transpose. Bit-identical to
    /// `matmul(a, transpose(b))` but records a single node.
    pub fn matmul_nt(&self, a: Var, b: Var) -> Var {
        let out = self.compute(|v| v[0].matmul_nt(v[1]), &[a, b]);
        self.push(out, Op::MatmulNT(a, b))
    }

    /// Matrix transpose.
    pub fn transpose(&self, a: Var) -> Var {
        let out = self.compute(|v| v[0].transpose(), &[a]);
        self.push(out, Op::Transpose(a))
    }

    /// Adds a `[c]` row vector to every row of an `[r,c]` matrix.
    pub fn add_row_broadcast(&self, m: Var, row: Var) -> Var {
        let out = self.compute(|v| v[0].add_row_broadcast(v[1]), &[m, row]);
        self.push(out, Op::AddRowBroadcast(m, row))
    }

    /// A linear layer step: `x · wᵀ + bias` for `x: [n, in]`,
    /// `w: [out, in]`, `bias: [out]`. Used by every model; records a
    /// single fused node instead of the transpose → matmul → broadcast
    /// chain (bit-identical values, three fewer intermediate tensors).
    pub fn linear(&self, x: Var, w: Var, bias: Var) -> Var {
        let out = self.compute(|v| v[0].addmm(v[1], v[2]), &[x, w, bias]);
        self.push(out, Op::Addmm(x, w, bias))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::Tensor;

    #[test]
    fn matmul_backward_known_values() {
        // loss = sum(A·B); dA = 1·Bᵀ rows, dB = Aᵀ·1.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec2(vec![vec![1.0, 2.0]]).unwrap()); // [1,2]
        let b = tape.leaf(Tensor::from_vec2(vec![vec![3.0], vec![4.0]]).unwrap()); // [2,1]
        let c = tape.matmul(a, b); // [[11]]
        assert_eq!(tape.value(c).data(), &[11.0]);
        let loss = tape.sum_all(c);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[3.0, 4.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn transpose_backward_transposes_grad() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(&[2, 3], (0..6).map(f64::from).collect()).unwrap());
        let t = tape.transpose(a);
        assert_eq!(tape.dims(t), vec![3, 2]);
        let loss = tape.sum_all(t);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().dims(), &[2, 3]);
    }

    #[test]
    fn matmul_nt_matches_composed_graph() {
        let mut rng = ema_tensor::Rng64::seed_from(12);
        let av = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let bv = Tensor::rand_normal(&[5, 4], 0.0, 1.0, &mut rng);

        let tape = Tape::new();
        let a = tape.leaf(av.clone());
        let b = tape.leaf(bv.clone());
        let fused = tape.matmul_nt(a, b);
        let loss = tape.sum_all(fused);
        let grads = tape.backward(loss);

        let reference = Tape::new();
        let ra = reference.leaf(av);
        let rb = reference.leaf(bv);
        let composed = reference.matmul(ra, reference.transpose(rb));
        let rloss = reference.sum_all(composed);
        let rgrads = reference.backward(rloss);

        assert_eq!(tape.value(fused).data(), reference.value(composed).data());
        assert_eq!(grads.get(a).unwrap().data(), rgrads.get(ra).unwrap().data());
        assert_eq!(grads.get(b).unwrap().data(), rgrads.get(rb).unwrap().data());
    }

    #[test]
    fn linear_shapes() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[5, 3]));
        let w = tape.leaf(Tensor::ones(&[4, 3]));
        let b = tape.leaf(Tensor::ones(&[4]));
        let y = tape.linear(x, w, b);
        assert_eq!(tape.dims(y), vec![5, 4]);
        // Each output = 3 * 1 + 1 = 4.
        assert!(tape.value(y).data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn bias_grad_is_column_sum() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[5, 3]));
        let w = tape.leaf(Tensor::zeros(&[2, 3]));
        let b = tape.leaf(Tensor::zeros(&[2]));
        let y = tape.linear(x, w, b);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        // 5 rows each contribute 1 to every bias element.
        assert_eq!(grads.get(b).unwrap().data(), &[5.0, 5.0]);
    }
}
