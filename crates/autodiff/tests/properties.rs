//! Property-based tests of the autodiff engine: calculus identities
//! that must hold for arbitrary inputs and compositions.

use ema_autodiff::{Tape, Var};
use ema_check::{gen, prop_assert, prop_tests};
use ema_tensor::{Rng64, Tensor};

fn vec_tensor(n: usize) -> impl Fn(&mut Rng64) -> Tensor {
    move |rng| Tensor::from_vec1(gen::vec_f64_len(rng, -3.0, 3.0, n))
}

/// A small catalogue of differentiable unary ops to compose.
#[derive(Debug, Clone, Copy)]
enum UnaryOp {
    Tanh,
    Sigmoid,
    Square,
    ScaleHalf,
}

impl UnaryOp {
    fn apply(self, tape: &Tape, v: Var) -> Var {
        match self {
            UnaryOp::Tanh => tape.tanh(v),
            UnaryOp::Sigmoid => tape.sigmoid(v),
            UnaryOp::Square => tape.square(v),
            UnaryOp::ScaleHalf => tape.scale(v, 0.5),
        }
    }
}

const ALL_OPS: [UnaryOp; 4] = [
    UnaryOp::Tanh,
    UnaryOp::Sigmoid,
    UnaryOp::Square,
    UnaryOp::ScaleHalf,
];

fn op_chain(rng: &mut Rng64) -> Vec<UnaryOp> {
    gen::vec_of(gen::one_of(&ALL_OPS), 1, 5)(rng)
}

prop_tests! {
    /// Chain rule: any random composition of smooth unary ops matches a
    /// central finite difference.
    fn random_compositions_pass_gradient_check(
        (x, ops) in |rng: &mut Rng64| (vec_tensor(5)(rng), op_chain(rng)),
    ) {
        let report = ema_autodiff::check::check_gradient(&x, 1e-5, |tape, v| {
            let mut cur = v;
            for op in &ops {
                cur = op.apply(tape, cur);
            }
            tape.sum_all(cur)
        });
        prop_assert!(
            report.max_rel_error < 1e-4,
            "composition {:?} failed: rel err {}",
            ops,
            report.max_rel_error
        );
    }

    /// d(sum)/dx is exactly a tensor of ones.
    fn grad_of_sum_is_ones(x in vec_tensor(7)) {
        let tape = Tape::new();
        let v = tape.leaf(x.clone());
        let loss = tape.sum_all(v);
        let grads = tape.backward(loss);
        let g = grads.get(v).unwrap();
        prop_assert!(g.data().iter().all(|&gi| gi == 1.0));
    }

    /// Linearity: ∇(α·f) = α·∇f.
    fn gradients_scale_linearly(
        (x, alpha) in |rng: &mut Rng64| (vec_tensor(6)(rng), gen::f64_in(rng, -3.0, 3.0)),
    ) {
        let grad_of = |scale: f64| {
            let tape = Tape::new();
            let v = tape.leaf(x.clone());
            let y = tape.tanh(v);
            let scaled = tape.scale(y, scale);
            let loss = tape.sum_all(scaled);
            let grads = tape.backward(loss);
            grads.get(v).unwrap().clone()
        };
        let g1 = grad_of(1.0);
        let ga = grad_of(alpha);
        for (a, b) in g1.data().iter().zip(ga.data().iter()) {
            prop_assert!((a * alpha - b).abs() < 1e-9);
        }
    }

    /// Additivity: ∇(f + g) = ∇f + ∇g when f and g share the input.
    fn gradients_add(x in vec_tensor(6)) {
        let grad_combined = {
            let tape = Tape::new();
            let v = tape.leaf(x.clone());
            let f = tape.tanh(v);
            let g = tape.square(v);
            let sum = tape.add(f, g);
            let loss = tape.sum_all(sum);
            tape.backward(loss).get(v).unwrap().clone()
        };
        let grad_f = {
            let tape = Tape::new();
            let v = tape.leaf(x.clone());
            let f = tape.tanh(v);
            let loss = tape.sum_all(f);
            tape.backward(loss).get(v).unwrap().clone()
        };
        let grad_g = {
            let tape = Tape::new();
            let v = tape.leaf(x.clone());
            let g = tape.square(v);
            let loss = tape.sum_all(g);
            tape.backward(loss).get(v).unwrap().clone()
        };
        for i in 0..x.len() {
            prop_assert!(
                (grad_combined.data()[i] - grad_f.data()[i] - grad_g.data()[i]).abs() < 1e-9
            );
        }
    }

    /// MSE gradient at the minimum is zero, and grows with the residual.
    fn mse_gradient_points_at_target(x in vec_tensor(5)) {
        let tape = Tape::new();
        let v = tape.leaf(x.clone());
        let target = tape.leaf(Tensor::zeros(&[5]));
        let loss = tape.mse(v, target);
        let grads = tape.backward(loss);
        let g = grads.get(v).unwrap();
        // ∇ = 2(x − t)/n: sign matches the residual.
        for (xi, gi) in x.data().iter().zip(g.data().iter()) {
            prop_assert!((gi - 2.0 * xi / 5.0).abs() < 1e-9);
        }
    }

    /// Constant leaves that do not feed the loss receive no gradient.
    fn disconnected_leaves_get_no_gradient(
        (x, y) in |rng: &mut Rng64| (vec_tensor(4)(rng), vec_tensor(4)(rng)),
    ) {
        let tape = Tape::new();
        let vx = tape.leaf(x);
        let vy = tape.leaf(y);
        let sq = tape.square(vx);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        prop_assert!(grads.get(vy).is_none());
        prop_assert!(grads.get(vx).is_some());
    }

    /// Softmax gradient rows sum to ~0 (probability mass is conserved).
    fn softmax_grad_rows_sum_to_zero(x in vec_tensor(6)) {
        let tape = Tape::new();
        let v = tape.leaf(x);
        let s = tape.softmax_last(v);
        // Weight the output so the gradient is non-trivial.
        let w = tape.leaf(Tensor::from_vec1((0..6).map(|i| -1.0 + 0.4 * f64::from(i)).collect()));
        let p = tape.mul(s, w);
        let loss = tape.sum_all(p);
        let grads = tape.backward(loss);
        let g = grads.get(v).unwrap();
        prop_assert!(g.sum().abs() < 1e-9, "softmax grad sum {}", g.sum());
    }
}
