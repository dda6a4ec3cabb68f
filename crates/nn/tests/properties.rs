//! Property-based tests of layers and optimizers.

use ema_autodiff::Tape;
use ema_check::{gen, prop_assert, prop_assert_eq, prop_tests};
use ema_nn::{Adam, Linear, LstmCell, Optimizer, OptimizerConfig, ParamStore};
use ema_tensor::{Rng64, Tensor};

prop_tests! {
    /// Adam drives a random convex quadratic `‖w − target‖²` to its
    /// minimum from any start.
    fn adam_minimises_random_quadratics(
        (target, seed) in |rng: &mut Rng64| {
            (gen::vec_f64(rng, -5.0, 5.0, 1, 6), gen::u64_below(500)(rng))
        },
    ) {
        let n = target.len();
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(seed);
        let w = store.register("w", Tensor::rand_normal(&[n], 0.0, 2.0, &mut rng));
        let mut adam = Adam::new(OptimizerConfig::with_learning_rate(0.1));
        for _ in 0..400 {
            let tape = Tape::new();
            let binding = store.bind(&tape);
            let t = tape.leaf(Tensor::from_vec1(target.clone()));
            let loss = tape.mse(binding.var(w), t);
            let grads = tape.backward(loss);
            adam.step(&mut store, &binding, &grads);
        }
        for (wi, ti) in store.value(w).data().iter().zip(target.iter()) {
            prop_assert!((wi - ti).abs() < 0.05, "w {wi} vs target {ti}");
        }
    }

    /// Adam with global-norm clipping steps as plain Adam does on the
    /// gradient rescaled to norm `clip`, whatever the gradient's scale,
    /// and leaves a gradient already within the clip untouched. The
    /// second, small gradient reads the moments the first one left.
    fn adam_clips_the_global_gradient_norm(
        (log_scale, seed) in |rng: &mut Rng64| {
            (gen::f64_in(rng, -3.0, 6.0), gen::u64_below(100)(rng))
        },
    ) {
        let clip = 1.0;
        let mut rng = Rng64::seed_from(seed);
        let g1 = Tensor::rand_normal(&[3], 0.0, 1.0, &mut rng).scale(10f64.powf(log_scale));
        let g2 = Tensor::rand_normal(&[3], 0.0, 1.0, &mut rng);
        let g2 = g2.scale(0.5 * clip / g2.norm());
        let run = |gs: &[&Tensor], grad_clip: f64| {
            let mut store = ParamStore::new();
            let w = store.register("w", Tensor::zeros(&[3]));
            let mut adam = Adam::new(OptimizerConfig { learning_rate: 0.1, grad_clip });
            for &g in gs {
                let tape = Tape::new();
                let binding = store.bind(&tape);
                let gl = tape.leaf(g.clone());
                let p = tape.mul(binding.var(w), gl);
                let loss = tape.sum_all(p); // grad = g
                let grads = tape.backward(loss);
                adam.step(&mut store, &binding, &grads);
            }
            store.value(w).clone()
        };
        let clipped = run(&[&g1, &g2], clip);
        let norm = g1.norm();
        if norm <= clip {
            let unclipped = run(&[&g1, &g2], 0.0);
            prop_assert_eq!(clipped.data(), unclipped.data());
        } else {
            let rescaled = run(&[&g1.scale(clip / norm), &g2], 0.0);
            for (a, b) in clipped.data().iter().zip(rescaled.data()) {
                prop_assert!((a - b).abs() <= 1e-12, "{a} vs {b} at norm {norm}");
            }
        }
    }

    /// LSTM hidden states stay in [−1, 1] for any input and any number
    /// of steps when starting from zero state.
    fn recurrent_states_stay_bounded(
        (seed, steps, input_scale) in |rng: &mut Rng64| {
            (
                gen::u64_below(200)(rng),
                gen::usize_in(rng, 1, 12),
                gen::f64_in(rng, 0.1, 10.0),
            )
        },
    ) {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(seed);
        let lstm = LstmCell::new(&mut store, "l", 4, 6, &mut rng);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let xs: Vec<_> = (0..steps)
            .map(|_| tape.leaf(Tensor::rand_normal(&[2, 4], 0.0, input_scale, &mut rng)))
            .collect();
        let s0 = lstm.zero_state(&tape, 2);
        let states = lstm.run_sequence(&tape, &binding, &xs, s0);
        for &s in &states {
            let v = tape.value(s);
            prop_assert!(v.all_finite());
            prop_assert!(v.data().iter().all(|&x| x.abs() <= 1.0 + 1e-9));
        }
    }

    /// A linear layer is, in fact, linear: f(αx + βy) = αf(x) + βf(y)
    /// once the bias is removed.
    fn linear_layer_is_linear(
        (seed, alpha, beta) in |rng: &mut Rng64| {
            (
                gen::u64_below(200)(rng),
                gen::f64_in(rng, -2.0, 2.0),
                gen::f64_in(rng, -2.0, 2.0),
            )
        },
    ) {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(seed);
        let layer = Linear::new(&mut store, "l", 3, 4, &mut rng);
        store.value_mut(layer.b).data_mut().fill(0.0);
        let x = Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut rng);
        let y = Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut rng);

        let apply = |input: &Tensor| {
            let tape = Tape::new();
            let binding = store.bind(&tape);
            let v = tape.leaf(input.clone());
            let out = layer.forward(&tape, &binding, v);
            tape.value(out)
        };
        let combined = apply(&x.scale(alpha).add(&y.scale(beta)));
        let separate = apply(&x).scale(alpha).add(&apply(&y).scale(beta));
        for (a, b) in combined.data().iter().zip(separate.data().iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Optimizer steps are deterministic: two identical runs stay
    /// bit-identical.
    fn optimisation_is_deterministic(seed in gen::u64_below(100)) {
        let run = || {
            let mut store = ParamStore::new();
            let mut rng = Rng64::seed_from(seed);
            let w = store.register("w", Tensor::rand_normal(&[4], 0.0, 1.0, &mut rng));
            let mut adam = Adam::new(OptimizerConfig::with_learning_rate(0.05));
            for _ in 0..20 {
                let tape = Tape::new();
                let binding = store.bind(&tape);
                let sq = tape.square(binding.var(w));
                let loss = tape.sum_all(sq);
                let grads = tape.backward(loss);
                adam.step(&mut store, &binding, &grads);
            }
            store.value(w).data().to_vec()
        };
        prop_assert_eq!(run(), run());
    }
}
