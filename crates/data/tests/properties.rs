//! Property-based tests of preprocessing and windowing.

use ema_check::{gen, prop_assert_eq, prop_assume, prop_tests};
use ema_data::preprocess::z_normalize;
use ema_data::{make_test_windows, make_windows, split_train_test};
use ema_tensor::{Rng64, Tensor};

fn mts(rng: &mut Rng64) -> Tensor {
    let t = gen::usize_in(rng, 8, 40);
    let v = gen::usize_in(rng, 2, 6);
    Tensor::from_vec(&[t, v], gen::vec_f64_len(rng, -100.0, 100.0, t * v)).unwrap()
}

prop_tests! {
    fn z_normalize_is_idempotent(data in mts) {
        let z1 = z_normalize(&data);
        let z2 = z_normalize(&z1);
        ema_tensor::assert_tensors_close(&z1, &z2, 1e-9);
    }

    fn z_normalize_is_shift_scale_invariant(data in mts) {
        let shifted = data.map(|v| 4.0 * v - 11.0);
        ema_tensor::assert_tensors_close(
            &z_normalize(&data),
            &z_normalize(&shifted),
            1e-9,
        );
    }

    fn split_preserves_rows_in_order(
        (data, frac) in |rng: &mut Rng64| (mts(rng), gen::f64_in(rng, 0.2, 0.8)),
    ) {
        let t = data.dims()[0];
        let (train, test) = split_train_test(&data, frac);
        prop_assert_eq!(train.dims()[0] + test.dims()[0], t);
        // Concatenation reproduces the original exactly.
        ema_tensor::assert_tensors_close(&train.vcat(&test), &data, 0.0);
    }

    fn window_count_and_targets(
        (data, seq) in |rng: &mut Rng64| (mts(rng), gen::usize_in(rng, 1, 5)),
    ) {
        let t = data.dims()[0];
        prop_assume!(t > seq);
        let w = make_windows(&data, seq);
        prop_assert_eq!(w.len(), t - seq);
        // Each target is the row right after its window.
        for (i, (input, target)) in w.inputs.iter().zip(w.targets.iter()).enumerate() {
            prop_assert_eq!(input.dims(), &[seq, data.dims()[1]]);
            let expected_target = data.row(i + seq);
            prop_assert_eq!(target.data(), expected_target.data());
            // Last input row immediately precedes the target.
            let last_in = input.row(seq - 1);
            let prev_row = data.row(i + seq - 1);
            prop_assert_eq!(last_in.data(), prev_row.data());
        }
    }

    fn test_windows_cover_all_test_rows(
        (data, seq) in |rng: &mut Rng64| (mts(rng), gen::usize_in(rng, 1, 4)),
    ) {
        let (train, test) = split_train_test(&data, 0.7);
        prop_assume!(train.dims()[0] >= seq);
        let w = make_test_windows(&train, &test, seq);
        prop_assert_eq!(w.len(), test.dims()[0]);
        for (i, target) in w.targets.iter().enumerate() {
            let expected = test.row(i);
            prop_assert_eq!(target.data(), expected.data());
        }
    }
}
