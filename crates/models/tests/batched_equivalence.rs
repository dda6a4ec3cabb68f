//! Property tests pinning the cohort forward
//! ([`CohortForecaster::predict_cohort`]) bit-identical to the
//! per-window oracle graph — each individual's windows run one at a
//! time through `predict_window` and stacked with `stack_rows` on its
//! own tape — in predicted values AND in every parameter gradient, in
//! both train mode (dropout active, each individual's masks drawn
//! window-major from its own stream) and eval mode, across seeds and
//! window counts: one individual's window batch for each of the four
//! paper models, and cohorts of B = 1–4 individuals with distinct
//! graphs for all five models.

use ema_autodiff::{Tape, Var};
use ema_check::{gen, prop_tests};
use ema_graph::AdjacencyMatrix;
use ema_models::{
    A3tgcn, Astgcn, CohortBatch, CohortCtx, CohortForecaster, Forecaster, ForwardCtx,
    LstmForecaster, ModelConfig, Mtgnn, VarForecaster, WindowBatch,
};
use ema_nn::Binding;
use ema_tensor::{derive_stream_seed, Rng64, Tensor};

const V: usize = 4;
const SEQ: usize = 3;

/// Loss + backward on a finished graph; returns the forward value and
/// the gradient of every registered parameter (None when unused).
fn finish(
    tape: &Tape,
    binding: &Binding,
    model: &dyn Forecaster,
    out: Var,
    targets: &Tensor,
) -> (Tensor, Vec<Option<Tensor>>) {
    let tgt = tape.leaf(targets.clone());
    let loss = tape.mse(out, tgt);
    let grads = tape.backward(loss);
    let per_param = model
        .params()
        .ids()
        .iter()
        .map(|&id| grads.get(binding.var(id)).cloned())
        .collect();
    (tape.value(out), per_param)
}

fn run_per_window(
    model: &dyn Forecaster,
    windows: &[Tensor],
    targets: &Tensor,
    training: bool,
    rng_seed: u64,
) -> (Tensor, Vec<Option<Tensor>>) {
    let tape = Tape::new();
    let binding = model.params().bind(&tape);
    let mut rng = Rng64::seed_from(rng_seed);
    let mut ctx = if training {
        ForwardCtx::train(&mut rng)
    } else {
        ForwardCtx::eval(&mut rng)
    };
    let preds: Vec<Var> = windows
        .iter()
        .map(|w| model.predict_window(&tape, &binding, w, &mut ctx))
        .collect();
    let stacked = tape.stack_rows(&preds);
    finish(&tape, &binding, model, stacked, targets)
}

/// One individual's windows through a one-member cohort forward: the
/// window-batched graph training and evaluation run.
fn run_batched<M: CohortForecaster>(
    model: &M,
    windows: &[Tensor],
    targets: &Tensor,
    training: bool,
    rng_seed: u64,
) -> (Tensor, Vec<Option<Tensor>>) {
    let tape = Tape::new();
    let binding = model.params().bind(&tape);
    let batch = WindowBatch::from_windows(windows);
    let cohort = CohortBatch::from_batches(&[&batch]);
    let mut rngs = [Rng64::seed_from(rng_seed)];
    let mut ctx = if training {
        CohortCtx::train(&mut rngs)
    } else {
        CohortCtx::eval(&mut rngs)
    };
    let out = M::predict_cohort(&[model], &tape, &[&binding], &cohort, &mut ctx);
    finish(&tape, &binding, model, out, targets)
}

fn assert_bit_identical(label: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.dims(), b.dims(), "{label}: shape mismatch");
    assert!(
        a.data() == b.data(),
        "{label}: values differ bit-wise\n  oracle: {:?}\n  cohort: {:?}",
        a.data(),
        b.data()
    );
}

/// One full comparison: same model, same windows, same RNG seed — the
/// window-batched graph must match the per-window graph byte for byte.
fn check_model<M: CohortForecaster>(model: &M, seed: u64, wins: usize, training: bool) {
    let mut data_rng = Rng64::seed_from(seed ^ 0x9e37_79b9);
    let windows: Vec<Tensor> = (0..wins)
        .map(|_| Tensor::rand_normal(&[SEQ, V], 0.0, 1.0, &mut data_rng))
        .collect();
    let targets = Tensor::rand_normal(&[wins, V], 0.0, 1.0, &mut data_rng);

    let rng_seed = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(7);
    let (val_a, grads_a) = run_per_window(model, &windows, &targets, training, rng_seed);
    let (val_b, grads_b) = run_batched(model, &windows, &targets, training, rng_seed);

    let mode = if training { "train" } else { "eval" };
    let label = model.name();
    assert_bit_identical(&format!("{label} {mode} values"), &val_a, &val_b);
    assert_eq!(grads_a.len(), grads_b.len());
    let ids = model.params().ids();
    for (i, (ga, gb)) in grads_a.iter().zip(grads_b.iter()).enumerate() {
        let name = model.params().name(ids[i]);
        let grad_label = format!("{label} {mode} grad `{name}`");
        match (ga, gb) {
            (Some(ga), Some(gb)) => assert_bit_identical(&grad_label, ga, gb),
            (None, None) => {}
            _ => panic!("{grad_label}: one path has a gradient, the other none"),
        }
    }
}

/// A different graph per cohort position so grouped constants are
/// genuinely per-individual: ring, complete, or path, by index.
fn cohort_graph(b: usize) -> AdjacencyMatrix {
    match b % 3 {
        0 => {
            let mut a = AdjacencyMatrix::empty(V);
            for i in 0..V {
                let j = (i + 1) % V;
                a.set_weight(i, j, 1.0);
                a.set_weight(j, i, 1.0);
            }
            a
        }
        1 => AdjacencyMatrix::complete(V),
        _ => {
            let mut a = AdjacencyMatrix::empty(V);
            for i in 0..V - 1 {
                a.set_weight(i, i + 1, 1.0);
                a.set_weight(i + 1, i, 1.0);
            }
            a
        }
    }
}

/// One cohort comparison: B independent models forward through ONE
/// grouped tape graph ([`CohortForecaster::predict_cohort`]) with
/// per-individual MSE losses summed into one scalar, vs B separate
/// per-window graphs ([`run_per_window`]) — values per row block AND
/// every individual's parameter gradients must match byte for byte.
/// Per the cohort RNG contract each individual draws from its own
/// stream, so the oracle runs reuse the same derived seeds. `build`
/// constructs individual `b`'s model (with its own graph) from a seed.
fn check_cohort<M: CohortForecaster>(
    label: &str,
    seed: u64,
    groups: usize,
    training: bool,
    build: &dyn Fn(usize, u64) -> M,
) {
    let mut data_rng = Rng64::seed_from(seed ^ 0x9e37_79b9);
    let mut models = Vec::with_capacity(groups);
    let mut windows = Vec::with_capacity(groups);
    let mut batches = Vec::with_capacity(groups);
    let mut targets = Vec::with_capacity(groups);
    let mut rng_seeds = Vec::with_capacity(groups);
    for b in 0..groups {
        let wins = gen::usize_in(&mut data_rng, 1, 5);
        let member: Vec<Tensor> = (0..wins)
            .map(|_| Tensor::rand_normal(&[SEQ, V], 0.0, 1.0, &mut data_rng))
            .collect();
        models.push(build(b, seed.wrapping_add(b as u64)));
        batches.push(WindowBatch::from_windows(&member));
        windows.push(member);
        targets.push(Tensor::rand_normal(&[wins, V], 0.0, 1.0, &mut data_rng));
        rng_seeds.push(derive_stream_seed(seed, b as u64));
    }

    // Cohort path: one tape, one grouped forward, one backward.
    let tape = Tape::new();
    let bindings: Vec<Binding> = models.iter().map(|m| m.params().bind(&tape)).collect();
    let binding_refs: Vec<&Binding> = bindings.iter().collect();
    let group_refs: Vec<&M> = models.iter().collect();
    let batch_refs: Vec<&WindowBatch> = batches.iter().collect();
    let cohort = CohortBatch::from_batches(&batch_refs);
    let mut rngs: Vec<Rng64> = rng_seeds.iter().map(|&s| Rng64::seed_from(s)).collect();
    let mut ctx = if training {
        CohortCtx::train(&mut rngs)
    } else {
        CohortCtx::eval(&mut rngs)
    };
    let out = M::predict_cohort(&group_refs, &tape, &binding_refs, &cohort, &mut ctx);
    let mut total: Option<Var> = None;
    for (b, tgt) in targets.iter().enumerate() {
        let off = cohort.offset(b);
        let pred = tape.slice_rows(out, off, off + cohort.group_wins()[b]);
        let loss = tape.mse(pred, tape.leaf(tgt.clone()));
        total = Some(match total {
            Some(acc) => tape.add(acc, loss),
            None => loss,
        });
    }
    let grads = tape.backward(total.expect("non-empty cohort"));
    let cohort_val = tape.value(out);

    // Oracle: each individual's windows one at a time, on its own tape
    // with its own stream.
    let mode = if training { "train" } else { "eval" };
    for (b, model) in models.iter().enumerate() {
        let (val, oracle_grads) =
            run_per_window(model, &windows[b], &targets[b], training, rng_seeds[b]);
        let off = cohort.offset(b);
        let wins = cohort.group_wins()[b];
        assert_eq!(
            &cohort_val.data()[off * V..(off + wins) * V],
            val.data(),
            "{label} individual {b} {mode} values differ bit-wise"
        );
        let ids = model.params().ids();
        for (i, oracle) in oracle_grads.iter().enumerate() {
            let name = model.params().name(ids[i]);
            let grad_label = format!("{label} individual {b} {mode} grad `{name}`");
            let cohort_grad = grads.get(bindings[b].var(ids[i]));
            match (oracle, cohort_grad) {
                (Some(ga), Some(gb)) => assert_bit_identical(&grad_label, ga, gb),
                (None, None) => {}
                _ => panic!("{grad_label}: one path has a gradient, the other none"),
            }
        }
    }
}

/// Generator: (seed, window count 1–4, training flag).
fn case(rng: &mut Rng64) -> (u64, usize, bool) {
    (
        gen::usize_in(rng, 0, 1 << 16) as u64,
        gen::usize_in(rng, 1, 5),
        gen::usize_in(rng, 0, 2) == 0,
    )
}

/// Generator: (seed, group count 1–4, training flag).
fn cohort_case(rng: &mut Rng64) -> (u64, usize, bool) {
    (
        gen::usize_in(rng, 0, 1 << 16) as u64,
        gen::usize_in(rng, 1, 5),
        gen::usize_in(rng, 0, 2) == 0,
    )
}

prop_tests! {
    fn lstm_batched_matches_oracle((seed, wins, training) in case) {
        check_model(&LstmForecaster::new(V, &ModelConfig::tiny(seed)), seed, wins, training);
    }

    fn a3tgcn_batched_matches_oracle((seed, wins, training) in case) {
        let graph = AdjacencyMatrix::complete(V);
        check_model(&A3tgcn::new(V, &graph, &ModelConfig::tiny(seed)), seed, wins, training);
    }

    fn astgcn_batched_matches_oracle((seed, wins, training) in case) {
        let graph = AdjacencyMatrix::complete(V);
        let model = Astgcn::new(V, SEQ, &graph, &ModelConfig::tiny(seed));
        check_model(&model, seed, wins, training);
    }

    fn mtgnn_batched_matches_oracle((seed, wins, training) in case) {
        let graph = AdjacencyMatrix::complete(V);
        let model = Mtgnn::new(V, SEQ, Some(&graph), &ModelConfig::tiny(seed));
        check_model(&model, seed, wins, training);
    }

    fn lstm_cohort_matches_per_individual_oracle((seed, groups, training) in cohort_case) {
        check_cohort("LSTM", seed, groups, training, &|_b, s| {
            LstmForecaster::new(V, &ModelConfig::tiny(s))
        });
    }

    fn a3tgcn_cohort_matches_per_individual_oracle((seed, groups, training) in cohort_case) {
        check_cohort("A3TGCN", seed, groups, training, &|b, s| {
            A3tgcn::with_options(V, &cohort_graph(b), &ModelConfig::tiny(s), true)
        });
    }

    fn astgcn_cohort_matches_per_individual_oracle((seed, groups, training) in cohort_case) {
        check_cohort("ASTGCN", seed, groups, training, &|b, s| {
            Astgcn::with_options(V, SEQ, &cohort_graph(b), &ModelConfig::tiny(s), true)
        });
    }

    fn mtgnn_cohort_matches_per_individual_oracle((seed, groups, training) in cohort_case) {
        check_cohort("MTGNN", seed, groups, training, &|b, s| {
            Mtgnn::new(V, SEQ, Some(&cohort_graph(b)), &ModelConfig::tiny(s))
        });
    }

    fn var_cohort_matches_per_individual_oracle((seed, groups, training) in cohort_case) {
        check_cohort("VAR", seed, groups, training, &|_b, s| {
            VarForecaster::new(V, SEQ, &ModelConfig::tiny(s))
        });
    }
}
