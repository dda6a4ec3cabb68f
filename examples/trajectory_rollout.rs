//! Clinical-style trajectory projection: train a personalized model,
//! checkpoint it, and roll it several beeps ahead — plus the VAR
//! baseline's interpretable coefficient network.
//!
//! ```bash
//! cargo run --release -p ema-core --example trajectory_rollout
//! ```

use ema_core::checkpoint::Checkpoint;
use ema_core::forecast::{horizon_mse, iterative_forecast};
use ema_core::train::{train_model, TrainConfig};
use ema_data::{make_windows, split_train_test, EmaGenerator, GeneratorConfig};
use ema_models::{Forecaster, LstmForecaster, ModelConfig, VarForecaster};
use ema_tensor::Rng64;

fn main() {
    let dataset = EmaGenerator::new(GeneratorConfig::quick(1, 8, 314)).generate();
    let individual = &dataset.individuals[0];
    let (train, test) = split_train_test(&individual.data, 0.7);
    let seq = 5;
    let windows = make_windows(&train, seq);

    // 1. Train a personalized LSTM and checkpoint it.
    let mut model = LstmForecaster::new(
        dataset.num_variables(),
        &ModelConfig {
            hidden: 16,
            ..ModelConfig::default()
        },
    );
    let report = train_model(&mut model, &windows, &TrainConfig::quick(80, 3));
    println!(
        "trained LSTM: loss {:.3} -> {:.3} over {} epochs",
        report.initial_loss(),
        report.final_loss(),
        report.epochs_run
    );
    let ckpt = Checkpoint::capture(model.params());
    println!(
        "checkpoint captured: {} tensors, {} scalars\n",
        ckpt.params.len(),
        model.params().num_scalars()
    );

    // 2. Roll the model 8 beeps (one day) ahead from the last window.
    let mut rng = Rng64::seed_from(9);
    let seed_window = train.last_rows(seq);
    let trajectory = iterative_forecast(&model, &seed_window, 8, &mut rng);
    println!("projected next day (first 4 variables):");
    for h in 0..8 {
        let row = trajectory.row(h);
        println!(
            "  beep +{}: {:+.2} {:+.2} {:+.2} {:+.2}",
            h + 1,
            row.data()[0],
            row.data()[1],
            row.data()[2],
            row.data()[3]
        );
    }

    // 3. How fast does the rollout degrade? Horizon-wise MSE on test.
    let errs = horizon_mse(&model, &test, seq, 4, &mut rng);
    println!("\nhorizon-wise test MSE:");
    for (h, e) in errs.iter().enumerate() {
        println!("  {}-step ahead: {:.3}", h + 1, e);
    }

    // 4. The VAR baseline's interpretable lag-1 network.
    let mut var = VarForecaster::new(dataset.num_variables(), 1, &ModelConfig::default());
    let var_windows = make_windows(&train, 1);
    var.fit_closed_form(&var_windows.inputs, &var_windows.targets, 0.1);
    let coef = var.coefficient_matrix(0);
    println!("\nVAR(1) strongest lag-1 effects:");
    let mut effects: Vec<(usize, usize, f64)> = (0..coef.dims()[0])
        .flat_map(|i| (0..coef.dims()[1]).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j)
        .map(|(i, j)| (i, j, coef.at2(i, j)))
        .collect();
    effects.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()));
    for &(i, j, w) in effects.iter().take(5) {
        println!(
            "  {} -> {}: {:+.3}",
            dataset.variable_names[j], dataset.variable_names[i], w
        );
    }
}
