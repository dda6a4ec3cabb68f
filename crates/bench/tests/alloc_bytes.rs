//! Byte accounting of the counting allocator: live bytes and the peak.
//!
//! `LIVE_BYTES` and `PEAK_BYTES` are process-wide, so these checks
//! cannot share a process with concurrently running tests: another
//! thread freeing memory mid-check moves the counter under it. This
//! binary runs without the libtest harness (`harness = false`), one
//! check after the other on the main thread, so nothing else allocates
//! while a check measures. It prints libtest-style result lines.

use ema_autodiff::{Grads, Tape};
use ema_bench::alloc::{live_bytes, peak_bytes, reset_peak_bytes};
use ema_core::{run_cohort_sharded, Executor, GraphSpec, RunSpec, TrainConfig};
use ema_data::{EmaGenerator, GeneratorConfig};
use ema_models::{ModelConfig, ModelKind};
use ema_obs::ObsMode;
use ema_tensor::{Rng64, Tensor};

fn peak_bytes_tracks_a_regions_high_water_mark() {
    reset_peak_bytes();
    let base = peak_bytes();
    let v: Vec<u8> = vec![0; 1 << 20];
    std::hint::black_box(&v);
    let with_buf = peak_bytes();
    assert!(
        with_buf >= base + (1 << 20),
        "peak {with_buf} did not cover the 1 MiB buffer over base {base}"
    );
    drop(v);
    // Peak is a high-water mark: freeing must not lower it.
    assert!(peak_bytes() >= with_buf);
    // Rebasing returns it to the (now lower) live footprint.
    reset_peak_bytes();
    assert!(peak_bytes() < with_buf);
}

fn live_bytes_falls_after_free() {
    let before = live_bytes();
    let v: Vec<u8> = vec![0; 1 << 16];
    std::hint::black_box(&v);
    assert!(live_bytes() >= before + (1 << 16));
    drop(v);
    assert!(live_bytes() < before + (1 << 16));
}

/// One backward pass over a chain of 64 pointwise nodes on a
/// `[512, 32]` leaf (128 KiB per gradient) frees each gradient once its
/// node's step has run, so the pass's peak rises by a few gradient
/// buffers, not by one per node. The pool is warm and the workspace
/// empty when the pass starts, as in a training epoch after the first.
fn backward_frees_each_gradient_once_used() {
    const NODES: usize = 64;
    let buf = 512 * 32 * std::mem::size_of::<f64>();
    let tape = Tape::new();
    let mut rng = Rng64::seed_from(1);
    let x = tape.leaf(Tensor::rand_normal(&[512, 32], 0.0, 1.0, &mut rng));
    let c = tape.leaf(Tensor::rand_normal(&[512, 32], 0.0, 1.0, &mut rng));
    let mut y = x;
    for i in 0..NODES {
        y = match i % 8 {
            0 => tape.tanh(y),
            1 => tape.add(y, c),
            2 => tape.sigmoid(y),
            3 => tape.mul(y, c),
            4 => tape.scale(y, 0.5),
            5 => tape.sub(y, c),
            6 => tape.relu(y),
            _ => tape.square(y),
        };
    }
    let loss = tape.sum_all(y);
    // Warm-up pass: fills the pool with this length class.
    let _ = tape.backward(loss);

    let mut grads = Grads::empty();
    let base = live_bytes();
    reset_peak_bytes();
    tape.backward_into(loss, &mut grads);
    let rise = peak_bytes().saturating_sub(base);
    assert!(grads.get(x).is_some() && grads.get(c).is_some());
    assert!(
        rise <= 4 * buf as u64,
        "backward over {NODES} nodes raised the peak by {rise} bytes: {:.1} gradient buffers of {buf}",
        rise as f64 / buf as f64
    );
}

/// The shard body runs each member end to end and drops it before the
/// next starts, so a shard job's heap holds one member's windows,
/// model and workspace at a time: over one tiny LSTM study, 16-member
/// shards peak within a small constant of 1-member shards instead of
/// growing with every member a shard holds. (The constant covers what
/// the sharded runner itself keeps per shard: the generated series and
/// the outcomes.)
fn shard_peak_heap_does_not_grow_with_its_members() {
    const SLACK: u64 = 64 * 1024;
    ema_obs::set_mode(ObsMode::Off);
    let generator = EmaGenerator::new(GeneratorConfig::quick(16, 4, 11));
    let mut spec = RunSpec::new(ModelKind::Lstm, GraphSpec::None, 2);
    spec.model_config = ModelConfig::tiny(0);
    spec.train_config = TrainConfig::quick(2, 7);
    let executor = Executor::sequential();
    let peak = |shard: usize| {
        // Warm-up run: fills the buffer pool at this shard size.
        drop(run_cohort_sharded(&generator, &spec, shard, &executor));
        let base = live_bytes();
        reset_peak_bytes();
        let outcomes = run_cohort_sharded(&generator, &spec, shard, &executor);
        let rise = peak_bytes().saturating_sub(base);
        assert_eq!(outcomes.len(), 16);
        rise
    };
    let (one, sixteen) = (peak(1), peak(16));
    ema_obs::set_mode(ObsMode::from_env());
    assert!(
        sixteen <= one + SLACK,
        "16-member shards peaked {sixteen} bytes over the live heap, 1-member shards {one}: \
         {} bytes more, past the {SLACK}-byte allowance",
        sixteen.saturating_sub(one)
    );
}

fn main() {
    let checks: [(&str, fn()); 4] = [
        (
            "peak_bytes_tracks_a_regions_high_water_mark",
            peak_bytes_tracks_a_regions_high_water_mark,
        ),
        ("live_bytes_falls_after_free", live_bytes_falls_after_free),
        (
            "backward_frees_each_gradient_once_used",
            backward_frees_each_gradient_once_used,
        ),
        (
            "shard_peak_heap_does_not_grow_with_its_members",
            shard_peak_heap_does_not_grow_with_its_members,
        ),
    ];
    // Name filters as libtest takes them: any non-flag argument.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let selected: Vec<_> = checks
        .iter()
        .filter(|(name, _)| filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str())))
        .collect();
    println!("\nrunning {} tests", selected.len());
    for (name, check) in &selected {
        check();
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured; {} filtered out\n",
        selected.len(),
        checks.len() - selected.len()
    );
}
