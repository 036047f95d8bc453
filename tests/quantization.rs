//! Quantized checkpoints are a storage format.
//!
//! Loading a Q8_0 checkpoint dequantizes every entry into the f32 parameter
//! store, and prediction then runs the ordinary f32 kernels. So a model
//! loaded from a `.q8` file must predict bitwise the same as a model loaded
//! from a plain f32 checkpoint of that dequantized store, in both exec modes
//! and at every thread count; and it must stay within the accuracy gate of
//! its f32 source.

use std::path::PathBuf;

use bikecap::model::{BikeCap, BikeCapConfig, ExecMode};
use bikecap::quant::QuantFormat;
use bikecap::rt;
use bikecap::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bitwise_eq(label: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{label}: shape drift");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: element {i} diverges ({x} vs {y})"
        );
    }
}

fn tmp_ckpt(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bikecap-quanttest-{name}-{}.{ext}", std::process::id()))
}

/// A model with its weights reloaded through the quantized container.
fn quantized_model(config: BikeCapConfig, name: &str) -> BikeCap {
    let source = BikeCap::seeded(config.clone(), 42);
    let path = tmp_ckpt(name, "q8");
    source
        .save_quantized_checkpoint(&path, QuantFormat::Q8_0)
        .expect("quantized save");
    let mut model = BikeCap::seeded(config, 1);
    model.load_checkpoint(&path).expect("quantized load");
    std::fs::remove_file(&path).ok();
    assert!(model.precision().starts_with("q8_0"), "{}", model.precision());
    model
}

/// A model loaded from `model.q8` predicts bitwise the same as a model
/// loaded from an f32 checkpoint of its dequantized store, in eager and
/// compiled mode, at 1 and 4 threads.
#[test]
fn quantized_checkpoint_is_storage_only() {
    let config = BikeCapConfig::new(8, 8).history(8).horizon(4);
    let mut quantized = quantized_model(config.clone(), "storage");
    let path = tmp_ckpt("storage", "ckpt");
    quantized.save_checkpoint(&path).expect("f32 save");
    let mut dequantized = BikeCap::seeded(config, 2);
    dequantized.load_checkpoint(&path).expect("f32 load");
    std::fs::remove_file(&path).ok();
    assert_eq!(dequantized.precision(), "f32");

    let mut rng = StdRng::seed_from_u64(7);
    let window = Tensor::rand_uniform(&[3, 4, 8, 8, 8], 0.0, 1.0, &mut rng);
    let single = Tensor::rand_uniform(&[4, 8, 8, 8], 0.0, 1.0, &mut rng);

    for mode in [ExecMode::Eager, ExecMode::Compiled] {
        quantized.set_exec_mode(mode);
        dequantized.set_exec_mode(mode);
        for threads in [1, 4] {
            rt::set_threads(threads);
            for (label, input) in [("b=3", &window), ("b=1", &single)] {
                assert_bitwise_eq(
                    &format!("q8 vs dequantized f32, {mode:?} @ {threads} threads, {label}"),
                    &dequantized.predict(input),
                    &quantized.predict(input),
                );
            }
        }
    }
    rt::set_threads(0);
}

/// The quantized model stays close to its f32 source — the same bound the
/// `bikecap-check quant-eval` gate enforces across the EXPERIMENTS.md grid,
/// pinned here for the default config so plain `cargo test` covers it.
#[test]
fn quantized_predictions_track_f32_within_the_gate() {
    let config = BikeCapConfig::new(8, 8).history(8).horizon(4);
    let f32_model = BikeCap::seeded(config.clone(), 42);
    let quantized = quantized_model(config, "accuracy");
    let mut rng = StdRng::seed_from_u64(7);
    let window = Tensor::rand_uniform(&[2, 4, 8, 8, 8], 0.0, 1.0, &mut rng);

    let want = f32_model.predict(&window);
    let got = quantized.predict(&window);
    let mut err = 0.0f64;
    let mut scale = 0.0f64;
    for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
        err += f64::from(a - b) * f64::from(a - b);
        scale += f64::from(*a) * f64::from(*a);
    }
    let relative = (err / scale.max(f64::MIN_POSITIVE)).sqrt();
    assert!(relative < 0.02, "relative RMSE {relative} exceeds the 2% gate");
}
