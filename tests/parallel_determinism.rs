//! Thread-count determinism regression tests for the `bikecap-rt` runtime.
//!
//! The pool's contract is that chunk decomposition and reduction order are
//! pure functions of the problem shape — never of the thread count — so a
//! parallel run is bitwise-identical to a serial one at *any* pool size.
//! These tests pin that contract end to end: the full `BikeCap::predict`
//! inference path across thread counts 1, 2, 4 and 7 (an odd count
//! exercises uneven chunk distribution), and a conv3d/conv_transpose3d
//! property sweep over the EXPERIMENTS.md shape grid (pyramid kernel sizes,
//! capsule-dim-scaled channel counts).
//!
//! Thread count and backend are process-global; each test restores the auto
//! defaults on exit so ordering between tests never matters (the contract
//! itself guarantees results don't depend on the settings mid-flight).

use bikecap::model::{BikeCap, BikeCapConfig};
use bikecap::rt;
use bikecap::tensor::conv::{conv3d, conv_transpose3d, Conv3dSpec};
use bikecap::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The thread sweep: 1 (serial fast path), 2 and 4 (even splits), 7 (odd —
/// workers see unequal chunk counts).
const THREADS: &[usize] = &[1, 2, 4, 7];

fn assert_bitwise_eq(label: &str, reference: &Tensor, got: &Tensor) {
    assert_eq!(reference.shape(), got.shape(), "{label}: shape drift");
    for (i, (a, b)) in reference.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: element {i} diverges ({a} vs {b})"
        );
    }
}

/// Runs `op` serially, then at every thread count in [`THREADS`], asserting
/// bitwise equality throughout; restores auto settings afterwards.
fn check_all_thread_counts(label: &str, op: impl Fn() -> Tensor) {
    rt::set_threads(1);
    let reference = op();
    for &threads in THREADS {
        rt::set_threads(threads);
        let got = op();
        assert_bitwise_eq(&format!("{label} @ {threads} threads"), &reference, &got);
    }
    rt::set_threads(0);
}

#[test]
fn predict_is_bitwise_identical_across_thread_counts() {
    // Small but complete: encoder pyramid -> historical capsules -> routing
    // -> deconv decoder, so every parallelized kernel runs in context.
    let config = BikeCapConfig::new(8, 8).history(8).horizon(4);
    let model = BikeCap::seeded(config, 42);
    let mut rng = StdRng::seed_from_u64(7);
    let window = Tensor::rand_uniform(&[3, 4, 8, 8, 8], 0.0, 1.0, &mut rng);
    check_all_thread_counts("BikeCap::predict", || model.predict(&window));
}

#[test]
fn predict_batch_is_bitwise_identical_across_thread_counts() {
    // The serve path fuses requests into one forward pass; intra-batch
    // parallelism must not perturb any individual answer.
    let config = BikeCapConfig::new(8, 8).history(8).horizon(2);
    let model = BikeCap::seeded(config, 3);
    let mut rng = StdRng::seed_from_u64(11);
    let inputs: Vec<Tensor> = (0..5)
        .map(|_| Tensor::rand_uniform(&[4, 8, 8, 8], 0.0, 1.0, &mut rng))
        .collect();

    rt::set_threads(1);
    let reference = model.predict_batch(&inputs);
    for &threads in THREADS {
        rt::set_threads(threads);
        let got = model.predict_batch(&inputs);
        assert_eq!(reference.len(), got.len());
        for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
            assert_bitwise_eq(&format!("predict_batch[{i}] @ {threads} threads"), r, g);
        }
    }
    rt::set_threads(0);
}

#[test]
fn conv3d_sweep_is_bitwise_identical_across_thread_counts() {
    // The EXPERIMENTS.md grid: 8x8 city, pyramid kernel sizes 1..=4 (depth k,
    // spatial 2k-1), channel counts from the capsule-dim ablation {2,4,8,16}.
    let mut rng = StdRng::seed_from_u64(2018);
    for k in 1usize..=4 {
        let (kd, ks) = (k, 2 * k - 1);
        for &channels in &[2usize, 4, 8, 16] {
            let x = Tensor::randn(&[2, channels, 8, 8, 8], 0.0, 1.0, &mut rng);
            let w = Tensor::randn(&[channels, channels, kd, ks, ks], 0.0, 0.1, &mut rng);
            let spec = Conv3dSpec::padded(kd / 2, ks / 2, ks / 2);
            check_all_thread_counts(&format!("conv3d k={k} c={channels}"), || {
                conv3d(&x, &w, spec)
            });
        }
    }
}

#[test]
fn conv_transpose3d_sweep_is_bitwise_identical_across_thread_counts() {
    // The decoder's upsampling direction: col2im's scatter-add is the
    // easiest kernel to get nondeterministic, so sweep it hardest.
    let mut rng = StdRng::seed_from_u64(1024);
    for k in 1usize..=4 {
        let (kd, ks) = (k, 2 * k - 1);
        for &channels in &[2usize, 4, 8] {
            let x = Tensor::randn(&[2, channels, 4, 8, 8], 0.0, 1.0, &mut rng);
            let w = Tensor::randn(&[channels, channels, kd, ks, ks], 0.0, 0.1, &mut rng);
            let spec = Conv3dSpec::default();
            check_all_thread_counts(&format!("conv_transpose3d k={k} c={channels}"), || {
                conv_transpose3d(&x, &w, spec)
            });
        }
    }
}

#[test]
fn matmul_and_reduce_are_bitwise_identical_across_thread_counts() {
    // Catastrophic-cancellation-prone values make any reassociation visible.
    let mut rng = StdRng::seed_from_u64(5);
    let a = Tensor::randn(&[64, 300], 1.0e4, 1.0e4, &mut rng);
    let b = Tensor::randn(&[300, 32], -1.0e4, 1.0e4, &mut rng);
    check_all_thread_counts("matmul 64x300x32", || a.matmul(&b));
}
