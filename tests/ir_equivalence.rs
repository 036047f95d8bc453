//! Compiled-executor equivalence regression tests.
//!
//! The contract of `bikecap-ir` is that the compiled, arena-planned
//! schedule is **bitwise identical** to the eager tape walk — not "close",
//! identical — because both dispatch to the same kernel bodies in
//! `bikecap_tensor::exec`. These tests pin that contract across the
//! EXPERIMENTS.md architecture grid (pyramid kernel sizes, capsule
//! dimensions), both predict entry points, and every `bikecap-rt` thread
//! count the determinism suite uses (the fused kernels must chunk exactly
//! like their eager counterparts).

use bikecap::model::{BikeCap, BikeCapConfig, ExecMode};
use bikecap::rt;
use bikecap::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mirrors tests/parallel_determinism.rs: serial fast path, even splits,
/// and an odd count for uneven chunk distribution.
const THREADS: &[usize] = &[1, 2, 4, 7];

fn assert_bitwise_eq(label: &str, eager: &Tensor, compiled: &Tensor) {
    assert_eq!(eager.shape(), compiled.shape(), "{label}: shape drift");
    for (i, (a, b)) in eager.as_slice().iter().zip(compiled.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: element {i} diverges (eager {a} vs compiled {b})"
        );
    }
}

/// One model, one window: eager vs compiled on `predict`, `predict_batch`
/// and `predict_into`, all bitwise.
fn check_model(label: &str, config: BikeCapConfig) {
    let mut model = BikeCap::seeded(config, 42);
    let mut rng = StdRng::seed_from_u64(7);
    let window = Tensor::rand_uniform(&[2, 4, 8, 8, 8], 0.0, 1.0, &mut rng);
    let single = Tensor::rand_uniform(&[4, 8, 8, 8], 0.0, 1.0, &mut rng);

    model.set_exec_mode(ExecMode::Eager);
    let eager_batch = model.predict(&window);
    let eager_single = model.predict(&single);
    let eager_multi = model.predict_batch(&[window.clone(), single.clone()]);

    model.set_exec_mode(ExecMode::Compiled);
    let compiled_batch = model.predict(&window);
    let compiled_single = model.predict(&single);
    let compiled_multi = model.predict_batch(&[window.clone(), single.clone()]);

    assert_bitwise_eq(&format!("{label}/predict[b=2]"), &eager_batch, &compiled_batch);
    assert_bitwise_eq(&format!("{label}/predict[b=1]"), &eager_single, &compiled_single);
    for (i, (e, c)) in eager_multi.iter().zip(&compiled_multi).enumerate() {
        assert_bitwise_eq(&format!("{label}/predict_batch[{i}]"), e, c);
    }

    let mut into = vec![0.0f32; eager_batch.as_slice().len()];
    model
        .predict_into(&window, &mut into)
        .expect("predict_into");
    let into = Tensor::from_vec(into, eager_batch.shape());
    assert_bitwise_eq(&format!("{label}/predict_into"), &eager_batch, &into);
}

/// The EXPERIMENTS.md Table IV sweep: pyramid kernel k ∈ {1, 2, 3, 4} at
/// the default capsule dimension.
#[test]
fn compiled_matches_eager_across_pyramid_sizes() {
    for k in [1usize, 2, 3, 4] {
        let config = BikeCapConfig::new(8, 8).history(8).horizon(4).pyramid_size(k);
        check_model(&format!("pyramid_k={k}"), config);
    }
}

/// The EXPERIMENTS.md Table V sweep: capsule dimension n ∈ {2, 4, 8, 16}
/// at the default pyramid size.
#[test]
fn compiled_matches_eager_across_capsule_dims() {
    for n in [2usize, 4, 8, 16] {
        let config = BikeCapConfig::new(8, 8).history(8).horizon(4).capsule_dim(n);
        check_model(&format!("capsule_dim={n}"), config);
    }
}

/// Compiled execution must stay bitwise identical to serial eager at every
/// thread count (the fused kernels inherit rt's deterministic chunking).
#[test]
fn compiled_is_bitwise_stable_across_thread_counts() {
    let config = BikeCapConfig::new(8, 8).history(8).horizon(4);
    let mut model = BikeCap::seeded(config, 42);
    let mut rng = StdRng::seed_from_u64(7);
    let window = Tensor::rand_uniform(&[3, 4, 8, 8, 8], 0.0, 1.0, &mut rng);

    rt::set_threads(1);
    model.set_exec_mode(ExecMode::Eager);
    let reference = model.predict(&window);

    model.set_exec_mode(ExecMode::Compiled);
    let serial_compiled = model.predict(&window);
    assert_bitwise_eq("serial compiled", &reference, &serial_compiled);

    for &threads in THREADS {
        rt::set_threads(threads);
        let got = model.predict(&window);
        assert_bitwise_eq(&format!("compiled @ {threads} threads"), &reference, &got);
    }
    rt::set_threads(0);
}

/// Fusion off must not change results either (it only changes how many
/// kernels run, never their arithmetic).
#[test]
fn fusion_toggle_is_bitwise_invisible() {
    let config = BikeCapConfig::new(8, 8).history(8).horizon(4);
    let mut model = BikeCap::seeded(config, 42);
    let mut rng = StdRng::seed_from_u64(7);
    let window = Tensor::rand_uniform(&[2, 4, 8, 8, 8], 0.0, 1.0, &mut rng);

    model.set_exec_mode(ExecMode::Eager);
    let eager = model.predict(&window);

    // Compile the model's forward by hand with fusion disabled, via the
    // public IR pipeline, and compare against the default compiled path.
    let mut tape = bikecap::autograd::Tape::traced();
    let x = tape.constant(Tensor::zeros(&[2, 4, 8, 8, 8]));
    let y = model.forward(&mut tape, x);
    let graph = bikecap::ir::Graph::from_tape(&tape, x, y).expect("lowering");
    for fusion in [false, true] {
        let plan = bikecap::ir::ModelPlan::compile(
            graph.clone(),
            &bikecap::ir::CompileOptions { fusion },
        )
        .expect("planning");
        let mut arena = bikecap::ir::Arena::for_plan(&plan);
        let mut out = vec![0.0f32; plan.output_len()];
        bikecap::ir::execute(
            &plan,
            model.store(),
            window.as_slice(),
            &mut arena,
            &mut out,
        )
        .expect("execution");
        let got = Tensor::from_vec(out, plan.out_shape());
        assert_bitwise_eq(&format!("fusion={fusion}"), &eager, &got);
    }
}
