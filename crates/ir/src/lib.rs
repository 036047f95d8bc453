//! Graph IR and compiling executor for BikeCAP inference.
//!
//! The eager path builds an autograd [`Tape`](bikecap_autograd::Tape) on
//! every `predict`, allocating a fresh tensor per op. This crate compiles
//! that work away: probe the model **once** per batch size on a traced tape,
//! lower the trace into a typed [`Graph`], fuse the hot elementwise chains,
//! and plan a static schedule over a reusable buffer [`Arena`] so that
//! steady-state prediction performs **zero heap allocations**.
//!
//! The pipeline:
//!
//! 1. [`Graph::from_tape`] — lower a [`Tape::traced`](bikecap_autograd::Tape::traced)
//!    recording into shape-checked nodes (shapes are re-inferred and
//!    verified against the probe pass).
//! 2. [`fuse`] — collapse the capsule-squash chain and `relu(x + bias)`
//!    pairs into single kernels (run automatically by `compile` unless
//!    disabled).
//! 3. [`ModelPlan::compile`] — buffer liveness + exact-size slab reuse +
//!    baked dispatch geometry.
//! 4. [`execute`] — run the schedule, dispatching to the *same* kernel
//!    bodies the eager tensor methods use, so compiled output is bitwise
//!    identical to the tape walk at any `bikecap-rt` thread count.
//!
//! Everything fallible returns a typed [`IrError`]; callers keep the eager
//! path as the reference oracle and fall back on any error (including the
//! `ir.plan.build` / `ir.exec.step` chaos failpoints).
//!
//! ```
//! use bikecap_autograd::Tape;
//! use bikecap_ir::{execute, Arena, CompileOptions, Graph, ModelPlan};
//! use bikecap_tensor::Tensor;
//!
//! // Probe a tiny expression on a traced tape.
//! let mut tape = Tape::traced();
//! let x = tape.constant(Tensor::zeros(&[2, 3]));
//! let y = tape.add_scalar(x, 1.0);
//! let y = tape.relu(y);
//!
//! // Compile and execute against fresh input.
//! let graph = Graph::from_tape(&tape, x, y).unwrap();
//! let plan = ModelPlan::compile(graph, &CompileOptions::default()).unwrap();
//! let mut arena = Arena::for_plan(&plan);
//! let store = bikecap_autograd::ParamStore::new();
//! let input = [-2.0f32, -1.0, 0.0, 1.0, 2.0, 3.0];
//! let mut out = [0.0f32; 6];
//! execute(&plan, &store, &input, &mut arena, &mut out).unwrap();
//! assert_eq!(out, [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
//! ```

pub mod error;
pub mod exec;
pub mod fuse;
pub mod graph;
pub mod plan;
pub mod view;

pub use error::IrError;
pub use exec::{execute, Arena};
pub use fuse::fuse;
pub use graph::Graph;
pub use plan::{CompileOptions, ModelPlan};
pub use view::{AccessView, PlanView, SlabRole, SlabView, StepView};

#[cfg(test)]
mod tests {
    use super::*;
    use bikecap_autograd::{ParamStore, Tape, Var};
    use bikecap_tensor::conv::Conv3dSpec;
    use bikecap_tensor::Tensor;

    fn run(
        tape: &Tape,
        x: Var,
        y: Var,
        store: &ParamStore,
        input: &Tensor,
        fusion: bool,
    ) -> Tensor {
        let graph = Graph::from_tape(tape, x, y).expect("lowering");
        let plan = ModelPlan::compile(graph, &CompileOptions { fusion }).expect("planning");
        let mut arena = Arena::for_plan(&plan);
        let mut out = vec![0.0f32; plan.output_len()];
        execute(&plan, store, input.as_slice(), &mut arena, &mut out).expect("execution");
        Tensor::from_vec(out, plan.out_shape())
    }

    /// A small expression exercising most op kinds: conv, bias broadcast,
    /// squash chain, softmax, permute, narrow, concat, matmul.
    fn probe(tape: &mut Tape, store: &ParamStore, w: bikecap_autograd::ParamId, input: &Tensor) -> (Var, Var) {
        let x = tape.constant(input.clone());
        let wv = tape.param(store, w);
        let c = tape.conv3d(x, wv, Conv3dSpec::padded(1, 1, 1));
        let bias = tape.constant(Tensor::full(&[1, 3, 1, 1, 1], 0.25));
        let cb = tape.add(c, bias);
        let r = tape.relu(cb);
        let s = tape.squash(r, 1);
        let sm = tape.softmax_trailing(s, 2);
        let p = tape.permute(sm, &[0, 2, 1, 3, 4]);
        let nar = tape.narrow(p, 1, 0, 2);
        let cat = tape.concat(&[nar, nar], 1);
        let flat = tape.reshape(cat, &[2 * 4 * 3, 4 * 4]);
        let w2 = tape.constant(Tensor::full(&[4 * 4, 2], 0.5));
        let mm = tape.matmul(flat, w2);
        (x, mm)
    }

    fn eager_reference(store: &ParamStore, w: bikecap_autograd::ParamId, input: &Tensor) -> Tensor {
        let mut tape = Tape::new();
        let (_, y) = probe(&mut tape, store, w, input);
        tape.value(y).clone()
    }

    fn setup() -> (ParamStore, bikecap_autograd::ParamId, Tensor) {
        let mut store = ParamStore::new();
        let wdata: Vec<f32> = (0..3 * 3 * 27).map(|i| (i as f32 * 0.37).sin() * 0.2).collect();
        let w = store.add("w", Tensor::from_vec(wdata, &[3, 3, 3, 3, 3]));
        let xdata: Vec<f32> = (0..2 * 3 * 2 * 4 * 4)
            .map(|i| (i as f32 * 0.11).cos())
            .collect();
        let input = Tensor::from_vec(xdata, &[2, 3, 2, 4, 4]);
        (store, w, input)
    }

    #[test]
    fn compiled_matches_eager_bitwise() {
        let (store, w, input) = setup();
        let want = eager_reference(&store, w, &input);
        let mut tape = Tape::traced();
        let (x, y) = probe(&mut tape, &store, w, &input);
        for fusion in [false, true] {
            let got = run(&tape, x, y, &store, &input, fusion);
            assert_eq!(got.shape(), want.shape());
            assert_eq!(got.as_slice(), want.as_slice(), "fusion={fusion}");
        }
    }

    #[test]
    fn fusion_finds_squash_and_bias_relu() {
        let (store, w, input) = setup();
        let mut tape = Tape::traced();
        let (x, y) = probe(&mut tape, &store, w, &input);
        let mut graph = Graph::from_tape(&tape, x, y).unwrap();
        let fused = fuse(&mut graph);
        assert_eq!(fused, 2, "one squash chain + one bias/relu pair");
        assert_eq!(fuse(&mut graph), 0, "fusion is idempotent");
    }

    #[test]
    fn fused_plan_is_smaller() {
        let (store, w, input) = setup();
        let mut tape = Tape::traced();
        let (x, y) = probe(&mut tape, &store, w, &input);
        let graph = Graph::from_tape(&tape, x, y).unwrap();
        let fused = ModelPlan::compile(graph.clone(), &CompileOptions { fusion: true }).unwrap();
        let unfused = ModelPlan::compile(graph, &CompileOptions { fusion: false }).unwrap();
        assert_eq!(fused.fused_ops(), 2);
        assert!(fused.num_steps() < unfused.num_steps());
        assert!(fused.arena_scalars() <= unfused.arena_scalars());
    }

    #[test]
    fn executor_reuses_arena_and_stays_deterministic() {
        let (store, w, input) = setup();
        let mut tape = Tape::traced();
        let (x, y) = probe(&mut tape, &store, w, &input);
        let graph = Graph::from_tape(&tape, x, y).unwrap();
        let plan = ModelPlan::compile(graph, &CompileOptions::default()).unwrap();
        let mut arena = Arena::for_plan(&plan);
        let store_ref = &store;
        let mut first = vec![0.0f32; plan.output_len()];
        execute(&plan, store_ref, input.as_slice(), &mut arena, &mut first).unwrap();
        // Re-running over the *same* (now dirty) arena must give identical
        // results: every slab is either fully overwritten or pre-zeroed by
        // its kernel.
        for _ in 0..3 {
            let mut again = vec![0.0f32; plan.output_len()];
            execute(&plan, store_ref, input.as_slice(), &mut arena, &mut again).unwrap();
            assert_eq!(again, first);
        }
    }

    #[test]
    fn untraced_tape_is_rejected() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2]));
        let y = tape.add_scalar(x, 1.0);
        let err = Graph::from_tape(&tape, x, y).unwrap_err();
        assert!(matches!(err, IrError::Unsupported(_)));
    }

    #[test]
    fn scalar_sum_is_unsupported() {
        let mut tape = Tape::traced();
        let x = tape.constant(Tensor::zeros(&[2]));
        let y = tape.sum(x);
        let err = Graph::from_tape(&tape, x, y).unwrap_err();
        assert!(matches!(err, IrError::Unsupported(_)));
    }

    #[test]
    fn executor_rejects_wrong_lengths() {
        let mut tape = Tape::traced();
        let x = tape.constant(Tensor::zeros(&[4]));
        let y = tape.add_scalar(x, 1.0);
        let graph = Graph::from_tape(&tape, x, y).unwrap();
        let plan = ModelPlan::compile(graph, &CompileOptions::default()).unwrap();
        let mut arena = Arena::for_plan(&plan);
        let store = ParamStore::new();
        let mut out = [0.0f32; 4];
        let err = execute(&plan, &store, &[0.0; 3], &mut arena, &mut out).unwrap_err();
        assert!(matches!(err, IrError::Exec(_)));
        let mut short = [0.0f32; 2];
        let err = execute(&plan, &store, &[0.0; 4], &mut arena, &mut short).unwrap_err();
        assert!(matches!(err, IrError::Exec(_)));
    }

    #[test]
    fn param_updates_flow_into_compiled_plan() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::full(&[2, 2], 1.0));
        let mut tape = Tape::traced();
        let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let wv = tape.param(&store, w);
        let y = tape.matmul(x, wv);
        let graph = Graph::from_tape(&tape, x, y).unwrap();
        let plan = ModelPlan::compile(graph, &CompileOptions::default()).unwrap();
        let mut arena = Arena::for_plan(&plan);
        let mut out = [0.0f32; 4];
        let input = [1.0f32, 2.0, 3.0, 4.0];
        execute(&plan, &store, &input, &mut arena, &mut out).unwrap();
        assert_eq!(out, [3.0, 3.0, 7.0, 7.0]);
        // Simulate a training step / checkpoint load: the plan must read the
        // new weights without recompilation.
        store.set_value(w, Tensor::full(&[2, 2], 2.0));
        execute(&plan, &store, &input, &mut arena, &mut out).unwrap();
        assert_eq!(out, [6.0, 6.0, 14.0, 14.0]);
    }

    #[test]
    fn dead_nodes_are_dropped_from_the_schedule() {
        let mut tape = Tape::traced();
        let x = tape.constant(Tensor::zeros(&[4]));
        let y = tape.add_scalar(x, 1.0);
        let _unused = tape.scale(y, 3.0); // feeds nothing
        let graph = Graph::from_tape(&tape, x, y).unwrap();
        let plan = ModelPlan::compile(graph, &CompileOptions::default()).unwrap();
        assert_eq!(plan.num_steps(), 1, "dead scale must not be scheduled");
    }
}
