//! Chaos suite: seeded fault schedules driven end-to-end through
//! persistence and training.
//!
//! Requires the `faultline` feature (`cargo test --features faultline
//! --test chaos`); without it the failpoints are compiled out and this
//! file is empty. The schedule seed comes from `BIKECAP_CHAOS_SEED`
//! (default 0) so CI can sweep seeds without recompiling.
//!
//! Fault plans are process-global, so every test serialises on one mutex.
#![cfg(feature = "faultline")]

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use bikecap::faults::{self, FaultPlan};
use bikecap::model::{BikeCap, BikeCapConfig, ResilientOptions, TrainOptions};
use bikecap::nn::serialize::{clean_stale_tmp, read_params, save_raw_params, LoadParamsError};
use bikecap::sim::{
    aggregate::DemandSeries,
    generate::{SimConfig, Simulator},
    layout::CityLayout,
    ForecastDataset,
};
use bikecap::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The sweep seed for this process's fault schedules.
fn chaos_seed() -> u64 {
    std::env::var("BIKECAP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Held for a chaos test's whole body: serialises on the process-global
/// fault plan, and — declared first so it drops last — a [`PanicDump`]
/// that replays the in-memory obs event ring to stderr if the test
/// panics, so a failing seed ships its span/value history with the
/// assertion message.
struct ChaosGuard {
    _dump: bikecap::obs::PanicDump,
    _lock: MutexGuard<'static, ()>,
}

/// Fault plans are process-global, so every test body — including its
/// fault-free phases — runs under this lock, and clears any plan a
/// panicked predecessor left behind. Also arms span recording into a
/// fresh in-memory ring that is dumped to stderr on panic.
fn chaos_lock() -> ChaosGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    faults::clear();
    let ring = std::sync::Arc::new(bikecap::obs::MemorySink::new(4096));
    bikecap::obs::install(ring.clone());
    ChaosGuard {
        _dump: bikecap::obs::PanicDump::new(format!("chaos seed {}", chaos_seed()), ring),
        _lock: guard,
    }
}

/// Installs the fault schedule for this process's sweep seed.
fn arm(spec: &str) {
    faults::install(FaultPlan::parse(spec, chaos_seed()).expect("valid fault spec"));
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bikecap-chaos-{name}-{}-{}",
        std::process::id(),
        chaos_seed()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_dataset() -> ForecastDataset {
    let mut rng = StdRng::seed_from_u64(5);
    let mut config = SimConfig::small();
    config.days = 4;
    let layout = CityLayout::generate(&config, &mut rng);
    let trips = Simulator::new(config, layout).run(&mut rng);
    let series = DemandSeries::from_trips(&trips, 15);
    ForecastDataset::new(&series, 8, 2)
}

fn tiny_model() -> BikeCap {
    let config = BikeCapConfig::new(6, 6)
        .history(8)
        .horizon(2)
        .pyramid_size(2)
        .capsule_dim(3)
        .out_capsule_dim(3)
        .decoder_channels(4);
    BikeCap::seeded(config, 7)
}

fn resilient_opts(checkpoint: Option<PathBuf>, epochs: usize) -> ResilientOptions {
    ResilientOptions {
        train: TrainOptions {
            epochs,
            batch_size: 4,
            max_batches_per_epoch: Some(2),
            ..TrainOptions::default()
        },
        seed: 42,
        checkpoint,
        autosave_every: 1,
        ..ResilientOptions::default()
    }
}

/// With `io.checkpoint.write` faulting on half the saves, the file visible
/// on disk is always a complete, CRC-valid earlier save — a simulated kill
/// mid-save can never surface as a checkpoint that loads but is corrupt.
#[test]
fn kill_during_save_never_yields_loadable_corrupt_checkpoint() {
    let _guard = chaos_lock();
    arm("io.checkpoint.write=p:0.5");
    let dir = tmp_dir("atomic-save");
    let path = dir.join("weights.ckpt");

    let mut last_good: Option<f32> = None;
    let mut failures = 0usize;
    for round in 0..24 {
        let value = round as f32;
        let pairs = vec![("w".to_string(), Tensor::scalar(value))];
        match save_raw_params(&pairs, &path) {
            Ok(()) => last_good = Some(value),
            Err(_) => failures += 1,
        }
        // Invariant: what's on disk is exactly the last successful save.
        match (&last_good, read_params(&path)) {
            (Some(expected), Ok((_, entries))) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].1.item(), *expected, "round {round}");
            }
            (None, Err(LoadParamsError::Io(_))) => {} // nothing ever saved
            (want, got) => panic!(
                "round {round}: want last_good={want:?}, got {:?}",
                got.map(|(_, e)| e.len())
            ),
        }
    }
    assert!(failures > 0, "p:0.5 over 24 saves must fault at least once");
    assert!(
        last_good.is_some(),
        "p:0.5 over 24 saves must succeed at least once"
    );

    // Simulated kills leave a `<file>.<pid>.tmp` sibling behind (later
    // successful saves rename the same tmp path away, so force one final
    // failed save); startup cleanup removes it without touching the real
    // checkpoint.
    arm("io.checkpoint.write=always");
    save_raw_params(&[("w".to_string(), Tensor::scalar(-1.0))], &path)
        .expect_err("an always-on fault must fail the save");
    faults::clear();
    let removed = clean_stale_tmp(&dir).unwrap();
    assert_eq!(removed.len(), 1);
    assert!(read_params(&path).is_ok());
    assert!(std::fs::read_dir(&dir)
        .unwrap()
        .all(|e| !e.unwrap().file_name().to_string_lossy().ends_with(".tmp")));
    std::fs::remove_dir_all(&dir).ok();
}

/// Training with autosave under write faults, then a simulated kill and
/// `--resume`: the resumed run reaches the uninterrupted run's loss within
/// 1e-6 (bitwise, in fact — epoch RNG streams are position-independent).
#[test]
fn resume_after_kill_converges_to_uninterrupted_loss() {
    let _guard = chaos_lock();
    let ds = tiny_dataset();
    let dir = tmp_dir("resume");

    // Baseline: 4 uninterrupted epochs, no faults, no checkpointing.
    let mut baseline = tiny_model();
    let full = baseline
        .fit_resilient(&ds, &resilient_opts(None, 4))
        .expect("uninterrupted run");

    // Interrupted run: autosave every epoch while io.checkpoint.write
    // faults fire on every third write. Each autosave is two writes
    // (checkpoint, then state), so the schedule hits both kinds across the
    // run. We stop ("kill") after 2 epochs.
    let ckpt = dir.join("train.ckpt");
    {
        arm("io.checkpoint.write=every:3");
        let mut victim = tiny_model();
        // The final save may be the faulted one, in which case the run
        // reports an Io error — exactly what a crash looks like. Either
        // way the last successful autosave's state file is on disk.
        let _ = victim.fit_resilient(&ds, &resilient_opts(Some(ckpt.clone()), 2));
        faults::clear();
    }
    assert!(
        ResilientOptions::state_path(&ckpt).exists(),
        "at least one autosave must have landed"
    );

    // Fresh process resumes to 4 epochs with faults gone.
    let mut resumed_model = tiny_model();
    let mut opts = resilient_opts(Some(ckpt.clone()), 4);
    opts.resume = true;
    let resumed = resumed_model.fit_resilient(&ds, &opts).expect("resume");

    assert!(resumed.resumed_at.is_some());
    let full_loss = *full.report.epoch_losses.last().unwrap();
    let resumed_loss = *resumed.report.epoch_losses.last().unwrap();
    assert!(
        (full_loss - resumed_loss).abs() <= 1e-6,
        "uninterrupted {full_loss} vs resumed {resumed_loss}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An injected NaN epoch trips the divergence guard: the trainer rolls
/// back to the last good snapshot, halves the learning rate, and finishes
/// with finite losses.
#[test]
fn divergence_guard_rolls_back_injected_nan_epoch() {
    let _guard = chaos_lock();
    let ds = tiny_dataset();
    arm("train.epoch.loss=nth:2");
    let mut model = tiny_model();
    let report = model
        .fit_resilient(&ds, &resilient_opts(None, 3))
        .expect("guard must absorb a single injected NaN");
    faults::clear();

    assert!(report.rollbacks >= 1, "the injected NaN must roll back");
    assert_eq!(report.report.epoch_losses.len(), 3);
    assert!(report.report.epoch_losses.iter().all(|l| l.is_finite()));
    assert!(
        report.final_lr < TrainOptions::default().learning_rate,
        "rollback must halve the learning rate"
    );
}

/// A NaN schedule that outlasts `max_retries` aborts with the typed
/// `Diverged` error instead of looping or saving poisoned weights.
#[test]
fn unrecoverable_divergence_aborts_with_typed_error() {
    use bikecap::model::TrainerError;
    let _guard = chaos_lock();
    let ds = tiny_dataset();
    arm("train.epoch.loss=always");
    let mut opts = resilient_opts(None, 2);
    opts.max_retries = 2;
    let err = tiny_model().fit_resilient(&ds, &opts).unwrap_err();
    faults::clear();
    assert!(matches!(err, TrainerError::Diverged { .. }), "{err}");
}

/// A fault injected into block dequantization while a quantized (v4)
/// checkpoint loads must surface as the typed `Dequant` error and leave
/// the target model untouched — loads stage every shadow before writing
/// any, so a poisoned block can never leave a half-loaded store behind.
#[test]
fn dequant_fault_during_quantized_load_is_typed_and_atomic() {
    use bikecap::quant::QuantFormat;
    let _guard = chaos_lock();
    let dir = tmp_dir("quant-dequant");
    let path = dir.join("model.q8");

    let source = tiny_model();
    source
        .save_quantized_checkpoint(&path, QuantFormat::Q8_0)
        .expect("quantized save");

    let mut target = tiny_model();
    let mut rng = StdRng::seed_from_u64(3);
    let window = Tensor::rand_uniform(&[1, 4, 8, 6, 6], 0.0, 1.0, &mut rng);
    let before = target.predict(&window);

    arm("quant.dequant.block=always");
    let err = target.load_checkpoint(&path).expect_err("armed dequant must fail the load");
    assert!(
        matches!(err, LoadParamsError::Dequant { .. }),
        "want the typed Dequant error, got: {err}"
    );
    faults::clear();

    // Atomicity: the failed load wrote nothing — same weights, still f32.
    assert_eq!(target.precision(), "f32");
    let after = target.predict(&window);
    assert_eq!(before.as_slice(), after.as_slice(), "failed load mutated the store");

    // With the fault gone the same file loads and serves quantized.
    target.load_checkpoint(&path).expect("clean load");
    assert!(target.precision().starts_with("q8_0"), "{}", target.precision());
    std::fs::remove_dir_all(&dir).ok();
}

/// The same seed fires the same schedule: two identical fault plans agree
/// on every (site, hit) decision, which is what makes chaos runs
/// reproducible from a single seed value.
#[test]
fn fault_schedule_is_deterministic_per_seed() {
    let seed = chaos_seed();
    let a = FaultPlan::parse("io.checkpoint.write=p:0.3", seed).unwrap();
    let b = FaultPlan::parse("io.checkpoint.write=p:0.3", seed).unwrap();
    for hit in 0..512 {
        assert_eq!(
            a.fires("io.checkpoint.write", hit),
            b.fires("io.checkpoint.write", hit),
            "hit {hit}"
        );
    }
    let other = FaultPlan::parse("io.checkpoint.write=p:0.3", seed ^ 0xdead_beef).unwrap();
    let disagreements = (0..512)
        .filter(|&h| a.fires("io.checkpoint.write", h) != other.fires("io.checkpoint.write", h))
        .count();
    assert!(disagreements > 0, "different seeds must differ somewhere");
}
