//! Routing telemetry as a value, and the live loop's use of it.
//!
//! `BikeCap::predict_with_routing` returns the coupling-entropy and
//! agreement-delta means next to the prediction; the live loop scores
//! drift with it on whatever model the entry is serving, and leaves the
//! process obs sink to the operator.
//!
//! Every test here installs or inspects the process-global obs sink, so
//! they serialise on one lock.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use bikecap::live::{LiveConfig, LiveLoop, RecordStream};
use bikecap::model::{BikeCap, BikeCapConfig, ExecMode};
use bikecap::obs::{Kind, MemorySink};
use bikecap::serve::{ModelEntry, ModelRegistry, DEFAULT_MODEL};
use bikecap::sim::{
    aggregate::DemandSeries,
    generate::{SimConfig, Simulator, TripData},
    layout::CityLayout,
    ForecastDataset, Normalizer,
};
use bikecap::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const HISTORY: usize = 4;
const HORIZON: usize = 2;
/// The live streams are cut here: slots 0..8 before, slot 8 after.
const CUT_MIN: f64 = 120.0;
const END_MIN: f64 = 135.0;

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    bikecap::obs::clear();
    guard
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The values of the `core.routing.iter*<suffix>` events in `events`, in
/// emission order.
fn routing_values(events: &[bikecap::obs::Event], suffix: &str) -> Vec<f64> {
    events
        .iter()
        .filter(|e| {
            e.kind == Kind::Value
                && e.name.starts_with("core.routing.iter")
                && e.name.ends_with(suffix)
        })
        .map(|e| e.value)
        .collect()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[test]
fn predict_with_routing_matches_eager_predict_and_obs_events() {
    let _lock = obs_lock();
    let config = BikeCapConfig::new(8, 8).history(8).horizon(4);
    let mut model = BikeCap::seeded(config, 42);
    let mut rng = StdRng::seed_from_u64(7);
    let window = Tensor::rand_uniform(&[2, 4, 8, 8, 8], 0.0, 1.0, &mut rng);

    model.set_exec_mode(ExecMode::Eager);
    let eager = model.predict(&window);
    // The value API runs the eager walk under either mode.
    model.set_exec_mode(ExecMode::Compiled);

    let sink = Arc::new(MemorySink::new(1 << 16));
    bikecap::obs::install(sink.clone());
    let (traced_pred, traced) = model.predict_with_routing(&window);
    bikecap::obs::clear();
    let events = sink.snapshot();
    let entropy = routing_values(&events, ".entropy");
    let agreement = routing_values(&events, ".agreement_delta");
    assert_eq!(entropy.len(), 3, "one entropy sample per routing iteration");
    assert_eq!(agreement.len(), 2, "one agreement sample per refinement");

    assert_eq!(bits(&traced_pred), bits(&eager));
    assert_eq!(traced.entropy.to_bits(), mean(&entropy).to_bits());
    assert_eq!(traced.agreement.to_bits(), mean(&agreement).to_bits());

    // Obs off: the same bits, computed without a sink.
    let (plain_pred, plain) = model.predict_with_routing(&window);
    assert_eq!(bits(&plain_pred), bits(&eager));
    assert_eq!(plain.entropy.to_bits(), traced.entropy.to_bits());
    assert_eq!(plain.agreement.to_bits(), traced.agreement.to_bits());

    // A single rank-4 window drops the batch axis, like `predict`.
    let single = window.narrow(0, 0, 1).reshape(&[4, 8, 8, 8]);
    let (single_pred, _) = model.predict_with_routing(&single);
    model.set_exec_mode(ExecMode::Eager);
    assert_eq!(bits(&single_pred), bits(&model.predict(&single)));
}

/// A tiny city, its normaliser, and a 6×6 model configuration.
struct Scene {
    trips: TripData,
    normalizer: Normalizer,
    config: BikeCapConfig,
}

fn scene() -> Scene {
    let mut rng = StdRng::seed_from_u64(5);
    let mut sim = SimConfig::small();
    sim.days = 1;
    let layout = CityLayout::generate(&sim, &mut rng);
    let trips = Simulator::new(sim, layout).run(&mut rng);
    let series = DemandSeries::from_trips(&trips, 15);
    let dataset = ForecastDataset::new(&series, HISTORY, HORIZON);
    let config = BikeCapConfig::new(series.height, series.width)
        .history(HISTORY)
        .horizon(HORIZON)
        .pyramid_size(2)
        .capsule_dim(2)
        .out_capsule_dim(2)
        .decoder_channels(2);
    Scene {
        trips,
        normalizer: dataset.normalizer().clone(),
        config,
    }
}

/// The records of `trips` with `from <= time < to`.
fn between(trips: &TripData, from: f64, to: f64) -> TripData {
    let inside = |t: f64| from <= t && t < to;
    TripData {
        subway: trips
            .subway
            .iter()
            .filter(|r| inside(r.time_min))
            .cloned()
            .collect(),
        bike: trips
            .bike
            .iter()
            .filter(|r| inside(r.time_min))
            .cloned()
            .collect(),
        layout: trips.layout.clone(),
        config: trips.config.clone(),
    }
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bikecap-routing-telemetry-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn live_loop(scene: &Scene, entry: &Arc<ModelEntry>, tag: &str) -> LiveLoop {
    let config = LiveConfig::new(HISTORY, HORIZON, scene.normalizer.clone(), work_dir(tag));
    LiveLoop::new(Arc::clone(entry), config, None, None).unwrap()
}

fn entry_for(scene: &Scene, seed: u64) -> (Arc<ModelRegistry>, Arc<ModelEntry>) {
    let registry = Arc::new(ModelRegistry::new());
    let entry = registry.insert(DEFAULT_MODEL, BikeCap::seeded(scene.config.clone(), seed));
    (registry, entry)
}

#[test]
fn live_loop_keeps_the_installed_sink() {
    let _lock = obs_lock();
    let scene = scene();
    let (_registry, entry) = entry_for(&scene, 1);
    let sink = Arc::new(MemorySink::new(1 << 16));
    bikecap::obs::install(sink.clone());
    let mut live = live_loop(&scene, &entry, "sink");
    let report = live
        .run(
            RecordStream::new(&between(&scene.trips, 0.0, CUT_MIN)),
            CUT_MIN,
        )
        .unwrap();
    bikecap::obs::clear();
    let slot_spans = sink
        .snapshot()
        .iter()
        .filter(|e| e.kind == Kind::Begin && e.name == "live.slot")
        .count();
    assert!(report.slots > 0);
    assert_eq!(
        slot_spans, report.slots,
        "every sealed slot reaches the sink"
    );
}

/// The `live.monitor.error` of slot 8 when `entry` serves slots 0..8 and
/// `swap` (if any) is reloaded into it before slot 8.
fn slot8_error(scene: &Scene, entry: &Arc<ModelEntry>, swap: Option<&PathBuf>, tag: &str) -> f64 {
    let mut live = live_loop(scene, entry, tag);
    let sink = Arc::new(MemorySink::new(1 << 16));
    bikecap::obs::install(sink.clone());
    live.run(
        RecordStream::new(&between(&scene.trips, 0.0, CUT_MIN)),
        CUT_MIN,
    )
    .unwrap();
    if let Some(path) = swap {
        entry.reload(path).unwrap();
    }
    sink.reset();
    let report = live
        .run(
            RecordStream::new(&between(&scene.trips, CUT_MIN, END_MIN)),
            END_MIN,
        )
        .unwrap();
    bikecap::obs::clear();
    assert!(
        report.outcomes.is_empty(),
        "no adaptation in a nine-slot stream"
    );
    let errors: Vec<f64> = sink
        .snapshot()
        .iter()
        .filter(|e| e.kind == Kind::Value && e.name == "live.monitor.error")
        .map(|e| e.value)
        .collect();
    assert_eq!(errors.len(), 1, "slot 8 is scored once");
    errors[0]
}

#[test]
fn drift_is_scored_on_the_reloaded_model() {
    let _lock = obs_lock();
    let scene = scene();
    let second = work_dir("second").join("second.ckpt");
    std::fs::create_dir_all(second.parent().unwrap()).unwrap();
    BikeCap::seeded(scene.config.clone(), 2)
        .save_checkpoint(&second)
        .unwrap();

    let (_r1, reloaded) = entry_for(&scene, 1);
    let after_reload = slot8_error(&scene, &reloaded, Some(&second), "reload");
    let (_r2, original) = entry_for(&scene, 1);
    let original_error = slot8_error(&scene, &original, None, "original");
    let (_r3, from_start) = entry_for(&scene, 0);
    from_start.reload(&second).unwrap();
    let second_error = slot8_error(&scene, &from_start, None, "second");

    assert_ne!(
        original_error.to_bits(),
        second_error.to_bits(),
        "the two checkpoints must score slot 8 differently"
    );
    assert_eq!(
        after_reload.to_bits(),
        second_error.to_bits(),
        "after a reload, drift is scored on the reloaded model"
    );
}
