//! The full MAGNETO platform loop (paper §3 + Fig. 2, right side):
//! cloud pre-training → one-time deployment → on-device streaming
//! inference → drift detection → on-device incremental learning →
//! a privacy-preserving federated round across a two-device fleet (§7).
//!
//! ```text
//! cargo run --release --example magneto_platform
//! ```

use pilote::har_data::features::extract_batch;
use pilote::prelude::*;

fn main() {
    // ---- cloud: collect a campaign, pre-train, package -------------------
    let mut sim = Simulator::with_seed(77);
    let (corpus, normalizer) = generate_features(
        &mut sim,
        &[
            (Activity::Still, 120),
            (Activity::Walk, 120),
            (Activity::Drive, 120),
            (Activity::Run, 120),
        ],
    )
    .expect("simulate campaign");
    let mut cfg = PiloteConfig::paper(77);
    cfg.max_epochs = 8;
    let server = CloudServer::new(corpus.clone(), normalizer.clone(), cfg);
    let old = [Activity::Still.label(), Activity::Walk.label(), Activity::Drive.label()];
    let (deployment, report) = server.pretrain_and_package(&old, 60).expect("pretrain");
    println!(
        "cloud: pre-trained {} epochs; deployment payload {:.2} MB",
        report.epochs.len(),
        deployment.wire_bytes().expect("serialisable") as f64 / 1e6
    );

    // ---- edge: install once over 4G on a two-device fleet ------------------
    // No scheduled rounds or automatic updates: this walk-through runs both itself.
    let link = LinkModel::cellular_4g();
    let config = FleetConfig { federated_every: 0, update_threshold: 0, ..FleetConfig::default() };
    let slots =
        vec![(DeviceProfile::flagship_phone(), link), (DeviceProfile::budget_phone(), link)];
    let mut fleet = Fleet::deploy(slots, &deployment, config).expect("install");
    println!(
        "edge: installed on {:?} and {:?}",
        fleet.device(0).profile().name,
        fleet.device(1).profile().name
    );
    let phone = fleet.device_mut(0);

    // ---- streaming inference ----------------------------------------------
    let walk_session = sim.session(Activity::Walk, 8);
    let outcomes = phone.stream(&walk_session).expect("stream");
    let correct =
        outcomes.iter().filter(|o| o.predicted == Activity::Walk.label()).count();
    println!("phone: classified {}/{} Walk windows correctly", correct, outcomes.len());

    // ---- drift detection: a never-seen activity appears --------------------
    let walk_raw = sim.raw_dataset(&[(Activity::Walk, 40)]);
    let reference = normalizer
        .transform(&extract_batch(&walk_raw).expect("features"))
        .expect("normalize");
    phone.arm_drift_monitor(&reference, 3.0).expect("arm");
    let run_session = sim.session(Activity::Run, 10);
    phone.stream(&run_session).expect("stream");
    let drift_events = phone
        .log()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, pilote::magneto::EventKind::DriftDetected { .. }))
        .count();
    println!("phone: drift monitor fired {drift_events}× while streaming the unknown activity");

    // ---- on-device incremental learning -------------------------------------
    let run_raw = sim.raw_dataset(&[(Activity::Run, 50)]);
    let run_features = normalizer
        .transform(&extract_batch(&run_raw).expect("features"))
        .expect("normalize");
    for i in 0..run_features.rows() {
        phone.label_sample(Activity::Run.label(), Tensor::vector(run_features.row(i)));
    }
    phone.update(50).expect("incremental update");
    println!(
        "phone: learned '{}' on-device; now knows {:?}",
        Activity::Run,
        phone
            .known_classes()
            .iter()
            .map(|&l| Activity::from_label(l).map(|a| a.name()).unwrap_or("?"))
            .collect::<Vec<_>>()
    );

    // ---- federated round (no data leaves either device) ---------------------
    // Align class sets first: the watch also learns Run from its own data.
    let watch = fleet.device_mut(1);
    let watch_run = sim.raw_dataset(&[(Activity::Run, 30)]);
    let watch_features = normalizer
        .transform(&extract_batch(&watch_run).expect("features"))
        .expect("normalize");
    for i in 0..watch_features.rows() {
        watch.label_sample(Activity::Run.label(), Tensor::vector(watch_features.row(i)));
    }
    watch.update(30).expect("watch update");
    fleet.federated_round().expect("federated round");
    println!(
        "federated: round {} complete across {} devices",
        fleet.federated_rounds(),
        fleet.len()
    );
    let phone = fleet.device_mut(0);

    // ---- final evaluation (device's own normaliser, as on a real phone) -----
    let mut eval_sim = Simulator::with_seed(991);
    let raw_test = eval_sim.raw_dataset(&[
        (Activity::Still, 40),
        (Activity::Walk, 40),
        (Activity::Drive, 40),
        (Activity::Run, 40),
    ]);
    let test_features = normalizer
        .transform(&extract_batch(&raw_test).expect("features"))
        .expect("normalize");
    let test = Dataset::new(test_features, raw_test.labels.clone()).expect("dataset");
    println!(
        "phone accuracy on fresh 4-class data: {:.3}",
        phone.accuracy(&test).expect("eval")
    );
    println!("\nevent log ({} events):", phone.log().events().len());
    for e in phone.log().events().iter().take(5) {
        println!("  t={:8.2}s  {:?}", e.at_seconds, e.kind);
    }
    println!("  …");
}
