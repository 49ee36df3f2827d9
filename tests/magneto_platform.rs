//! Integration of the MAGNETO platform crate with the whole stack:
//! cloud → deployment → edge streaming → on-device update → federation.

use pilote::har_data::features::extract_batch;
use pilote::magneto::EventKind;
use pilote::nn::Layer;
use pilote::prelude::*;

fn platform() -> (CloudServer, Simulator, pilote::har_data::preprocess::Normalizer) {
    let mut sim = Simulator::with_seed(404);
    let (corpus, norm) = generate_features(
        &mut sim,
        &[
            (Activity::Still, 60),
            (Activity::Walk, 60),
            (Activity::Run, 60),
        ],
    )
    .expect("simulate");
    let server = CloudServer::new(corpus, norm.clone(), PiloteConfig::fast_test(404));
    (server, sim, norm)
}

#[test]
fn cloud_to_edge_lifecycle() {
    let (server, mut sim, norm) = platform();
    let old = [Activity::Still.label(), Activity::Walk.label()];
    let (deployment, _) = server.pretrain_and_package(&old, 15).expect("package");

    let mut device = EdgeDevice::install(
        DeviceProfile::flagship_phone(),
        &deployment,
        &LinkModel::cellular_4g(),
    )
    .expect("install");
    assert_eq!(device.known_classes().len(), 2);

    // Stream a known activity and check recognition.
    let session = sim.session(Activity::Walk, 6);
    let outcomes = device.stream(&session).expect("stream");
    assert_eq!(outcomes.len(), 6);

    // Learn Run on-device.
    let raw = sim.raw_dataset(&[(Activity::Run, 20)]);
    let features = norm.transform(&extract_batch(&raw).expect("feat")).expect("norm");
    for i in 0..features.rows() {
        device.label_sample(Activity::Run.label(), Tensor::vector(features.row(i)));
    }
    device.update(15).expect("update");
    assert_eq!(device.known_classes().len(), 3);
    assert_eq!(device.log().update_count(), 1);
    assert!(device.log().now() > 0.0);
}

#[test]
fn federated_round_aligns_devices_without_sharing_data() {
    let (server, _, _) = platform();
    let old = [Activity::Still.label(), Activity::Walk.label()];
    let (deployment, _) = server.pretrain_and_package(&old, 10).expect("package");
    let link = LinkModel::wifi();
    let slots =
        vec![(DeviceProfile::flagship_phone(), link), (DeviceProfile::budget_phone(), link)];
    let config = FleetConfig { federated_every: 0, update_threshold: 0, ..FleetConfig::default() };
    let mut fleet = Fleet::deploy(slots, &deployment, config).expect("deploy");

    // Perturb device A's model so the two diverge.
    for (p, _) in fleet.device_mut(0).model_mut().net_mut().layers_mut().params_and_grads() {
        p.map_inplace(|v| v * 1.05);
    }

    fleet.federated_round().expect("round");
    assert_eq!(fleet.federated_rounds(), 1);

    // After averaging, both devices embed identically.
    let mut rng = Rng64::new(7);
    let probe = Tensor::randn([3, FEATURE_DIM], 0.0, 1.0, &mut rng);
    let ea = fleet.device_mut(0).model_mut().embed(&probe);
    let eb = fleet.device_mut(1).model_mut().embed(&probe);
    assert!(ea.max_abs_diff(&eb).unwrap() < 1e-5, "devices diverge after FedAvg");

    // Both logs record the round.
    for d in [fleet.device(0), fleet.device(1)] {
        assert!(d
            .log()
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::FederatedRound { participants: 2 })));
    }
}

#[test]
fn deployment_transfer_cost_is_one_time() {
    let (server, _, _) = platform();
    let (deployment, _) = server
        .pretrain_and_package(&[Activity::Still.label(), Activity::Walk.label()], 10)
        .expect("package");
    let link = LinkModel::weak_cellular();
    let device = EdgeDevice::install(DeviceProfile::wearable(), &deployment, &link)
        .expect("install");
    // The log's clock starts at the (one-time) download latency.
    let bootstrap = link.transfer_seconds(deployment.wire_bytes().expect("serialisable"));
    assert!((device.log().now() - bootstrap).abs() < 1e-9);
}
