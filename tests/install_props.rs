//! Model commits do only the work their result needs, and keep every bit.
//!
//! - `EmbeddingNet::restored` builds the network for a checkpoint without
//!   drawing the initial weights the restore overwrites. It must equal
//!   `EmbeddingNet::new` followed by `Checkpoint::restore` in every
//!   parameter bit and in the RNG state it leaves behind, so no later draw
//!   from the device's stream changes.
//! - `Pilote::refresh_prototypes` embeds the whole support set in one
//!   forward. It must equal embedding each class on its own, bit for bit
//!   and in the flops charged to the virtual clock.
//! - A device installed through `restored` must behave, through an
//!   incremental update, exactly as one installed through `new` + `restore`.

use pilote::core::exemplar::class_prototype;
use pilote::har_data::features::extract_batch;
use pilote::magneto::Deployment;
use pilote::nn::{Checkpoint, Layer};
use pilote::obs::work;
use pilote::prelude::*;
use pilote::tensor::parallel::{self, ThreadConfig};
use std::sync::Mutex;

/// Serialises the tests that reconfigure the process-wide thread count.
static CONFIG_LOCK: Mutex<()> = Mutex::new(());

/// A net of 3·5 + 5·2 = 25 weights. From a stream without a spare normal,
/// `new` leaves one behind; from a stream holding one, it uses it first.
fn odd_net() -> NetConfig {
    NetConfig { input_dim: 3, hidden: vec![5], embedding_dim: 2 }
}

/// Raw bits of every parameter, in checkpoint order.
fn param_bits(net: &mut EmbeddingNet) -> Vec<Vec<u32>> {
    Checkpoint::capture(net.layers_mut())
        .params
        .iter()
        .map(|p| p.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn restored_equals_new_then_restore_in_every_bit_and_in_rng_state() {
    let cases = [
        (NetConfig::paper(), false),
        (NetConfig::small(), false),
        (odd_net(), false),
        (odd_net(), true),
    ];
    for (config, spare) in cases {
        // A checkpoint of trained-looking weights from another stream.
        let mut source = EmbeddingNet::new(config.clone(), &mut Rng64::new(99));
        for (p, _) in source.layers_mut().params_and_grads() {
            p.map_inplace(|v| v * 1.5 + 0.25);
        }
        let checkpoint = Checkpoint::capture(source.layers_mut());

        let mut start = Rng64::new(0xed6e);
        if spare {
            start.normal();
        }
        let (mut old_rng, mut new_rng) = (start.clone(), start);
        let mut old = EmbeddingNet::new(config.clone(), &mut old_rng);
        checkpoint.restore(old.layers_mut()).expect("restore");
        let mut new =
            EmbeddingNet::restored(config.clone(), &checkpoint, &mut new_rng).expect("restored");

        assert_eq!(param_bits(&mut new), param_bits(&mut old), "{config:?}");
        assert_eq!(new_rng, old_rng, "{config:?}: RNG state");
        assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "{config:?}: next_u64");
        assert_eq!(new_rng.normal().to_bits(), old_rng.normal().to_bits(), "{config:?}: normal");
        assert_eq!(new_rng.normal().to_bits(), old_rng.normal().to_bits(), "{config:?}: normal");
        assert_eq!(new.config(), &config);
    }
}

#[test]
fn restored_refuses_what_restore_refuses() {
    let config = NetConfig::small();
    let mut other = EmbeddingNet::new(odd_net(), &mut Rng64::new(1));
    let foreign = Checkpoint::capture(other.layers_mut());
    let mut target = EmbeddingNet::new(config.clone(), &mut Rng64::new(2));
    let want = foreign.restore(target.layers_mut()).expect_err("shapes differ");
    let got =
        EmbeddingNet::restored(config, &foreign, &mut Rng64::new(2)).expect_err("shapes differ");
    assert_eq!(got, want);
}

/// The per-class loop `refresh_prototypes` ran before: one forward per
/// class, in support-set insertion order.
fn per_class_prototypes(model: &mut Pilote) -> (Vec<usize>, Vec<Vec<u32>>) {
    let support = model.support().clone();
    let labels = support.labels();
    let prototypes = labels
        .iter()
        .map(|&label| {
            let embeddings = model.net_mut().embed(support.class(label).expect("label"));
            bits(&class_prototype(&embeddings).expect("prototype"))
        })
        .collect();
    (labels, prototypes)
}

#[test]
fn refresh_prototypes_equals_the_per_class_loop_bit_for_bit() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = parallel::current();
    let config = PiloteConfig::fast_test(3);
    let mut rng = Rng64::new(5);
    let net = EmbeddingNet::new(config.net.clone(), &mut rng);
    // Labels in non-sorted insertion order, with a one-row class and
    // classes on either side of the 8-row serving block.
    let mut support = SupportSet::new();
    for (label, rows) in [(4, 9), (0, 1), (3, 30), (1, 8), (2, 2)] {
        support.put_class(label, Tensor::randn([rows, FEATURE_DIM], 0.0, 1.0, &mut rng));
    }
    let mut model = Pilote::from_parts(config, net, support, rng).expect("model");
    for threads in [1, 4] {
        parallel::configure(ThreadConfig { num_threads: threads, min_parallel_len: 0 });
        let before = work::thread_flops();
        let (labels, want) = per_class_prototypes(&mut model);
        let loop_flops = work::thread_flops().wrapping_sub(before);
        let generation = model.generation();
        let before = work::thread_flops();
        model.refresh_prototypes().expect("refresh");
        let refresh_flops = work::thread_flops().wrapping_sub(before);

        assert_eq!(model.generation(), generation + 1);
        assert_eq!(labels, vec![4, 0, 3, 1, 2]);
        assert_eq!(model.classifier().labels(), labels.as_slice(), "{threads} threads");
        let matrix = model.classifier().prototype_matrix();
        for (row, want) in want.iter().enumerate() {
            let got = bits(&Tensor::vector(matrix.row(row)));
            assert_eq!(&got, want, "{threads} threads, row {row}");
        }
        assert_eq!(refresh_flops, loop_flops, "{threads} threads: flop charge");
    }
    parallel::configure(saved);

    // An empty support set leaves an empty classifier.
    *model.support_mut() = SupportSet::new();
    model.refresh_prototypes().expect("refresh");
    assert!(model.classifier().labels().is_empty());
}

/// The install `EdgeDevice::build` ran before: a freshly initialised
/// network, then the restore, then the model over the shipped support and
/// prototypes, on the device's install stream.
fn install_through_new_and_restore(device: &mut EdgeDevice, deployment: &Deployment) {
    let mut rng = Rng64::new(deployment.config.seed ^ 0xed6e);
    let mut net = EmbeddingNet::new(deployment.config.net.clone(), &mut rng);
    deployment.checkpoint.restore(net.layers_mut()).expect("restore");
    let mut model =
        Pilote::from_parts(deployment.config.clone(), net, deployment.support.clone(), rng)
            .expect("model");
    if let Some(p) = &deployment.prototypes {
        model.install_prototypes(p.labels.clone(), p.matrix.clone()).expect("prototypes");
    }
    *device.model_mut() = model;
}

#[test]
fn a_restored_install_updates_exactly_like_a_new_then_restore_install() {
    let mut sim = Simulator::with_seed(31);
    let (corpus, norm) = generate_features(
        &mut sim,
        &[(Activity::Still, 50), (Activity::Walk, 50), (Activity::Run, 50)],
    )
    .expect("simulate");
    let server = CloudServer::new(corpus, norm.clone(), PiloteConfig::fast_test(5));
    let old = [Activity::Still.label(), Activity::Walk.label()];
    let (deployment, _) = server.pretrain_and_package(&old, 15).expect("package");
    let install = || {
        EdgeDevice::install(DeviceProfile::flagship_phone(), &deployment, &LinkModel::wifi())
            .expect("install")
    };
    let mut restored = install();
    let mut reference = install();
    install_through_new_and_restore(&mut reference, &deployment);
    assert_eq!(restored.model_mut().generation(), reference.model_mut().generation());

    let raw = sim.raw_dataset(&[(Activity::Run, 25), (Activity::Still, 10), (Activity::Walk, 10)]);
    let features = norm.transform(&extract_batch(&raw).expect("features")).expect("norm");
    let new_class = features.slice_rows(0, 25).expect("Run rows");
    let probe = features.slice_rows(25, features.rows()).expect("probe rows");
    let mut outcomes = Vec::new();
    for device in [&mut restored, &mut reference] {
        for i in 0..new_class.rows() {
            device.label_sample(Activity::Run.label(), Tensor::vector(new_class.row(i)));
        }
        let status = device.update_faulted(20, None).expect("update");
        let served: Vec<(usize, u32)> = device
            .serve_batch(&probe)
            .expect("serve")
            .iter()
            .map(|o| (o.predicted, o.distance.to_bits()))
            .collect();
        let model = device.model_mut();
        outcomes.push((
            status,
            param_bits(model.net_mut()),
            model.classifier().labels().to_vec(),
            bits(model.classifier().prototype_matrix()),
            served,
            device.log().now().to_bits(),
        ));
    }
    let [a, b] = &outcomes[..] else { unreachable!() };
    assert_eq!(a.0, UpdateStatus::Completed);
    assert_eq!(a.2.len(), 3, "the update learned Run");
    assert_eq!(a.0, b.0, "update status");
    assert!(a.1 == b.1, "parameters differ after the update");
    assert_eq!(a.2, b.2, "prototype labels");
    assert!(a.3 == b.3, "prototypes differ after the update");
    assert_eq!(a.4, b.4, "served outcomes");
    assert_eq!(a.5, b.5, "virtual clock");
}
