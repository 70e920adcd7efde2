//! Golden fingerprints of the boosted-tree models the reduced training campaign
//! fits with the default hyper-parameters.  Every bit of the models' batched
//! predictions and staged training loss is pinned, so a change to model fitting
//! that alters any split, threshold or leaf fails here.

use workdist::autotune::TrainingCampaign;
use workdist::ml::{BoostedTreesRegressor, BoostingParams, Dataset, Regressor};
use workdist::platform::HeterogeneousPlatform;

/// FNV-1a over the bit patterns of `values`.
fn fnv_fingerprint(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn model_fingerprint(model: &BoostedTreesRegressor, data: &Dataset) -> u64 {
    let predictions = model.predict_batch(data.feature_matrix(), data.n_features());
    let losses = model.staged_training_mse(data);
    fnv_fingerprint(predictions.into_iter().chain(losses))
}

#[test]
fn reduced_campaign_models_match_the_golden_fingerprints() {
    let platform = HeterogeneousPlatform::emil();
    let campaign = TrainingCampaign::reduced();
    let models = campaign.run(&platform, BoostingParams::default());
    let host = model_fingerprint(&models.host_model, &campaign.host_dataset(&platform));
    let device = model_fingerprint(
        &models.device_models[0],
        &campaign.device_dataset(&platform, 0),
    );
    assert_eq!(
        (host, device),
        (0xe92d_e2c2_4cdb_b3ed, 0x9fd5_d300_efb3_6cb7),
        "reduced-campaign models changed: host {host:#018x}, device {device:#018x}"
    );
}
