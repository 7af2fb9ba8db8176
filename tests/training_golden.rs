//! Training golden: a small model trained on a synthetic dataset must
//! come out with exactly these weight bytes and this loss trajectory.
//!
//! The constants pin the trained weights of the LSTM baseline's training
//! loop bit for bit. The dataset is sized so the last minibatch and the
//! last sample group of every epoch are ragged (38 ≡ 6 mod 16: groups of
//! 4, 4, 4, 4 | 4, 4, 4, 4 | 4, 2), and history dropout is on, so masked
//! and unmasked samples share groups. A change that moves either constant
//! changes every trained model — and with it the ML row of Table VI — so
//! it needs a regeneration, not a new constant.

use openadas::core::Fingerprint;
use openadas::ml::{
    train, ControlTarget, Dataset, LstmPredictor, ModelSpec, StateFeatures, TrainConfig,
};
use openadas::simulator::math::{cos, sin};

/// FNV-1a-64 of `LstmPredictor::to_bytes()` after training.
const WEIGHTS: &str = "48d5e736ad1fe4e4";
/// FNV-1a-64 of the per-epoch losses' bit patterns.
const LOSSES: &str = "acc1ed8b9930e976";

/// 38 windows from two fault-free synthetic episodes.
fn dataset() -> Dataset {
    let mut data = Dataset::new();
    for (e, len) in [(0usize, 77usize), (1, 71)] {
        let mut states = Vec::with_capacity(len);
        let mut outs = Vec::with_capacity(len);
        let mut prev = ControlTarget::default();
        for t in 0..len {
            let phase = t as f64 * 0.05 + e as f64 * 1.3;
            let rd = 35.0 + 20.0 * sin(phase);
            let v = 15.0 + 3.0 * cos(phase * 0.7);
            let kappa = 0.002 * sin(phase * 0.3);
            let out = ControlTarget {
                accel: (0.06 * (rd - 30.0) - 0.4 * (v - 15.0)).clamp(-4.0, 2.0),
                steer: 2.7 * kappa,
            };
            states.push(StateFeatures {
                ego_speed: v,
                lead_distance: rd,
                closing_speed: (15.0 - v) * 0.5,
                left_line: 1.75 + 0.1 * cos(phase),
                right_line: 1.75 - 0.1 * cos(phase),
                curvature: kappa,
                heading: 0.01 * sin(phase),
                prev_accel: prev.accel,
                prev_steer: prev.steer,
            });
            outs.push(out);
            prev = out;
        }
        data.add_episode(&states, &outs, 3);
    }
    data
}

#[test]
fn trained_weights_match_the_golden_fingerprint() {
    let data = dataset();
    assert_eq!(data.len(), 38);
    assert_eq!(data.len() % 16, 6, "last minibatch must be ragged");
    let mut model = LstmPredictor::new(ModelSpec {
        hidden1: 12,
        hidden2: 6,
        seed: 17,
    });
    let report = train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        },
    );
    let weights = Fingerprint::new().write_bytes(&model.to_bytes()).hex();
    let losses = report
        .epoch_loss
        .iter()
        .fold(Fingerprint::new(), |f, l| f.write_f64(*l))
        .hex();
    assert_eq!(
        (weights.as_str(), losses.as_str()),
        (WEIGHTS, LOSSES),
        "trained model moved (losses {:?})",
        report.epoch_loss
    );
}
