//! Training-pipeline integration tests: convergence, generalisation, and
//! the anti-shortcut effect of history dropout.

use adas_ml::{
    train, ControlTarget, Dataset, LstmPredictor, ModelSpec, StateFeatures, TrainConfig,
};
use adas_simulator::math::{atan, cos, sin};

/// A synthetic "controller" whose output depends on the state (distance,
/// speed, curvature) — learnable without history.
fn controller(rd: f64, v: f64, kappa: f64) -> ControlTarget {
    ControlTarget {
        accel: (0.06 * (rd - 30.0) - 0.4 * (v - 15.0)).clamp(-4.0, 2.0),
        steer: atan(2.7 * kappa),
    }
}

fn synthetic_dataset(episodes: usize, len: usize) -> Dataset {
    let mut data = Dataset::new();
    for e in 0..episodes {
        let mut states = Vec::new();
        let mut outs = Vec::new();
        let mut prev = ControlTarget::default();
        for t in 0..len {
            let phase = t as f64 * 0.04 + e as f64;
            let rd = 35.0 + 20.0 * sin(phase);
            let v = 15.0 + 3.0 * cos(phase * 0.7);
            let kappa = 0.0022 * sin(phase * 0.3);
            let out = controller(rd, v, kappa);
            states.push(StateFeatures {
                ego_speed: v,
                lead_distance: rd,
                closing_speed: (15.0 - v) * 0.5,
                left_line: 1.75,
                right_line: 1.75,
                curvature: kappa,
                heading: 0.0,
                prev_accel: prev.accel,
                prev_steer: prev.steer,
            });
            outs.push(out);
            prev = out;
        }
        data.add_episode(&states, &outs, 7);
    }
    data
}

fn eval_mse(model: &LstmPredictor, data: &Dataset) -> f64 {
    data.samples
        .iter()
        .map(|s| {
            let y = model.predict_window(&s.window);
            {
                let (e0, e1) = (y[0] - s.target[0], y[1] - s.target[1]);
                (e0 * e0 + e1 * e1) / 2.0
            }
        })
        .sum::<f64>()
        / data.len() as f64
}

#[test]
fn converges_and_generalises_to_unseen_episodes() {
    let train_data = synthetic_dataset(5, 200);
    let test_data = synthetic_dataset(2, 150); // different phases
    let mut model = LstmPredictor::new(ModelSpec {
        hidden1: 24,
        hidden2: 12,
        seed: 3,
    });
    let before = eval_mse(&model, &test_data);
    let _ = train(
        &mut model,
        &train_data,
        &TrainConfig {
            epochs: 6,
            ..TrainConfig::default()
        },
    );
    let after = eval_mse(&model, &test_data);
    assert!(
        after < before * 0.3,
        "no generalisation: {before} → {after}"
    );
}

#[test]
fn history_dropout_reduces_shortcut_reliance() {
    // Evaluate on data whose history features are zeroed: a model trained
    // WITH dropout must do much better there than one trained without.
    let train_data = synthetic_dataset(5, 200);
    let mut masked_eval = synthetic_dataset(2, 150);
    for s in &mut masked_eval.samples {
        for f in &mut s.window {
            let n = f.len();
            f[n - 2] = 0.0;
            f[n - 1] = 0.0;
        }
    }

    let spec = ModelSpec {
        hidden1: 24,
        hidden2: 12,
        seed: 3,
    };
    let mut with_dropout = LstmPredictor::new(spec);
    let mut without_dropout = LstmPredictor::new(spec);
    let base = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    let _ = train(&mut with_dropout, &train_data, &base);
    let _ = train(
        &mut without_dropout,
        &train_data,
        &TrainConfig {
            history_dropout: 0.0,
            ..base
        },
    );
    let masked_with = eval_mse(&with_dropout, &masked_eval);
    let masked_without = eval_mse(&without_dropout, &masked_eval);
    assert!(
        masked_with < masked_without,
        "dropout must help on masked eval: {masked_with} vs {masked_without}"
    );
}

#[test]
fn deterministic_training() {
    let data = synthetic_dataset(2, 120);
    let spec = ModelSpec {
        hidden1: 12,
        hidden2: 6,
        seed: 1,
    };
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    let mut a = LstmPredictor::new(spec);
    let mut b = LstmPredictor::new(spec);
    let ra = train(&mut a, &data, &cfg);
    let rb = train(&mut b, &data, &cfg);
    assert_eq!(ra.epoch_loss, rb.epoch_loss);
    assert_eq!(a, b);
}
