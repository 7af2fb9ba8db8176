//! The group BPTT oracle: `train::backprop_group` — a panel of samples as
//! the lanes, a taped tile-kernel forward, transposed-weight input
//! gradients and one deferred weight-gradient product per group — must
//! return bit for bit the loss and the six gradient tensors of the
//! per-sample scalar BPTT in `reference` for each group, at every group
//! width and for panels of two groups, with any mix of history-dropout
//! masks, on the portable and the dispatched kernel build.

mod reference;

use adas_ml::linear::Kernel;
use adas_ml::train::{
    backprop_group, group_gradients, Gradients, GroupScratch, Transposed, GRAD_GROUP, PANEL,
};
use adas_ml::{LstmPredictor, ModelSpec, Sample, FEATURE_DIM, WINDOW};
use adas_simulator::math::{cos, sin};

/// Distinct samples, spread over several decades so a reordered sum shows
/// up in the low bits.
fn samples(count: usize) -> Vec<Sample> {
    (0..count)
        .map(|s| Sample {
            window: (0..WINDOW)
                .map(|t| {
                    std::array::from_fn(|c| {
                        let i = (s * WINDOW + t) * FEATURE_DIM + c;
                        sin(i as f64 * 0.377 + s as f64) * [0.1, 1.0, 10.0][i % 3]
                    })
                })
                .collect(),
            target: [cos(s as f64 * 0.9) * 0.4, sin(s as f64 * 1.3) * 0.3],
        })
        .collect()
}

fn assert_bitwise(got: &Gradients, want: &Gradients, what: &str) {
    for (name, g, w) in [
        ("l1w", &got.l1w, &want.l1w),
        ("l1b", &got.l1b, &want.l1b),
        ("l2w", &got.l2w, &want.l2w),
        ("l2b", &got.l2b, &want.l2b),
        ("hw", &got.hw, &want.hw),
        ("hb", &got.hb, &want.hb),
    ] {
        assert_eq!(g.len(), w.len(), "{what}: {name} length");
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: {name}[{i}] {a} vs reference {b}"
            );
        }
    }
}

/// The portable build, and the dispatched one (AVX where the CPU has it),
/// with a name for failure messages.
fn builds() -> [(Kernel, &'static str); 2] {
    let detected = Kernel::detect();
    let name = if detected.is_avx() {
        "avx"
    } else {
        "portable (no AVX)"
    };
    [(Kernel::PORTABLE, "portable"), (detected, name)]
}

/// Two shapes: the 4-row tiles' row remainders and ragged lane tails
/// differ between them in every product.
const SPECS: [ModelSpec; 2] = [
    ModelSpec {
        hidden1: 12,
        hidden2: 6,
        seed: 3,
    },
    ModelSpec {
        hidden1: 5,
        hidden2: 3,
        seed: 4,
    },
];

#[test]
fn group_bptt_bitwise_matches_the_per_sample_reference() {
    let data = samples(8);
    for spec in SPECS {
        let model = LstmPredictor::new(spec);
        for width in 1..=4 {
            for (pattern, masks) in [
                ("mixed", [true, false, false, true]),
                ("inverse", [false, true, true, false]),
            ] {
                let group: Vec<(&Sample, bool)> =
                    data[width..2 * width].iter().zip(masks).collect();
                let (want_loss, want) = reference::group(&model, &group);
                for (kernel, build) in builds() {
                    let what = format!("{spec:?}, width {width}, {pattern} masks, {build}");
                    let (loss, got) = group_gradients(&model, kernel, &group);
                    assert_eq!(
                        loss.to_bits(),
                        want_loss.to_bits(),
                        "{what}: loss {loss} vs {want_loss}"
                    );
                    assert_bitwise(&got, &want, &what);
                }
            }
        }
    }
}

#[test]
fn each_group_of_a_panel_bitwise_matches_the_group_alone_and_the_reference() {
    let data = samples(PANEL);
    // Full (4 + 4) and ragged (4 + 2, 4 + 1) second groups; the masks
    // differ between the groups and within each.
    let masks = [true, false, false, true, false, true, true, false];
    for spec in SPECS {
        let model = LstmPredictor::new(spec);
        let transposed = Transposed::new(&model);
        for width in [8, 6, 5] {
            let panel: Vec<(&Sample, bool)> = data[..width].iter().zip(masks).collect();
            let groups = width.div_ceil(GRAD_GROUP);
            assert_eq!(groups, 2, "width {width}");
            for (kernel, build) in builds() {
                let mut grads = vec![Gradients::zeros(&model); groups];
                let mut losses = vec![f64::NAN; groups];
                backprop_group(
                    &model,
                    &transposed,
                    &panel,
                    &mut GroupScratch::new(kernel),
                    &mut grads,
                    &mut losses,
                );
                for (g, group) in panel.chunks(GRAD_GROUP).enumerate() {
                    let what = format!("{spec:?}, panel of {width}, group {g}, {build}");
                    let (alone_loss, alone) = group_gradients(&model, kernel, group);
                    let (want_loss, want) = reference::group(&model, group);
                    for (other, other_loss, name) in [
                        (&alone, alone_loss, "the group alone"),
                        (&want, want_loss, "the reference"),
                    ] {
                        assert_eq!(
                            losses[g].to_bits(),
                            other_loss.to_bits(),
                            "{what}: loss {} vs {name} {other_loss}",
                            losses[g]
                        );
                        assert_bitwise(&grads[g], other, &format!("{what} vs {name}"));
                    }
                }
            }
        }
    }
}

#[test]
fn the_forward_matches_the_reference_outputs() {
    // Guards the oracle itself: its forward is the deployed inference.
    let model = LstmPredictor::new(ModelSpec {
        hidden1: 12,
        hidden2: 6,
        seed: 8,
    });
    let mut scratch = reference::Scratch::default();
    for sample in samples(3) {
        let want = reference::forward(&model, &sample.window, &mut scratch);
        let got = model.predict_window(&sample.window);
        for k in 0..want.len() {
            assert_eq!(got[k].to_bits(), want[k].to_bits(), "output {k}");
        }
    }
}

#[test]
#[should_panic(expected = "same length")]
fn a_group_with_windows_of_different_lengths_is_refused() {
    let data = samples(2);
    let mut short = data[1].clone();
    short.window.pop();
    let model = LstmPredictor::new(ModelSpec {
        hidden1: 4,
        hidden2: 2,
        seed: 1,
    });
    let _ = group_gradients(
        &model,
        Kernel::detect(),
        &[(&data[0], false), (&short, false)],
    );
}
