//! Calibration probe: runs two scenarios (Run and Drive as the new class)
//! at moderate scale and prints the three-model accuracies, old-class
//! retention and update times — a fast sanity check that the simulated
//! data reproduces the paper's orderings before committing to the full
//! experiment suite.

use pilote_bench::scenario::{build_scenario, pretrain_base, run_arm};
use pilote_bench::Scale;
use pilote_core::Method;
use pilote_har_data::Activity;

fn main() {
    let per_activity: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    let scale = Scale { per_activity, rounds: 1, ..Scale::default() };
    for activity in [Activity::Run, Activity::Drive] {
        eprintln!("== scenario: new class {activity} (per-activity {per_activity}) ==");
        let scenario = build_scenario(activity, &scale, 1);
        let base = pretrain_base(scenario, &scale, 1);
        let n = scale.exemplars_per_class;

        let [r_pre, r_retr, r_pil] = [Method::Pretrained, Method::Retrained, Method::Pilote]
            .map(|method| run_arm(method, &mut base.model.clone_model(), &base.scenario, n, 11).0);

        println!("new={activity}");
        println!(
            "  pretrained acc {:.4} (old {:.4}, new {:.4})",
            r_pre.accuracy, r_pre.old_accuracy, r_pre.new_accuracy
        );
        println!(
            "  retrained  acc {:.4} (old {:.4}, new {:.4}) {:.0}s/{} epochs",
            r_retr.accuracy, r_retr.old_accuracy, r_retr.new_accuracy, r_retr.seconds, r_retr.epochs
        );
        println!(
            "  pilote     acc {:.4} (old {:.4}, new {:.4}) {:.0}s/{} epochs",
            r_pil.accuracy, r_pil.old_accuracy, r_pil.new_accuracy, r_pil.seconds, r_pil.epochs
        );
    }
}
