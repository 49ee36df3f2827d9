#!/usr/bin/env python3
"""Fills EXPERIMENTS.md placeholders from the JSON files in results/.

Usage: python3 scripts/fill_experiments.py [results_dir]
Idempotent: placeholders are HTML comments that survive filling, and each
fill replaces the section between the marker and the next blank line.
"""
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "results"
DOC = ROOT / "EXPERIMENTS.md"


def load(name):
    path = RESULTS / name
    if not path.exists():
        return None
    return json.loads(path.read_text())


def table(headers, rows):
    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def fill(text, marker, content):
    if content is None:
        return text
    # Markers count only at the start of a line, so prose that names one
    # (the provenance section) is left alone.
    pattern = re.compile(rf"^(<!-- {marker} -->)(.*?)(?=\n\n|\Z)", re.S | re.M)
    return pattern.sub(lambda m: m.group(1) + "\n" + content, text)


def main():
    text = DOC.read_text()

    t2 = load("table2.json")
    if t2:
        rows = [
            (
                r["new_class"],
                f"{r['pretrained']:.4f}",
                f"{r['retrained_mean']:.4f}±{r['retrained_std']:.4f}",
                f"{r['pilote_mean']:.4f}±{r['pilote_std']:.4f}",
            )
            for r in t2
        ]
        text = fill(text, "TABLE2_MEASURED", table(["New class", "Pre-trained", "Re-trained", "PILOTE"], rows))

    f4 = load("fig4.json")
    if f4:
        rows = [
            (
                name,
                f"{f4[key]['accuracy']:.4f}",
                f"{f4[key]['walk_recall']:.4f}",
                f"{f4[key]['run_recall']:.4f}",
                f"{f4[key]['run_precision']:.4f}",
            )
            for name, key in [("pre-trained", "pretrained"), ("re-trained", "retrained"), ("PILOTE", "pilote")]
        ]
        text = fill(
            text,
            "FIG4_MEASURED",
            table(["model", "accuracy", "Walk recall", "Run recall", "Run precision"], rows),
        )

    f5 = load("fig5.json")
    if f5:
        rows = [
            (name, f"{f5[key]['separation']:.3f}", f"{f5[key]['run_walk']:.3f}")
            for name, key in [("pre-trained", "pretrained"), ("re-trained", "retrained"), ("PILOTE", "pilote")]
        ]
        text = fill(text, "FIG5_MEASURED", table(["model", "global separation", "Run vs Walk"], rows))

    f6 = load("fig6.json")
    if f6:
        rows = [
            (p["strategy"], p["budget"], f"{p['pretrained']:.4f}", f"{p['retrained']:.4f}", f"{p['pilote']:.4f}")
            for p in f6
        ]
        text = fill(
            text,
            "FIG6_MEASURED",
            table(["selection", "exemplars/class", "Pre-trained", "Re-trained", "PILOTE"], rows),
        )

    f7 = load("fig7.json")
    if f7:
        rows = [
            (p["new_exemplars"], f"{p['pretrained']:.4f}", f"{p['retrained']:.4f}", f"{p['pilote']:.4f}")
            for p in f7
        ]
        text = fill(text, "FIG7_MEASURED", table(["Run exemplars", "Pre-trained", "Re-trained", "PILOTE"], rows))

    tm = load("timing.json")
    if tm:
        rows = [
            ("update epochs", tm["epochs"]),
            ("epoch wall-time (host)", f"{tm['epoch_seconds_host']:.3f} s"),
            ("accuracy after update", f"{tm['accuracy']:.4f}"),
            ("support set, f32", f"{tm['support_bytes_f32'] / 1000:.0f} KB"),
            ("support set, i8 quantised", f"{tm['support_bytes_i8'] / 1000:.0f} KB"),
            ("model parameters", f"{tm['model_param_bytes'] / 1e6:.2f} MB"),
        ]
        text = fill(text, "TIMING_MEASURED", table(["quantity", "measured"], rows))

    aa = load("ablate_alpha.json")
    if aa:
        rows = [(f"{r['alpha']:.2f}", f"{r['accuracy']:.4f}", f"{r['old_accuracy']:.4f}") for r in aa]
        text = fill(text, "ALPHA_MEASURED", table(["α", "accuracy", "old-class accuracy"], rows))

    am = load("ablate_margin.json")
    if am:
        rows = [(r["config"], f"{r['accuracy']:.4f}") for r in am]
        text = fill(text, "MARGIN_MEASURED", table(["configuration", "accuracy"], rows))

    ap = load("ablate_pairs.json")
    if ap:
        rows = [(r["scheme"], f"{r['accuracy']:.4f}", f"{r['seconds']:.1f} s") for r in ap]
        text = fill(text, "PAIRS_MEASURED", table(["scheme", "accuracy", "update time"], rows))

    asr = load("ablate_strategies.json")
    if asr:
        rows = [
            (r["strategy"], f"{r['accuracy']:.4f}", f"{r['old_accuracy']:.4f}", f"{r['new_accuracy']:.4f}")
            for r in asr
        ]
        text = fill(
            text,
            "STRATEGIES_MEASURED",
            table(["strategy", "accuracy", "old-class acc", "new-class acc"], rows),
        )

    cv = load("cloud_vs_edge.json")
    if cv:
        rows = [
            (r["link"], f"{r['cloud_seconds_per_day']:.0f} s/day", f"{r['edge_bootstrap_seconds']:.2f} s once")
            for r in cv
        ]
        text = fill(text, "CLOUD_MEASURED", table(["link", "cloud loop", "edge bootstrap"], rows))

    DOC.write_text(text)
    print("EXPERIMENTS.md updated from", RESULTS)


if __name__ == "__main__":
    main()
