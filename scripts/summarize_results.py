#!/usr/bin/env python3
"""Extracts headline numbers from results/*.json into a markdown summary.

Run after `cargo run --release -p apollo-bench --bin paper -- all`; the
output is pasted into EXPERIMENTS.md's measured sections (and kept in
results/summary.md for reference).
"""
import json
import os

R = os.path.join(os.path.dirname(__file__), "..", "results")


def load(name):
    path = os.path.join(R, name + ".json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def main():
    out = []

    t2 = load("table2_pretrain")
    if t2:
        sizes = sorted({c["size"] for c in t2}, key=lambda s: ["60M", "130M", "350M", "1B"].index(s))
        methods = []
        for c in t2:
            if c["method"] not in methods:
                methods.append(c["method"])
        out.append("## Table 2 (measured proxy ppl | paper-geometry memory)\n")
        out.append("| Method | " + " | ".join(sizes) + " |")
        out.append("|---" * (len(sizes) + 1) + "|")
        for m in methods:
            row = [m]
            for s in sizes:
                cell = next((c for c in t2 if c["method"] == m and c["size"] == s), None)
                row.append(f"{cell['ppl']:.2f} / {cell['memory_gib']:.2f}G" if cell else "—")
            out.append("| " + " | ".join(row) + " |")
        out.append("")

    t3 = load("table3_llama7b")
    if t3:
        out.append("## Table 3 (7B proxy)\n")
        for r in t3:
            cks = ", ".join(f"{s}:{p:.2f}" for s, p in r["checkpoints"])
            out.append(f"- {r['method']}: opt mem {r['optimizer_memory_gib']:.1f}G; ppl {cks}")
        out.append("")

    for name, title, fmt in [
        ("table4_commonsense", "Table 4 (commonsense accuracy %)", "avg"),
        ("table5_mmlu", "Table 5 (MMLU accuracy %)", "avg"),
    ]:
        t = load(name)
        if t:
            out.append(f"## {title}\n")
            for r in t:
                accs = ", ".join(f"{n}:{a:.1f}" for n, a in r["accuracies"])
                out.append(f"- {r['method']}: avg {r['average']:.2f} ({accs})")
            out.append("")

    t6 = load("table6_quantized")
    if t6:
        out.append("## Table 6 (quantized-weight training)\n")
        for size in ["60M", "130M", "350M"]:
            cells = [c for c in t6 if c["size"] == size]
            if cells:
                row = ", ".join(f"{c['method']}:{c['ppl']:.2f}" for c in cells)
                out.append(f"- {size}: {row}")
        out.append("")

    t7 = load("table7_granularity")
    if t7:
        out.append("## Table 7 (granularity)\n")
        for c in t7:
            out.append(f"- {c['method']}/{c['granularity']} {c['size']}: {c['ppl']:.2f}")
        out.append("")

    f5 = load("fig5_projection_rank")
    if f5:
        out.append("## Fig. 5 (SVD vs RP; rank sweep)\n")
        for p in f5:
            out.append(f"- {p['method']} r={p['rank']}: {p['ppl']:.2f}")
        out.append("")

    f3 = load("fig3_structured_lr")
    if f3:
        out.append("## Fig. 3\n")
        for l in f3:
            out.append(f"- {l['optimizer']}: final ppl {l['final_ppl']:.2f}")
        out.append("")

    f4 = load("fig4_ratio")
    if f4:
        out.append("## Fig. 4 (scaling-factor ratios vs √(r/n))\n")
        for r in f4:
            out.append(
                f"- {r['param']} r={r['rank']}: expected {r['expected']:.3f}, "
                f"measured {r['measured_mean']:.3f} [{r['measured_p10']:.3f}, {r['measured_p90']:.3f}]"
            )
        out.append("")

    f6 = load("fig6_curves")
    if f6:
        out.append("## Fig. 6 (curves)\n")
        for l in f6:
            pts = ", ".join(f"{s}:{p:.1f}" for s, p in l["eval_ppls"])
            out.append(f"- {l['optimizer']}: {pts}")
        out.append("")

    f7 = load("fig7_longcontext")
    if f7:
        out.append("## Fig. 7 (long context)\n")
        for r in f7:
            out.append(f"- {r['label']}: {r['final_ppl']:.2f}")
        out.append("")

    f9 = load("fig9_svd_spikes")
    if f9:
        g = f9["measured_proxy_galore_ms"]
        a = f9["measured_proxy_apollo_ms"]
        if g and a:
            med = lambda xs: sorted(xs)[len(xs) // 2]
            out.append("## Fig. 9 (measured step times, ms)\n")
            out.append(f"- GaLore: median {med(g):.0f}, max {max(g):.0f} (spike {max(g)/med(g):.1f}x)")
            out.append(f"- APOLLO: median {med(a):.0f}, max {max(a):.0f} (spike {max(a)/med(a):.1f}x)")
            out.append("")

    ab = load("ablations")
    if ab:
        out.append("## Ablations\n")
        for p in ab:
            out.append(f"- {p['sweep']}={p['value']:.3g}: ppl {p['ppl']:.2f}")
        out.append("")

    text = "\n".join(out)
    with open(os.path.join(R, "summary.md"), "w") as f:
        f.write(text)
    print(text)


if __name__ == "__main__":
    main()
