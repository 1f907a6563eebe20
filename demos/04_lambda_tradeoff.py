"""Walk the fairness-weight grid and print the accuracy/fairness trade-off.

One row per (lambda_ifc, lambda_fc) pair, trained independently from the
same seed; the same table comes out of `fairint sweep` as tradeoff.csv.
The gaps do not fall steadily as the weights grow. On one run (Python
3.11, numpy 2.4) ddp reads 0.9756-0.9867 at every pair up to (2, 30),
then 0.5822 at (5, 40) and 0.1644 at (10, 50), where auc has fallen from
0.9480 to 0.8657 and 0.8503. As README's quick start explains, a
penalized model's gaps at the 0.5 threshold come from a score band
collapsed around 0.5, so a low gap here is not a fair ranking (ROADMAP
item 1).
"""

from fairint.data import split, synth_generate
from fairint.model import ModelConfig
from fairint.training import TrainConfig, sweep

dataset = split(synth_generate(n=6000, bias_strength=2.0, proxy_corr=0.8, seed=1),
                (0.7, 0.15, 0.15), seed=1)

base = TrainConfig(learning_rate=3e-3, batch_size=128, max_epochs=40, patience=40,
                   dropout=0.1, l2=1e-4, seed=0)

grid = [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0), (2.0, 30.0), (5.0, 40.0), (10.0, 50.0)]
points = sweep(dataset, ModelConfig(), base, grid)

print(f"{'l_ifc':>6} {'l_fc':>6} {'auc':>8} {'ddp':>8} {'deo':>8}")
for point in points:
    row = point.tradeoff_row()
    if row["auc"] is None:
        print(f"{row['lambda_ifc']:6g} {row['lambda_fc']:6g}   failed: {point.error}")
    else:
        print(f"{row['lambda_ifc']:6g} {row['lambda_fc']:6g} "
              f"{row['auc']:8.4f} {row['ddp']:8.4f} {row['deo']:8.4f}")
