"""Forecasting a daily close series with the EMA baseline.

Historical-quote exports carry Date, Open, High, Low, Close, Volume and
Adj Close columns; the parser sorts rows into date order and predicts
Close from the remaining numeric fields. Here we synthesize a year of
quotes so the demo runs without any download.
"""

import tempfile
from pathlib import Path

from driftnet.evaluation import ExperimentConfig, run_experiment, summarize
from driftnet.prng import make_rng
from driftnet.streams import parse_yahoo_csv

rng = make_rng(777)
rows = ["Date,Open,High,Low,Close,Volume,Adj Close"]
price = 50.0
for day in range(1, 253):
    month, dom = 1 + (day - 1) // 21, 1 + (day - 1) % 21
    drift_term = 0.3 if day < 126 else -0.2  # bull half, bear half
    price = max(price + drift_term + 2.0 * float(rng.normal()), 5.0)
    o = price * (1 + 0.01 * float(rng.normal()))
    hi = max(o, price) * 1.01
    lo = min(o, price) * 0.99
    volume = int(1e6 * (1 + 0.3 * float(rng.random())))
    rows.append(f"2001-{month:02d}-{dom:02d},{o:.2f},{hi:.2f},{lo:.2f},"
                f"{price:.2f},{volume},{price:.2f}")

with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "quotes.csv"
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    parsed = parse_yahoo_csv(csv_path.read_text(encoding="utf-8"))
    print(f"parsed {len(parsed)} trading days, "
          f"first close {parsed[0].y:.2f}, last close {parsed[-1].y:.2f}")

    config = ExperimentConfig(
        algorithm="single_learner", learner="ema", ema_window=5,
        data_path=str(csv_path), data_format="yahoo",
        report_every=50, window_size=50, seeds=(1,),
        record_timing=False)
    results = run_experiment(config)

print("\nwindowed RMSE of the 5-day EMA forecast (50-day windows):")
for _, index, mean, stdev, n in summarize(results):
    print(f"  through day {index:3d}: {mean:.3f}")
