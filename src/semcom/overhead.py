"""Communication-overhead accounting.

Overhead is counted in channel symbols (channel uses): continuous
semantic streaming costs L x N_f, gated streaming costs L x N_t, and the
MPEG-4 reference costs N_b / log2(1 + 10^(gamma/10)) channel uses at SNR
gamma over a 1 Hz AWGN channel.

The reference scenario uses a 110 MiB video (922,746,880 bits) of 29,640
frames yielding 1,852 feature frames of 4,840 symbols, with 36 gated
uploads.
"""
from __future__ import annotations

import json
import math
import sys

REFERENCE_L = 4840
REFERENCE_N_F = 1852
REFERENCE_N_T = 36
REFERENCE_N_B = 110 * 1024 * 1024 * 8   # 110 MiB video in bits
REFERENCE_SNR_GRID = (7.0, 13.0, 19.0, 25.0)


def c_sc(L, n_f):
    """Symbols for continuous semantic streaming: L x N_f."""
    if L < 0 or n_f < 0:
        raise ValueError("c_sc arguments must be >= 0")
    return int(L) * int(n_f)


def c_tc(L, n_t):
    """Symbols under transmission control: L x N_t."""
    if L < 0 or n_t < 0:
        raise ValueError("c_tc arguments must be >= 0")
    return int(L) * int(n_t)


def c_mpeg(n_b, gamma_db):
    """Channel uses to push n_b bits through a 1 Hz AWGN channel at gamma dB."""
    if n_b < 0:
        raise ValueError("n_b must be >= 0")
    return n_b / math.log2(1.0 + 10.0 ** (gamma_db / 10.0))


def report(n_f, n_t=0, L=REFERENCE_L, n_b=0, raw_symbols=0,
           scenario="simulation"):
    """Overhead table as a JSON-ready dict.

    L: symbols per video feature frame; n_f: feature frames available;
    n_t: feature uploads actually commanded; n_b: reference compressed
    video size in bits; raw_symbols: accelerometer symbols sent. MPEG
    rows, one per REFERENCE_SNR_GRID entry, appear only when n_b > 0.
    """
    for name, value in (("L", L), ("n_f", n_f), ("n_t", n_t), ("n_b", n_b),
                        ("raw_symbols", raw_symbols)):
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
        if value > sys.float_info.max:
            raise ValueError(f"{name} is beyond float64's range")
    rows = []
    if n_b > 0:
        for snr in REFERENCE_SNR_GRID:
            rows.append({
                "method": "MPEG-4",
                "snr_db": float(snr),
                "overhead_symbols": int(round(c_mpeg(n_b, snr))),
            })
    rows.append({"method": "HAR-SC", "overhead_symbols": c_sc(L, n_f)})
    rows.append({"method": "HAR-SC-TC", "overhead_symbols": c_tc(L, n_t)})
    return {
        "scenario": scenario,
        "L": L,
        "N_f": n_f,
        "N_t": n_t,
        "N_b": n_b,
        "raw_symbols": raw_symbols,
        "rows": rows,
    }


def reference_report():
    """The overhead table of the reference-scenario constants."""
    return report(REFERENCE_N_F, REFERENCE_N_T, REFERENCE_L, REFERENCE_N_B,
                  scenario="reference")


def reduction_vs_sc(rep):
    """Fractional overhead saved by gating: 1 - C_TC / C_SC."""
    by_method = {row["method"]: row["overhead_symbols"] for row in rep["rows"]}
    sc = by_method["HAR-SC"]
    if sc == 0:
        raise ValueError("HAR-SC overhead is zero; reduction undefined")
    return 1.0 - by_method["HAR-SC-TC"] / sc


def format_reduction_percent(reduction):
    """Percentage truncated (not rounded) to one decimal.

    The reference table quotes the gated-vs-continuous saving as 98.0%
    while the exact ratio is 98.056%; truncation reproduces that figure.
    """
    tenths = reduction * 1000.0
    if math.isinf(tenths):
        raise ValueError(f"a reduction of {reduction:g} has no float64 "
                         f"percentage")
    return f"{math.floor(tenths) / 10.0:.1f}%"


def format_table(rep):
    """Aligned text rendering of a report dict."""
    lines = [f"scenario: {rep['scenario']}",
             f"L={rep['L']}  N_f={rep['N_f']}  N_t={rep['N_t']}  N_b={rep['N_b']}",
             f"{'method':<10} {'SNR (dB)':>8} {'overhead (symbols)':>20}"]
    for row in rep["rows"]:
        snr = f"{row['snr_db']:.0f}" if "snr_db" in row else "-"
        lines.append(f"{row['method']:<10} {snr:>8} {row['overhead_symbols']:>20,}")
    return "\n".join(lines)


def to_json(rep):
    return json.dumps(rep, indent=2, sort_keys=True)
