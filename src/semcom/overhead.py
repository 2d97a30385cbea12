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
from dataclasses import dataclass

REFERENCE_L = 4840
REFERENCE_N_F = 1852
REFERENCE_N_T = 36
REFERENCE_N_B = 110 * 1024 * 1024 * 8   # 110 MiB video in bits
REFERENCE_SNR_GRID = (7.0, 13.0, 19.0, 25.0)


@dataclass
class OverheadLedger:
    """Running counters for one simulation or scenario.

    L: symbols per video feature frame; n_f: feature frames available;
    n_t: feature uploads actually commanded; n_b: reference compressed
    video size in bits; raw_symbols: accelerometer symbols sent.
    """

    L: int = REFERENCE_L
    n_f: int = 0
    n_t: int = 0
    n_b: int = 0
    raw_symbols: int = 0

    def validate(self):
        for name in ("L", "n_f", "n_t", "n_b", "raw_symbols"):
            if getattr(self, name) < 0:
                raise ValueError(f"ledger counter {name} is negative")


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


def report(ledger, scenario="simulation"):
    """Overhead table as a JSON-ready dict.

    MPEG rows, one per REFERENCE_SNR_GRID entry, appear only when the
    ledger carries a reference video size.
    """
    ledger.validate()
    rows = []
    if ledger.n_b > 0:
        for snr in REFERENCE_SNR_GRID:
            rows.append({
                "method": "MPEG-4",
                "snr_db": float(snr),
                "overhead_symbols": int(round(c_mpeg(ledger.n_b, snr))),
            })
    rows.append({"method": "HAR-SC",
                 "overhead_symbols": c_sc(ledger.L, ledger.n_f)})
    rows.append({"method": "HAR-SC-TC",
                 "overhead_symbols": c_tc(ledger.L, ledger.n_t)})
    return {
        "scenario": scenario,
        "L": ledger.L,
        "N_f": ledger.n_f,
        "N_t": ledger.n_t,
        "N_b": ledger.n_b,
        "raw_symbols": ledger.raw_symbols,
        "rows": rows,
    }


def reference_report():
    """The overhead table of the reference-scenario constants."""
    return report(OverheadLedger(L=REFERENCE_L, n_f=REFERENCE_N_F,
                                 n_t=REFERENCE_N_T, n_b=REFERENCE_N_B),
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
    return f"{math.floor(reduction * 1000.0) / 10.0:.1f}%"


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
