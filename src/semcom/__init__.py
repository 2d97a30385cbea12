"""Task-oriented multi-modal communication simulator.

Low-rate posture results recovered from raw accelerometer uplinks gate
the transmission of high-rate video semantic features; both links run
over a symbol-level AWGN channel. See README.md for the CLI and the
acceptance suite.
"""

from .accel import Posture
from .channel import Channel, SymbolFrame, measured_snr
from .codec import Activity, CodecModel, VideoSegment, classify, decode, encode
from .controller import AckPolicy, ControlEvent, TransmissionController
from .forest import RandomForest, train_forest
from .overhead import OverheadLedger, c_mpeg, c_sc, c_tc
from .synthdata import Scenario, ScenarioStep

__all__ = [
    "Activity", "AckPolicy", "Channel", "CodecModel", "ControlEvent",
    "OverheadLedger", "Posture", "RandomForest", "Scenario", "ScenarioStep",
    "SymbolFrame", "TransmissionController", "VideoSegment", "c_mpeg", "c_sc",
    "c_tc", "classify", "decode", "encode", "measured_snr", "train_forest",
]
