"""The programmable multi-standard RF receiver (paper Figs. 4-6).

Public surface: the :class:`Chip` (a fabricated receiver instance), the
64-bit :class:`ConfigWord` (= the secret key), the standards table, the
stimulus model and the performance measurement functions.
"""

from repro.receiver.chain import DigitalChain, ReceiverResult
from repro.receiver.config import FIELD_SPEC, KEY_BITS, ConfigWord, DigitalConfig
from repro.receiver.design import (
    NOMINAL_DESIGN,
    FrontEndDesign,
    NoiseDesign,
    ReceiverDesign,
    TankDesign,
    VglnaDesign,
)
from repro.receiver.performance import (
    DEFAULT_POWER_DBM,
    SEGMENT_RANGES,
    SFDR_DELTA_HZ,
    SFDR_POWER_DBM,
    DynamicRangePoint,
    GainSegment,
    dynamic_range_db,
    dynamic_range_sweep,
    measure_modulator_snr,
    measure_receiver_snr,
    measure_sfdr,
    modulator_output_spectrum,
    peak_snr,
    signal_band,
    stimulus_frequency,
)
from repro.receiver.receiver import Chip
from repro.receiver.sdm import ModulatorBlocks, ModulatorResult, oscillation_config
from repro.receiver.standards import STANDARDS, Standard, standard_by_index, standard_by_name
from repro.receiver.stimulus import Tone, ToneStimulus

__all__ = [
    "Chip",
    "ConfigWord",
    "DEFAULT_POWER_DBM",
    "DigitalChain",
    "DigitalConfig",
    "DynamicRangePoint",
    "FIELD_SPEC",
    "FrontEndDesign",
    "GainSegment",
    "KEY_BITS",
    "ModulatorBlocks",
    "ModulatorResult",
    "NOMINAL_DESIGN",
    "NoiseDesign",
    "ReceiverDesign",
    "ReceiverResult",
    "SEGMENT_RANGES",
    "SFDR_DELTA_HZ",
    "SFDR_POWER_DBM",
    "STANDARDS",
    "Standard",
    "TankDesign",
    "Tone",
    "ToneStimulus",
    "VglnaDesign",
    "dynamic_range_db",
    "dynamic_range_sweep",
    "measure_modulator_snr",
    "measure_receiver_snr",
    "measure_sfdr",
    "modulator_output_spectrum",
    "oscillation_config",
    "peak_snr",
    "signal_band",
    "standard_by_index",
    "standard_by_name",
    "stimulus_frequency",
]
