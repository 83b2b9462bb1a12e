"""SABER Module-LWR PKE on simulated memristor crossbars.

Layers, bottom-up: exact ring arithmetic (`ring`), multiplication algorithms
(`polymult`), the PKE itself (`pke`), the functional crossbar simulator
(`xbar`), precision/scheduling planning (`schedule`), shift-and-add crossbars
(`sac`), the energy/latency/area model (`costmodel`), and experiment
orchestration plus the CLI (`experiments`, `cli`).
"""

from .params import RingParams, DEFAULT_PARAMS
from .ring import Poly
from .polymult import MultAlgorithm, multiply, plan_for
from .pke import (PublicKey, SecretKey, Ciphertext, SoftwareBackend,
                  keygen, encrypt, decrypt, encode_message, decode_message,
                  frame_payload, check_frame)
from .xbar import (NoiseSpec, XbarBackend, NoisySampleBackend,
                   build_negacyclic_matrix, program_operand, crossbar_polymult)
from .schedule import (PrecisionMap, StaggeredSchedule, AdcAssignment,
                       required_bits, accumulate_coefficient, build_stagger,
                       assign_adcs)
from .sac import SacVariant, SacTree, TiaSpec, build_sac_tree, eval_sac
from .costmodel import (Operation, Architecture, ArchConfig, ComponentCatalog,
                        CostReport, adc_scale, estimate)
from .experiments import (ExperimentConfig, run_verify, run_noise, run_sweep,
                          run_roundtrips)

__version__ = "0.1.0"
