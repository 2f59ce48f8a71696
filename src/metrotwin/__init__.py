"""Deterministic digital twin of a latency-aware metro optical ring.

Provisioning workflows, active latency probing and soft-failure drills run
as discrete events over an integer-nanosecond clock, so every experiment is
exactly reproducible from a scenario file and a seed.
"""

from .controlplane import (ConnectivityRequirements, KpiReport, NsDescriptor,
                           OrchestrationStack, PhaseTimings,
                           RestorationOutcome, ServiceRecord, ServiceStatus,
                           VnfDescriptor)
from .errors import TwinError
from .mda import (DegradationDetector, DegradationEvent, DetectorConfig,
                  SoftFailReport, anticipation_time, run_softfail_case)
from .optics import (AttenuationRamp, OpticalPlant, SignalModel,
                     TelemetrySample, ber_from_snr, rt_propagation_delay)
from .probe import (BudgetReport, LatencyMeasurement, ProbeConfig, fit_budget,
                    measure_round_trip)
from .scenario import RunReport, Scenario, load_scenario, run_scenario
from .simkernel import Kernel, SECOND, SimRng
from .topology import (FiberLink, OpticalPath, RingState, RingTopology,
                       Roadm, Transponder, TransponderNode, TransponderState,
                       build_ring)

__version__ = "0.1.0"

__all__ = [
    "AttenuationRamp", "BudgetReport", "ConnectivityRequirements", "DegradationDetector", "DegradationEvent",
    "DetectorConfig", "FiberLink", "Kernel", "KpiReport", "LatencyMeasurement",
    "NsDescriptor", "OpticalPath", "OpticalPlant", "OrchestrationStack",
    "PhaseTimings", "ProbeConfig", "RestorationOutcome", "RingState",
    "RingTopology", "Roadm", "RunReport", "SECOND", "Scenario",
    "ServiceRecord", "ServiceStatus", "SignalModel", "SimRng",
    "SoftFailReport", "TelemetrySample", "Transponder", "TransponderNode",
    "TransponderState", "TwinError", "VnfDescriptor", "anticipation_time",
    "ber_from_snr", "build_ring", "fit_budget", "load_scenario",
    "measure_round_trip",
    "rt_propagation_delay", "run_scenario", "run_softfail_case",
    "__version__",
]
