"""Exception hierarchy shared across the twin."""


class TwinError(Exception):
    """Base class for all errors raised by this package."""


# -- simulation kernel ------------------------------------------------------

class SchedulingInPast(TwinError):
    """An event or horizon was requested at a virtual time before now()."""


class RunawaySimulation(TwinError):
    """Fired-event count exceeded the kernel's configured cap."""


# -- topology ---------------------------------------------------------------

class TopologyInvalid(TwinError):
    """Topology section violates ring/attachment invariants."""


class NoPath(TwinError):
    """No ring path exists between the requested endpoints."""


# -- optics -----------------------------------------------------------------

class RampConflict(TwinError):
    """A second attenuation ramp was applied to a link with an active one."""


class PathNotOperational(TwinError):
    """Operation requires a provisioned path with operational transponders."""


# -- control plane ----------------------------------------------------------

class IllegalTransition(TwinError):
    """A service was asked to make a forbidden state transition, or to start
    a ROADM programming while another runs."""


class IncompleteRecord(TwinError):
    """KPI computation asked for a service record that never went Active."""


# -- probe ------------------------------------------------------------------

class RankDeficient(TwinError):
    """Budget attribution matrix has linearly dependent columns."""


class Underdetermined(TwinError):
    """Fewer measurements than budget components."""


# -- monitoring -------------------------------------------------------------

class OutOfOrderSample(TwinError):
    """Telemetry sample arrived with a timestamp earlier than its predecessor."""


# -- scenario / cli ---------------------------------------------------------

class ParseError(TwinError):
    """Scenario document is not well-formed JSON."""


class ValidationError(TwinError):
    """Scenario document violates the schema; message names the key."""


class FieldInvalid(TwinError, ValueError):
    """A dataclass field breaks a rule; the message is "<field>: <rule>"."""
