"""Generator-coroutine simulated processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Union, cast

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

#: The generator protocol processes implement.  The yield type is
#: deliberately ``object`` rather than ``Event``: yielding a non-event is
#: a guarded *runtime* error path (``_resume`` throws ``SimulationError``
#: into the offender), and declaring ``Event`` here would tell a type
#: checker that path cannot happen.
ProcessGenerator = Generator[object, object, object]


class _Trigger:
    """A minimal resume token quacking like a processed :class:`Event`.

    :meth:`Process._resume` only reads ``_ok`` / ``_value`` (and marks
    ``_defused`` on failures), so bootstrap and same-instant resumptions
    don't need a real heap-scheduled Event — a three-slot record delivered
    via ``call_later`` carries the same information at a fraction of the
    allocation cost.
    """

    __slots__ = ("_ok", "_value", "_defused")

    def __init__(self, ok: bool, value: object) -> None:
        self._ok = ok
        self._value = value
        self._defused = False


#: Shared bootstrap token: every process starts by being sent ``None``,
#: and the success path never mutates the trigger, so one instance serves
#: all processes.
_BOOTSTRAP = _Trigger(True, None)


class Process(Event):
    """A simulated process driven by a Python generator.

    The generator yields :class:`Event` instances; the process sleeps until
    each yielded event is processed and is resumed with the event's value
    (or has the event's exception thrown into it on failure).  The process
    is itself an event that succeeds with the generator's return value,
    so processes can wait on one another.

    Use :meth:`interrupt` to throw an :class:`Interrupt` into a process
    that is waiting on an event.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                "Process requires a generator, got {!r}".format(type(generator))
            )
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off execution at the current instant.
        env.call_later(0.0, self._resume, _BOOTSTRAP)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", "process")
        return "<Process {} {}>".format(
            name, "alive" if self.is_alive else "finished"
        )

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def waiting_on(self) -> Optional[Event]:
        """The event this process is currently suspended on, if any."""
        return self._waiting_on

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The process must be alive.  If the process is waiting on an event,
        it is detached from it first; the event itself is not cancelled and
        may still occur (its value is simply discarded by this process).
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        waited = self._waiting_on
        if waited is not None and waited.callbacks is not None:
            try:
                waited.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self.env.call_later(0.0, self._resume, _Trigger(False, Interrupt(cause)))

    # -- internal -------------------------------------------------------

    def _resume(self, trigger: Union[Event, _Trigger]) -> None:
        self._waiting_on = None
        env = self.env
        previous = env._active_process
        env._active_process = self
        try:
            if trigger._ok:
                target = self._generator.send(trigger._value)
            else:
                trigger._defused = True
                target = self._generator.throw(cast(BaseException, trigger._value))
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except BaseException as exc:
            self.fail(exc)
            return
        finally:
            env._active_process = previous
        if not isinstance(target, Event):
            message = "process yielded a non-event: {!r}".format(target)
            try:
                self._generator.throw(SimulationError(message))
            except StopIteration as stop:
                self.succeed(getattr(stop, "value", None))
            except BaseException as exc:
                self.fail(exc)
            return
        if target.callbacks is None:
            # The event already happened; resume immediately (this keeps
            # `yield already_done_event` legal, matching SimPy semantics).
            if not target._ok:
                target._defused = True
            env.call_later(0.0, self._resume, _Trigger(bool(target._ok), target._value))
        else:
            self._waiting_on = target
            # A waiter exists, so a failure of `target` is handled by being
            # thrown into this process rather than crashing the event loop.
            target._defused = True
            target.callbacks.append(self._resume)
