"""A warm interpreter that runs one Python script once per ask, each run a fork of itself.

``SemigroupHandle._evolve_external`` starts it as::

    PYTHON _worker.py ASKS REPLIES SCRIPT [ARG...]

with an ask's environment and standard streams, where PYTHON is the
interpreter that the audited command names and ASKS and REPLIES are pipe
descriptors.  Start-up (``site`` included) is done once; the worker then
sets ``sys.path[0]`` as ``python SCRIPT`` would and imports nothing else.

An ask is one line on ASKS: the input path, the elapsed time and the output
path, each as the hex digits of its ``os.fsencode``.  For each ask the worker
forks.  The child runs SCRIPT as ``__main__`` with ``sys.argv`` set to
``[SCRIPT, ARG..., IN, T, OUT]`` and ends through the interpreter's own
exit, so it exits as a fresh ``python SCRIPT ARG... IN T OUT`` would.  The
worker replies with one line, the child's exit status as ``subprocess``
reports one.  SIGTERM makes the worker kill the ask in flight and fork no
other.  A child is reaped only when the next ask or the end of ASKS arrives,
so the pid that SIGTERM kills is never another process's.  At the end of
ASKS the worker exits; if it cannot write a reply, it kills and reaps its
child and exits 1.
"""

import builtins
import os
import sys

import _signal

child = 0  # the last ask's process, until it is reaped
stopping = False  # set by SIGTERM: fork no other ask


def serve(asks: int, replies: int) -> list[str]:
    """Fork once per ask; in the child, return the ask's three arguments.  The worker never returns."""
    global child
    while True:
        line = b""
        while not line.endswith(b"\n"):
            chunk = os.read(asks, 65536)
            if not chunk:
                break
            line += chunk
        # SIGTERM waits from here until the new child is known, so that stop() kills it.
        _signal.pthread_sigmask(_signal.SIG_BLOCK, {_signal.SIGTERM})
        if child:
            os.waitpid(child, 0)
            child = 0
        if stopping or not line.endswith(b"\n"):
            os._exit(0)
        child = os.fork()
        if child == 0:
            os.close(asks)
            os.close(replies)
            return [os.fsdecode(bytes.fromhex(field)) for field in line.decode().split()]
        _signal.pthread_sigmask(_signal.SIG_UNBLOCK, {_signal.SIGTERM})
        try:
            info = os.waitid(os.P_PID, child, os.WEXITED | os.WNOWAIT)
            os.write(replies, b"%d\n" % (info.si_status if info.si_code == os.CLD_EXITED else -info.si_status))
        except OSError:  # the audit has stopped reading
            os.kill(child, _signal.SIGKILL)
            os.waitpid(child, 0)
            os._exit(1)


def stop(signum, frame) -> None:
    """SIGTERM: kill the ask in flight (an unreaped pid is still this worker's child) and fork no other."""
    global stopping
    stopping = True
    if child:
        os.kill(child, _signal.SIGKILL)


def run(script: str, argv: list[str]) -> None:
    """Run ``script`` as ``__main__`` with ``argv``, as ``python script`` does; an uncaught exception exits 1."""
    path = os.path.join(os.getcwd(), script)
    sys.argv = argv
    sys.orig_argv = [sys.orig_argv[0], *argv]
    main = type(sys)("__main__")
    # The names, in the order, that Python gives a script's module; this program's own
    # __loader__ is of the class Python gives a script.
    vars(main).update(__annotations__={}, __builtins__=builtins, __file__=path, __cached__=None)
    main.__loader__ = type(__loader__)("__main__", path)
    sys.modules["__main__"] = main
    code = None
    try:
        with open(script, "rb") as fh:
            code = compile(fh.read(), path, "exec", dont_inherit=True)
        exec(code, vars(main))
    except (SystemExit, KeyboardInterrupt):
        raise
    except BaseException as exc:
        # Shown from the script's own frame on, as Python shows an uncaught exception.
        tb = exc.__traceback__
        while tb is not None and tb.tb_frame.f_code is not code:
            tb = tb.tb_next
        sys.excepthook(type(exc), exc.with_traceback(tb), tb)
        raise SystemExit(1) from None


def main() -> None:
    asks, replies, script, args = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3], sys.argv[4:]
    if not getattr(sys.flags, "safe_path", False):
        sys.path[0] = os.path.dirname(os.path.realpath(script))
    # Ctrl-C reaches the asks, which share the audit's process group; the worker stays to reap them.
    handlers = {_signal.SIGINT: _signal.signal(_signal.SIGINT, _signal.SIG_IGN)}
    handlers[_signal.SIGTERM] = _signal.signal(_signal.SIGTERM, stop)
    mask = _signal.pthread_sigmask(_signal.SIG_BLOCK, ())
    ask = serve(asks, replies)
    for signum, handler in handlers.items():
        _signal.signal(signum, handler)
    _signal.pthread_sigmask(_signal.SIG_SETMASK, mask)
    run(script, [script, *args, *ask])


if __name__ == "__main__":
    main()
