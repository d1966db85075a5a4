"""Peak resident set size of the running process."""


def peak_rss_mb() -> float:
    """VmHWM from /proc, in MB.

    getrusage's ru_maxrss is not used: on Linux it also counts the memory
    of the process that spawned this one, up to its exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")
