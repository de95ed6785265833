"""Order statistics shared by the benchmark's reports."""


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def tail(samples) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and a note
    naming that percentile and the sample count."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], f"max of {n} samples"
    return s[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples"
