"""Optional static plot artifacts. Requires matplotlib (extra ``plots``)."""

from __future__ import annotations

import os

from ..errors import ConfigError


def pyplot():
    """matplotlib.pyplot on the Agg backend, or a ConfigError if matplotlib is missing."""
    try:
        import matplotlib
    except ImportError:
        raise ConfigError("--plots needs matplotlib, which is not installed "
                          "(install the 'plots' extra)") from None
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    return plt


def plot_eigen_spectra(summaries: dict, out_dir: str) -> list[str]:
    """Normalized eigenvalue spectra per scenario, one semilog figure."""
    plt = pyplot()
    fig, ax = plt.subplots(figsize=(6, 4))
    for sid, summary in summaries.items():
        ax.semilogy(range(1, len(summary.normalized_eigenvalues) + 1),
                    summary.normalized_eigenvalues, marker=".", label=sid)
    ax.set_xlabel("eigenvalue index")
    ax.set_ylabel("normalized eigenvalue")
    ax.set_title("Clutter covariance spectra")
    ax.legend()
    ax.grid(True, which="both", alpha=0.3)
    path = os.path.join(out_dir, "eigen_spectra.png")
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)
    return [path]


def plot_scan_curve(curves: dict, xlabel: str, ylabel: str,
                    name: str, out_dir: str) -> list[str]:
    """One line per label of ``curves``, which maps it to its (xs, ys), in that order."""
    plt = pyplot()
    fig, ax = plt.subplots(figsize=(6, 4))
    for label, (xs, ys) in curves.items():
        ax.plot(xs, ys, marker="o", label=label)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.legend()
    ax.grid(True, alpha=0.3)
    path = os.path.join(out_dir, f"{name}.png")
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    plt.close(fig)
    return [path]
